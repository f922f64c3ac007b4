"""roughkit: signatures, cocyclic one-forms, and Picard-iteration RDE solving.

The layers, bottom to top:

- `tensor`: truncated tensor algebra over R^d with exact group operations.
- `path`: sampled paths, their signature lifts, and p-variation controls.
- `funcs`: smooth maps with exact derivatives and a regularity budget γ.
- `oneform`: one-forms indexed by two group points, operator norms, and
  domination certificates.
- `integrate`: the sewing construction for rough integrals, plus Young
  integration as the low-roughness special case.
- `rde`: Picard iteration for dy = f(y) dx, with factorial-decay reports,
  difference towers, and uniqueness / continuity probes.
- `cli`: the `roughkit` command (signature / integrate / solve).
"""

from .funcs import (
    FieldSpecError,
    LipFunction,
    PolyMap,
    SineField,
    divide,
    field_from_json,
)
from .integrate import (
    IntegralResult,
    RegularityError,
    compose_integrand,
    integrate_controlled,
    rough_integral,
    taylor_oneform,
    young_integral,
)
from .oneform import (
    DominationCertificate,
    OneFormPath,
    check_domination,
    closed_lift_form,
    integral_form_from_controlled,
)
from .path import (
    Control,
    PathFormatError,
    SampledPath,
    SampledRoughPath,
    control_from_pvar,
    p_variation,
    pure_area_path,
    read_path_csv,
    signature,
    write_path_csv,
    write_solution_csv,
)
from .rde import (
    ContinuityReport,
    DecayReport,
    RdeProblem,
    RdeSolution,
    TowerReport,
    UniquenessReport,
    continuity_probe,
    difference_tower,
    driver_distance,
    fit_decay,
    fixed_point_residual,
    rescale_problem,
    solve,
    uniqueness_probe,
)
from .tensor import (
    DimensionMismatchError,
    GroupElement,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuityReport",
    "Control",
    "DecayReport",
    "DimensionMismatchError",
    "DominationCertificate",
    "FieldSpecError",
    "GroupElement",
    "IntegralResult",
    "LipFunction",
    "OneFormPath",
    "PathFormatError",
    "PolyMap",
    "RdeProblem",
    "RdeSolution",
    "RegularityError",
    "SampledPath",
    "SampledRoughPath",
    "SineField",
    "TowerReport",
    "UniquenessReport",
    "check_domination",
    "closed_lift_form",
    "compose_integrand",
    "continuity_probe",
    "control_from_pvar",
    "difference_tower",
    "divide",
    "driver_distance",
    "field_from_json",
    "fit_decay",
    "fixed_point_residual",
    "integral_form_from_controlled",
    "integrate_controlled",
    "p_variation",
    "pure_area_path",
    "read_path_csv",
    "rescale_problem",
    "rough_integral",
    "signature",
    "solve",
    "taylor_oneform",
    "uniqueness_probe",
    "write_path_csv",
    "write_solution_csv",
    "young_integral",
    "__version__",
]
