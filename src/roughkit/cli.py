"""Command-line surface: signatures, integrals, and RDE solves.

Inputs are path CSVs and JSON specs; outputs are JSON reports and CSV
tables, all deterministic: the same inputs produce byte-identical files.
Reports carry "schema": "roughkit/1"; floats are emitted in Python repr
form, the shortest string that round-trips exactly.

Exit codes: 0 success, 1 non-convergence, 2 input error, 3 certificate
failure under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .funcs import FieldSpecError, LipFunction, PolyMap, field_from_json
from .integrate import RegularityError, _check_gamma, compose_integrand, rough_integral
from .oneform import OneFormPath, closed_lift_form
from .path import (
    PathFormatError,
    pure_area_path,
    read_path_csv,
    signature,
    write_solution_csv,
)
from .rde import RdeProblem, solve
from .tensor import DimensionMismatchError

__all__ = ["main"]

SCHEMA = "roughkit/1"


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and not math.isfinite(x):
        # JSON has no inf/nan; stringify so reports stay parseable
        return repr(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit_json(obj: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FieldSpecError(f"{path}: not valid JSON ({exc})") from exc


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip()])
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {text!r}: {exc}") from exc


def _check_radius(radius: float) -> None:
    # --radius is read by nothing; it is still refused out of range
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")


def _driver_from_args(args) -> tuple:
    """Build (driver, start); either a lifted CSV polyline or a pure-area path.

    The driver carries the declared p.  The lift keeps increments only, so
    the sample's start point rides along for operations that need absolute
    coordinates.
    """
    if args.p is not None and not math.isfinite(args.p):
        raise ValueError(f"p must be finite, got {args.p}")
    if args.pure_area is not None:
        p = args.p if args.p is not None else 2.0
        if int(p) != 2:
            raise ValueError("pure-area drivers live at level 2; need [p] = 2")
        driver = pure_area_path(args.pure_area, args.steps)
        return dataclasses.replace(driver, p=p), np.zeros(2)
    if args.path is None:
        raise ValueError("need a path CSV or --pure-area")
    p = args.p if args.p is not None else 3.0
    if p < 1.0:
        raise ValueError(f"p must be at least 1, got {p}")
    path = read_path_csv(args.path)
    return signature(path, max(1, int(p)), p=p), path.values[0]


def cmd_signature(args) -> int:
    path = read_path_csv(args.path)
    level = args.level
    lifted = signature(path, level)
    length = path.length()
    levels = {}
    decay = []
    for k in range(1, level + 1):
        block = lifted.levels[k][-1]
        norm = float(np.linalg.norm(block))
        levels[str(k)] = block
        ratio = (
            norm * math.factorial(k) / length**k if length > 0 else math.inf
        )
        decay.append({"level": k, "norm": norm, "ratio": ratio})
    _emit_json(
        {
            "schema": SCHEMA,
            "command": "signature",
            "dim": path.dim,
            "level": level,
            "num_points": int(path.times.size),
            "length": length,
            "levels": levels,
            "decay_table": decay,
        },
        args.out,
    )
    return 0


def cmd_integrate(args) -> int:
    driver, start = _driver_from_args(args)
    fmap = field_from_json(_load_json(args.form))
    if len(fmap.out_shape) != 2 or fmap.out_shape[1] != driver.dim:
        raise FieldSpecError(
            f"form output {fmap.out_shape} cannot pair with a dim-"
            f"{driver.dim} driver; need shape (w, {driver.dim})"
        )
    if fmap.in_dim != driver.dim:
        raise FieldSpecError(
            f"form domain {fmap.in_dim} must match the driver dimension "
            f"{driver.dim}"
        )
    # every exponent and radius refusal comes before any form or control is built
    f = LipFunction(fmap, gamma=args.gamma)
    _check_radius(args.radius)
    convergent = _check_gamma(f.gamma, driver.p)
    if isinstance(fmap, PolyMap) and fmap.degree <= driver.level - 1:
        beta = closed_lift_form(fmap, driver, start)
        route = "closed-lift"
    else:
        identity = OneFormPath.constant_linear(driver, np.eye(driver.dim))
        beta = compose_integrand(f, driver.positions(start), identity)
        route = "taylor"
    from .path import control_from_pvar

    omega = control_from_pvar(driver)
    result = rough_integral(beta)
    norm = beta.operator_norm(f.gamma, omega)
    certified = bool(np.isfinite(norm) and convergent)
    _emit_json(
        {
            "schema": SCHEMA,
            "command": "integrate",
            "p": driver.p,
            "gamma": f.gamma,
            "route": route,
            "total": result.total,
            "discrepancy": result.discrepancy,
            "operator_norm": norm,
            "certified": certified,
            "uncertified": not certified,
        },
        args.out,
    )
    return 0


def cmd_solve(args) -> int:
    driver, _ = _driver_from_args(args)
    fmap = field_from_json(_load_json(args.field))
    field = LipFunction(fmap, gamma=args.gamma)
    _check_radius(args.radius)
    xi = _parse_vector(args.xi)
    problem = RdeProblem(
        driver,
        field,
        xi=xi,
        tol=args.tol,
        n_max=args.n_max,
    )
    sol = solve(problem, auto_rescale=not args.no_rescale)
    if args.out_csv is not None:
        write_solution_csv(args.out_csv, sol.times, sol.positions)
    if args.decay_csv is not None:
        with open(args.decay_csv, "w") as fh:
            fh.write("n,delta,bound\n")
            for n, delta, bound in sol.report.rows():
                b = repr(bound) if math.isfinite(bound) else ""
                fh.write(f"{n + 1},{delta!r},{b}\n")
    cert = sol.certificate
    _emit_json(
        {
            "schema": SCHEMA,
            "command": "solve",
            "p": driver.p,
            "gamma": field.gamma,
            "converged": sol.converged,
            "message": sol.message,
            "iterations": sol.iterations,
            "delta_norms": list(sol.report.deltas),
            "delta_ratios": list(sol.report.ratios),
            "fitted_C": sol.report.fitted_C,
            "form_error_bar": sol.form_error_bar,
            "fixed_point_residual": sol.fixed_point_residual,
            "final_value": sol.positions[-1],
            "scale": sol.scale,
            "certificate": {
                "M": cert.M,
                "theta": cert.theta,
                "ok": cert.ok,
            },
        },
        args.report,
    )
    if not sol.converged:
        return 1
    if args.strict and not cert.ok:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughkit",
        description=(
            "Signatures, rough integrals, and controlled differential "
            "equations on sampled paths."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    driver = argparse.ArgumentParser(add_help=False)
    driver.add_argument("path", nargs="?", default=None, help="driver CSV")
    driver.add_argument("--pure-area", type=float, default=None, dest="pure_area")
    driver.add_argument("--steps", type=int, default=256, help="pure-area grid steps")
    driver.add_argument("--p", type=float, default=None, help="variation exponent")
    driver.add_argument("--radius", type=float, default=4.0,
                        help="checked to be finite and positive, then read by nothing")

    sig = sub.add_parser("signature", help="lift a path CSV to its signature")
    sig.add_argument("path", help="CSV with header t,x1,..,xd")
    sig.add_argument("--level", type=int, required=True, help="truncation level")
    sig.add_argument("--out", default=None, help="write JSON here (default stdout)")
    sig.set_defaults(func=cmd_signature)

    integ = sub.add_parser(
        "integrate", parents=[driver], help="rough integral of a one-form"
    )
    integ.add_argument("--form", required=True, help="integrand JSON spec")
    integ.add_argument("--gamma", type=float, required=True, help="integrand regularity")
    integ.add_argument("--out", default=None, help="write JSON here (default stdout)")
    integ.set_defaults(func=cmd_integrate)

    slv = sub.add_parser(
        "solve", parents=[driver], help="solve dy = f(y) dx by Picard iteration"
    )
    slv.add_argument("--field", required=True, help="vector-field JSON spec")
    slv.add_argument("--xi", required=True, help="initial condition, comma separated")
    slv.add_argument("--gamma", type=float, required=True, help="field regularity")
    slv.add_argument("--tol", type=float, default=1e-10, help="stopping tolerance")
    slv.add_argument("--n-max", type=int, default=25, dest="n_max")
    slv.add_argument("--out-csv", default=None, dest="out_csv", help="solution CSV")
    slv.add_argument("--decay-csv", default=None, dest="decay_csv", help="decay table CSV")
    slv.add_argument("--report", default=None, help="report JSON (default stdout)")
    slv.add_argument("--strict", action="store_true", help="exit 3 if the certificate fails")
    slv.add_argument("--no-rescale", action="store_true", dest="no_rescale")
    slv.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PathFormatError as exc:
        line = f" (line {exc.line})" if exc.line is not None else ""
        print(f"roughkit: input error: {exc}{line}", file=sys.stderr)
        return 2
    except (
        FieldSpecError,
        RegularityError,
        DimensionMismatchError,
        FileNotFoundError,
        IsADirectoryError,
        ValueError,
    ) as exc:
        print(f"roughkit: input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
