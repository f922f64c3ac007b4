"""Picard iteration for controlled differential equations.

Solves dy = f(y) dx for a sampled rough driver x by iterating the
integral map: each step composes the vector field with the current
candidate, integrates the resulting one-form path, and measures the
operator-norm distance between consecutive integrand forms.  The
distance sequence exhibits factorial decay, which the solver fits and
reports; diagnostic towers and probes for uniqueness and continuity
live here as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .funcs import LipFunction, divide
from .integrate import (
    RegularityError,
    _check_gamma,
    _taylor_levels,
    compose_integrand,
    rough_integral,
)
from .oneform import (
    DominationCertificate,
    OneFormPath,
    _pair_quotient,
    batched_spectral_norms,
    check_domination,
    integral_form_from_controlled,
)
from .path import (
    Control,
    SampledRoughPath,
    _best_partition_sum,
    _powered_gauge,
    control_from_pvar,
)
from .tensor import DimensionMismatchError, split_matrix, sum_squares

__all__ = [
    "RdeProblem",
    "PicardState",
    "RdeSolution",
    "DecayReport",
    "TowerReport",
    "UniquenessReport",
    "ContinuityReport",
    "initial_state",
    "picard_step",
    "solve",
    "fit_decay",
    "rescale_problem",
    "fixed_point_form",
    "fixed_point_residual",
    "difference_tower",
    "uniqueness_probe",
    "continuity_probe",
    "driver_distance",
]

_PROBE_ROUNDS = 10
_PROBE_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class RdeProblem:
    """dy = f(y) dx with y_0 = xi, driven by a sampled rough path."""

    driver: SampledRoughPath
    field: LipFunction
    xi: np.ndarray
    control: Control | None = None
    tol: float = 1e-10
    n_max: int = 25
    norm_cap: float = 1e8

    def __post_init__(self) -> None:
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be non-negative, got {self.n_max}")
        if not self.norm_cap > 0.0:
            raise ValueError(f"norm_cap must be positive, got {self.norm_cap}")
        xi = np.asarray(self.xi, dtype=float).reshape(-1)
        if not xi.size:
            raise ValueError("initial condition is empty")
        if not np.all(np.isfinite(xi)):
            raise ValueError(f"initial condition must be finite, got {xi.tolist()}")
        object.__setattr__(self, "xi", xi)
        out_shape = self.field.map.out_shape
        if out_shape != (xi.size, self.driver.dim):
            raise ValueError(
                f"field must map R^{xi.size} to {xi.size}x{self.driver.dim} "
                f"matrices, got output shape {out_shape}"
            )
        if self.field.map.in_dim != xi.size:
            raise ValueError(
                f"field domain dimension {self.field.map.in_dim} does not "
                f"match initial condition of size {xi.size}"
            )
        if self.control is not None and not np.array_equal(self.control.times, self.driver.times):
            raise DimensionMismatchError("the control lives on another time grid than the driver")
        if not _check_gamma(self.field.gamma, self.driver.p):
            # level 2 is the dataclass's generated __init__, level 3 its caller
            warnings.warn(
                f"gamma={self.field.gamma} is in the band (p-1, p]: the integral "
                "map is defined but convergence of the iteration is not guaranteed",
                stacklevel=3,
            )

    @property
    def gamma(self) -> float:
        return self.field.gamma

    @property
    def state_dim(self) -> int:
        return self.xi.size

    @cached_property
    def omega(self) -> Control:
        if self.control is not None:
            return self.control
        return control_from_pvar(self.driver)

    def with_driver(self, driver: SampledRoughPath) -> "RdeProblem":
        """Same equation over a different driver; the control is rebuilt."""
        return replace(self, driver=driver, control=None)


@dataclass(frozen=True, eq=False)
class PicardState:
    """One iterate: candidate solution path and its integrand form."""

    n: int
    positions: np.ndarray
    form: OneFormPath
    delta: float | None = None
    sup_parts: tuple[float, ...] | None = None
    quot_parts: tuple[float, ...] | None = None

    def delta_at_scale(self, c: float, gamma: float) -> float | None:
        """The recorded distance re-weighed as if the driver were dilated by c.

        Dilation multiplies level k of the sup part by c^-k and, with the
        control rescaled by c^p, every difference quotient by c^-gamma.
        """
        if self.sup_parts is None:
            return self.delta
        sup = max(s * c ** -(k + 1) for k, s in enumerate(self.sup_parts))
        return sup + max(self.quot_parts) * c**-gamma


def initial_state(problem: RdeProblem) -> PicardState:
    """Constant candidate at xi with the zero solution form."""
    n = problem.driver.num_steps + 1
    positions = np.broadcast_to(problem.xi, (n, problem.state_dim)).copy()
    form = OneFormPath.zero(problem.driver, problem.state_dim)
    return PicardState(n=0, positions=positions, form=form)


def picard_step(state: PicardState, problem: RdeProblem) -> PicardState:
    """One application of the integral map, with the step distance.

    The distance is the operator norm of the form difference.  Its
    coefficients are differences of O(coefficient-scale) numbers, so they
    carry that scale's absolute rounding error; the quotient numerators
    are floored there to keep fine-pair controls from amplifying noise
    into the reported distance.
    """
    new_form = compose_integrand(problem.field, state.positions, state.form)
    integral = rough_integral(new_form)
    positions = problem.xi[None, :] + integral.values
    diff = new_form - state.form
    scale = max(
        max(float(np.max(np.abs(b))) for b in new_form.levels),
        max(float(np.max(np.abs(b))) for b in state.form.levels),
        1.0,
    )
    floor = 64.0 * np.finfo(float).eps * scale
    sups, quots, _ = diff.norm_components(
        problem.gamma, problem.omega, noise_floor=floor
    )
    delta = max(sups) + max(quots)
    return PicardState(
        n=state.n + 1,
        positions=positions,
        form=new_form,
        delta=delta,
        sup_parts=sups,
        quot_parts=quots,
    )


@dataclass(frozen=True)
class DecayReport:
    """Distance sequence of the iteration against its factorial envelope.

    deltas[n] is the operator-norm distance between integrand forms n+1
    and n.  For n >= bracket_p the model bound is C^(n-[p]) divided by
    ((n-[p])/p)!; fitted_C is the least-squares fit of C over the tail.
    """

    deltas: tuple[float, ...]
    ratios: tuple[float, ...]
    fitted_C: float | None
    bounds: tuple[float, ...]
    bracket_p: int
    p: float
    tail_start: int

    def rows(self) -> list[tuple[int, float, float]]:
        return [
            (n, d, b) for n, (d, b) in enumerate(zip(self.deltas, self.bounds))
        ]

    def tail_bound(self) -> float:
        """Cauchy tail sum_{n > n_last} C^(n-[p]) / ((n-[p])/p)!

        Factorial decay makes the series summable; terms are added until
        they stop moving the total.  nan when no C could be fitted, inf
        when a term overflows (a C fitted to a diverging run can be large).
        """
        if self.fitted_C is None:
            return math.nan
        total = 0.0
        for n in range(len(self.deltas), len(self.deltas) + 200):
            x = n - self.bracket_p
            try:
                term = self.fitted_C**x / math.gamma(x / self.p + 1.0)
            except OverflowError:
                return math.inf
            if total > 0 and term < 1e-17 * total:
                break
            total += term
        return total


def fit_decay(deltas: list[float], p: float) -> DecayReport:
    """Fit log delta_n + log Gamma((n-[p])/p + 1) ~ (n-[p]) log C."""
    bp = int(p)
    ds = tuple(float(d) for d in deltas)
    ratios = tuple(
        ds[i + 1] / ds[i] if ds[i] > 0 else math.nan for i in range(len(ds) - 1)
    )
    tail_start = bp + 2
    xs, ys = [], []
    for n, d in enumerate(ds):
        if n >= tail_start and math.isfinite(d) and d > 1e-13:
            x = n - bp
            xs.append(x)
            ys.append(math.log(d) + math.lgamma(x / p + 1.0))
    fitted = None
    if len(xs) >= 2:
        xs_a = np.asarray(xs)
        ys_a = np.asarray(ys)
        fitted = float(math.exp(np.dot(xs_a, ys_a) / np.dot(xs_a, xs_a)))
    bounds = []
    for n in range(len(ds)):
        if fitted is None or n < bp:
            bounds.append(math.nan)
        else:
            x = n - bp
            bounds.append(fitted**x / math.gamma(x / p + 1.0))
    return DecayReport(
        deltas=ds,
        ratios=ratios,
        fitted_C=fitted,
        bounds=tuple(bounds),
        bracket_p=bp,
        p=p,
        tail_start=tail_start,
    )


@dataclass(frozen=True, eq=False)
class RdeSolution:
    """Converged (or halted) result of the Picard iteration."""

    problem: RdeProblem
    times: np.ndarray
    positions: np.ndarray
    form: OneFormPath
    iterations: int
    converged: bool
    report: DecayReport
    fixed_point_residual: float
    certificate: DominationCertificate
    scale: float
    message: str
    history: tuple[PicardState, ...] | None = None

    @property
    def form_error_bar(self) -> float:
        """Cauchy-tail estimate of how far `form` sits from the limit form.

        `form` is the last iterate, so the remaining distance is at most
        the sum of all future step distances; the fitted factorial envelope
        supplies that sum.
        """
        return self.report.tail_bound()


def _map_distance(problem: RdeProblem, form: OneFormPath, positions: np.ndarray) -> float:
    """Sup distance between positions and xi plus the rough integral of form."""
    mapped = problem.xi[None, :] + rough_integral(form).values
    return float(np.max(np.linalg.norm(mapped - positions, axis=1)))


def solve(
    problem: RdeProblem,
    keep_history: bool = False,
    auto_rescale: bool = True,
) -> RdeSolution:
    """Iterate the integral map until the form distance drops below tol.

    Two consecutive increases of the (re-weighed) distance trigger a
    doubling of the dilation scale when auto_rescale is set; the path
    iterates themselves are scale-invariant, so only the reported
    distances change.  A distance exceeding norm_cap halts with a
    divergence message suggesting rescaling.  Without keep_history a
    superseded iterate keeps only its distances, which the loop re-reads.
    """
    gamma = problem.gamma
    state = initial_state(problem)
    states = [state]
    c = 1.0
    rises = 0
    converged = False
    message = f"no iterations performed (n_max={problem.n_max})"
    for _ in range(problem.n_max):
        state = picard_step(state, problem)
        if not keep_history:
            states[-1] = replace(states[-1], positions=None, form=None)
        states.append(state)
        current = state.delta_at_scale(c, gamma)
        if not math.isfinite(current):
            message = (
                "iteration diverged: form distance is not finite; the "
                "driver may fail the domination hypothesis"
            )
            break
        if current > problem.norm_cap:
            message = (
                f"iteration exceeded the norm cap {problem.norm_cap:g}; "
                "consider rescaling the problem (rescale_problem) or "
                "refining the control"
            )
            break
        if len(states) > 2 and current > states[-2].delta_at_scale(c, gamma):
            rises += 1
        else:
            rises = 0
        if rises >= 2 and auto_rescale:
            c *= 2.0
            rises = 0
        if current < problem.tol:
            converged = True
            message = f"converged: delta={current:.3e} < tol={problem.tol:g}"
            break
    else:
        if states[-1].delta is not None:
            message = (
                f"reached n_max={problem.n_max} with delta="
                f"{states[-1].delta_at_scale(c, gamma):.3e} >= tol={problem.tol:g}"
            )
    deltas = [s.delta_at_scale(c, gamma) for s in states[1:]]
    report = fit_decay(deltas, problem.driver.p)
    # one more integral-map step; only its positions are needed
    step_form = compose_integrand(problem.field, state.positions, state.form)
    residual = _map_distance(problem, step_form, state.positions)
    theta = (gamma + 1.0) / problem.driver.p
    certificate = check_domination(
        state.form, theta=theta, omega=problem.omega, auto_scale=True
    )
    return RdeSolution(
        problem=problem,
        times=problem.driver.times,
        positions=state.positions,
        form=state.form,
        iterations=state.n,
        converged=converged,
        report=report,
        fixed_point_residual=residual,
        certificate=certificate,
        scale=c,
        message=message,
        history=tuple(states) if keep_history else None,
    )


def rescale_problem(problem: RdeProblem, c: float) -> RdeProblem:
    """Trade size between the field and the driver by the dilation c.

    The field is shrunk by 1/c, the driver dilated by c, and the control
    scaled by c^p.  Solution paths are unchanged.  The driver's dilation
    comes first, so its refusal of c runs before any scaling.
    """
    return RdeProblem(
        driver=problem.driver.dilate(c),
        field=problem.field.scaled(1.0 / c),
        xi=problem.xi,
        control=problem.omega.scaled(c**problem.driver.p),
        tol=problem.tol,
        n_max=problem.n_max,
        norm_cap=problem.norm_cap,
    )


def fixed_point_form(problem: RdeProblem, positions: np.ndarray) -> OneFormPath:
    """Integrand form of a frozen candidate path, by iterating composition.

    Level j of a composition reads only the levels below j of the form it
    composes, so L compositions from zero reach the fixed point, the form
    whose integral reproduces the path for a genuine solution.  It lets
    probes rebuild certificates for paths produced elsewhere (other
    scalings, other runs).
    """
    positions = np.asarray(positions, dtype=float)
    form = OneFormPath.zero(problem.driver, problem.state_dim)
    for _ in range(problem.driver.level):
        form = compose_integrand(problem.field, positions, form)
    return form


def fixed_point_residual(
    problem: RdeProblem, positions: np.ndarray
) -> tuple[float, OneFormPath]:
    """Sup distance between a path and the integral map applied to it."""
    positions = np.asarray(positions, dtype=float)
    form = fixed_point_form(problem, positions)
    return _map_distance(problem, form, positions), form


def _pair_field(problem: RdeProblem) -> LipFunction:
    """Divided-difference form of the field, one degree less regular."""
    h = divide(problem.field)
    if not isinstance(h, LipFunction):
        raise RegularityError(
            f"difference towers need gamma > 2, got {problem.gamma}"
        )
    return h


def _product_form(
    H_values: np.ndarray,
    H_levels: tuple[np.ndarray, ...],
    E_values: np.ndarray,
    E_form: OneFormPath,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Controlled description of u -> H_u E_u: its values and form levels 1..L-1.

    H takes values in m x d x m matrices, given with its form levels 1..L-1
    (output index (i, j, a) flattened), E in vectors of size m or matrices
    m x m.  The product contracts the trailing axis of H with the leading axis of E;
    the cross terms pair partial levels of both forms through the
    adjoint split of the driver's signature levels.  Level L is left out:
    `integral_form_from_controlled`, the only reader, never reads it.
    """
    base = E_form.base
    d = base.dim
    n, m = H_values.shape[:2]
    # a vector E is an m x 1 matrix
    E_values = E_values.reshape(n, m, -1)
    w = m * E_values.shape[2]
    FE = [block.reshape(n, m, E_values.shape[2], -1) for block in E_form.levels]
    phi = np.einsum("nija,nab->nibj", H_values, E_values).reshape(n, w, d)
    levels = []
    for k in range(1, base.level):
        acc = np.zeros((n, w * d, d**k))
        BH = H_levels[k - 1].reshape(n, m, d, m, d**k)
        acc += np.einsum("nijaK,nab->nibjK", BH, E_values).reshape(n, w * d, d**k)
        acc += np.einsum("nija,nabK->nibjK", H_values, FE[k - 1]).reshape(
            n, w * d, d**k
        )
        for k1 in range(1, k):
            BH1 = H_levels[k1 - 1].reshape(n, m, d, m, d**k1)
            cross = np.einsum("nijaA,nabB->nibjAB", BH1, FE[k - k1 - 1]).reshape(
                n, w * d, d**k
            )
            acc += cross @ split_matrix(d, (k1, k - k1))
        levels.append(acc)
    return phi, tuple(levels)


def _pair_integrand(
    problem: RdeProblem, h: LipFunction,
    ya: np.ndarray, form_a: OneFormPath, yb: np.ndarray, form_b: OneFormPath,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """h(y_a, y_b) at the stacked pair positions, as (N+1, m, d, m) values,
    and levels 1..L-1 of its Taylor form along the stacked integrand forms,
    all that `_product_form` reads."""
    n, m = ya.shape
    pair_pos = np.concatenate([ya, yb], axis=1)
    hv = h.apply(pair_pos).reshape(n, m, problem.driver.dim, m)
    forms = OneFormPath.stack([form_a, form_b])
    return hv, _taylor_levels(h, pair_pos, forms, problem.driver.level - 1)


def _tower_step(
    hv: np.ndarray, ht: tuple, E_values: np.ndarray, E_form: OneFormPath
) -> tuple[np.ndarray, OneFormPath]:
    """One step E -> integral of h(y_a, y_b) E dx of the Schwartz iteration,
    h as `_pair_integrand` gives it (values hv, form levels ht), on E_form's
    grid.  Returns the integral from its first point, (N+1, w), and its form.
    """
    form = integral_form_from_controlled(E_form.base, *_product_form(hv, ht, E_values, E_form))
    return form.integral_values(), form


@dataclass(frozen=True, eq=False)
class TowerReport:
    """Diagnostics for the two-parameter difference tower, keys (l, n) in `levels`.

    eta_sup[(l, n)] is the largest |eta^{l,n}_{s,t}|, fitted_M (at least 1) the
    envelope constant of the worst |eta_{s,t}| / omega(s, t)^q, q = (n-l+1)/p:
    running maxima over starts s.  beta_norms (form operator norms) and
    z_cross_residual (telescoping against iterate differences) read start 0;
    chasles_residual is the worst residual on 20 random triples s < u < t per
    key with l < n <= l_max.  eta_bound_ok and beta_bound_ok say fitted_M and
    the beta norms are finite; fitted_beta_C fits the beta norms' envelope.
    """

    levels: tuple[tuple[int, int], ...]
    eta_sup: dict[tuple[int, int], float]
    beta_norms: dict[tuple[int, int], float]
    z_cross_residual: float
    chasles_residual: float
    fitted_M: float
    eta_bound_ok: bool
    fitted_beta_C: float | None
    beta_bound_ok: bool


def difference_tower(
    problem: RdeProblem,
    l_max: int = 2,
    n_max: int = 4,
) -> TowerReport:
    """Build the nested difference tower of the iteration and audit it.

    eta^{l,n}_{s,t} integrates the divided-difference field along the
    pair of consecutive iterates against the previous tower level; the
    diagonal seeds integrate the divided field itself, and the base row
    is the field frozen at the initial condition.  The report checks the
    telescoping identity against iterate differences, the two-parameter
    Chasles identity, and the factorial envelopes for both the values
    and the operator norms of the associated forms.  Starts s run outside
    the keys: each row t -> eta_{s,t} and its form are folded, then dropped.
    """
    if l_max < 0 or n_max < l_max:
        raise ValueError("need 0 <= l_max <= n_max")
    m = problem.state_dim
    p = problem.driver.p
    npts = problem.driver.num_steps + 1
    h = _pair_field(problem)
    omega = problem.omega

    iterates = [initial_state(problem)]
    for _ in range(n_max + 1):
        iterates.append(picard_step(iterates[-1], problem))
    # h along consecutive iterates: pairs[n] is h(y_{n+1}, y_n)
    pairs = [
        _pair_integrand(problem, h, a.positions, a.form, b.positions, b.form)
        for a, b in zip(iterates[1:], iterates)
    ]

    # the seeds eta^{l,l} start at 0; start s takes a seed's rows from s less row s
    f0 = problem.field.apply(problem.xi[None, :]).reshape(m, problem.driver.dim)
    seed_form = OneFormPath.constant_linear(problem.driver, f0)
    seeds = [(seed_form.integral_values(), seed_form)]
    eye = np.broadcast_to(np.eye(m), (npts, m, m)).copy()
    zero = OneFormPath.zero(problem.driver, m * m)
    for l in range(1, l_max + 1):
        vals, form_ll = _tower_step(*pairs[l - 1], eye, zero)
        seeds.append((vals.reshape(npts, m, m), form_ll))
    # the keys (l, n) in sorted order, each with the exponent q of its pair quotients
    keys = {(l, n): (n - l + 1) / p for l in range(l_max + 1) for n in range(l, n_max + 1)}

    # Chasles triples s < u < t; the cross terms need towers started at
    # every level up to n
    rng = np.random.default_rng(7)
    triples, kept_at = [], set()
    for (l, n) in keys:
        if n <= l or n > l_max or npts < 3:
            continue
        for _ in range(min(20, npts**2)):
            s = int(rng.integers(0, npts - 2))
            u = int(rng.integers(s + 1, npts - 1))
            t = int(rng.integers(u + 1, npts))
            triples.append((l, n, s, u, t))
            kept_at.update(((l, j), s) for j in range(l, n + 1))
            kept_at.update(((j, n), u) for j in range(l, n + 1))

    # start s runs from t_s (row entry t - s); pairs s < t, none at the last start, carry every max
    eta_sup = dict.fromkeys(keys, 0.0)
    worst = dict.fromkeys(keys, 0.0)
    z_res = 0.0
    rows, first_forms = {}, {}
    for s in range(npts - 1):
        base = problem.driver.restricted(s, npts - 1)
        cut = [(hv[s:], tuple(x[s:] for x in ht)) for hv, ht in pairs]
        for l, (full, seed) in enumerate(seeds):
            row = full[s:] - full[s]
            form = OneFormPath(base, seed.out_dim, tuple(A[s:] for A in seed.levels))
            for n in range(l, n_max + 1):
                if n > l:
                    vals, form = _tower_step(*cut[n - 1], row, form)
                    row = vals.reshape(row.shape)
                key = (l, n)
                sizes = np.abs(row[1:]).reshape(npts - s - 1, -1).max(axis=1)
                eta_sup[key] = np.maximum(eta_sup[key], sizes.max())
                quot = _pair_quotient(sizes, omega.table[s, s + 1 :], keys[key], dead_tol=0.0)
                worst[key] = max(worst[key], quot[0])
                if (key, s) in kept_at:
                    rows[key, s] = row
                if s == 0:
                    first_forms[key] = form
                if s == l == 0:
                    diff = iterates[n + 1].positions - iterates[n].positions
                    z_res = max(z_res, float(np.max(np.abs(row - diff))))

    chasles = 0.0
    for l, n, s, u, t in triples:
        lhs = rows[(l, n), s][t - s]
        rhs = rows[(l, n), s][u - s] + rows[(l, n), u][t - u]
        for j in range(l + 1, n + 1):
            rhs = rhs + rows[(j, n), u][t - u] @ rows[(l, j - 1), s][u - s]
        chasles = max(chasles, float(np.max(np.abs(lhs - rhs))))

    fitted_M = 1.0
    for key, q in keys.items():
        fitted_M = max(fitted_M, (worst[key] * 3.0 * p * math.gamma(q + 1.0)) ** (1.0 / q))

    beta_norms = {k: f.operator_norm(problem.gamma, omega) for k, f in first_forms.items()}
    cs = []
    for (l, n), nb in beta_norms.items():
        x = n - int(p) - l
        if x >= 1 and nb > 1e-13 and math.isfinite(nb):
            cs.append((nb * math.gamma(x / p + 1.0)) ** (1.0 / x))
    fitted_C = max(cs) if cs else None

    return TowerReport(
        levels=tuple(keys),
        eta_sup={key: float(v) for key, v in eta_sup.items()},
        beta_norms=beta_norms,
        z_cross_residual=z_res,
        chasles_residual=chasles,
        fitted_M=fitted_M,
        eta_bound_ok=math.isfinite(fitted_M),
        fitted_beta_C=fitted_C,
        beta_bound_ok=all(math.isfinite(v) for v in beta_norms.values()),
    )


@dataclass(frozen=True)
class UniquenessReport:
    """Contraction-tower evidence that two solutions coincide."""

    sup_distance: float
    operator_sups: tuple[float, ...]
    implied_bounds: tuple[float, ...]
    equal_within: float
    conclusive: bool


def uniqueness_probe(
    problem: RdeProblem,
    positions_a: np.ndarray,
    positions_b: np.ndarray,
) -> UniquenessReport:
    """Bound the distance of two certified solutions through the tower.

    Both inputs must satisfy the fixed-point identity and carry a finite
    domination certificate; otherwise the probe refuses.  The operator
    tower Phi^{n+1} = integral of h(y_a, y_b) Phi^n dx contracts
    factorially, and each stage multiplies the observed sup distance
    into an implied bound; the identity y_a - y_b = Phi^n (y_a - y_b)
    holds at solution pairs, so the bounds apply to the distance itself.
    """
    positions_a = np.asarray(positions_a, dtype=float)
    positions_b = np.asarray(positions_b, dtype=float)
    m = problem.state_dim
    npts = problem.driver.num_steps + 1
    if positions_a.shape != (npts, m) or positions_b.shape != (npts, m):
        raise ValueError(f"candidate solutions must have shape {(npts, m)}")
    forms = []
    for label, pos in (("first", positions_a), ("second", positions_b)):
        if float(np.max(np.abs(pos[0] - problem.xi))) > _PROBE_RESIDUAL_TOL:
            raise ValueError(
                f"{label} candidate does not start at the initial condition"
            )
        resid, form = fixed_point_residual(problem, pos)
        if resid > _PROBE_RESIDUAL_TOL:
            raise ValueError(
                f"{label} candidate is not a solution: fixed-point residual "
                f"{resid:.3e} exceeds {_PROBE_RESIDUAL_TOL:g}"
            )
        cert = check_domination(
            form,
            theta=(problem.gamma + 1.0) / problem.driver.p,
            omega=problem.omega,
            auto_scale=True,
        )
        if not cert.ok:
            raise ValueError(
                f"{label} candidate admits no finite domination certificate"
            )
        forms.append(form)
    diff = positions_a - positions_b
    sup_d = float(np.max(np.linalg.norm(diff, axis=1)))

    hv, ht = _pair_integrand(
        problem, _pair_field(problem), positions_a, forms[0], positions_b, forms[1]
    )
    phi_vals = np.broadcast_to(np.eye(m), (npts, m, m)).copy()
    phi_form = OneFormPath.zero(problem.driver, m * m)
    op_sups = []
    bounds = []
    for _ in range(_PROBE_ROUNDS):
        phi_vals, phi_form = _tower_step(hv, ht, phi_vals, phi_form)
        phi_vals = phi_vals.reshape(npts, m, m)
        sup_op = float(np.max(batched_spectral_norms(phi_vals)))
        op_sups.append(sup_op)
        bounds.append(sup_op * sup_d)
    final = bounds[-1]
    return UniquenessReport(
        sup_distance=sup_d,
        operator_sups=tuple(op_sups),
        implied_bounds=tuple(bounds),
        equal_within=final,
        conclusive=final < 1e-10 or sup_d == 0.0,
    )


def driver_distance(a: SampledRoughPath, b: SampledRoughPath) -> float:
    """Control-style p-variation gauge of the difference of two lifts.

    Gap contributions sum the per-level block distances of the two
    signature increments and are raised to the p-th power; the value is
    the single-interval supremum accumulated over partitions, taken to
    the 1/p.  Linear in the perturbation size for nearby drivers.  The
    table of powered gaps is the control's, `path._powered_gauge`: refused
    before it is allocated when it and a rectangle's pool for each path
    exceed physical memory.
    """
    if a.dim != b.dim or a.level != b.level or a.num_steps != b.num_steps:
        raise ValueError("drivers must share dimension, level, and grid size")
    if a.p != b.p:
        raise ValueError("drivers must share the variation exponent")
    gaps = _powered_gauge(lambda da, db: sum(np.sqrt(sum_squares(x - y)) for x, y in zip(da, db)), a, b)
    return float(_best_partition_sum(gaps) ** (1.0 / a.p))


@dataclass(frozen=True)
class ContinuityReport:
    """Solution displacement as a function of driver displacement."""

    rows: tuple[tuple[float, float], ...]
    fitted_order: float
    monotone: bool


def continuity_probe(
    problem: RdeProblem,
    drivers: list[SampledRoughPath],
) -> ContinuityReport:
    """Solve over perturbed drivers and tabulate the response.

    Rows pair each driver's gauge distance from the reference with the
    sup-norm displacement of the solution; the fitted order is the
    log-log slope, which local Lipschitz dependence puts at one.
    """
    base = solve(problem)
    rows = []
    for drv in drivers:
        dist = driver_distance(problem.driver, drv)
        sol = solve(problem.with_driver(drv))
        disp = float(
            np.max(np.linalg.norm(sol.positions - base.positions, axis=1))
        )
        rows.append((dist, disp))
    rows.sort(key=lambda r: r[0])
    xs = np.array([math.log(r[0]) for r in rows if r[0] > 0 and r[1] > 0])
    ys = np.array([math.log(r[1]) for r in rows if r[0] > 0 and r[1] > 0])
    order = math.nan
    if xs.size >= 2:
        order = float(np.polyfit(xs, ys, 1)[0])
    mono = all(rows[i][1] <= rows[i + 1][1] + 1e-15 for i in range(len(rows) - 1))
    return ContinuityReport(
        rows=tuple(rows), fitted_order=order, monotone=mono
    )
