"""One-form paths along a group-valued driver.

A one-form path stores, per grid time, one matrix per tensor level; the value
on a pair (a, b) is the stored functional applied to g_t^{-1} a (b - 1).
That representation makes the additive cocycle identity structural, so the
interesting content is in the norms: the level-wise operator norm with
control-weighted difference quotients, and the domination certificate.

Also here: the closed lift of a polynomial form, which integrates polynomial
one-forms exactly along group elements.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .funcs import PolyMap, strict_floor
from .path import Control, SampledRoughPath
from .tensor import DimensionMismatchError

__all__ = [
    "OneFormPath",
    "DominationCertificate",
    "check_domination",
    "ClosedLift",
    "lift_polynomial_form",
    "integral_form_from_controlled",
    "batched_spectral_norms",
]


def batched_spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value over the last two axes, batched.

    The leading Gram trick keeps the eigenproblem at out_dim x out_dim, which
    is tiny for every form this package builds.
    """
    if mats.shape[-2] == 1:
        return np.linalg.norm(mats[..., 0, :], axis=-1)
    gram = mats @ np.swapaxes(mats, -1, -2)
    vals = np.linalg.eigvalsh(gram)
    return np.sqrt(np.maximum(vals[..., -1], 0.0))


def _pair_quotient(
    num: np.ndarray, w: np.ndarray, expo: float, dead_tol: float = 1e-12
) -> tuple[float, int]:
    """Worst control-weighted quotient num / w**expo over a set of pairs.

    Returns the maximum and the index of the pair attaining it.  Where
    w**expo vanishes a numerator above dead_tol counts as +inf and any
    other as 0.
    """
    denom = w**expo
    quot = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    quot = np.where((denom == 0.0) & (num > dead_tol), np.inf, quot)
    j = int(np.argmax(quot))
    return float(quot[j]), j


# Slack on the Frobenius bounds.  The einsum and the Gram eigensolver each
# round within about out_dim * d**k ulps, far inside the relative term for
# the forms this package builds.  The absolute term covers squares that
# underflow into subnormals, where both routes lose relative precision
# (error below 1e-159 in sigma).
_BOUND_REL = 1e-12
_BOUND_ABS = 1e-150


def _spectral_pair_quotient(
    diff: np.ndarray, w: np.ndarray, expo: float, best: float,
    noise_floor: float, dead_tol: float,
) -> tuple[float, int, float]:
    """One run's worst sigma_max(diff[i]) / w[i]**expo, numerators floored.

    Returns the run's quotient, its index within the run and `best`, a
    lower bound on the maximum over the runs so far (0.0 before the first),
    raised by this run.  Keeping a run's quotient only when it is strictly
    larger than the maximum so far gives, over the runs in pair order,
    bitwise the (max, argmax) of `_pair_quotient` on the spectral norms of
    every pair floored at noise_floor, ties to the first pair.  Single-row
    forms take row norms on every pair.  Otherwise the eigensolver runs
    only on the pairs that can reach `best`: ||M||_F / sqrt(r) <=
    sigma_max(M) <= ||M||_F with r = min(out_dim, d**k), so a pair whose
    upper quotient falls below some pair's lower quotient, or below a
    quotient already evaluated, cannot be the maximum.  A run left with no
    pair returns the quotient 0.0, which raises no maximum.
    """
    idx = np.arange(w.size)
    if diff.shape[1] > 1:
        fro = np.sqrt(np.einsum("poj,poj->p", diff, diff))
        lo = (fro * (1.0 - _BOUND_REL) - _BOUND_ABS) / np.sqrt(min(diff.shape[1:]))
        hi = fro * (1.0 + _BOUND_REL) + _BOUND_ABS
        denom = w**expo
        live = denom > 0.0
        safe = np.where(live, denom, 1.0)
        # pairs with lo above the floor cannot be floored: a sound lower bound
        sure = live & (lo > noise_floor)
        best = max(best, np.max(lo[sure] / denom[sure], initial=0.0))
        upper = np.where(live, hi / safe, np.where(hi > dead_tol, np.inf, 0.0))
        idx = np.flatnonzero((upper >= best) & (hi > noise_floor))
        # copying every pair's matrix would double the scan's peak memory
        if idx.size < w.size:
            diff, w = diff[idx], w[idx]
    if not idx.size:
        return 0.0, 0, best
    norms = batched_spectral_norms(diff)
    if noise_floor > 0.0:
        norms = np.where(norms <= noise_floor, 0.0, norms)
    q, j = _pair_quotient(norms, w, expo, dead_tol=dead_tol)
    # an evaluated quotient is attained, so it bounds the maximum from below
    return q, int(idx[j]), max(best, q)


def _pairing(coeffs: Iterable[np.ndarray], blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Row-wise sum_k A^(k) h_k, coeffs[k-1] (n, out, d**k) and blocks[k-1]
    (n, d**k), summed from zero in k order; a row's bits do not depend on
    the rows batched with it."""
    out = 0.0
    for A, h in zip(coeffs, blocks):
        out = out + np.einsum("nok,nk->no", A, h)
    return out


@dataclass(frozen=True)
class OneFormPath:
    """Per-time level matrices A_t^(k), shape (N+1, out_dim, d**k).

    Evaluation: beta_t(a, b) = sum_k A_t^(k) pi_k(g_t^{-1} a (b - 1)).
    """

    base: SampledRoughPath
    out_dim: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = self.base.times.size
        d = self.base.dim
        if len(self.levels) != self.base.level:
            raise DimensionMismatchError(
                f"need {self.base.level} level blocks, got {len(self.levels)}"
            )
        frozen = []
        for k, block in enumerate(self.levels, start=1):
            block = np.ascontiguousarray(np.asarray(block, dtype=float))
            want = (n, self.out_dim, d**k)
            if block.shape != want:
                raise DimensionMismatchError(
                    f"level-{k} block has shape {block.shape}, expected {want}"
                )
            if not np.all(np.isfinite(block)):
                raise ValueError(f"non-finite level-{k} coefficients")
            block.flags.writeable = False
            frozen.append(block)
        object.__setattr__(self, "levels", tuple(frozen))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, base: SampledRoughPath, out_dim: int) -> "OneFormPath":
        n, d = base.times.size, base.dim
        return cls(
            base,
            out_dim,
            tuple(np.zeros((n, out_dim, d**k)) for k in range(1, base.level + 1)),
        )

    @classmethod
    def constant_linear(cls, base: SampledRoughPath, A: np.ndarray) -> "OneFormPath":
        """Time-constant level-1 functional: beta_t(g_t, b) = A pi_1(b)."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != base.dim:
            raise DimensionMismatchError("expected an (out_dim, d) matrix")
        n, d = base.times.size, base.dim
        out = A.shape[0]
        levels = [np.broadcast_to(A, (n, out, d)).copy()]
        for k in range(2, base.level + 1):
            levels.append(np.zeros((n, out, d**k)))
        return cls(base, out, tuple(levels))

    @classmethod
    def stack(cls, forms: list["OneFormPath"]) -> "OneFormPath":
        """Concatenate along the output dimension; bases must be identical."""
        head = forms[0]
        for f in forms[1:]:
            if f.base is not head.base:
                raise DimensionMismatchError("stacked forms must share their base")
        out = sum(f.out_dim for f in forms)
        levels = tuple(
            np.concatenate([f.levels[k] for f in forms], axis=1)
            for k in range(head.base.level)
        )
        return cls(head.base, out, levels)

    # -- algebra ---------------------------------------------------------------

    def _check_mate(self, other: "OneFormPath") -> None:
        if other.base is not self.base or other.out_dim != self.out_dim:
            raise DimensionMismatchError("forms live over different bases")

    def __add__(self, other: "OneFormPath") -> "OneFormPath":
        self._check_mate(other)
        return OneFormPath(
            self.base,
            self.out_dim,
            tuple(a + b for a, b in zip(self.levels, other.levels)),
        )

    def __sub__(self, other: "OneFormPath") -> "OneFormPath":
        # a + (-b) is a - b exactly in IEEE arithmetic
        return self + -other

    def __mul__(self, c: float) -> "OneFormPath":
        return OneFormPath(
            self.base, self.out_dim, tuple(float(c) * a for a in self.levels)
        )

    __rmul__ = __mul__

    def __neg__(self) -> "OneFormPath":
        return self * -1.0

    # -- evaluation ------------------------------------------------------------

    def pair_values(
        self, rows: np.ndarray | slice | list[int], blocks: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """beta_{t_r}(g_{t_r}, h) for n grid rows r (index array or slice) and
        the level blocks of n arguments h, blocks[k-1] (n, d**k); shape (n, out)."""
        return _pairing((A[rows] for A in self.levels), blocks)

    def step_values(self) -> np.ndarray:
        """All beta_{t_i}(g_{t_i}, g_{t_i, t_{i+1}}) at once, shape (N, out)."""
        return self.pair_values(slice(None, -1), self.base.step_level_blocks)

    def integral_values(self, start: int = 0) -> np.ndarray:
        """Left sums of `step_values` from grid index start, shape (N+1, out)."""
        out = np.zeros((self.base.times.size, self.out_dim))
        np.cumsum(self.step_values()[start:], axis=0, out=out[start + 1 :])
        return out

    # -- norms -------------------------------------------------------------------

    @cached_property
    def level_sups(self) -> tuple[float, ...]:
        """Per level k, sup_t of the largest singular value of A_t^(k)."""
        return tuple(float(np.max(batched_spectral_norms(b))) for b in self.levels)

    @property
    def sup_norm(self) -> float:
        """sup_t of the operator norm of b -> beta_t(g_t, b).

        With the summed level norm on the argument this is the max over
        levels of the largest singular value of A_t^(k).
        """
        return max(self.level_sups)

    def difference_matrices(self, k: int, run: tuple | None = None) -> np.ndarray:
        """Level-k matrices of (beta_t - beta_s)(g_t, .) on the pairs s < t of
        one `base.pair_runs` run, all pairs as a single run by default.

        beta_s(g_t, b) re-expands through the increment: the level-k piece is
        sum_{m >= k} A_s^(m) (pi_{m-k}(g_{s,t}) x id), summed from zero over
        per-letter gathers in ascending letter order: bitwise the einsum
        "powj,pw->poj" when d**k >= 2 or one letter is summed, as always here.
        """
        _, s_idx, t_idx, incs = run or self.base._pair_run(slice(None))
        d = self.base.dim
        block = self.levels[k - 1]
        diff = np.take(block, t_idx, axis=0) - np.take(block, s_idx, axis=0)
        for m in range(k + 1, self.base.level + 1):
            A = self.levels[m - 1].reshape(-1, self.out_dim, d ** (m - k), d**k)
            inc = incs[m - k - 1]
            acc = np.zeros(diff.shape)
            for w in range(d ** (m - k)):
                acc += np.take(A[:, :, w, :], s_idx, axis=0) * inc[:, w, None, None]
            diff = diff - acc
        return diff

    def norm_components(
        self, gamma: float, omega: Control, noise_floor: float = 0.0
    ) -> tuple[tuple[float, ...], tuple[float, ...], list[tuple[int, int]]]:
        """Per-level sup norms and difference quotients, separately.

        Returns (sups over k = 1..[p], quotients over k = 1..k_max, worst
        pair per quotient level).  Level k of the sup part scales as c^-k
        under dilation by c, each quotient as c^-gamma with the matching
        control rescale, so callers can re-weigh without recomputation.

        Difference numerators at or below noise_floor count as zero.  The
        quotient denominators can be as small as the finest-pair control,
        so a caller who knows the coefficients carry absolute rounding
        error (differences of converged iterates, for instance) must
        declare it or read amplified noise as signal.
        """
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        k_max = min(self.base.level, strict_floor(gamma))
        expos = [(gamma - k) / self.base.p for k in range(1, k_max + 1)]
        quots, pairs = self._level_quotients(omega, expos, noise_floor)
        return self.level_sups, tuple(quots), pairs

    def _level_quotients(
        self, omega: Control, expos: list[float], noise_floor: float = 0.0
    ) -> tuple[list[float], list[tuple[int, int]]]:
        """Worst sigma_max(difference) / omega**expos[k-1] and its pair, per level k.

        Scans the `base.pair_runs` runs, levels inside runs, so the
        difference matrices of all pairs never exist at once and each run's
        pair ends, increments and control weights are read once.  Each level
        keeps (max, pair, lower bound); pair (0, 1) attains a zero maximum.
        """
        if not np.array_equal(omega.times, self.base.times):
            raise DimensionMismatchError("the control lives on another time grid than the path")
        scans = [(0.0, (0, 1), 0.0)] * len(expos)
        for pairs, s, t, incs in self.base.pair_runs():
            w = omega.at(s, t)
            for i, expo in enumerate(expos):
                q_max, pair, best = scans[i]
                q, j, best = _spectral_pair_quotient(
                    self.difference_matrices(i + 1, (pairs, s, t, incs)), w, expo, best,
                    noise_floor, max(1e-12, noise_floor),
                )
                if q > q_max:
                    q_max, pair = q, (int(s[j]), int(t[j]))
                scans[i] = (q_max, pair, best)
        return [q for q, _, _ in scans], [pair for _, pair, _ in scans]

    def operator_norm(self, gamma: float, omega: Control) -> float:
        """Control-weighted norm: sup part plus the worst difference quotient.

        Levels k = 1..min([p], strict_floor(gamma)) participate in the
        difference part; pairs where the control vanishes but the difference
        does not contribute +inf.
        """
        sups, quots, _ = self.norm_components(gamma, omega)
        return max(sups) + max(quots)


# Relative slack of every checked bound against its measured value.
_DOMINATION_TOL = 1e-9


@dataclass(frozen=True)
class DominationCertificate:
    """beta is dominated by (M, omega, theta): M is beta's measured sup norm,
    and level k's difference quotient against omega^(theta - k/p) is at
    most one.  ok says M is finite and every quotient is within tolerance."""

    M: float
    theta: float
    control: Control
    level_quotients: tuple[float, ...]
    worst_level: int
    worst_pair: tuple[int, int]

    @property
    def ok(self) -> bool:
        if not np.isfinite(self.M):
            return False
        return all(q <= 1.0 + _DOMINATION_TOL for q in self.level_quotients)


def check_domination(
    beta: OneFormPath,
    theta: float,
    omega: Control,
    auto_scale: bool = False,
) -> DominationCertificate:
    """Measure the domination bounds of beta over its base, levelwise: M is
    beta's sup norm, and level k's quotient is the worst difference quotient
    against omega^(theta - k/p), at the pair `worst_pair` for the worst level.

    With auto_scale the control is multiplied by the smallest constant making
    every difference quotient at most one (possible whenever no quotient is
    infinite, since theta - k/p > 0 for all participating levels).
    """
    if theta <= 1.0:
        raise ValueError("theta must exceed 1")
    p = beta.base.p
    # every exponent is positive: k <= [p] <= p and theta > 1
    expos = [theta - k / p for k in range(1, beta.base.level + 1)]
    sups, pairs = beta._level_quotients(omega, expos)
    if auto_scale and all(np.isfinite(q) for q in sups):
        lam = 1.0
        for k, q in enumerate(sups, start=1):
            if q > 0.0:
                lam = max(lam, q ** (1.0 / (theta - k / p)))
        if lam > 1.0:
            omega = omega.scaled(lam)
            sups = [
                q / lam ** (theta - k / p) for k, q in enumerate(sups, start=1)
            ]
    worst = int(np.argmax(sups))
    return DominationCertificate(
        M=beta.sup_norm,
        theta=theta,
        control=omega,
        level_quotients=tuple(sups),
        worst_level=worst + 1,
        worst_pair=pairs[worst],
    )


# -- closed lift of polynomial forms ----------------------------------------


@dataclass(frozen=True)
class ClosedLift:
    """Exact group-level integrator of a polynomial form p: R^d -> L(R^d, R^w).

    The pair value on (a, b) Taylor-expands p at the point reached by a and
    pairs the derivative stack with the rebracketed levels of b; summed along
    a partition it reproduces the line integral of p exactly on polylines.
    """

    form: PolyMap
    level: int
    base_point: np.ndarray

    def __post_init__(self) -> None:
        if len(self.form.out_shape) != 2 or self.form.out_shape[1] != self.form.in_dim:
            raise DimensionMismatchError(
                "polynomial form must have out_shape (w, d) with d = in_dim"
            )
        if self.form.degree > self.level - 1:
            raise ValueError(
                f"degree {self.form.degree} needs level >= {self.form.degree + 1}"
            )
        base = np.asarray(self.base_point, dtype=float).reshape(-1)
        if base.size != self.form.in_dim:
            raise DimensionMismatchError("base point dimension mismatch")
        base.flags.writeable = False
        object.__setattr__(self, "base_point", base)

    @property
    def dim(self) -> int:
        return self.form.in_dim

    @property
    def out_dim(self) -> int:
        return self.form.out_shape[0]

    def _coefficients(self, X: np.ndarray, level: int) -> tuple[np.ndarray, ...]:
        """Level k = 1..level at points X: D^{k-1}p(X), own letter moved last."""
        n, d = X.shape[0], self.dim
        return tuple(
            self.form.derivative(X, k - 1)
            .reshape(n, self.out_dim, d, d ** (k - 1))
            .transpose(0, 1, 3, 2)
            .reshape(n, self.out_dim, d**k)
            for k in range(1, level + 1)
        )

    def along(self, g: SampledRoughPath) -> np.ndarray:
        """Cumulative partition sums, shape (N+1, out_dim); exact on lifts."""
        return self.as_oneform(g).integral_values()

    def as_oneform(self, g: SampledRoughPath) -> OneFormPath:
        """Materialize the lift as a one-form path over g."""
        if g.dim != self.dim:
            raise DimensionMismatchError("driver dimension mismatch")
        if g.level != self.level:
            raise DimensionMismatchError(f"level-{self.level} lift along a level-{g.level} driver")
        X = self.base_point[None, :] + g.levels[1]
        return OneFormPath(g, self.out_dim, self._coefficients(X, g.level))


def lift_polynomial_form(
    form: PolyMap, level: int, base_point: np.ndarray | None = None
) -> ClosedLift:
    if base_point is None:
        base_point = np.zeros(form.in_dim)
    return ClosedLift(form, level, base_point)


def integral_form_from_controlled(
    base: SampledRoughPath, phi_values: np.ndarray, derivative_levels: tuple[np.ndarray, ...]
) -> OneFormPath:
    """One-form of t -> integral of phi dg, from phi and its derivative levels.

    phi_values has shape (N+1, w, d); derivative_levels[k-1], of shape
    (N+1, w*d, d**k), is level k = 1..L-1 of the one-form of the flattened
    integrand path (out_dim w*d, row-major); its level L is never read.
    Level 1 of the result is phi itself; level k+1 reads derivative level k
    with the last letter routed through the integrand's second slot.
    """
    n, d = base.times.size, base.dim
    phi_values = np.asarray(phi_values, dtype=float)
    if phi_values.ndim != 3 or phi_values.shape[0] != n or phi_values.shape[2] != d:
        raise DimensionMismatchError("phi must have shape (N+1, w, d)")
    w = phi_values.shape[1]
    want = [(n, w * d, d**k) for k in range(1, base.level)]
    if [B.shape for B in derivative_levels] != want:
        raise DimensionMismatchError(f"derivative levels must have shapes {want}")
    levels = [phi_values.copy()]
    for k, B in enumerate(derivative_levels, start=1):
        levels.append(B.reshape(n, w, d, d**k).transpose(0, 1, 3, 2).reshape(n, w, d ** (k + 1)))
    return OneFormPath(base, w, tuple(levels))
