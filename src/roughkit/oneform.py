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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .funcs import PolyMap, strict_floor
from .path import Control, SampledRoughPath
from .tensor import DimensionMismatchError, GroupElement, TruncatedTensor

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
        self._check_mate(other)
        return OneFormPath(
            self.base,
            self.out_dim,
            tuple(a - b for a, b in zip(self.levels, other.levels)),
        )

    def __mul__(self, c: float) -> "OneFormPath":
        return OneFormPath(
            self.base, self.out_dim, tuple(float(c) * a for a in self.levels)
        )

    __rmul__ = __mul__

    def __neg__(self) -> "OneFormPath":
        return self * -1.0

    # -- evaluation ------------------------------------------------------------

    def _time_index(self, t: float) -> int:
        times = self.base.times
        i = int(np.searchsorted(times, t))
        for cand in (i - 1, i, i + 1):
            if 0 <= cand < times.size and abs(times[cand] - t) <= 1e-12 * max(
                1.0, abs(t)
            ):
                return cand
        raise ValueError(f"time {t} is not a grid point")

    def evaluate(self, t: float, a: GroupElement, b: GroupElement) -> np.ndarray:
        """beta_t(a, b) = alpha_t(g_t^{-1} a (b - 1)) at a grid time t."""
        i = self._time_index(t)
        unit = TruncatedTensor.unit(b.dim, b.level)
        u = self.base.points[i].inverse().tensor @ a.tensor @ (b.tensor - unit)
        out = np.zeros(self.out_dim)
        for k in range(1, self.base.level + 1):
            out += self.levels[k - 1][i] @ u.level_block(k)
        return out

    def value_on_increment(self, i: int, inc: GroupElement) -> np.ndarray:
        """beta_{t_i}(g_{t_i}, inc), the quantity Riemann sums are made of."""
        out = np.zeros(self.out_dim)
        for k in range(1, self.base.level + 1):
            out += self.levels[k - 1][i] @ inc.level_block(k)
        return out

    def step_values(self) -> np.ndarray:
        """All beta_{t_i}(g_{t_i}, g_{t_i, t_{i+1}}) at once, shape (N, out)."""
        blocks = self.base.step_level_blocks
        out = np.zeros((self.base.num_steps, self.out_dim))
        for k in range(1, self.base.level + 1):
            out += np.einsum("nok,nk->no", self.levels[k - 1][:-1], blocks[k - 1])
        return out

    # -- norms -------------------------------------------------------------------

    @cached_property
    def sup_norm(self) -> float:
        """sup_t of the operator norm of b -> beta_t(g_t, b).

        With the summed level norm on the argument this is the max over
        levels of the largest singular value of A_t^(k).
        """
        worst = 0.0
        for block in self.levels:
            worst = max(worst, float(np.max(batched_spectral_norms(block))))
        return worst

    def difference_matrices(self, k: int) -> np.ndarray:
        """Level-k matrices of (beta_t - beta_s)(g_t, .) on all pairs s < t.

        beta_s(g_t, b) re-expands through the increment: the level-k piece is
        sum_{m >= k} A_s^(m) (pi_{m-k}(g_{s,t}) x id).
        """
        s_idx, t_idx = self.base.pair_indices
        d = self.base.dim
        diff = self.levels[k - 1][t_idx] - self.levels[k - 1][s_idx]
        for m in range(k + 1, self.base.level + 1):
            A_s = self.levels[m - 1][s_idx].reshape(
                s_idx.size, self.out_dim, d ** (m - k), d**k
            )
            inc = self.base.pairwise_levels[m - k - 1][s_idx, t_idx]
            diff = diff - np.einsum("powj,pw->poj", A_s, inc)
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
        p = self.base.p
        s_idx, t_idx = self.base.pair_indices
        w = omega.table[s_idx, t_idx]
        sups = tuple(
            float(np.max(batched_spectral_norms(block))) for block in self.levels
        )
        k_max = min(self.base.level, strict_floor(gamma))
        quots = []
        pairs = []
        for k in range(1, k_max + 1):
            norms = batched_spectral_norms(self.difference_matrices(k))
            if noise_floor > 0.0:
                norms = np.where(norms <= noise_floor, 0.0, norms)
            q, j = _pair_quotient(
                norms, w, (gamma - k) / p, dead_tol=max(1e-12, noise_floor)
            )
            quots.append(q)
            pairs.append((int(s_idx[j]), int(t_idx[j])))
        return sups, tuple(quots), pairs

    def operator_norm(
        self, gamma: float, omega: Control, details: bool = False
    ):
        """Control-weighted norm: sup part plus the worst difference quotient.

        Levels k = 1..min([p], strict_floor(gamma)) participate in the
        difference part; pairs where the control vanishes but the difference
        does not contribute +inf.
        """
        sups, quots, pairs = self.norm_components(gamma, omega)
        diff_part = max(quots) if quots else 0.0
        total = max(sups) + diff_part
        if not details:
            return total
        return total, {
            "sup": max(sups),
            "difference": diff_part,
            "per_level_sup": sups,
            "per_level": dict(enumerate(quots, start=1)),
            "worst_pairs": dict(enumerate(pairs, start=1)),
        }

    # -- base changes ---------------------------------------------------------

    def pushforward_dilate(self, c: float) -> "OneFormPath":
        """The same form read through the dilation delta_c of the base.

        If beta lives over g, the result lives over dilate(g, c) and takes
        equal values on corresponding arguments, so Riemann sums (hence rough
        integrals) are unchanged.
        """
        new_base = self.base.dilate(c)
        levels = tuple(
            float(c) ** (-k) * self.levels[k - 1]
            for k in range(1, self.base.level + 1)
        )
        return OneFormPath(new_base, self.out_dim, levels)


@dataclass(frozen=True)
class DominationCertificate:
    """Checked bounds: sup norm against M, difference quotients against
    omega^(theta - k/p), one quotient per level."""

    M: float
    theta: float
    control: Control
    sup_norm: float
    level_quotients: tuple[float, ...]
    worst_level: int
    worst_pair: tuple[int, int]
    tolerance: float = 1e-9

    @property
    def ok(self) -> bool:
        if not np.isfinite(self.sup_norm) or self.sup_norm > self.M * (
            1.0 + self.tolerance
        ) + self.tolerance:
            return False
        return all(q <= 1.0 + self.tolerance for q in self.level_quotients)

    def as_dict(self) -> dict:
        return {
            "M": self.M,
            "theta": self.theta,
            "sup_norm": self.sup_norm,
            "level_quotients": list(self.level_quotients),
            "ok": bool(self.ok),
        }


def check_domination(
    beta: OneFormPath,
    theta: float,
    omega: Control,
    M: float | None = None,
    auto_scale: bool = False,
) -> DominationCertificate:
    """Verify the domination bounds of beta over its base, levelwise.

    With auto_scale the control is multiplied by the smallest constant making
    every difference quotient at most one (possible whenever no quotient is
    infinite, since theta - k/p > 0 for all participating levels).
    """
    if theta <= 1.0:
        raise ValueError("theta must exceed 1")
    p = beta.base.p
    s_idx, t_idx = beta.base.pair_indices
    w = omega.table[s_idx, t_idx]
    sups = []
    pairs = []
    for k in range(1, beta.base.level + 1):
        expo = theta - k / p
        if expo <= 0.0:
            raise ValueError(f"theta too small for level {k}")
        norms = batched_spectral_norms(beta.difference_matrices(k))
        q, j = _pair_quotient(norms, w, expo)
        sups.append(q)
        pairs.append((int(s_idx[j]), int(t_idx[j])))
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
    worst = int(np.argmax(sups)) if sups else 0
    M_val = beta.sup_norm if M is None else float(M)
    return DominationCertificate(
        M=M_val,
        theta=theta,
        control=omega,
        sup_norm=beta.sup_norm,
        level_quotients=tuple(sups),
        worst_level=worst + 1,
        worst_pair=pairs[worst] if pairs else (0, 0),
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

    def pair_value(self, a: GroupElement, b: GroupElement) -> np.ndarray:
        """beta_p(a, b); cocyclic by the Taylor structure of p."""
        d = self.dim
        x = self.base_point + a.level_block(1)
        out = np.zeros(self.out_dim)
        top = min(self.level - 1, self.form.degree)
        for k in range(top + 1):
            if k + 1 > a.level:
                break
            dp = self.form.derivative_at(x, k).reshape(self.out_dim, d, d**k)
            block = b.level_block(k + 1).reshape(d**k, d)
            out += np.einsum("ojw,wj->o", dp, block)
        return out

    def along(self, g: SampledRoughPath) -> np.ndarray:
        """Cumulative partition sums, shape (N+1, out_dim); exact on lifts."""
        vals = np.zeros((g.times.size, self.out_dim))
        for i, inc in enumerate(g.step_increments):
            vals[i + 1] = vals[i] + self.pair_value(g.points[i], inc)
        return vals

    def as_oneform(self, g: SampledRoughPath) -> OneFormPath:
        """Materialize the lift as a one-form path over g."""
        if g.dim != self.dim:
            raise DimensionMismatchError("driver dimension mismatch")
        d = self.dim
        X = self.base_point[None, :] + g.levels[1]
        levels = []
        for k in range(1, g.level + 1):
            dp = self.form.derivative(X, k - 1).reshape(
                g.times.size, self.out_dim, d, d ** (k - 1)
            )
            levels.append(
                dp.transpose(0, 1, 3, 2).reshape(g.times.size, self.out_dim, d**k)
            )
        return OneFormPath(g, self.out_dim, tuple(levels))


def lift_polynomial_form(
    form: PolyMap, level: int, base_point: np.ndarray | None = None
) -> ClosedLift:
    if base_point is None:
        base_point = np.zeros(form.in_dim)
    return ClosedLift(form, level, base_point)


def integral_form_from_controlled(
    phi_values: np.ndarray, derivative_form: OneFormPath
) -> OneFormPath:
    """One-form of t -> integral of phi dg, from phi and its controlling form.

    phi_values has shape (N+1, w, d); derivative_form is the one-form of the
    flattened integrand path (out_dim w*d, row-major).  Level 1 of the result
    is phi itself; level k reads level k-1 of the derivative data with the
    last letter routed through the integrand's second slot.
    """
    g = derivative_form.base
    n, d = g.times.size, g.dim
    phi_values = np.asarray(phi_values, dtype=float)
    if phi_values.ndim != 3 or phi_values.shape[0] != n or phi_values.shape[2] != d:
        raise DimensionMismatchError("phi must have shape (N+1, w, d)")
    w = phi_values.shape[1]
    if derivative_form.out_dim != w * d:
        raise DimensionMismatchError(
            f"derivative form out_dim {derivative_form.out_dim} != w*d = {w * d}"
        )
    levels = [phi_values.reshape(n, w, d).copy()]
    for k in range(2, g.level + 1):
        B = derivative_form.levels[k - 2].reshape(n, w, d, d ** (k - 1))
        levels.append(B.transpose(0, 1, 3, 2).reshape(n, w, d**k))
    return OneFormPath(g, w, tuple(levels))
