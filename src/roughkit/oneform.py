"""One-form paths along a group-valued driver.

A one-form path stores, per grid time, one matrix per tensor level; the value
on a pair (a, b) is the stored functional applied to g_t^{-1} a (b - 1).
That representation makes the additive cocycle identity structural, so the
interesting content is in the norms: the level-wise operator norm with
control-weighted difference quotients, and the domination certificate.

Also here: the closed lift of a polynomial form, the one-form that integrates
it exactly along group elements.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .funcs import PolyMap, strict_floor
from .path import Control, SampledRoughPath
from .tensor import DimensionMismatchError, sum_squares

__all__ = [
    "OneFormPath",
    "DominationCertificate",
    "check_domination",
    "closed_lift_form",
    "integral_form_from_controlled",
    "batched_spectral_norms",
]


def batched_spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value over the last two axes, batched.

    A single row's is its norm, np.linalg.norm's bits from `sum_squares`,
    which loops over the few letters rather than reducing over them.  The
    leading Gram trick keeps the eigenproblem at out_dim x out_dim, which
    is tiny for every form this package builds.  A matrix whose Gram
    overflows is scaled by the power of two that brings its largest entry
    into [1/2, 1), and its sigma scaled back: exact, unless squares of its
    smallest entries underflow.  The others keep their bits; a row of NaN
    has a NaN norm.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sqrt(_top_gram_eigenvalues(mats))
        big = norms == np.inf
        if np.any(big):
            expo = np.frexp(np.max(np.abs(mats[big]), axis=(-2, -1)))[1]
            tops = _top_gram_eigenvalues(np.ldexp(mats[big], -expo[:, None, None]))
            norms[big] = np.ldexp(np.sqrt(tops), expo)
    return norms


def _top_gram_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """sigma_max**2 of each matrix, +inf where its Gram is not finite."""
    if mats.shape[-2] == 1:
        return sum_squares(mats[..., 0, :])
    gram = np.matmul(mats, np.swapaxes(mats, -1, -2))
    bad = ~np.all(np.isfinite(gram), axis=(-2, -1))
    gram[bad] = 0.0
    tops = np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)
    tops[bad] = np.inf
    return tops


def _pair_quotient(
    num: np.ndarray, w: np.ndarray, expo: float, dead_tol: float = 1e-12
) -> tuple[float, int]:
    """Worst control-weighted quotient num / w**expo over a set of pairs.

    Returns the maximum and the index of the pair attaining it.  Where
    w**expo vanishes a numerator above dead_tol counts as +inf and any
    other as 0; where it overflows, the quotient is 0.
    """
    with np.errstate(over="ignore"):
        denom = w**expo
    quot = np.where(denom > 0.0, num / np.where(denom > 0.0, denom, 1.0), 0.0)
    quot = np.where((denom == 0.0) & (num > dead_tol), np.inf, quot)
    j = int(np.argmax(quot))
    return float(quot[j]), j


# Slack on the sigma_max bounds, Frobenius and trace alike.  The Gram
# matrices and the eigensolver each round within about min(rows, cols) *
# max(rows, cols) ulps of sigma**2, far inside the relative term for the
# forms this package builds (see `_sigma_bounds`).  The absolute term covers
# squares that underflow into subnormals, where every route loses relative
# precision (error below 1e-159 in sigma).
_BOUND_REL = 1e-12
_BOUND_ABS = 1e-150
# From this Gram trace on, the eigensolver's own Gram matrix may overflow:
# `_sigma_bounds` leaves such a matrix open.
_GRAM_TRACE_MAX = 1e308


def _sigma_bounds(mats: np.ndarray, pool: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on what `batched_spectral_norms` returns for
    each matrix of an (n, rows, cols) stack.

    sigma_max**2 is the largest eigenvalue of the r x r Gram matrix G of the
    matrix's rows or columns, whichever are fewer, r = min(rows, cols); its
    entries are row dot products (einsum).  With t = tr G / r and
    s = ||G - tI||_F / sqrt(r), the trace bounds of Wolkowicz and Styan
    (Linear Algebra Appl. 29, 1980) put that eigenvalue in
    [t + s / sqrt(r - 1), t + s sqrt(r - 1)].  The centred form takes s
    without cancelling squares, through np.hypot, so no square overflows
    before sigma**2 does.  At r = 2 the two ends meet at
    t + hypot((G11 - G22) / 2, G12).  At r = 1 the single entry is the
    eigenvalue.

    Rounding, u = 2**-53 and c = max(rows, cols): every entry of G and of
    the eigensolver's Gram is a sum of c products, within c u
    sqrt(G_aa G_bb) of the exact, so either matrix is within c u tr G <=
    r c u sigma**2 of the exact in Frobenius norm and, by Weyl's
    inequality, so are its eigenvalues.  The eigensolver's backward error
    adds a few u sigma**2, and t, s and the bounds a few roundings of terms
    at most tr G.  At r = 4 and d**k = 81 letters that is under 1e-13
    sigma**2, half that in sigma, and _BOUND_REL = 1e-12 leaves room to
    r of about 100.  Where squares underflow, each product is off by at
    most half the smallest subnormal: sigma**2 by about r c 5e-324, sigma
    by its square root, far inside _BOUND_ABS.  A matrix whose trace
    reaches _GRAM_TRACE_MAX gets the bounds (-inf, inf).

    `pool`, flat float scratch of r (r + 1) / 2 + 1 entries per matrix,
    takes G and holds the returned bounds.
    """
    n, rows, cols = mats.shape
    r = min(rows, cols)
    vecs = mats if rows <= cols else mats.transpose(0, 2, 1)
    slots = r * (r + 1) // 2 + 1
    if pool is None:
        pool = np.empty(slots * n)
    parts = [pool[i * n : (i + 1) * n] for i in range(slots)]
    diag, off, t = parts[:r], parts[r:-1], parts[-1]
    pairs = [(a, b) for a in range(r) for b in range(a + 1, r)]
    with np.errstate(over="ignore", invalid="ignore"):
        for a, x in enumerate(diag):
            np.einsum("...j,...j->...", vecs[:, a], vecs[:, a], out=x)
        for (a, b), x in zip(pairs, off):
            np.einsum("...j,...j->...", vecs[:, a], vecs[:, b], out=x)
        t[:] = diag[0]
        for x in diag[1:]:
            t += x
        open_ = ~(t < _GRAM_TRACE_MAX)
        if r == 1:
            lo, hi = t, diag[0]
        else:
            t /= r
            for x in diag:
                x -= t
            for x in off:
                x *= np.sqrt(2.0)
            s = diag[0]
            for x in diag[1:] + off:
                np.hypot(s, x, out=s)
            s /= np.sqrt(r)
            lo, hi = t, np.multiply(s, np.sqrt(r - 1), out=diag[1])
            hi += t
            s /= np.sqrt(r - 1)
            lo += s
        np.sqrt(hi, out=hi)
        hi *= 1.0 + _BOUND_REL
        hi += _BOUND_ABS
        hi[open_] = np.inf
        np.sqrt(lo, out=lo)
        lo *= 1.0 - _BOUND_REL
        lo -= _BOUND_ABS
        lo[open_] = -np.inf
    return lo, hi


def _gate(
    lo: np.ndarray, hi: np.ndarray, w: np.ndarray, expo: float, best: float,
    noise_floor: float, dead_tol: float,
) -> tuple[float, np.ndarray]:
    """`best` raised by the pairs' lower quotients lo / w**expo, and the
    indices of the pairs whose upper quotient hi / w**expo reaches it and
    whose hi exceeds the noise floor; lo and hi bound the pairs' computed
    sigma_max and are overwritten.

    An upper quotient below `best`, a lower bound on the maximum, cannot be
    the maximum, and `upper >= best` keeps ties and +inf.  Where w**expo
    vanishes the upper quotient is +inf if hi exceeds dead_tol and 0
    otherwise, as `_pair_quotient` counts the pair.
    """
    with np.errstate(over="ignore"):
        denom = w**expo
        live = denom > 0.0
        # pairs with lo above the floor cannot be floored: a sound lower bound
        sure = live & (lo > noise_floor)
        keep = hi > noise_floor
        best = max(best, np.max(np.divide(lo, denom, out=lo, where=sure), where=sure, initial=0.0))
        dead = ~live
        hi[dead] = np.where(hi[dead] > dead_tol, np.inf, 0.0)
        np.divide(hi, denom, out=hi, where=live)
    keep &= hi >= best
    return best, np.flatnonzero(keep)


def _keep(
    diff: np.ndarray, w: np.ndarray, sel: np.ndarray, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(diff[sel], w[sel]) and the flat slot left spare: unless sel keeps
    them all, the matrices are copied to the front of `spare`, and diff,
    contiguous and spent, becomes the spare."""
    if sel.size == w.size:
        return diff, w, spare
    kept = spare[: sel.size * diff[0].size].reshape((sel.size,) + diff.shape[1:])
    np.take(diff, sel, axis=0, out=kept, mode="clip")
    return kept, w[sel], diff.reshape(-1)


def _spectral_pair_quotient(
    diff: np.ndarray, w: np.ndarray, expo: float, best: float,
    noise_floor: float, dead_tol: float, pool: np.ndarray,
) -> tuple[float, int, float]:
    """One read's worst sigma_max(diff[i]) / w[i]**expo, numerators floored.

    Returns the read's quotient, its index within the read and `best`, a
    lower bound on the maximum over the reads so far (0.0 before the first),
    raised by this read.  Keeping a read's quotient only when it is strictly
    larger than the maximum so far gives, over the reads in pair order,
    bitwise the (max, argmax) of `_pair_quotient` on the spectral norms of
    every pair floored at noise_floor, ties to the first pair.  Single-row
    forms take row norms on every pair.  Otherwise the eigensolver runs
    only on the pairs that can reach `best`, through two `_gate`s: first
    ||M||_F / sqrt(r) <= sigma_max(M) <= ||M||_F with r = min(out_dim,
    d**k) on every pair, then the trace bounds of `_sigma_bounds` where
    more than one pair is left, which pin sigma_max to the slack at r = 2.
    Any exact quotient of any pair is such a bound, so a caller may seed
    `best` with one.  A read left with no pair returns the quotient 0.0,
    which raises no maximum.

    `pool` is flat float scratch beside diff, of diff[0].size entries per
    pair.  It takes the Frobenius bounds, then that gate's survivors; the
    trace bounds go to whichever of it and diff holds no survivors.
    """
    idx = None
    if diff.shape[1] > 1:
        n = w.size
        r = min(diff.shape[1:])
        hi, lo = pool[:n], pool[n : 2 * n]
        np.sqrt(np.einsum("poj,poj->p", diff, diff, out=hi), out=hi)
        np.multiply(hi, 1.0 - _BOUND_REL, out=lo)
        lo -= _BOUND_ABS
        lo /= np.sqrt(r)
        # an overflowed square bounds nothing from below: the pair stays open
        lo[hi == np.inf] = -np.inf
        hi *= 1.0 + _BOUND_REL
        hi += _BOUND_ABS
        best, idx = _gate(lo, hi, w, expo, best, noise_floor, dead_tol)
        diff, w, spare = _keep(diff, w, idx, pool)
        # one matrix left costs the eigensolver what its trace bounds would
        if r > 1 and w.size > 1:
            lo, hi = _sigma_bounds(diff, spare)
            best, sel = _gate(lo, hi, w, expo, best, noise_floor, dead_tol)
            diff, w, idx = diff[sel], w[sel], idx[sel]
        if not w.size:
            return 0.0, 0, best
    norms = batched_spectral_norms(diff)
    if noise_floor > 0.0:
        norms[norms <= noise_floor] = 0.0
    q, j = _pair_quotient(norms, w, expo, dead_tol=dead_tol)
    # an evaluated quotient is attained, so it bounds the maximum from below
    return q, int(j if idx is None else idx[j]), max(best, q)


# Slack of the chain bounds on the pair remainders: relative, and absolute
# per chain step in units of the form's size; see `_chain_bounds`.
_CHAIN_REL = 1e-6
_CHAIN_ABS = 1e-13


def _chain_bounds(
    sizes: list[np.ndarray], steps: list[np.ndarray], s0: int, s1: int, slack: list[float],
    pool: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Bounds on the level-k pair remainders of rows s0..s1-1, k = 1..L.

    R^k(s, u), the level-k matrix of (beta_u - beta_s)(g_u, .) that
    `difference_matrices` forms, satisfies the cocycle identity with Chen's
    relation: R^k(s, u) = R^k(t, u) + sum_{l >= k} R^l(s, t)
    (pi_{l-k}(g_{t,u}) x id) for s < t < u.  Chaining it along the row s
    over the steps t -> t+1, with the triangle inequality and
    Cauchy-Schwarz, gives sigma_max <= ||R^k(s, u)||_F <= U^k(s, u), where
    U^k(s, s) = 0 and

        U^k(s, t+1) = U^k(s, t) + ||R^k(t, t+1)||_F
                      + sum_{l > k} U^l(s, t) ||pi_{l-k}(g_{t,t+1})||,

    from `sizes[k-1]`, the N adjacent remainders' Frobenius norms, and
    `steps[j-1]`, the steps' level-j Euclidean norms, j < L.  Every term is
    non-negative, so from level L down each level is one cumulative sum
    along t of terms the higher levels give.

    In floats the bound is slackened to U^k (1 + _CHAIN_REL) + slack[k-1],
    from `OneFormPath._chain_slack`.  The relative term covers the rounding
    of the norms and of the sums of non-negative terms, about (N + d**L)
    eps relative, and leaves room for a few ulps in the bound quotient's
    denominator.  The absolute term covers what the identity misses in
    floats.  The pair increments are separate products g_s^{-1} g_t, so
    Chen's relation holds among them to a few ulps of (1 + r)**L, r the
    base's `_reach`, and the kernel rounds its sums over the increments;
    at level k both errors go through the form's blocks of the levels above
    k only, since the levels' scalar parts are exactly 1 and A_t - A_s is
    one rounding.  Each such error is about d**L eps times those blocks'
    size times (1 + r)**L, carried to the pair by increments no larger:
    well inside _CHAIN_ABS of it, and a pair collects one per chain step
    and one of its own, at most N + 1.  _BOUND_ABS covers squares that
    underflow.  Where the raw chain is exact, as at level L of a form whose
    coefficients move monotonically along a fixed matrix, rounding takes
    the direct norm over it by a few ulps, which the slack absorbs.

    Entry [k-1][i, j] bounds the pair (s0 + i, s0 + 1 + j) for j >= i;
    entries left of the diagonal are no pairs.  A row whose bound overflows
    is +inf.  The L tables are the leading views of `pool`, flat float
    scratch of L + 1 tables of (s1 - s0) (N - s0) entries, the last one
    for the products; without a pool one is allocated.
    """
    top, n = len(sizes), sizes[0].size
    rows, cols = s1 - s0, n - s0
    if pool is None:
        pool = np.empty((top + 1) * rows * cols)
    *bounds, term = (pool[i * rows * cols : (i + 1) * rows * cols].reshape(rows, cols) for i in range(top + 1))
    head = np.tri(rows, k=-1, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(top, 0, -1):
            x = bounds[k - 1]
            x[:] = sizes[k - 1][s0:]
            # the steps before each row's start
            x[:, :rows][head] = 0.0
            for l in range(k + 1, top + 1):
                np.multiply(bounds[l - 1][:, :-1], steps[l - k - 1][s0 + 1 :], out=term[:, :-1])
                x[:, 1:] += term[:, :-1]
            np.cumsum(x, axis=1, out=x)
        for k, u in enumerate(bounds, start=1):
            u *= 1.0 + _CHAIN_REL
            u += slack[k - 1]
            # the sums grow along the row, so inf or nan reaches its end
            u[~(u[:, -1] < np.inf)] = np.inf
    return bounds


def _gather(x: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x at the indices idx of its last axis, straight into `out` if idx is
    flat, else a small array that broadcasts; mode="clip": they are in range."""
    return np.take(x, idx, axis=-1, out=out if idx.ndim == 1 else None, mode="clip")


def _pairing(coeffs: Iterable[np.ndarray], blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Row-wise sum_k A^(k) h_k, coeffs[k-1] (n, out, d**k) and blocks[k-1]
    (n, d**k), summed from zero in k order; a row's bits do not depend on
    the rows batched with it.  einsum's sums follow its operands' strides,
    so letter-major blocks are read as C-contiguous copies."""
    out = 0.0
    for A, h in zip(coeffs, blocks):
        out = out + np.einsum("nok,nk->no", A, np.ascontiguousarray(h))
    return out


@dataclass(frozen=True, eq=False)
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

    def pair_values(
        self, rows: np.ndarray | slice | list[int], blocks: tuple[np.ndarray, ...]
    ) -> np.ndarray:
        """beta_{t_r}(g_{t_r}, h) for n grid rows r (index array or slice) and
        the level blocks of n arguments h, blocks[k-1] (n, d**k); shape (n, out)."""
        return _pairing((A[rows] for A in self.levels), blocks)

    def step_values(self) -> np.ndarray:
        """All beta_{t_i}(g_{t_i}, g_{t_i, t_{i+1}}) at once, shape (N, out)."""
        return self.pair_values(slice(None, -1), self.base.step_level_blocks)

    def integral_values(self) -> np.ndarray:
        """Left sums of `step_values` from t_0, shape (N+1, out)."""
        out = np.zeros((self.base.times.size, self.out_dim))
        np.cumsum(self.step_values(), axis=0, out=out[1:])
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

    def difference_matrices(
        self, k: int, pairs: tuple[np.ndarray, np.ndarray], incs: tuple[np.ndarray, ...],
        pool: np.ndarray | None = None,
    ) -> np.ndarray:
        """Level-k matrices of (beta_t - beta_s)(g_t, .) on the pairs (s, t):
        flat index arrays, or the (rows, 1) and (1, cols) aranges of rows
        s0..s1-1 and points s0+1..N of a `base._row_blocks` rectangle, whose
        entries t <= s are no pairs and NaN.  incs are levels 1..L-k of
        g_{s,t} there, as `base._products` or `base._rectangle_products`
        form them.

        beta_s(g_t, b) re-expands through the increment: the level-k piece is
        sum_{m >= k} A_s^(m) (pi_{m-k}(g_{s,t}) x id), summed from zero over
        per-letter terms in ascending letter order: bitwise the einsum
        "powj,pw->poj" when d**k >= 2 or one letter is summed, as always here.

        The sums run letter-major, so each loops over the pairs, not over a
        few letters.  They live in `pool`, flat float scratch of three result
        sizes below level L and two at level L, allocated unless given; the
        result, laid out (..., out_dim, d**k) at the end, is its leading view.
        """
        d, top = self.base.dim, self.base.level
        s, t = pairs
        lead = np.broadcast_shapes(s.shape, t.shape)
        letters = self.levels[k - 1].shape[1:]
        size = math.prod(lead + letters)
        slots = 3 if k < top else 2
        pool = np.empty(slots * size) if pool is None else pool
        # level L sums no terms, so its term takes the sum's slot
        acc, diff, term = (pool[i % slots * size : (i % slots + 1) * size].reshape(letters + lead) for i in range(3))
        block = self.levels[k - 1].transpose(1, 2, 0)
        np.subtract(_gather(block, t, diff), _gather(block, s, term), out=diff)
        for m in range(k + 1, top + 1):
            A = self.levels[m - 1].reshape(-1, self.out_dim, d ** (m - k), d**k).transpose(1, 3, 2, 0)
            inc = incs[m - k - 1]
            acc.fill(0.0)
            for w in range(d ** (m - k)):
                acc += np.multiply(_gather(A[:, :, w], s, term), inc[..., w], out=term)
            diff -= acc
        np.copyto(diff, np.nan, where=t <= s)
        result = pool[:size].reshape(lead + letters)
        np.copyto(result, diff.transpose(*range(2, 2 + len(lead)), 0, 1))
        return result

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
        if not 1.0 < gamma < np.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {gamma}")
        k_max = min(self.base.level, strict_floor(gamma))
        expos = [(gamma - k) / self.base.p for k in range(1, k_max + 1)]
        quots, pairs = self._level_quotients(omega, expos, noise_floor)
        return self.level_sups, tuple(quots), pairs

    def _level_quotients(
        self, omega: Control, expos: list[float], noise_floor: float = 0.0
    ) -> tuple[list[float], list[tuple[int, int]]]:
        """Worst sigma_max(difference) / omega**expos[k-1] and its pair, per level k.

        Each level keeps (max, pair, lower bound) over reads, levels inside
        reads, so the difference matrices of all pairs never exist at once;
        pair (0, 1) attains a zero maximum.  A read is a set of pairs (s, t)
        or a `base._row_blocks` rectangle of one `_BUILD_PAIRS` entries,
        whose non-pairs t <= s get NaN numerators and zero weights: no gate
        keeps them, and their quotient 0 raises no maximum.  One pool serves
        every read and level, so no read allocates its levels, its
        difference matrices, their temporaries, the bounds or the survivors
        of the Frobenius bounds.  It holds the levels of the largest read,
        then the widest level's scratch, which level L, last and reading no
        pair levels, lays over them; and at its end the chain-bound, log and
        quotient tables of the largest row block.

        Single-row forms read every rectangle.  Wider forms, whose quotients
        reach the eigensolver, first take each level's lower bound from the
        exact maximum over the adjacent pairs (s, s+1), read as one set, and
        keep their remainder norms.  From them `_chain_bounds` bounds every
        pair's remainder, one `_row_blocks(2)` block at a time, bottom rows
        first.  Only the pairs whose bound
        quotient reaches the level's lower bound and whose bound exceeds the
        noise floor form difference matrices: the kept entries (i, j), pairs
        (s0 + i, s0 + 1 + j), in sets of at most a read's size, the last
        first, or the block's rectangles, bottom first, when at least half
        of its pairs are kept.  Before a level reads a block whole, its pair
        of largest bound quotient is evaluated alone, which may raise the
        lower bound enough to spare the rest; once such a probe leaves the
        bound where it was, the level stops probing.  An evaluated quotient
        is attained, so each lower bound stays below the maximum, and a pair
        left out has a smaller quotient or a floored numerator.  Every read
        comes earlier in row-major pair order than every read before it and
        keeps its quotient where it is strictly larger, or equal and
        positive: quotients and worst pairs are bitwise the full scan's.
        """
        base = self.base
        if not np.array_equal(omega.times, base.times):
            raise DimensionMismatchError("the control lives on another time grid than the path")
        dead_tol = max(1e-12, noise_floor)
        n, top = base.num_steps, base.level
        # a single-row form's one block is all rows; a block's largest rectangle need not be its first
        blocks = [(0, n)] if self.out_dim == 1 else list(base._row_blocks(2))
        length = max(n, *((r1 - r0) * (n - r0) for b in blocks for r0, r1 in base._row_blocks(1, *b)))
        # floats per pair: a set's products, or the read's levels and then
        # level k's three result-sized slots; level L's two go over the levels
        held, spent = base._run_floats(top - 1)
        widths = [self.out_dim * base.dim**k for k in range(1, len(expos) + 1)]
        per_pair = max(spent, *(3 * w + held if k < top else 2 * w for k, w in enumerate(widths, start=1)))
        # L chain-bound tables, the quotients (the products' scratch before)
        # and the logs, past the head a single-pair probe uses
        table = 0 if self.out_dim == 1 else (top + 2) * max((s1 - s0) * (n - s0) for s0, s1 in blocks)
        pool = np.empty(max(length * per_pair, table + per_pair))
        tables = pool[pool.size - table :]

        def read_set(s, t, upto):
            """Index arrays (s, t), their levels 1..upto and their weights."""
            incs = base._products(s, t, upto, pool)[1:] if upto else ()
            return (s, t), incs, omega.at(s, t)

        def read_rectangle(s0, s1, upto):
            """Rows s0..s1-1 against points s0+1..N as broadcasting aranges
            (s, t), their levels 1..upto and their weights, zero at the
            non-pairs t <= s."""
            s, t = np.arange(s0, s1)[:, None], np.arange(s0 + 1, n + 1)[None, :]
            incs = base._rectangle_products(s0, s1, upto, pool)[1:] if upto else ()
            w = omega.at(s, t)
            w[t <= s] = 0.0
            return (s, t), incs, w.reshape(-1)

        def scan(k, read, state, diff=None, earlier=False):
            """Level k's (max, pair, lower bound) after one more read from
            `read_set` or `read_rectangle`; one `earlier` in pair order than
            the pair kept wins its ties."""
            q_max, pair, best = state
            pairs, incs, w = read
            at = w.size * held if k < top else 0
            if diff is None:
                diff = self.difference_matrices(k, pairs, incs, pool[at:])
            q, j, best = _spectral_pair_quotient(
                diff.reshape((w.size,) + diff.shape[-2:]), w, expos[k - 1], best, noise_floor, dead_tol,
                pool[at + diff.size :],
            )
            if q > q_max or (earlier and q == q_max > 0.0):
                q_max, pair = q, tuple(int(x.flat[j]) for x in np.broadcast_arrays(*pairs))
            return q_max, pair, best

        scans = [(0.0, (0, 1), 0.0)] * len(expos)
        if self.out_dim == 1:
            for s0, s1 in base._row_blocks():
                rect = read_rectangle(s0, s1, top - 1)
                scans = [scan(k, rect, state) for k, state in enumerate(scans, start=1)]
            return [q for q, _, _ in scans], [pair for _, pair, _ in scans]

        idx = np.arange(n)
        adjacent = (idx, idx + 1), base._products(idx, idx + 1, top - 1)[1:], omega.at(idx, idx + 1)
        sizes = []
        for k in range(1, top + 1):
            diff = self.difference_matrices(k, *adjacent[:2], pool if k <= len(expos) else None)
            with np.errstate(over="ignore"):
                sizes.append(np.sqrt(np.einsum("poj,poj->p", diff, diff)))
            if k <= len(expos):
                scans[k - 1] = (0.0, (0, 1), scan(k, adjacent, scans[k - 1], diff)[2])
        with np.errstate(over="ignore"):
            steps = [np.sqrt(sum_squares(x)) for x in adjacent[1]]
        del adjacent, diff
        slack = self._chain_slack()
        probing = [True] * len(expos)
        # bottom rows first: a Picard difference grows along the path, so
        # the late pairs raise the lower bounds soonest
        for s0, s1 in reversed(blocks):
            rows, cols = s1 - s0, n - s0
            size = rows * cols
            n_pairs = size - rows * (rows - 1) // 2
            bounds = _chain_bounds(sizes, steps, s0, s1, slack, tables[: (top + 1) * size])
            quot, logs = (tables[i * size : (i + 1) * size].reshape(rows, cols) for i in (top, top + 1))
            # omega**e as exp(e log omega): a few ulps off the exact scan's
            # power, far inside the bounds' relative slack, at a tenth of its cost
            with np.errstate(divide="ignore"):
                np.log(omega.table[s0:s1, s0 + 1 :], out=logs)
            s, t = np.arange(s0, s1)[:, None], np.arange(s0 + 1, n + 1)[None, :]
            keeps = []
            for k, bound in enumerate(bounds[: len(expos)], start=1):
                q_max, pair, best = scans[k - 1]
                # bounds are positive, so a dead pair's bound quotient is +inf
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    np.multiply(logs, expos[k - 1], out=quot)
                    np.exp(quot, out=quot)
                    np.divide(bound, quot, out=quot)
                if noise_floor > 0.0:
                    quot[bound <= noise_floor] = -1.0
                quot[t <= s] = -1.0
                keep = quot >= best
                if probing[k - 1] and 2 * np.count_nonzero(keep) >= n_pairs:
                    i, j = np.unravel_index(np.argmax(quot), quot.shape)
                    one = read_set(np.array([s0 + i]), np.array([s0 + 1 + j]), top - k)
                    raised = scan(k, one, (0.0, (0, 1), best))[2]
                    if raised > best:
                        scans[k - 1] = q_max, pair, raised
                        keep = quot >= raised
                    else:
                        # a flat level: probing every block costs more than it spares
                        probing[k - 1] = False
                keeps.append(keep)
            # reading a block whole costs about what gathering half of it would
            kept = [np.count_nonzero(keep) for keep in keeps]
            whole = [k for k, c in enumerate(kept, start=1) if 2 * c >= n_pairs]
            for r0, r1 in reversed(list(base._row_blocks(1, s0, s1)) if whole else ()):
                rect = read_rectangle(r0, r1, top - whole[0])
                for k in whole:
                    scans[k - 1] = scan(k, rect, scans[k - 1], earlier=True)
            for k, (keep, c) in enumerate(zip(keeps, kept), start=1):
                flat = np.flatnonzero(keep) if 2 * c < n_pairs else ()
                for a in reversed(range(0, len(flat), length)):
                    i, j = np.divmod(flat[a : a + length], cols)
                    scans[k - 1] = scan(k, read_set(s0 + i, s0 + 1 + j, top - k), scans[k - 1], earlier=True)
        return [q for q, _, _ in scans], [pair for _, pair, _ in scans]

    def _chain_slack(self) -> list[float]:
        """Absolute slack of `_chain_bounds` per level k: (N+1) _CHAIN_ABS M_k
        + _BOUND_ABS, M_k the largest Frobenius norm of the form's blocks of
        the levels above k (none at level L) times (1 + r)**L, r the base's
        `_reach`, a bound on every point's and pair's norm taken from the
        points.  See `_chain_bounds` for what it covers."""
        base = self.base
        with np.errstate(over="ignore", invalid="ignore"):
            squares = [float(np.max(np.einsum("toj,toj->t", A, A))) for A in self.levels]
            reach = (1.0 + base._reach) ** base.level
            return [
                (base.num_steps + 1) * _CHAIN_ABS * np.sqrt(max(squares[k:], default=0.0)) * reach
                + _BOUND_ABS
                for k in range(1, base.level + 1)
            ]

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
    infinite, since theta - k/p > 0 for all participating levels), unless
    that constant, or the control times it, overflows.
    """
    if not 1.0 < theta < np.inf:
        raise ValueError(f"theta must be finite and exceed 1, got {theta}")
    p = beta.base.p
    # every exponent is positive: k <= [p] <= p and theta > 1
    expos = [theta - k / p for k in range(1, beta.base.level + 1)]
    sups, pairs = beta._level_quotients(omega, expos)
    if auto_scale and all(np.isfinite(q) for q in sups):
        with np.errstate(over="ignore"):
            lam = max(1.0, *(np.float64(q) ** (1.0 / e) for q, e in zip(sups, expos)))
            # past the largest float the control stays as it is, and the
            # quotients above one fail the certificate
            if 1.0 < lam and lam * np.max(omega.table) < np.inf:
                omega = omega.scaled(lam)
                sups = [float(q / lam**e) for q, e in zip(sups, expos)]
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


def closed_lift_form(
    form: PolyMap, g: SampledRoughPath, base_point: np.ndarray | None = None
) -> OneFormPath:
    """Exact group-level integrator of a polynomial form p: R^d -> L(R^d, R^w)
    along g: the integral form of p along the points X_t = base_point + x_t
    that g reaches, whose derivative levels are D^k p(X_t) with the output
    flattened.

    The pair value on (a, b) Taylor-expands p at the point reached by a and
    pairs the derivative stack with the rebracketed levels of b; summed along
    a partition it reproduces the line integral of p exactly on polylines.
    Levels of g above deg p + 1 pair with D^k p = 0.
    """
    if len(form.out_shape) != 2 or form.out_shape[1] != form.in_dim:
        raise DimensionMismatchError(
            "polynomial form must have out_shape (w, d) with d = in_dim"
        )
    if form.degree > g.level - 1:
        raise ValueError(f"degree {form.degree} needs level >= {form.degree + 1}")
    if base_point is None:
        base_point = np.zeros(form.in_dim)
    base_point = np.asarray(base_point, dtype=float).reshape(-1)
    if base_point.size != form.in_dim:
        raise DimensionMismatchError("base point dimension mismatch")
    if g.dim != form.in_dim:
        raise DimensionMismatchError("driver dimension mismatch")
    X = base_point[None, :] + g.levels[1]
    n, d = X.shape
    return integral_form_from_controlled(
        g,
        form.derivative(X, 0),
        tuple(form.derivative(X, k).reshape(n, -1, d**k) for k in range(1, g.level)),
    )


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
