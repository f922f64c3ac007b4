"""Graded truncated tensor algebra over R^d and its group of unital elements.

Everything here is dense and desk-scale: dimensions up to about four and
truncation levels up to about six, so a level block never exceeds a few
thousand floats.  Level-k blocks are stored flat with row-major letter
order, i.e. the word (i_1, ..., i_k) sits at index sum(i_j * d**(k-j)).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "GroupElement",
    "homogeneous_norms",
    "sum_squares",
    "split_matrix",
    "compositions",
    "stack_product",
    "stack_inverse",
    "stack_exp",
    "certify_stack",
]


class DimensionMismatchError(ValueError):
    """Raised when operands live in different algebras (dim or level disagree)."""


# -- level-stack kernel -------------------------------------------------------
#
# A level stack holds n elements of the truncated algebra side by side: a
# tuple of L+1 arrays, stack[k] of shape (n, d**k).  `GroupElement` below
# is a 1-row view over these functions, so the graded product, the
# nilpotent series and the group-like certificate each exist once.

GROUPLIKE_SHUFFLE_TOL = 1e-10


def _unit_like(t: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Stack of units with the shapes of t."""
    return (np.ones(t[0].shape),) + tuple(np.zeros(x.shape) for x in t[1:])


def letter_major_views(pool: np.ndarray, lead: tuple[int, ...], widths: list[int]) -> list[np.ndarray]:
    """Consecutive letter-major lead + (w,) views of flat float scratch: each
    letter a contiguous block of the lead's entries in C order."""
    block = pool[: math.prod(lead) * sum(widths)].reshape((-1,) + lead)
    axes = (*range(1, block.ndim), 0)
    return [block[at - w : at].transpose(axes) for w, at in zip(widths, itertools.accumulate(widths))]


def stack_product(
    a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...], pool: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Row-wise graded (truncated) tensor product of two level stacks.

    Leading axes broadcast, so (n, 1, d**k) by (1, n, d**k) stacks give the
    products of all pairs of rows.  Level k is the sum from zero of the
    terms j = 0..k in j order.  When both scalar blocks are exactly 1.0 the
    j = 0 and j = k terms are the blocks themselves, so level k is
    (0.0 + b_k), plus the interior terms, plus a_k: the same sum, bitwise,
    signed zeros included, without multiplying by the unit.

    Each level takes the memory order of b's: letter-major operands (rows
    on the contiguous axis) give letter-major levels, whose outer products
    loop over rows, not a few letters.  The sums are elementwise, so the
    bits do not depend on the layout.  With `pool`, flat float scratch for
    the leading shape's entries, the levels and then a term are its
    `letter_major_views`.
    """
    # level-0 blocks end in an axis of length 1, so this is the leading shape
    lead = np.broadcast(a[0], b[0]).shape[:-1]
    unital = bool((a[0] == 1.0).all() and (b[0] == 1.0).all())
    widths = [x.shape[-1] for x in a]
    slots = None if pool is None else letter_major_views(pool, lead, widths + widths[-1:])
    out = []
    for k, width in enumerate(widths):
        acc = np.empty_like(b[k], shape=lead + (width,)) if pool is None else slots[k]
        if unital:
            np.add(b[k], 0.0, out=acc)
        else:
            acc.fill(0.0)
        for j in range(unital, k + 1 - unital):
            # a row-wise outer product concatenates letter indices
            term = None if pool is None else slots[-1][..., :width].reshape(lead + (widths[j], -1))
            acc += np.multiply(a[j][..., :, None], b[k - j][..., None, :], out=term).reshape(lead + (-1,))
        if unital and k:
            acc += a[k]
        out.append(acc)
    return tuple(out)


def _stack_series(
    u: tuple[np.ndarray, ...],
    coeffs: list[float],
    acc: tuple[np.ndarray, ...],
) -> tuple[np.ndarray, ...]:
    """acc + sum_n coeffs[n-1] u^n for u with zero scalar part.

    The series is finite: u^n vanishes above the truncation level.
    """
    power = _unit_like(u)
    for c in coeffs:
        power = stack_product(power, u)
        acc = tuple(x + c * p for x, p in zip(acc, power))
    return acc


def stack_inverse(t: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Row-wise inverse of unital elements: (1 + u)^{-1} = sum_n (-u)^n."""
    u = (np.zeros(t[0].shape),) + tuple(t[1:])
    coeffs = [(-1.0) ** n for n in range(1, len(t))]
    return _stack_series(u, coeffs, _unit_like(t))


def stack_exp(u: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Row-wise exponential of elements with zero scalar part.

    Exact on the truncated algebra: powers beyond the level vanish, so the
    series is finite.
    """
    coeffs = [1.0 / math.factorial(n) for n in range(1, len(u))]
    return _stack_series(u, coeffs, _unit_like(u))


def sum_squares(x: np.ndarray) -> np.ndarray:
    """Sum of the squares of x over its last axis, in numpy's pairwise order.

    Bitwise np.add.reduce(x * x, axis=-1) on a C-contiguous copy of x, so
    its np.sqrt is np.linalg.norm's bits in any memory order; numpy sums a
    strided last axis sequentially, other bits from 8 letters on.  It runs
    letter by letter, vectorised over the rows.
    """
    return _pairwise_sum(x * x, 0, x.shape[-1])


def _pairwise_sum(sq: np.ndarray, lo: int, n: int) -> np.ndarray:
    """numpy's pairwise sum of letters lo..lo+n-1 of sq: sequential below 8
    letters, 8 accumulators up to 128, halves on multiples of 8 above.
    Adds into the letters of sq, which the caller owns."""
    if n < 8:
        acc = 0.0 + sq[..., lo]
        for i in range(lo + 1, lo + n):
            acc += sq[..., i]
        return acc
    if n <= 128:
        r = [sq[..., lo + j] for j in range(8)]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += sq[..., i + j]
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            acc += sq[..., i]
        return acc
    half = n // 2
    half -= half % 8
    return _pairwise_sum(sq, lo, half) + _pairwise_sum(sq, lo + half, n - half)


def homogeneous_norms(blocks: tuple[np.ndarray, ...]) -> np.ndarray:
    """Scaling-homogeneous size of stacked elements from their levels 1..L.

    Sum over degrees k >= 1, in k order, of the k-th root of the Euclidean
    norm of blocks[k-1] along its last axis; homogeneous of degree one
    under dilation.  The norms come from `sum_squares`: layout-free bits.
    A norm too large for a float is inf, without a warning: the callers
    refuse it (the control) or read it as an unbounded size.
    """
    with np.errstate(over="ignore"):
        return sum(np.sqrt(sum_squares(b)) ** (1.0 / k) for k, b in enumerate(blocks, 1))


def certify_stack(t: tuple[np.ndarray, ...], scale: np.ndarray | float = 0.0) -> None:
    """Group-like certificate for every row of a level stack.

    Each row must have scalar part exactly 1 and satisfy the level-2
    shuffle relation, sym(x^2) = x (x) x / 2, to a tolerance scaled by the
    larger of 1 + ||x||^2 and its entry of `scale` (the size of the path
    that produced it).  Levels 3..L are not checked.  The ValueError names
    the check that failed, the scalar part first.

    A path certifies its points once, at its running shuffle scale.  The
    product g_s^{-1} g_t of two of them is trusted on the all-pairs walks
    (the `_row_blocks` rectangles and the pair scan's kept pairs); at
    caller-chosen pairs (`increment_levels`) it is checked here, at the
    larger of the two scales.
    """
    if not np.all(t[0] == 1.0):
        raise ValueError("group-like certificate failed: scalar part not exactly 1")
    if len(t) > 2:
        x = t[1]
        n, d = x.shape
        two = t[2].reshape(n, d, d)
        sym_defect = 0.5 * (two + two.transpose(0, 2, 1)) - 0.5 * (
            x[:, :, None] * x[:, None, :]
        )
        scale = np.maximum(1.0 + np.linalg.norm(x, axis=1) ** 2, scale)
        worst = np.max(np.abs(sym_defect), axis=(1, 2), initial=0.0)
        if np.any(worst > GROUPLIKE_SHUFFLE_TOL * scale):
            raise ValueError("group-like certificate failed: level-2 shuffle relation")


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Unital element of the truncated algebra, optionally certified group-like.

    `levels[k]` holds the d**k coefficients of degree k, for k = 0..L with
    L >= 1, stored read-only.  The scalar part must be exactly 1.  With
    `grouplike=True` the element passes `certify_stack` at construction, so
    the flag is a certificate of level 2 rather than a label.  Equality and
    hashing are by identity.
    """

    levels: tuple[np.ndarray, ...] = field(repr=False)
    grouplike: bool = False

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ValueError(f"need levels 0..L with L >= 1, got {len(self.levels)} blocks")
        dim = np.size(self.levels[1])
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        blocks = []
        for k, block in enumerate(self.levels):
            arr = np.array(np.reshape(block, -1), dtype=float)
            if arr.size != dim**k:
                raise DimensionMismatchError(f"level-{k} block has {arr.size} entries, expected {dim**k}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"level-{k} block contains non-finite entries")
            arr.flags.writeable = False
            blocks.append(arr)
        if blocks[0][0] != 1.0:
            raise ValueError("group elements must have scalar part exactly 1")
        object.__setattr__(self, "levels", tuple(blocks))
        if self.grouplike:
            certify_stack(self._stack())

    @classmethod
    def unit(cls, dim: int, level: int) -> "GroupElement":
        """The unit, uncertified, so products with it are not certified."""
        return cls((np.ones(1),) + tuple(np.zeros(dim**k) for k in range(1, level + 1)))

    @classmethod
    def _trusted(cls, levels: tuple[np.ndarray, ...]) -> "GroupElement":
        """Wrap read-only group-like level rows, certified on their stack or
        exact exponentials, without copy or checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "levels", levels)
        object.__setattr__(out, "grouplike", True)
        return out

    def _stack(self) -> tuple[np.ndarray, ...]:
        """This element as a 1-row level stack."""
        return tuple(b[None, :] for b in self.levels)

    @property
    def dim(self) -> int:
        return self.levels[1].size

    @property
    def level(self) -> int:
        return len(self.levels) - 1

    def level_block(self, k: int) -> np.ndarray:
        return self.levels[k]

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        """Graded (truncated) product, validated like a constructed element."""
        if (self.dim, self.level) != (other.dim, other.level):
            raise DimensionMismatchError(
                f"cannot combine (dim={self.dim}, level={self.level}) with "
                f"(dim={other.dim}, level={other.level})"
            )
        prod = stack_product(self._stack(), other._stack())
        return GroupElement(tuple(b[0] for b in prod), grouplike=self.grouplike and other.grouplike)

    def inverse(self) -> "GroupElement":
        inv = stack_inverse(self._stack())
        return GroupElement(tuple(b[0] for b in inv), grouplike=self.grouplike)


@lru_cache(maxsize=None)
def _split_patterns(parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    labels = []
    for i, k in enumerate(parts):
        labels.extend([i] * k)
    return tuple(sorted(set(itertools.permutations(labels))))


@lru_cache(maxsize=None)
def split_matrix(dim: int, parts: tuple[int, ...]) -> np.ndarray:
    """Matrix of the level-splitting map for the given composition.

    The map sends the degree-K block (K = sum(parts)) to the tensor product
    of blocks of the given degrees.  It is pinned down by one property: on a
    group-like element the image of the degree-K block is the tensor product
    of the lower-degree blocks.  Concretely the (I_1,...,I_l) output entry
    sums the input over all interleavings of the part words, i.e. the map is
    adjoint to the shuffle product of coordinate functionals.
    """
    parts = tuple(int(k) for k in parts)
    if not parts or any(k < 1 for k in parts):
        raise ValueError(f"parts must be positive integers, got {parts}")
    K = sum(parts)
    n = dim**K
    indices = np.arange(n).reshape((dim,) * K)
    out = np.zeros((n, n))
    for pattern in _split_patterns(parts):
        # positions of each part's letters, in part order then slot order
        axes: list[int] = []
        for i in range(len(parts)):
            axes.extend(p for p, lab in enumerate(pattern) if lab == i)
        src = indices.transpose(axes).reshape(-1)
        out[np.arange(n), src] += 1.0
    out.flags.writeable = False
    return out


def compositions(total: int, length: int) -> list[tuple[int, ...]]:
    """All ordered tuples of `length` positive integers summing to `total`."""
    if length < 1 or total < length:
        return []
    if length == 1:
        return [(total,)]
    out = []
    for first in range(1, total - length + 2):
        for rest in compositions(total - first, length - 1):
            out.append((first, *rest))
    return out
