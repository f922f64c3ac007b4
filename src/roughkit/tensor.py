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
    "TruncatedTensor",
    "GroupElement",
    "tensor_exp",
    "tensor_log",
    "homogeneous_norm",
    "last_letter_split",
    "split_apply",
    "split_matrix",
    "compositions",
    "stack_product",
    "stack_inverse",
    "stack_exp",
    "certify_stack",
]


class DimensionMismatchError(ValueError):
    """Raised when operands live in different algebras (dim or level disagree)."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


# -- level-stack kernel -------------------------------------------------------
#
# A level stack holds n elements of the truncated algebra side by side: a
# tuple of L+1 arrays, stack[k] of shape (n, d**k).  The single-element
# classes below are 1-row views over these functions, so the graded product,
# the nilpotent series and the group-like certificate each exist once.

GROUPLIKE_SHUFFLE_TOL = 1e-10
GROUPLIKE_INVERSE_TOL = 1e-12


def _unit_like(t: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Stack of units with the shapes of t."""
    return (np.ones(t[0].shape),) + tuple(np.zeros(x.shape) for x in t[1:])


def stack_product(
    a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """Row-wise graded (truncated) tensor product of two level stacks.

    Leading axes broadcast, so (n, 1, d**k) by (1, n, d**k) stacks give the
    products of all pairs of rows.
    """
    # level-0 blocks end in an axis of length 1, so this is the leading shape
    lead = np.broadcast(a[0], b[0]).shape[:-1]
    out = []
    for k in range(len(a)):
        acc = np.zeros(lead + a[k].shape[-1:])
        for j in range(k + 1):
            # a row-wise outer product concatenates letter indices
            acc += (a[j][..., :, None] * b[k - j][..., None, :]).reshape(lead + (-1,))
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


def certify_stack(
    t: tuple[np.ndarray, ...], rows: np.ndarray | None = None
) -> None:
    """Group-like certificate for every selected row of a unital level stack.

    Each row must satisfy the level-2 shuffle relation (relative tolerance)
    and the inverse identity t t^{-1} = 1 (absolute tolerance).  `rows` is a
    boolean mask; unselected rows are not checked.  The ValueError names the
    test that the first failing row fails, shuffle before inverse.
    """
    if rows is not None:
        t = tuple(x[rows] for x in t)
    n = t[0].shape[0]
    if n == 0:
        return
    shuffle_bad = np.zeros(n, dtype=bool)
    if len(t) > 2:
        x = t[1]
        d = x.shape[1]
        two = t[2].reshape(n, d, d)
        sym_defect = 0.5 * (two + two.transpose(0, 2, 1)) - 0.5 * (
            x[:, :, None] * x[:, None, :]
        )
        scale = 1.0 + np.linalg.norm(x, axis=1) ** 2
        worst = np.max(np.abs(sym_defect), axis=(1, 2), initial=0.0)
        shuffle_bad = worst > GROUPLIKE_SHUFFLE_TOL * scale
    prod = stack_product(t, stack_inverse(t))
    inverse_bad = np.zeros(n, dtype=bool)
    for a, b in zip(prod, _unit_like(t)):
        inverse_bad |= np.max(np.abs(a - b), axis=1, initial=0.0) > GROUPLIKE_INVERSE_TOL
    bad = np.flatnonzero(shuffle_bad | inverse_bad)
    if bad.size:
        what = "level-2 shuffle relation" if shuffle_bad[bad[0]] else "inverse identity"
        raise ValueError(f"group-like certificate failed: {what}")


@dataclass(frozen=True)
class TruncatedTensor:
    """Element of the tensor algebra over R^dim, truncated beyond `level`.

    Parameters
    ----------
    dim:
        Dimension d of the underlying vector space.
    level:
        Truncation level L; blocks of degree > L are dropped by every operation.
    coeffs:
        Tuple of L+1 flat arrays, coeffs[k] of length d**k.  coeffs[0] is the
        scalar part as a length-1 array.
    """

    dim: int
    level: int
    coeffs: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if len(self.coeffs) != self.level + 1:
            raise ValueError(
                f"expected {self.level + 1} level blocks, got {len(self.coeffs)}"
            )
        blocks = []
        for k, block in enumerate(self.coeffs):
            arr = np.asarray(block, dtype=float).reshape(-1)
            if arr.size != self.dim**k:
                raise DimensionMismatchError(
                    f"level-{k} block has {arr.size} entries, expected {self.dim**k}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"level-{k} block contains non-finite entries")
            blocks.append(_frozen(arr))
        object.__setattr__(self, "coeffs", tuple(blocks))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, level: int) -> "TruncatedTensor":
        return cls(dim, level, tuple(np.zeros(dim**k) for k in range(level + 1)))

    @classmethod
    def unit(cls, dim: int, level: int) -> "TruncatedTensor":
        blocks = [np.zeros(dim**k) for k in range(level + 1)]
        blocks[0] = np.ones(1)
        return cls(dim, level, tuple(blocks))

    @classmethod
    def from_vector(cls, vec: np.ndarray, level: int) -> "TruncatedTensor":
        """Embed a vector of R^d as a pure level-1 element."""
        vec = np.asarray(vec, dtype=float).reshape(-1)
        dim = vec.size
        blocks = [np.zeros(dim**k) for k in range(level + 1)]
        if level >= 1:
            blocks[1] = vec
        return cls(dim, level, tuple(blocks))

    @classmethod
    def _view(
        cls, dim: int, level: int, stack: tuple[np.ndarray, ...], row: int
    ) -> "TruncatedTensor":
        """One row of a read-only level stack, wrapped without copy or checks.

        Only for kernel results built from validated operands; the public
        operations copy and validate their results instead.
        """
        blocks = tuple(block[row] for block in stack)
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "level", level)
        object.__setattr__(out, "coeffs", blocks)
        return out

    def _stack(self) -> tuple[np.ndarray, ...]:
        """This element as a 1-row level stack."""
        return tuple(b[None, :] for b in self.coeffs)

    @classmethod
    def from_level_blocks(
        cls, dim: int, level: int, blocks: dict[int, np.ndarray]
    ) -> "TruncatedTensor":
        """Build from a sparse {degree: flat block} mapping."""
        full = [np.zeros(dim**k) for k in range(level + 1)]
        for k, b in blocks.items():
            if not 0 <= k <= level:
                raise ValueError(f"degree {k} outside [0, {level}]")
            full[k] = np.asarray(b, dtype=float).reshape(dim**k)
        return cls(dim, level, tuple(full))

    # -- accessors ---------------------------------------------------------

    @property
    def scalar(self) -> float:
        return float(self.coeffs[0][0])

    def level_block(self, k: int) -> np.ndarray:
        return self.coeffs[k]

    def level_norms(self) -> np.ndarray:
        """Euclidean norm of each block, degrees 0..L."""
        return np.array([float(np.linalg.norm(b)) for b in self.coeffs])

    def norm(self) -> float:
        """Algebra norm: sum over degrees of the Euclidean block norms.

        Euclidean block norms are cross norms, so this norm is
        submultiplicative with constant exactly one.
        """
        return float(sum(np.linalg.norm(b) for b in self.coeffs))

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: "TruncatedTensor") -> None:
        if self.dim != other.dim or self.level != other.level:
            raise DimensionMismatchError(
                f"cannot combine (dim={self.dim}, level={self.level}) with "
                f"(dim={other.dim}, level={other.level})"
            )

    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._check_compatible(other)
        return TruncatedTensor(
            self.dim,
            self.level,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        self._check_compatible(other)
        return TruncatedTensor(
            self.dim,
            self.level,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "TruncatedTensor":
        return TruncatedTensor(self.dim, self.level, tuple(-a for a in self.coeffs))

    def __mul__(self, c: float) -> "TruncatedTensor":
        c = float(c)
        return TruncatedTensor(self.dim, self.level, tuple(c * a for a in self.coeffs))

    __rmul__ = __mul__

    def __matmul__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        """Graded (truncated) tensor product."""
        self._check_compatible(other)
        prod = stack_product(self._stack(), other._stack())
        return TruncatedTensor(self.dim, self.level, tuple(b[0] for b in prod))

    def without_scalar(self) -> "TruncatedTensor":
        blocks = list(self.coeffs)
        blocks[0] = np.zeros(1)
        return TruncatedTensor(self.dim, self.level, tuple(blocks))

    def dilate(self, c: float) -> "TruncatedTensor":
        """Degree-homogeneous dilation: level k is scaled by c**k."""
        c = float(c)
        return TruncatedTensor(
            self.dim,
            self.level,
            tuple((c**k) * b for k, b in enumerate(self.coeffs)),
        )

    def is_close(self, other: "TruncatedTensor", tol: float = 1e-12) -> bool:
        self._check_compatible(other)
        return all(
            np.max(np.abs(a - b), initial=0.0) <= tol
            for a, b in zip(self.coeffs, other.coeffs)
        )


def tensor_exp(v: TruncatedTensor) -> "GroupElement":
    """Exponential of an element with zero scalar part; see `stack_exp`."""
    if abs(v.scalar) > 0:
        raise ValueError("tensor_exp requires a zero scalar part")
    acc = stack_exp(v._stack())
    return GroupElement(TruncatedTensor(v.dim, v.level, tuple(b[0] for b in acc)))


def tensor_log(a: "TruncatedTensor | GroupElement") -> TruncatedTensor:
    """Logarithm of a unital element; finite series by nilpotency."""
    t = a.tensor if isinstance(a, GroupElement) else a
    if abs(t.scalar - 1.0) > 1e-9:
        raise ValueError("tensor_log requires scalar part 1")
    u = t.without_scalar()._stack()
    coeffs = [(-1.0) ** (n + 1) / n for n in range(1, t.level + 1)]
    acc = _stack_series(u, coeffs, tuple(np.zeros(b.shape) for b in u))
    return TruncatedTensor(t.dim, t.level, tuple(b[0] for b in acc))


@dataclass(frozen=True)
class GroupElement:
    """Unital element of the truncated algebra, optionally certified group-like.

    The scalar part must be exactly 1.  With `grouplike=True` the level-2
    shuffle relation and the inverse identity are checked at construction,
    so the flag really is a certificate rather than a label.
    """

    tensor: TruncatedTensor
    grouplike: bool = False

    def __post_init__(self) -> None:
        if self.tensor.scalar != 1.0:
            raise ValueError("group elements must have scalar part exactly 1")
        if self.grouplike:
            certify_stack(self.tensor._stack())

    @classmethod
    def _trusted(cls, tensor: TruncatedTensor, grouplike: bool) -> "GroupElement":
        """Wrap a unital tensor whose certificate already ran on its stack."""
        out = object.__new__(cls)
        object.__setattr__(out, "tensor", tensor)
        object.__setattr__(out, "grouplike", grouplike)
        return out

    # passthroughs
    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def level(self) -> int:
        return self.tensor.level

    def level_block(self, k: int) -> np.ndarray:
        return self.tensor.level_block(k)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.tensor @ other.tensor,
            grouplike=self.grouplike and other.grouplike,
        )

    def inverse(self) -> "GroupElement":
        t = self.tensor
        inv = stack_inverse(t._stack())
        return GroupElement(
            TruncatedTensor(t.dim, t.level, tuple(b[0] for b in inv)),
            grouplike=self.grouplike,
        )

    def increment_to(self, other: "GroupElement") -> "GroupElement":
        """Group increment self^{-1} @ other."""
        return self.inverse() @ other

    def dilate(self, c: float) -> "GroupElement":
        # Dilation is an automorphism of the group, so the flag survives.
        return GroupElement(self.tensor.dilate(c), grouplike=self.grouplike)

    def norm(self) -> float:
        return self.tensor.norm()


def homogeneous_norm(a: GroupElement) -> float:
    """Scaling-homogeneous size of a group element.

    Sum over degrees k >= 1 of the k-th root of the Euclidean block norm;
    homogeneous of degree one under dilation.
    """
    t = a.tensor
    total = 0.0
    for k in range(1, t.level + 1):
        nk = float(np.linalg.norm(t.coeffs[k]))
        total += nk ** (1.0 / k)
    return total


def last_letter_split(t: TruncatedTensor) -> tuple[np.ndarray, ...]:
    """Rebracket each level block as (prefix word) x (last letter).

    Returns blocks[j] of shape (d**j, d) for j = 1..L-1, where blocks[j]
    is the degree-(j+1) block of the input viewed as a matrix from prefix
    words of length j to the final letter.  Degrees 0 and 1 contribute
    nothing.  For a signature this is the tensor of iterated integrals
    "missing the final integration", which is what rough integration of a
    controlled integrand consumes.
    """
    d = t.dim
    return tuple(
        t.coeffs[j + 1].reshape(d**j, d) for j in range(1, t.level)
    )


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


def split_apply(parts: tuple[int, ...], block: np.ndarray, dim: int) -> np.ndarray:
    """Apply the level-splitting map to a flat degree-sum(parts) block.

    Output is flat with the part indices concatenated in order.
    """
    block = np.asarray(block, dtype=float).reshape(-1)
    K = sum(parts)
    if block.size != dim**K:
        raise DimensionMismatchError(
            f"block has {block.size} entries, expected {dim**K} for parts {parts}"
        )
    return split_matrix(dim, tuple(parts)) @ block


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
