"""Function data for the solver: maps with exact derivative stacks.

Two concrete families are supported, polynomials and sine fields, because the
integrand assembly needs derivatives of every order up to the regularity
budget as arrays, not as autodiff closures.  Both families are closed under
the division trick f(x) - f(y) = h(x, y)(x - y), realized by Gauss-Legendre
quadrature along the segment (exact in the polynomial case).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import DimensionMismatchError

__all__ = [
    "strict_floor",
    "SmoothMap",
    "PolyMap",
    "SineField",
    "ScaledMap",
    "DividedMap",
    "LipFunction",
    "divide",
    "FieldSpecError",
    "field_from_json",
]


def strict_floor(gamma: float) -> int:
    """Largest integer strictly less than gamma (so 4.0 -> 3, 2.5 -> 2)."""
    return math.ceil(gamma) - 1


def symmetrized(arr: np.ndarray, slots: int) -> np.ndarray:
    """Average over permutations of the last `slots` axes."""
    if slots < 2:
        return arr
    lead = arr.ndim - slots
    acc = np.zeros_like(arr)
    for perm in itertools.permutations(range(slots)):
        acc += arr.transpose(tuple(range(lead)) + tuple(lead + q for q in perm))
    return acc / math.factorial(slots)


def _as_batch(Y: np.ndarray, in_dim: int) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[None, :]
    if Y.ndim != 2 or Y.shape[1] != in_dim:
        raise DimensionMismatchError(f"expected points of dim {in_dim}, got {Y.shape}")
    return Y


class SmoothMap:
    """Map R^m -> R^{out_shape} with exact batched derivatives.

    Subclasses implement `derivative` for every order from 0 (batch of
    points -> batch of symmetric derivative tensors, the `order` input slots
    appended as trailing axes of length m), and nothing else.  A map's value
    is its order-0 derivative: `apply` reads nothing else.
    """

    in_dim: int
    out_shape: tuple[int, ...]

    def apply(self, Y: np.ndarray) -> np.ndarray:
        return self.derivative(Y, 0)

    def derivative(self, Y: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.apply(_as_batch(y, self.in_dim))[0]

    def derivative_at(self, y: np.ndarray, order: int) -> np.ndarray:
        return self.derivative(_as_batch(y, self.in_dim), order)[0]

    def scaled(self, c: float) -> "SmoothMap":
        return ScaledMap(float(c), self)

    @property
    def out_size(self) -> int:
        return int(np.prod(self.out_shape, dtype=int)) if self.out_shape else 1


def _contract_last(T: np.ndarray, Y: np.ndarray, times: int) -> np.ndarray:
    """Contract the last `times` axes of T with the batch Y, one per axis."""
    out = np.einsum("...i,ni->n...", T, Y) if times > 0 else np.broadcast_to(
        T, (Y.shape[0],) + T.shape
    )
    for _ in range(times - 1):
        out = np.einsum("n...i,ni->n...", out, Y)
    return out


@dataclass(frozen=True, eq=False)
class PolyMap(SmoothMap):
    """f(y) = sum_l A_l[y, ..., y] with A_l symmetric in its l input slots.

    coeffs[l] has shape out_shape + (in_dim,) * l; blocks are symmetrized at
    construction so all derivative formulas are slot-order free.
    """

    in_dim: int
    out_shape: tuple[int, ...]
    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        blocks = []
        for l, block in enumerate(self.coeffs):
            block = np.asarray(block, dtype=float)
            want = tuple(self.out_shape) + (self.in_dim,) * l
            if block.shape != want:
                raise DimensionMismatchError(
                    f"degree-{l} block has shape {block.shape}, expected {want}"
                )
            block = symmetrized(block, l)
            block.flags.writeable = False
            blocks.append(block)
        if not blocks:
            raise ValueError("need at least a constant block")
        object.__setattr__(self, "out_shape", tuple(self.out_shape))
        object.__setattr__(self, "coeffs", tuple(blocks))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value: np.ndarray, in_dim: int) -> "PolyMap":
        value = np.asarray(value, dtype=float)
        return cls(in_dim, value.shape, (value,))

    def derivative(self, Y: np.ndarray, order: int) -> np.ndarray:
        Y = _as_batch(Y, self.in_dim)
        shape = (Y.shape[0],) + self.out_shape + (self.in_dim,) * order
        out = np.zeros(shape)
        for l in range(order, self.degree + 1):
            term = _contract_last(self.coeffs[l], Y, l - order)
            out += math.perm(l, order) * term
        return out

    def scaled(self, c: float) -> "PolyMap":
        return PolyMap(self.in_dim, self.out_shape, tuple(c * b for b in self.coeffs))


@dataclass(frozen=True, eq=False)
class SineField(SmoothMap):
    """Componentwise f(y)[o] = amp[o] sin(freq[o] . y + phase[o]).

    Every derivative is again a sine field (shifted phase), so the stack is
    closed form at any order: D^k f[o, i_1..i_k] picks up one freq factor per
    slot and a quarter-period phase shift per derivative.
    """

    amp: np.ndarray
    freq: np.ndarray
    phase: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp, dtype=float)
        freq = np.asarray(self.freq, dtype=float)
        phase = np.asarray(self.phase, dtype=float)
        if freq.shape[:-1] != amp.shape or phase.shape != amp.shape:
            raise DimensionMismatchError("amp, freq, phase shapes inconsistent")
        for name, arr in (("amp", amp), ("freq", freq), ("phase", phase)):
            # a copy keeps a scalar amp 0-d and leaves the caller's array writeable
            arr = np.array(arr, order="C")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def in_dim(self) -> int:
        return self.freq.shape[-1]

    @property
    def out_shape(self) -> tuple[int, ...]:
        return self.amp.shape

    def _angles(self, Y: np.ndarray) -> np.ndarray:
        return np.einsum("...i,ni->n...", self.freq, Y) + self.phase

    def derivative(self, Y: np.ndarray, order: int) -> np.ndarray:
        angles = self._angles(_as_batch(Y, self.in_dim))
        if order == 0:
            # no shift: -0.0 + 0.0 would lose a zero angle's sign
            return self.amp * np.sin(angles)
        core = self.amp * np.sin(angles + order * np.pi / 2.0)
        # label 0 is the batch, then the output axes, then one per input slot
        outs, ins = range(1, core.ndim), range(core.ndim, core.ndim + order)
        ops = [core, [0, *outs]]
        for q in ins:
            ops += [self.freq, [*outs, q]]
        return np.einsum(*ops, [0, *outs, *ins])

    def scaled(self, c: float) -> "SineField":
        return SineField(c * self.amp, self.freq, self.phase)


@dataclass(frozen=True)
class ScaledMap(SmoothMap):
    factor: float
    base: SmoothMap

    @property
    def in_dim(self) -> int:
        return self.base.in_dim

    @property
    def out_shape(self) -> tuple[int, ...]:
        return self.base.out_shape

    def derivative(self, Y: np.ndarray, order: int) -> np.ndarray:
        return self.factor * self.base.derivative(Y, order)

    def scaled(self, c: float) -> "ScaledMap":
        return ScaledMap(c * self.factor, self.base)


@dataclass(frozen=True, eq=False)
class DividedMap(SmoothMap):
    """h(x, y) = integral over t of Df(y + t(x - y)), on doubled input.

    The first `source.in_dim` coordinates are x, the rest y.  The identity
    f(x) - f(y) = h(x, y)(x - y) is exact up to the quadrature (which is exact
    for polynomial sources with enough nodes).  Derivatives pass under the
    integral: each doubled-slot direction (u, v) enters Df's extra slots as
    t u + (1 - t) v.
    """

    source: SmoothMap
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def in_dim(self) -> int:
        return 2 * self.source.in_dim

    @property
    def out_shape(self) -> tuple[int, ...]:
        return tuple(self.source.out_shape) + (self.source.in_dim,)

    def _segment_points(self, Z: np.ndarray) -> np.ndarray:
        m = self.source.in_dim
        X, Y = Z[:, :m], Z[:, m:]
        return Y[None, :, :] + self.nodes[:, None, None] * (X - Y)[None, :, :]

    def derivative(self, Z: np.ndarray, order: int) -> np.ndarray:
        P = self._segment_points(_as_batch(Z, self.in_dim))
        q, n, m = P.shape
        full = self.source.derivative(P.reshape(q * n, m), 1 + order).reshape(
            (q, n) + tuple(self.source.out_shape) + (m,) * (1 + order)
        )
        if order == 0:
            return np.einsum("q,qn...->n...", self.weights, full)
        out = np.zeros(
            (n,) + self.out_shape + (self.in_dim,) * order
        )
        eye = np.eye(m)
        for k in range(q):
            t = self.nodes[k]
            sel = np.concatenate([t * eye, (1.0 - t) * eye], axis=1)
            arr = full[k]
            for _ in range(order):
                arr = np.moveaxis(arr @ sel, -1, -order)
            out += self.weights[k] * arr
        return out


def gauss_nodes(num: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(num)
    return 0.5 * (x + 1.0), 0.5 * w


def divide(f: "SmoothMap | LipFunction"):
    """Division trick: h with f(x) - f(y) = h(x, y)(x - y).

    Polynomial sources get just enough nodes for exactness; other sources get
    a fixed 12-node rule.  A LipFunction argument returns the quotient
    wrapped at regularity gamma - 1.
    """
    if isinstance(f, LipFunction):
        inner = divide(f.map)
        if f.gamma - 1.0 <= 1.0:
            return inner
        return LipFunction(inner, f.gamma - 1.0)
    num_nodes = max(1, math.ceil(f.degree / 2)) if isinstance(f, PolyMap) else 12
    nodes, weights = gauss_nodes(num_nodes)
    return DividedMap(f, nodes, weights)


@dataclass(frozen=True)
class LipFunction(SmoothMap):
    """A map together with its regularity budget gamma > 1.

    Algorithms may use derivatives up to strict_floor(gamma) only, the
    value among them.  No norm bound is kept: the solver and its certificate
    read only the measured one-forms.
    """

    map: SmoothMap
    gamma: float

    def __post_init__(self) -> None:
        # the comparisons are false on NaN, so NaN is refused with inf
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma}")

    @property
    def smoothness(self) -> int:
        return strict_floor(self.gamma)

    @property
    def in_dim(self) -> int:
        return self.map.in_dim

    @property
    def out_shape(self) -> tuple[int, ...]:
        return self.map.out_shape

    def derivative(self, Y: np.ndarray, order: int) -> np.ndarray:
        if order > self.smoothness:
            raise ValueError(
                f"order {order} exceeds the Lip({self.gamma}) budget "
                f"(max {self.smoothness})"
            )
        return self.map.derivative(Y, order)

    def scaled(self, c: float) -> "LipFunction":
        return LipFunction(self.map.scaled(c), self.gamma)


# -- JSON vector-field spec ---------------------------------------------------


class FieldSpecError(ValueError):
    """Malformed JSON vector-field description."""


def field_from_json(obj: dict) -> SmoothMap:
    """Build a map from its JSON description.

    Polynomial: {"type": "poly", "in_dim": m, "out_shape": [..], "degree": D,
    "coeffs": [A_0, .., A_D]} with A_l nested row-major lists of shape
    out_shape + (m,) * l (output indices first, then the l input slots).
    Builtin: {"type": "builtin", "name": "sine", "amp": [..], "freq": [..],
    "phase": [..]} with freq carrying one trailing input axis.
    """
    if not isinstance(obj, dict):
        raise FieldSpecError("field spec must be a JSON object")
    kind = obj.get("type")
    if kind == "poly":
        try:
            in_dim = int(obj["in_dim"])
            out_shape = tuple(int(s) for s in obj["out_shape"])
            degree = int(obj["degree"])
            raw = obj["coeffs"]
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldSpecError(f"bad poly spec: {exc}") from None
        if len(raw) != degree + 1:
            raise FieldSpecError(
                f"degree {degree} needs {degree + 1} blocks, got {len(raw)}"
            )
        coeffs = []
        for l, block in enumerate(raw):
            arr = np.asarray(block, dtype=float)
            want = out_shape + (in_dim,) * l
            if arr.shape != want:
                raise FieldSpecError(
                    f"degree-{l} block has shape {arr.shape}, expected {want}"
                )
            coeffs.append(arr)
        return PolyMap(in_dim, out_shape, tuple(coeffs))
    if kind == "builtin":
        name = obj.get("name")
        if name != "sine":
            raise FieldSpecError(f"unknown builtin {name!r}")
        try:
            amp = np.asarray(obj["amp"], dtype=float)
            freq = np.asarray(obj["freq"], dtype=float)
            phase = np.asarray(obj["phase"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldSpecError(f"bad sine spec: {exc}") from None
        return SineField(amp, freq, phase)
    raise FieldSpecError(f"unknown field type {kind!r}")
