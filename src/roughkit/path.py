"""Sampled paths, signatures, p-variation and controls.

A sampled path is a polyline through its sample points; signatures are exact
for polylines, so every construction here is exact arithmetic on the grid up
to float roundoff.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import (
    DimensionMismatchError,
    GroupElement,
    TruncatedTensor,
    certify_stack,
    homogeneous_norm,
    stack_inverse,
    stack_product,
    tensor_exp,
)

__all__ = [
    "PathFormatError",
    "SampledPath",
    "SampledRoughPath",
    "Control",
    "signature",
    "p_variation",
    "control_from_pvar",
    "holder_control",
    "pure_area_path",
    "read_path_csv",
    "write_path_csv",
    "write_solution_csv",
]


class PathFormatError(ValueError):
    """Malformed path CSV; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class SampledPath:
    """Piecewise-linear path: times (N+1,) strictly increasing, values (N+1, d)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float).reshape(-1)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if times.size != values.shape[0]:
            raise DimensionMismatchError(
                f"{times.size} times vs {values.shape[0]} samples"
            )
        if times.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise ValueError("non-finite path data")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        for name, arr in (("times", times), ("values", values)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def num_steps(self) -> int:
        return self.times.size - 1

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def length(self) -> float:
        """Polyline length (exact 1-variation)."""
        return float(np.linalg.norm(self.increments(), axis=1).sum())

    def reversed(self) -> "SampledPath":
        t = self.times
        return SampledPath(t[0] + t[-1] - t[::-1], self.values[::-1])

    def concatenated(self, other: "SampledPath") -> "SampledPath":
        """Run self, then other translated to start at self's endpoint."""
        if other.dim != self.dim:
            raise DimensionMismatchError("cannot concatenate paths of different dims")
        shift = self.values[-1] - other.values[0]
        gap = self.times[-1] - other.times[0] + (other.times[1] - other.times[0])
        times = np.concatenate([self.times, other.times[1:] + gap])
        values = np.vstack([self.values, other.values[1:] + shift])
        return SampledPath(times, values)


def signature(path: SampledPath, level: int, p: float | None = None) -> "SampledRoughPath":
    """Level-`level` signature path of a polyline.

    Each returned point is the signature of the path restricted to [t_0, t_i];
    segment signatures are exponentials of the increments, so the result is
    exact for the polyline.  `p` defaults to float(level).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if p is None:
        p = float(level)
    points = [GroupElement(TruncatedTensor.unit(path.dim, level), grouplike=True)]
    for step in path.increments():
        seg = tensor_exp(TruncatedTensor.from_vector(step, level), grouplike=True)
        points.append(points[-1] @ seg)
    return SampledRoughPath(path.times, tuple(points), p)


def pure_area_path(area: float, steps: int) -> "SampledRoughPath":
    """Level-2 path in R^2 with no displacement and linearly growing area.

    The k-th point is exp of (k/steps)*area times the antisymmetric generator
    e1 x e2 - e2 x e1, so the total antisymmetric level-2 coefficient is
    `area` and the first level vanishes identically.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    gen = np.zeros((2, 2))
    gen[0, 1] = 1.0
    gen[1, 0] = -1.0
    gen_flat = gen.reshape(-1)
    times = np.linspace(0.0, 1.0, steps + 1)
    points = []
    for k in range(steps + 1):
        lie = TruncatedTensor.from_level_blocks(
            2, 2, {2: (k / steps) * area * gen_flat}
        )
        points.append(tensor_exp(lie, grouplike=True))
    return SampledRoughPath(times, tuple(points), 2.0)


@dataclass(frozen=True)
class SampledRoughPath:
    """Group-valued sampled path: points g_{t_i} with g_{t_0} = 1 typically.

    `p` is the claimed regularity; the truncation level of every point must
    equal int(p).  Increments g_{s,t} = g_s^{-1} g_t are exact group algebra.
    """

    times: np.ndarray
    points: tuple[GroupElement, ...]
    p: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float).reshape(-1)
        if times.size != len(self.points):
            raise DimensionMismatchError(
                f"{times.size} times vs {len(self.points)} points"
            )
        if times.size < 2:
            raise ValueError("need at least two samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.p < 1.0:
            raise ValueError("p must be >= 1")
        level = self.points[0].level
        dim = self.points[0].dim
        if level != int(self.p):
            raise ValueError(
                f"truncation level {level} does not match int(p) = {int(self.p)}"
            )
        for g in self.points:
            if g.level != level or g.dim != dim:
                raise DimensionMismatchError("points live in different algebras")
        times = np.ascontiguousarray(times)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def dim(self) -> int:
        return self.points[0].dim

    @property
    def level(self) -> int:
        return self.points[0].level

    @property
    def num_steps(self) -> int:
        return len(self.points) - 1

    def increment(self, i: int, j: int) -> GroupElement:
        return self.points[i].increment_to(self.points[j])

    def first_level(self) -> np.ndarray:
        """Stacked level-1 blocks, shape (N+1, d)."""
        return np.stack([g.level_block(1) for g in self.points])

    def positions(self, base_point: np.ndarray | None = None) -> np.ndarray:
        base = np.zeros(self.dim) if base_point is None else np.asarray(base_point, float)
        return base[None, :] + self.first_level()

    def dilate(self, c: float) -> "SampledRoughPath":
        if c <= 0:
            raise ValueError("dilation factor must be positive")
        return SampledRoughPath(
            self.times, tuple(g.dilate(c) for g in self.points), self.p
        )

    def restricted(self, i0: int, i1: int) -> "SampledRoughPath":
        if not 0 <= i0 < i1 <= self.num_steps:
            raise ValueError("bad restriction indices")
        return SampledRoughPath(self.times[i0 : i1 + 1], self.points[i0 : i1 + 1], self.p)

    # -- cached bulk geometry ------------------------------------------------

    @cached_property
    def _grouplike(self) -> np.ndarray:
        """Per-point certificate flags, shape (N+1,)."""
        return np.array([g.grouplike for g in self.points], dtype=bool)

    @cached_property
    def _point_levels(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.stack([g.level_block(k) for g in self.points])
            for k in range(self.level + 1)
        )

    @cached_property
    def _inverse_levels(self) -> tuple[np.ndarray, ...]:
        inv = stack_inverse(self._point_levels)
        certify_stack(inv, rows=self._grouplike)
        return inv

    def increment_levels(
        self, a_idx: np.ndarray, b_idx: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Level stacks of g_{a,b} = g_a^{-1} g_b for index arrays of equal length.

        Entry [k] has shape (len(a_idx), d**k), degrees 0..L.  Rows agree
        bitwise with `increment(a, b)`; a row is certified group-like when
        both of its points are, and a failed certificate raises ValueError.
        """
        a_idx = np.asarray(a_idx, dtype=int)
        b_idx = np.asarray(b_idx, dtype=int)
        inc = stack_product(
            tuple(x[a_idx] for x in self._inverse_levels),
            tuple(x[b_idx] for x in self._point_levels),
        )
        certify_stack(inc, rows=self._grouplike[a_idx] & self._grouplike[b_idx])
        return inc

    @cached_property
    def step_level_blocks(self) -> tuple[np.ndarray, ...]:
        """Per-level stacks of consecutive increments: blocks[k-1] is (N, d**k)."""
        idx = np.arange(self.num_steps)
        blocks = self.increment_levels(idx, idx + 1)[1:]
        for b in blocks:
            b.flags.writeable = False
        return blocks

    @cached_property
    def step_increments(self) -> tuple[GroupElement, ...]:
        """Consecutive increments g_{i,i+1} as views of `step_level_blocks`."""
        ones = np.ones((self.num_steps, 1))
        ones.flags.writeable = False
        stack = (ones,) + self.step_level_blocks
        flags = self._grouplike[:-1] & self._grouplike[1:]
        return tuple(
            GroupElement._trusted(
                TruncatedTensor._view(self.dim, self.level, stack, i),
                bool(flags[i]),
            )
            for i in range(self.num_steps)
        )

    @cached_property
    def pairwise_levels(self) -> tuple[np.ndarray, ...]:
        """Level blocks of g_{s,t} for every index pair.

        Entry [r-1] has shape (N+1, N+1, d**r); the (s, t) slice is the
        degree-r block of g_s^{-1} g_t.  Dense: only for desk-scale grids.
        """
        return stack_product(
            tuple(x[:, None, :] for x in self._inverse_levels),
            tuple(x[None, :, :] for x in self._point_levels),
        )[1:]

    @cached_property
    def pairwise_homogeneous_norms(self) -> np.ndarray:
        """Homogeneous norm of g_{s,t} for every pair, shape (N+1, N+1)."""
        n = len(self.points)
        total = np.zeros((n, n))
        for r, block in enumerate(self.pairwise_levels, start=1):
            total += np.linalg.norm(block, axis=2) ** (1.0 / r)
        return total

    @cached_property
    def pair_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Upper-triangle (s, t) index arrays with s < t."""
        return np.triu_indices(len(self.points), k=1)


def p_variation(g: SampledRoughPath, i0: int = 0, i1: int | None = None) -> float:
    """p-variation of the rough path over grid partitions of [t_{i0}, t_{i1}].

    Dynamic program over partition points drawn from the sample grid; the
    supremum over such partitions is attained because inserting a point never
    decreases the sum.  Returns the variation itself (not its p-th power).
    """
    if i1 is None:
        i1 = g.num_steps
    if not 0 <= i0 < i1 <= g.num_steps:
        raise ValueError("bad interval indices")
    E = g.pairwise_homogeneous_norms[i0 : i1 + 1, i0 : i1 + 1] ** g.p
    return float(_best_partition_sum(E) ** (1.0 / g.p))


def _best_partition_sum(E: np.ndarray) -> np.float64:
    """max over grid partitions 0 = i_0 < ... < i_m = n-1 of sum_j E[i_j, i_{j+1}].

    Dynamic program over the last partition point before each j.
    """
    best = np.zeros(E.shape[0])
    for j in range(1, E.shape[0]):
        best[j] = np.max(best[:j] + E[:j, j])
    return best[-1]


@dataclass(frozen=True)
class Control:
    """Superadditive control on grid intervals: table[i, j] = omega(t_i, t_j)."""

    times: np.ndarray
    table: np.ndarray
    kind: str = "pvar"

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        n = np.asarray(self.times).size
        if table.shape != (n, n):
            raise DimensionMismatchError("control table shape mismatch")
        table = np.ascontiguousarray(table)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def value(self, i: int, j: int) -> float:
        return float(self.table[i, j])

    def total(self) -> float:
        return float(self.table[0, -1])

    def scaled(self, factor: float) -> "Control":
        return Control(self.times, factor * self.table, kind=self.kind)

    def superadditivity_defect(self) -> float:
        """max over (i, m, j) of omega(i,m) + omega(m,j) - omega(i,j); <= 0 is exact."""
        n = self.table.shape[0]
        worst = -np.inf
        for i in range(n):
            for j in range(i + 2, n):
                mids = self.table[i, i + 1 : j] + self.table[i + 1 : j, j]
                worst = max(worst, float(np.max(mids) - self.table[i, j]))
        return worst


def control_from_pvar(g: SampledRoughPath) -> Control:
    """The canonical control: omega(s, t) = ||g||_{p-var;[s,t]}^p on the grid.

    All-pairs interval dynamic program, O(N^3); fine for desk-scale grids.
    Superadditive by construction and exactly additive where the path is
    one-dimensional and monotone.
    """
    E = g.pairwise_homogeneous_norms ** g.p
    n = g.num_steps
    V = E.copy()
    for gap in range(2, n + 1):
        i = np.arange(0, n + 1 - gap)
        j = i + gap
        best = V[i, j]
        for off in range(1, gap):
            cand = V[i, i + off] + V[i + off, j]
            best = np.maximum(best, cand)
        V[i, j] = best
    V[np.tril_indices(n + 1)] = 0.0
    return Control(g.times, V, kind="pvar")


def holder_control(g: SampledRoughPath, K: float | None = None) -> Control:
    """Linear-in-time control omega(s, t) = K (t - s).

    With the default K the control dominates the p-variation of the polyline
    lift: K = (max step rate)^p * T^(p-1) bounds (sum of step norms)^p on any
    interval.  Cruder than `control_from_pvar` but O(1) per pair.
    """
    times = g.times
    if K is None:
        rates = [
            homogeneous_norm(inc) / dt
            for inc, dt in zip(g.step_increments, np.diff(times))
        ]
        span = float(times[-1] - times[0])
        K = max(rates) ** g.p * span ** (g.p - 1.0)
    diff = times[None, :] - times[:, None]
    return Control(times, K * np.maximum(diff, 0.0), kind="holder")


# -- CSV interface ----------------------------------------------------------


def read_path_csv(filename: str) -> SampledPath:
    """Read a `t,x1,...,xd` CSV.  Raises PathFormatError with a line number."""
    times: list[float] = []
    rows: list[list[float]] = []
    with open(filename, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise PathFormatError("empty file", line=1)
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "t" or any(
            h != f"x{i+1}" for i, h in enumerate(header[1:])
        ):
            raise PathFormatError(
                f"expected header t,x1,...,xd, got {','.join(header)}", line=1
            )
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise PathFormatError(
                    f"expected {width} fields, got {len(row)}", line=lineno
                )
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise PathFormatError(f"bad number: {exc}", line=lineno) from None
            times.append(vals[0])
            rows.append(vals[1:])
    if len(times) < 2:
        raise PathFormatError("need at least two samples", line=max(2, len(times) + 1))
    try:
        return SampledPath(np.array(times), np.array(rows))
    except ValueError as exc:
        raise PathFormatError(str(exc)) from None


def write_path_csv(filename: str, path: SampledPath) -> None:
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i+1}" for i in range(path.dim)])
        for t, row in zip(path.times, path.values):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def write_solution_csv(filename: str, times: np.ndarray, values: np.ndarray) -> None:
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"y{i+1}" for i in range(values.shape[1])])
        for t, row in zip(times, values):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
