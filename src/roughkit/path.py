"""Sampled paths, signatures, p-variation and controls.

A sampled path is a polyline through its sample points; signatures are exact
for polylines, so every construction here is exact arithmetic on the grid up
to float roundoff.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    DimensionMismatchError,
    GroupElement,
    TruncatedTensor,
    certify_stack,
    homogeneous_norms,
    stack_exp,
    stack_inverse,
    stack_product,
)

__all__ = [
    "PathFormatError",
    "SampledPath",
    "SampledRoughPath",
    "Control",
    "signature",
    "p_variation",
    "control_from_pvar",
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

    def concatenated(self, other: "SampledPath") -> "SampledPath":
        """Run self, then other translated to start at self's endpoint."""
        if other.dim != self.dim:
            raise DimensionMismatchError("cannot concatenate paths of different dims")
        shift = self.values[-1] - other.values[0]
        gap = self.times[-1] - other.times[0]
        times = np.concatenate([self.times, other.times[1:] + gap])
        values = np.vstack([self.values, other.values[1:] + shift])
        return SampledPath(times, values)


def signature(path: SampledPath, level: int, p: float | None = None) -> "SampledRoughPath":
    """Level-`level` signature path of a polyline.

    Each returned point is the signature of the path restricted to [t_0, t_i];
    segment signatures are exponentials of the increments, so the result is
    exact for the polyline.  `p` defaults to float(level).  The segments
    are certified group-like in one batch, the points in another.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if p is None:
        p = float(level)
    steps = path.increments()
    lie = [np.zeros((steps.shape[0], path.dim**k)) for k in range(level + 1)]
    lie[1] = steps
    segs = stack_exp(tuple(lie))
    certify_stack(segs)
    points = [GroupElement(TruncatedTensor.unit(path.dim, level))]
    for seg in _element_views(segs, np.ones(steps.shape[0], dtype=bool)):
        points.append(points[-1] @ seg)
    levels = tuple(np.stack([g.level_block(k) for g in points]) for k in range(level + 1))
    return SampledRoughPath(path.times, levels, p, np.ones(len(points), dtype=bool))


def pure_area_path(area: float, steps: int) -> "SampledRoughPath":
    """Level-2 path in R^2 with no displacement and linearly growing area.

    The k-th point is exp of (k/steps)*area times the antisymmetric generator
    e1 x e2 - e2 x e1, so the total antisymmetric level-2 coefficient is
    `area` and the first level vanishes identically.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    gen = np.array([0.0, 1.0, -1.0, 0.0])
    area_k = (np.arange(steps + 1) / steps * area)[:, None] * gen
    lie = (np.zeros((steps + 1, 1)), np.zeros((steps + 1, 2)), area_k)
    times = np.linspace(0.0, 1.0, steps + 1)
    return SampledRoughPath(times, stack_exp(lie), 2.0, np.ones(steps + 1, dtype=bool))


def _element_views(
    stack: tuple[np.ndarray, ...], flags: np.ndarray
) -> tuple[GroupElement, ...]:
    """Rows of a certified level stack as elements; freezes the stack to share it."""
    for x in stack:
        x.flags.writeable = False
    dim, level = stack[1].shape[1], len(stack) - 1
    return tuple(
        GroupElement._trusted(TruncatedTensor._view(dim, level, stack, i), bool(f))
        for i, f in enumerate(flags)
    )


@dataclass(frozen=True)
class SampledRoughPath:
    """Group-valued sampled path g_{t_i}, with g_{t_0} = 1 typically.

    Stored as level stacks: `levels[k]` has shape (N+1, d**k) and row i is
    the degree-k block of g_{t_i}.  `grouplike` is the (N+1,) mask of the
    points certified group-like; the constructor certifies those rows once.
    `p` is the claimed regularity; the truncation level must equal int(p).
    Increments g_{s,t} = g_s^{-1} g_t are exact group algebra.
    A lifted point's level-2 rounding follows the path that reached it, so
    the shuffle check of row i is scaled by max_{s <= i} (1 + ||x_s||^2).
    """

    times: np.ndarray
    levels: tuple[np.ndarray, ...]
    p: float
    grouplike: np.ndarray

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float).reshape(-1)
        levels = tuple(np.array(x, dtype=float) for x in self.levels)
        grouplike = np.array(self.grouplike, dtype=bool).reshape(-1)
        n, level = times.size, len(levels) - 1
        if n < 2:
            raise ValueError("need at least two samples")
        if self.p < 1.0:
            raise ValueError("p must be >= 1")
        if level != int(self.p):
            raise ValueError(f"truncation level {level} does not match int(p) = {int(self.p)}")
        for k, block in enumerate(levels):
            if block.shape != (n, levels[1].shape[-1] ** k):
                raise DimensionMismatchError(f"{n} times vs level-{k} stack {block.shape}")
            if not np.all(np.isfinite(block)):
                raise ValueError(f"level-{k} block contains non-finite entries")
        if grouplike.shape != (n,):
            raise DimensionMismatchError(f"{n} times vs {grouplike.size} certificate flags")
        if not np.all(levels[0] == 1.0):
            raise ValueError("group elements must have scalar part exactly 1")
        if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be finite and strictly increasing")
        scale = np.maximum.accumulate(1.0 + np.linalg.norm(levels[1], axis=1) ** 2)
        certify_stack(levels, rows=grouplike, scale=scale)
        for arr in (times, grouplike, scale) + levels:
            arr.flags.writeable = False
        object.__setattr__(self, "_shuffle_scale", scale)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "grouplike", grouplike)

    @property
    def dim(self) -> int:
        return self.levels[1].shape[1]

    @property
    def level(self) -> int:
        return len(self.levels) - 1

    @property
    def num_steps(self) -> int:
        return self.times.size - 1

    @cached_property
    def points(self) -> tuple[GroupElement, ...]:
        """The grid points g_{t_i} as views of `levels`."""
        return _element_views(self.levels, self.grouplike)

    def increment(self, i: int, j: int) -> GroupElement:
        """g_i^{-1} g_j as a view of its `increment_levels` row, so it is
        certified at the path's shuffle scale rather than its own size."""
        flags = self.grouplike[[i]] & self.grouplike[[j]]
        return _element_views(self.increment_levels([i], [j]), flags)[0]

    def positions(self, base_point: np.ndarray | None = None) -> np.ndarray:
        base = np.zeros(self.dim) if base_point is None else np.asarray(base_point, float)
        return base[None, :] + self.levels[1]

    def dilate(self, c: float) -> "SampledRoughPath":
        """Level k scaled by c**k; the automorphism keeps the certificate flags."""
        if c <= 0:
            raise ValueError("dilation factor must be positive")
        c = float(c)
        levels = tuple((c**k) * x for k, x in enumerate(self.levels))
        return SampledRoughPath(self.times, levels, self.p, self.grouplike)

    def restricted(self, i0: int, i1: int) -> "SampledRoughPath":
        """Rows i0..i1 as views of this path's frozen arrays.  They keep the
        running shuffle scale they were certified at: restarting it at i0
        would refuse exact lifts rounded on the way to t_{i0}."""
        if not 0 <= i0 < i1 <= self.num_steps:
            raise ValueError("bad restriction indices")
        rows = slice(i0, i1 + 1)
        out = object.__new__(SampledRoughPath)
        object.__setattr__(out, "p", self.p)
        object.__setattr__(out, "levels", tuple(x[rows] for x in self.levels))
        for name in ("times", "grouplike", "_shuffle_scale"):
            object.__setattr__(out, name, getattr(self, name)[rows])
        return out

    # -- cached bulk geometry ------------------------------------------------

    @cached_property
    def _inverse_levels(self) -> tuple[np.ndarray, ...]:
        inv = stack_inverse(self.levels)
        certify_stack(inv, rows=self.grouplike, scale=self._shuffle_scale)
        for x in inv:
            x.flags.writeable = False
        return inv

    def increment_levels(
        self, a_idx: np.ndarray, b_idx: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Level stacks of g_{a,b} = g_a^{-1} g_b for index arrays of equal length.

        Entry [k] has shape (len(a_idx), d**k), degrees 0..L.  Rows agree
        bitwise with `points[a].inverse() @ points[b]` wherever that product
        passes its own certificate.  The indices are arbitrary, so every row is
        certified as `certify_stack` states; a failure raises ValueError.
        """
        a_idx = np.asarray(a_idx, dtype=int)
        b_idx = np.asarray(b_idx, dtype=int)
        inc = self._products(a_idx, b_idx)
        scale = np.maximum(np.take(self._shuffle_scale, a_idx), np.take(self._shuffle_scale, b_idx))
        rows = np.take(self.grouplike, a_idx) & np.take(self.grouplike, b_idx)
        certify_stack(inc, rows=rows, scale=scale)
        return inc

    def _products(self, a_idx: np.ndarray, b_idx: np.ndarray) -> tuple[np.ndarray, ...]:
        """Level stacks of g_a^{-1} g_b from gathered rows, not certified."""
        inv = tuple(np.take(x, a_idx, axis=0) for x in self._inverse_levels)
        return stack_product(inv, tuple(np.take(x, b_idx, axis=0) for x in self.levels))

    @cached_property
    def step_level_blocks(self) -> tuple[np.ndarray, ...]:
        """Per-level stacks of consecutive increments: blocks[k-1] is (N, d**k)."""
        idx = np.arange(self.num_steps)
        blocks = self.increment_levels(idx, idx + 1)[1:]
        for b in blocks:
            b.flags.writeable = False
        return blocks

    @cached_property
    def pairwise_levels(self) -> tuple[np.ndarray, ...]:
        """Level blocks 2..L-1 of g_{s,t} for every pair s < t, packed in pair order.

        Entry [r-2] has shape (P, d**r), P = N(N+1)/2; row j is the degree-r
        block of g_s^{-1} g_t for the j-th pair (s, t) of np.triu_indices(N+1,
        k=1).  Level 1 comes from the points (`pair_runs`), and level L only
        through the norms the same pass writes to `pairwise_homogeneous_norms`
        or from `pair_runs(top=True)`.  Built over the runs `pair_runs` reads,
        each row bitwise `increment_levels`.  Refused when these levels, the
        norms and one control table would exceed physical memory.
        """
        n = self.times.size
        pairs = n * (n - 1) // 2
        widths = [self.dim**k for k in range(2, self.level)]
        need = (pairs * (sum(widths) + 1) + n * n) * 8
        have = _physical_memory_bytes()
        if have is not None and need > have:
            raise ValueError(
                f"pair geometry of {n} grid points (d={self.dim}, level "
                f"{self.level}) needs about {need:,} bytes, more than the "
                f"{have:,} bytes of physical memory; use a coarser grid"
            )
        out = tuple(np.empty((pairs, w)) for w in widths)
        norms = np.empty(pairs)
        for a in range(0, pairs, _BUILD_PAIRS):
            run = slice(a, a + _BUILD_PAIRS)
            block = self._products(*self._pair_ends(run))[1:]
            norms[run] = homogeneous_norms(block)
            for dst, src in zip(out, block[1:]):
                dst[run] = src
        for x in out + (norms,):
            x.flags.writeable = False
        object.__setattr__(self, "_pair_norms", norms)
        return out

    @property
    def pairwise_homogeneous_norms(self) -> np.ndarray:
        """Homogeneous norm of g_{s,t} for every pair s < t, shape (P,), in
        packed pair order; the `pairwise_levels` build fills it, level L included."""
        self.pairwise_levels
        return self._pair_norms

    @cached_property
    def _row_starts(self) -> np.ndarray:
        """Packed index s(N+1) - s(s+1)/2 of the pair (s, s+1), s = 0..N; the last is P."""
        rows = np.arange(self.times.size)
        return rows * rows.size - rows * (rows + 1) // 2

    def _pair_ends(self, pairs: slice) -> tuple[np.ndarray, np.ndarray]:
        """(s, t) of a slice of the packed pairs: that slice of np.triu_indices(N+1, k=1)."""
        starts = self._row_starts
        a, b, _ = pairs.indices(int(starts[-1]))
        s = np.repeat(np.arange(starts.size - 1), np.diff(np.clip(starts, a, b)))
        return s, np.arange(a, b) - np.take(starts, s) + s + 1

    def pair_runs(self, top: bool = False):
        """The packed pairs s < t in runs of `_BUILD_PAIRS`, in np.triu_indices
        order: yields (pairs, s, t, levels), `pairs` the run's slice of the
        packed order and `levels` blocks 1..L-1 of g_{s,t}, with level L
        appended when `top` is set.  Every all-pairs walk but the build reads these."""
        for a in range(0, int(self._row_starts[-1]), _BUILD_PAIRS):
            yield self._pair_run(slice(a, a + _BUILD_PAIRS), top)

    def _pair_run(self, pairs: slice, top: bool = False) -> tuple:
        """One `pair_runs` run, levels bitwise the uncertified `increment_levels`
        rows: level 1 is (0.0 + x_t) + (g_s^{-1})_1, the two additions
        `stack_product` makes there, so signed zeros match too."""
        s, t = self._pair_ends(pairs)
        levels = ()
        if self.level > 1:
            x, inv = self.levels[1], self._inverse_levels[1]
            first = (0.0 + np.take(x, t, axis=0)) + np.take(inv, s, axis=0)
            levels = (first,) + tuple(block[pairs] for block in self.pairwise_levels)
        if top:
            levels += (self._products(s, t)[-1],)
        return pairs, s, t, levels


# Pairs per run of work on the pair geometry: `pairwise_levels` is built, and
# `pair_runs` yields, runs of _BUILD_PAIRS pairs, so the temporaries of every
# all-pairs walk stay at a few MB whatever the grid size.
_BUILD_PAIRS = 1 << 12


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


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
    return float(_best_partition_sum(_powered_norms(g, i0, i1)) ** (1.0 / g.p))


def _powered_norms(g: SampledRoughPath, i0: int, i1: int) -> np.ndarray:
    """norm(g_{s,t})**p at [s - i0, t - i0] for i0 <= s < t <= i1, zero elsewhere,
    filled row by row from the packed `pairwise_homogeneous_norms`."""
    norms, starts = g.pairwise_homogeneous_norms, g._row_starts
    E = np.zeros((i1 - i0 + 1, i1 - i0 + 1))
    for s in range(i0, i1):
        E[s - i0, s - i0 + 1 :] = norms[starts[s] : starts[s] + i1 - s] ** g.p
    return E


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

    def at(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """omega(t_s, t_t) for index arrays of equal length, one flat gather."""
        return np.take(self.table.ravel(), s * self.table.shape[1] + t)

    def total(self) -> float:
        return float(self.table[0, -1])

    def scaled(self, factor: float) -> "Control":
        return Control(self.times, factor * self.table)


def control_from_pvar(g: SampledRoughPath) -> Control:
    """The canonical control: omega(s, t) = ||g||_{p-var;[s,t]}^p on the grid.

    All-pairs interval dynamic program over gaps j - i = 2..N:
    V[i, j] = max(E[i, j], max_m V[i, m] + V[m, j]).  O(N^3) flops in about
    N numpy calls, one per gap; O(N^2) memory in one table, whose lower
    triangle holds the transpose while the gaps run and is zeroed after.
    Superadditive by construction and exactly additive where the path is
    one-dimensional and monotone.
    """
    V = _powered_norms(g, 0, g.num_steps)
    n1 = V.shape[0]
    flat = V.reshape(-1)
    # V[j, i] = V[i, j] below the diagonal: gap 1 now, each later gap as it is done
    flat[n1 :: n1 + 1] = flat[1 :: n1 + 1]
    for gap in range(2, n1):
        rows = n1 - gap
        # Row i of each band holds off = 1..gap-1: V[i, i+off] and
        # V[i+off, i+gap] = V[i+gap, i+off], both unit-stride windows.
        left = sliding_window_view(flat[1:], gap - 1)[:: n1 + 1][:rows]
        right = sliding_window_view(flat[gap * n1 + 1 :], gap - 1)[:: n1 + 1][:rows]
        diag = flat[gap :: n1 + 1][:rows]
        np.maximum(diag, (left + right).max(axis=1), out=diag)
        flat[gap * n1 :: n1 + 1][:rows] = diag
    V[np.tri(n1, dtype=bool)] = 0.0
    return Control(g.times, V)


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
    _write_table(filename, "x", path.times, path.values)


def write_solution_csv(filename: str, times: np.ndarray, values: np.ndarray) -> None:
    _write_table(filename, "y", times, values)


def _write_table(filename: str, letter: str, times: np.ndarray, values: np.ndarray) -> None:
    """CSV with header t,<letter>1,..; floats in repr form; 1-D values are one column."""
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{letter}{i+1}" for i in range(values.shape[1])])
        for t, row in zip(times, values):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
