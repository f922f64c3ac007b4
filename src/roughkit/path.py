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

from .tensor import (
    DimensionMismatchError,
    GroupElement,
    certify_stack,
    homogeneous_norms,
    letter_major_views,
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


@dataclass(frozen=True, eq=False)
class SampledPath:
    """Piecewise-linear path: times (N+1,) strictly increasing, values (N+1, d)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float).reshape(-1)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise DimensionMismatchError(f"values must have shape (N+1, d), got {values.shape}")
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
    are group-like by construction, their level 2 exactly x (x) x / 2, so
    only the points are certified, by the path constructor.
    """
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")
    if p is None:
        p = float(level)
    _check_lift_memory(path.times.size, path.dim, level)
    steps = path.increments()
    lie = [np.zeros((steps.shape[0], path.dim**k)) for k in range(level + 1)]
    lie[1] = steps
    segs = stack_exp(tuple(lie))
    points = [GroupElement.unit(path.dim, level)]
    for seg in _element_views(segs):
        points.append(points[-1] @ seg)
    levels = tuple(np.stack([g.level_block(k) for g in points]) for k in range(level + 1))
    return SampledRoughPath(path.times, levels, p)


def pure_area_path(area: float, steps: int) -> "SampledRoughPath":
    """Level-2 path in R^2 with no displacement and linearly growing area.

    The k-th point is exp of (k/steps)*area times the antisymmetric generator
    e1 x e2 - e2 x e1, so the total antisymmetric level-2 coefficient is
    `area` and the first level vanishes identically.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not np.isfinite(area):
        raise ValueError(f"area must be finite, got {area}")
    _check_lift_memory(steps + 1, 2, 2)
    gen = np.array([0.0, 1.0, -1.0, 0.0])
    area_k = (np.arange(steps + 1) / steps * area)[:, None] * gen
    lie = (np.zeros((steps + 1, 1)), np.zeros((steps + 1, 2)), area_k)
    times = np.linspace(0.0, 1.0, steps + 1)
    return SampledRoughPath(times, stack_exp(lie), 2.0)


def _element_views(stack: tuple[np.ndarray, ...]) -> tuple[GroupElement, ...]:
    """Rows of a group-like level stack, certified or exact exponentials, as
    certified elements; freezes the stack to share it."""
    _read_only(stack)
    return tuple(GroupElement._trusted(tuple(x[i] for x in stack)) for i in range(stack[0].shape[0]))


@dataclass(frozen=True, eq=False)
class SampledRoughPath:
    """Group-valued sampled path g_{t_i}, with g_{t_0} = 1 typically.

    Stored as level stacks: `levels[k]` has shape (N+1, d**k) and row i is
    the degree-k block of g_{t_i}.  Every point is group-like: the
    constructor certifies each row once and refuses the path otherwise.
    `p` is the claimed regularity; the truncation level must equal int(p).
    Increments g_{s,t} = g_s^{-1} g_t are exact group algebra.
    A lifted point's level-2 rounding follows the path that reached it, so
    the shuffle check of row i is scaled by max_{s <= i} (1 + ||x_s||^2).
    """

    times: np.ndarray
    levels: tuple[np.ndarray, ...]
    p: float

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float).reshape(-1)
        levels = tuple(np.array(x, dtype=float) for x in self.levels)
        n, level = times.size, len(levels) - 1
        if n < 2:
            raise ValueError("need at least two samples")
        if not 1.0 <= self.p < np.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        if level != int(self.p):
            raise ValueError(f"truncation level {level} does not match int(p) = {int(self.p)}")
        for k, block in enumerate(levels):
            if block.shape != (n, levels[1].shape[-1] ** k):
                raise DimensionMismatchError(f"{n} times vs level-{k} stack {block.shape}")
            if not np.all(np.isfinite(block)):
                raise ValueError(f"level-{k} block contains non-finite entries")
        if not np.all(levels[0] == 1.0):
            raise ValueError("group elements must have scalar part exactly 1")
        if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
            raise ValueError("times must be finite and strictly increasing")
        scale = np.maximum.accumulate(1.0 + np.linalg.norm(levels[1], axis=1) ** 2)
        certify_stack(levels, scale=scale)
        _read_only((times, scale) + levels)
        object.__setattr__(self, "_shuffle_scale", scale)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "levels", levels)

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
        return _element_views(self.levels)

    def positions(self, base_point: np.ndarray | None = None) -> np.ndarray:
        base = np.zeros(self.dim) if base_point is None else np.asarray(base_point, float)
        return base[None, :] + self.levels[1]

    def dilate(self, c: float) -> "SampledRoughPath":
        """Level k scaled by c**k, certified again by the constructor.
        Refused before any scaling unless c is finite and positive and c**p,
        the largest power a caller scales by (c**L <= c**p once c > 1), is
        finite; the comparisons are false on NaN.  A level that overflows
        is refused by the constructor as non-finite."""
        c = float(c)
        with np.errstate(over="ignore"):
            if not (c > 0.0 and np.float64(c) ** self.p < np.inf):
                raise ValueError(f"dilation c must be finite and positive with c**p finite, got {c}")
            levels = tuple((c**k) * x for k, x in enumerate(self.levels))
        return SampledRoughPath(self.times, levels, self.p)

    def restricted(self, i0: int, i1: int) -> "SampledRoughPath":
        """Rows i0..i1 as views of this path's frozen arrays and cached step
        blocks.  They keep the running shuffle scale they were certified at:
        restarting it at i0 would refuse exact lifts rounded on the way to t_{i0}."""
        if not 0 <= i0 < i1 <= self.num_steps:
            raise ValueError("bad restriction indices")
        rows = slice(i0, i1 + 1)
        out = object.__new__(SampledRoughPath)
        object.__setattr__(out, "p", self.p)
        object.__setattr__(out, "levels", tuple(x[rows] for x in self.levels))
        for name in ("times", "_shuffle_scale"):
            object.__setattr__(out, name, getattr(self, name)[rows])
        if "step_level_blocks" in vars(self):
            vars(out)["step_level_blocks"] = tuple(x[i0:i1] for x in self.step_level_blocks)
        return out

    # -- cached bulk geometry ------------------------------------------------

    @cached_property
    def _inverse_levels(self) -> tuple[np.ndarray, ...]:
        """The inverse points' levels, not certified again: an inverse's
        shuffle defect is its point's, negated, plus one rounding."""
        return _read_only(stack_inverse(self.levels))

    def increment_levels(
        self, a_idx: np.ndarray, b_idx: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Level stacks of g_{a,b} = g_a^{-1} g_b for index arrays of equal length.

        Entry [k] has shape (len(a_idx), d**k), degrees 0..L.  Rows agree
        bitwise with `points[a].inverse() @ points[b]` wherever that product
        passes the certificate it runs at its own size.  The indices are
        arbitrary, so every row is certified, at the larger of its points'
        running scales; a failure raises ValueError.
        """
        # in range and non-negative, as the gathers into a pool take them
        a_idx, b_idx = (np.arange(self.times.size)[np.asarray(x, dtype=int)] for x in (a_idx, b_idx))
        # row-major, as einsum readers need for the same bits
        inc = tuple(np.ascontiguousarray(x) for x in self._products(a_idx, b_idx, self.level))
        scale = np.maximum(np.take(self._shuffle_scale, a_idx), np.take(self._shuffle_scale, b_idx))
        certify_stack(inc, scale=scale)
        return inc

    @cached_property
    def _letter_major(self) -> tuple[np.ndarray, np.ndarray]:
        """Levels 0..L of the inverse points and of the points, stacked letter
        by letter in contiguous (S, N+1) arrays: the pair products' operands."""
        return tuple(
            np.ascontiguousarray(np.concatenate(stack, axis=1).T)
            for stack in (self._inverse_levels, self.levels)
        )

    def _products(
        self, a_idx: np.ndarray, b_idx: np.ndarray, upto: int, pool: np.ndarray | None = None
    ) -> tuple[np.ndarray, ...]:
        """Level stacks 0..upto of g_a^{-1} g_b from gathered rows, not
        certified, letter-major: bitwise the full product's levels, since
        level k reads levels <= k only.  They lead `pool`, flat float scratch
        of `_run_floats(upto)` per pair, allocated unless given."""
        n, (rows, spent) = a_idx.size, self._run_floats(upto)
        pool = np.empty(n * spent) if pool is None else pool
        # the product's term follows its levels, then its operands, which
        # mode="clip" writes straight into `out`; the indices are in range
        ops = pool[n * (spent - 2 * rows) : n * spent].reshape(2, rows, n)
        for x, idx, out in zip(self._letter_major, (a_idx, b_idx), ops):
            np.take(x[:rows], idx, axis=1, out=out, mode="clip")
        widths = [self.dim**k for k in range(upto + 1)]
        return stack_product(*(letter_major_views(op.reshape(-1), (n,), widths) for op in ops), pool)

    @cached_property
    def step_level_blocks(self) -> tuple[np.ndarray, ...]:
        """Per-level stacks of consecutive increments: blocks[k-1] is (N, d**k)."""
        idx = np.arange(self.num_steps)
        return _read_only(self.increment_levels(idx, idx + 1)[1:])

    @cached_property
    def half_step_level_blocks(self) -> tuple[np.ndarray, ...]:
        """Per-level stacks of the half-grid increments g_{t_a, t_b}, (a, b) the
        `_coarse_pairs` of the grid: blocks[k-1] is (ceil(N/2), d**k)."""
        return _read_only(self.increment_levels(*_coarse_pairs(self.num_steps))[1:])

    @cached_property
    def pairwise_levels(self) -> tuple[np.ndarray]:
        """(norms,): the homogeneous norm of g_{s,t} for every pair s < t,
        row by row with t ascending in each: the upper triangles of the
        `_row_blocks` rectangles in turn.  No walk of the package reads it.
        Refused when the norms and a rectangle's pool do not fit."""
        n, at = self.num_steps, 0
        norms = np.empty(n * (n + 1) // 2)
        pool = self._pair_pool(norms.size)[0]
        for s0, s1 in self._row_blocks():
            rect = homogeneous_norms(self._rectangle_products(s0, s1, self.level, pool)[1:])
            s, t = np.arange(s0, s1)[:, None], np.arange(s0 + 1, n + 1)[None, :]
            upper = rect[t > s]
            norms[at : at + upper.size] = upper
            at += upper.size
        return _read_only((norms,))

    def _pair_pool(self, held: int, copies: int = 1) -> np.ndarray:
        """`copies` pools for the `_rectangle_products` of levels 0..L of the
        largest `_row_blocks` rectangle, once they and the walk's `held`
        floats beside them fit in physical memory; ValueError if not."""
        widths = [self.dim**k for k in range(self.level + 1)]
        entries = max((s1 - s0) * (self.num_steps - s0) for s0, s1 in self._row_blocks())
        floats = entries * (sum(widths) + widths[-1])
        what = f"pair geometry of {self.times.size} grid points (d={self.dim}, level {self.level})"
        _refuse_over_memory(what, (held + copies * floats) * 8, "a coarser grid")
        return np.empty((copies, floats))

    @cached_property
    def _reach(self) -> float:
        """r = L (max_s N(g_s^{-1}) + max_t N(g_t)) >= N(g_t), N(g_{s,t}) for
        every point and pair, N the homogeneous norm, in O(N).  Euclidean
        level norms are cross norms, so with A = max_j |a^j|^{1/j} <= N(a), B
        likewise, |(ab)^k| <= sum_j |a^j| |b^{k-j}| <= (A + B)^k: each of the
        L terms of N(ab) is at most A + B, so N(ab) <= L (N(a) + N(b)).
        `_chain_slack` reads r at L >= 2 only, where the factor L leaves
        room for the rounding of the products and of the norms."""
        inverses, points = (float(np.max(homogeneous_norms(x[1:]))) for x in (self._inverse_levels, self.levels))
        return self.level * (inverses + points)

    def _row_blocks(self, multiple: int = 1, s0: int = 0, end: int | None = None):
        """Rows s0..end-1, all N by default, in blocks: yields (s0, s1) for
        rows s0..s1-1, whose pairs s < t fill the upper triangle of a
        (s1 - s0, N - s0) rectangle of at most `multiple` `_BUILD_PAIRS`
        entries, or a single row where one row holds more.  Row-major order
        over the upper triangles of the blocks in turn visits every pair
        once, each row's in ascending t."""
        n = self.num_steps
        end = n if end is None else end
        while s0 < end:
            s1 = min(end, s0 + max(1, multiple * _BUILD_PAIRS // (n - s0)))
            yield s0, s1
            s0 = s1

    def _run_floats(self, upto: int) -> tuple[int, int]:
        """Floats per pair of a `_products` pool: its levels 0..upto, and in all."""
        widths = [self.dim**k for k in range(upto + 1)]
        return sum(widths), 3 * sum(widths) + widths[-1]

    def _rectangle_products(self, s0: int, s1: int, upto: int, pool: np.ndarray | None = None) -> tuple:
        """Levels 0..upto of g_s^{-1} g_t, each (s1 - s0, N - s0, d**k), for
        the rows s = s0..s1-1 against the points t = s0+1..N, of which t <= s
        are no pairs: one `stack_product` of broadcast views of the
        letter-major operands, with no gather, bitwise `_products`.  Not
        certified.  The levels lead `pool`, allocated unless given."""
        widths = [self.dim**k for k in range(upto + 1)]
        inverses, points = (np.split(x[: sum(widths)].T, np.cumsum(widths)[:-1], axis=1) for x in self._letter_major)
        return stack_product(tuple(x[s0:s1, None] for x in inverses), tuple(x[None, s0 + 1 :] for x in points), pool)


# Entries per `_row_blocks` rectangle of every all-pairs walk, twice that for
# the pair scan's bound tables: their temporaries stay at a few MB whatever
# the grid size.
_BUILD_PAIRS = 1 << 12


def _read_only(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only in place."""
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _coarse_pairs(num_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the half-grid steps; on an odd grid the last is short."""
    idx = np.append(np.arange(0, num_steps, 2), num_steps)
    return idx[:-1], idx[1:]


def _physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _refuse_over_memory(what: str, need: int, remedy: str) -> None:
    """ValueError when `need` bytes for `what` exceed physical memory."""
    have = _physical_memory_bytes()
    if have is not None and need > have:
        tail = f"more than the {have:,} bytes of physical memory; use {remedy}"
        raise ValueError(f"{what} needs about {need:,} bytes, {tail}")


def _check_lift_memory(points: int, dim: int, level: int) -> None:
    """Refuse, before anything is allocated, a lift of `points` grid points
    whose level stacks do not fit in physical memory.  tracemalloc puts the
    peak of `signature` and `pure_area_path` within 12 stacks of N+1 rows of
    S + 8(L+1) floats, S = sum_k d**k: up to 11 stacks of S floats where S
    is large, and where it is small the per-point elements' objects and
    array headers, about 8 floats a level of each row.  The few tens of kB
    that any lift costs are not counted."""
    # past 64 levels at d >= 2 no memory holds one row
    size = level + 1 if dim == 1 else (dim ** min(level + 1, 64) - 1) // (dim - 1)
    what = f"signature lift of {points} grid points (d={dim}, level {level})"
    _refuse_over_memory(what, 12 * points * (size + 8 * (level + 1)) * 8, "a lower level or a coarser grid")


def p_variation(g: SampledRoughPath, i0: int = 0, i1: int | None = None) -> float:
    """p-variation of the rough path over grid partitions of [t_{i0}, t_{i1}].

    Dynamic program over the grid's partition points, on the powered norms
    of `g.restricted(i0, i1)`.  The grid has finitely many
    partitions, so the maximum exists; a point inserted can lower the sum:
    for p > 1, splitting a straight segment scales its term by 2**(1 - p).
    Returns the variation itself (not its p-th power).
    """
    if i1 is None:
        i1 = g.num_steps
    if not 0 <= i0 < i1 <= g.num_steps:
        raise ValueError("bad interval indices")
    return float(_best_partition_sum(_powered_gauge(homogeneous_norms, g.restricted(i0, i1))) ** (1.0 / g.p))


def _powered_gauge(gauge, *paths: SampledRoughPath) -> np.ndarray:
    """gauge(levels 1..L of g_{s,t} for each of the paths)**p at [s, t] of
    an (N+1)^2 table, zero elsewhere, p the first path's.

    Filled one `_row_blocks` rectangle of at most `_BUILD_PAIRS` entries at
    a time from each path's `_rectangle_products`, whose pool holds S + d**L
    floats an entry (S the floats of levels 0..L).  Refused before it is
    allocated when the table and the pools exceed physical memory."""
    g, n1 = paths[0], paths[0].times.size
    pools = g._pair_pool(n1 * n1, copies=len(paths))
    E = np.zeros((n1, n1))
    for s0, s1 in g._row_blocks():
        rect = gauge(*(h._rectangle_products(s0, s1, g.level, pool)[1:] for h, pool in zip(paths, pools)))
        s, t = np.arange(s0, s1)[:, None], np.arange(s0 + 1, n1)[None, :]
        # zeroed, the non-pairs' power cannot overflow
        rect[t <= s] = 0.0
        rect **= g.p
        E[s0:s1, s0 + 1 :] = rect
    return E


def _best_partition_sum(E: np.ndarray) -> np.float64:
    """max over grid partitions 0 = i_0 < ... < i_m = n-1 of sum_j E[i_j, i_{j+1}].

    Dynamic program over the last partition point before each j.
    """
    best = np.zeros(E.shape[0])
    for j in range(1, E.shape[0]):
        best[j] = np.max(best[:j] + E[:j, j])
    return best[-1]


@dataclass(frozen=True, eq=False)
class Control:
    """Superadditive control on grid intervals: table[i, j] = omega(t_i, t_j)."""

    times: np.ndarray
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        n = np.asarray(self.times).size
        if table.shape != (n, n):
            raise DimensionMismatchError("control table shape mismatch")
        # min and max carry a NaN through, without a mask the size of the table
        if not (np.min(table, initial=0.0) >= 0.0 and np.max(table, initial=0.0) < np.inf):
            raise ValueError("control entries must be finite and non-negative")
        table = np.ascontiguousarray(table)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def value(self, i: int, j: int) -> float:
        return float(self.table[i, j])

    def at(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """omega(t_s, t_t) in the broadcast shape of index arrays s and t: one flat gather."""
        return np.take(self.table.ravel(), s * self.table.shape[1] + t)

    def total(self) -> float:
        return float(self.table[0, -1])

    def scaled(self, factor: float) -> "Control":
        # refused before the product: inf * 0.0 would warn, not raise
        if not 0.0 <= factor < np.inf:
            raise ValueError("control entries must be finite and non-negative")
        # a finite product may still overflow; the constructor refuses its inf
        with np.errstate(over="ignore"):
            table = factor * self.table
        return Control(self.times, table)


def control_from_pvar(g: SampledRoughPath) -> Control:
    """The canonical control: omega(s, t) = ||g||_{p-var;[s,t]}^p on the grid.

    All-pairs interval dynamic program over gaps j - i = 2..N:
    V[i, j] = max(E[i, j], max_m V[i, m] + V[m, j]), E the table of the
    powered homogeneous norms, `_powered_gauge`.
    O(N^3) flops in E's table, whose lower triangle holds the transpose
    while the gaps run and is zeroed after.  The rows are visited in blocks of R, the bottom block
    first and gaps in ascending order inside a block, so every entry a band
    reads has a smaller gap or a lower row and is final; R rows and the R
    transposed rows they read fit in `_DP_BLOCK_BYTES`.  Each candidate is
    the one sum V[i, m] + V[m, j] and max is exact, so the table is bitwise
    the gap-by-gap order's.  Superadditive by construction and exactly
    additive where the path is one-dimensional and monotone.
    """
    V = _powered_gauge(homogeneous_norms, g)
    n1 = V.shape[0]
    flat = V.reshape(-1)
    # V[j, i] = V[i, j] below the diagonal: gap 1 now, each later band as it is done
    flat[n1 :: n1 + 1] = flat[1 :: n1 + 1]
    size = flat.itemsize
    band = (n1 + 1) * size, size
    block = max(1, _DP_BLOCK_BYTES // (2 * size * n1))
    # one buffer for every band's candidates, sized to the widest band
    gaps = np.arange(2, n1)
    cand = np.empty(int(np.max(np.minimum(block, n1 - gaps) * (gaps - 1), initial=0)))
    best = np.empty(min(block, n1))
    # rows 0..n1-3 have a gap of 2 or more
    for top in reversed(range(0, n1 - 2, block)):
        end = min(top + block, n1 - 2)
        # Row i of each band holds off = 1..gap-1: V[i, i+off] and
        # V[i+off, i+gap] = V[i+gap, i+off], both unit-stride windows; the
        # constructor refuses a window that leaves the table.
        start = top * (n1 + 1) + 1
        lefts = np.ndarray((end - top, n1 - 2 - top), buffer=flat, offset=start * size, strides=band)
        for gap in range(2, n1 - top):
            rows, width = min(end, n1 - gap) - top, gap - 1
            right = np.ndarray((rows, width), buffer=flat, offset=(start + gap * n1) * size, strides=band)
            sums = cand[: rows * width].reshape(rows, width)
            np.add(lefts[:rows, :width], right, out=sums)
            high = np.maximum.reduce(sums, axis=1, out=best[:rows])
            at = start + width
            diag = flat[at : at + rows * (n1 + 1) : n1 + 1]
            np.maximum(diag, high, out=diag)
            at += gap * (n1 - 1)
            flat[at : at + rows * (n1 + 1) : n1 + 1] = diag
    # the lower triangle, row by row: a mask would be a second table's worth
    for i in range(n1):
        V[i, : i + 1] = 0.0
    return Control(g.times, V)


# Bytes of the table one row block of the control's dynamic program touches:
# its rows and the sliding window of transposed rows it reads, sized to stay
# in a core's L2 cache.
_DP_BLOCK_BYTES = 1 << 20


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
