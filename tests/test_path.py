import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import roughkit.path
from roughkit.oneform import OneFormPath
from roughkit.path import (
    Control,
    PathFormatError,
    SampledPath,
    SampledRoughPath,
    control_from_pvar,
    p_variation,
    pure_area_path,
    read_path_csv,
    signature,
    write_path_csv,
    write_solution_csv,
    _best_partition_sum,
    _powered_gauge,
)
from roughkit.tensor import DimensionMismatchError, GroupElement, certify_stack, homogeneous_norms, stack_exp

from conftest import (
    assert_bitwise,
    cubic_problem,
    dilated,
    element_norm,
    increment_element,
    increment_rows,
    level_rows,
    row,
    rows_distance,
    reversed_path,
)
from oracles import (
    control_band_loop,
    form_value,
    interval_dp_loop,
    ode_iterated_integrals,
    pairwise_norm_table,
    per_point_lift,
    pvar_exhaustive,
    series_exp_loop,
    superadditivity_loop,
)


def polyline(points, times=None) -> SampledPath:
    points = np.asarray(points, dtype=float)
    if times is None:
        times = np.arange(points.shape[0], dtype=float)
    return SampledPath(np.asarray(times, dtype=float), points)


def random_polyline(rng, dim=2, n_pts=7, scale=0.6) -> SampledPath:
    t = np.sort(rng.uniform(0.0, 1.0, n_pts))
    t[0], t[-1] = 0.0, 1.0
    return SampledPath(t, scale * rng.standard_normal((n_pts, dim)))


# -- signature lift -----------------------------------------------------------


def test_single_segment_signature_is_exponential():
    v = np.array([0.3, -0.7])
    g = signature(polyline([[0.0, 0.0], v]), 3)
    expected = series_exp_loop(level_rows(2, 3, {1: v}))
    for k in range(4):
        np.testing.assert_allclose(
            g.points[-1].level_block(k), expected[k], atol=1e-15
        )


def test_two_segment_level_two_blocks():
    """Segments e1 then e2: pi_2 = 1/2 e1 x e1 + 1/2 e2 x e2 + e1 x e2."""
    g = signature(polyline([[0, 0], [1, 0], [1, 1]]), 2)
    end = g.points[-1]
    np.testing.assert_allclose(end.level_block(1), [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(
        end.level_block(2).reshape(2, 2),
        [[0.5, 1.0], [0.0, 0.5]],
        atol=1e-15,
    )


def test_signature_matches_ode_oracle():
    path = polyline([[0.0, 0.0], [0.7, 0.1], [0.4, 0.8], [-0.2, 0.5]])
    g = signature(path, 3)
    oracle = ode_iterated_integrals(path.times, path.values, 3)
    for k in range(4):
        np.testing.assert_allclose(
            g.points[-1].level_block(k), oracle[k], atol=1e-8
        )


def test_reversal_cancels_signature():
    rng = np.random.default_rng(10)
    path = random_polyline(rng)
    full = path.concatenated(reversed_path(path))
    end = signature(full, 3).points[-1]
    assert rows_distance(end.levels, GroupElement.unit(2, 3).levels) <= 1e-12


def test_chen_identity_under_concatenation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_polyline(rng, n_pts=5)
        b = random_polyline(rng, n_pts=6)
        joint = signature(a.concatenated(b), 3).points[-1]
        split = signature(a, 3).points[-1] @ signature(b, 3).points[-1]
        assert rows_distance(joint.levels, split.levels) <= 1e-12


def test_concatenation_lays_the_time_steps_end_to_end():
    a = polyline([[0.0], [1.0], [3.0]], times=[0.0, 1.0, 2.0])
    joined = a.concatenated(a)
    np.testing.assert_array_equal(joined.times, [0.0, 1.0, 2.0, 3.0, 4.0])
    rng = np.random.default_rng(24)
    b, c = random_polyline(rng, n_pts=5), random_polyline(rng, n_pts=6)
    want = np.concatenate([np.diff(b.times), np.diff(c.times)])
    np.testing.assert_allclose(np.diff(b.concatenated(c).times), want, rtol=0.0, atol=1e-15)


def test_reparameterization_invariance():
    """Inserting collinear sample points must not move the signature."""
    rng = np.random.default_rng(12)
    path = random_polyline(rng, n_pts=6)
    t, v = path.times, path.values
    mid_t = 0.5 * (t[:-1] + t[1:])
    mid_v = 0.5 * (v[:-1] + v[1:])
    tt = np.sort(np.concatenate([t, mid_t]))
    vv = np.empty((tt.size, v.shape[1]))
    vv[0::2] = v
    vv[1::2] = mid_v
    refined = SampledPath(tt, vv)
    end_a = signature(path, 3).points[-1]
    end_b = signature(refined, 3).points[-1]
    assert rows_distance(end_a.levels, end_b.levels) <= 1e-12


def test_signature_factorial_decay():
    rng = np.random.default_rng(13)
    import math

    for _ in range(5):
        path = random_polyline(rng, dim=3, n_pts=8)
        g = signature(path, 6)
        L = path.length()
        for k in range(1, 7):
            norm = float(np.linalg.norm(g.points[-1].level_block(k)))
            assert norm <= L**k / math.factorial(k) * (1.0 + 1e-12)


def test_signature_rejects_level_zero():
    with pytest.raises(ValueError, match="level must be at least 1, got 0"):
        signature(polyline([[0.0], [1.0]]), 0)


def test_sampled_path_refuses_values_with_more_than_two_axes():
    """A (N+1, a, b) array is no path in R^d: it is refused where it is
    built, not by a broadcast deep in the lift."""
    with pytest.raises(DimensionMismatchError, match=r"got \(5, 2, 2\)"):
        SampledPath(np.linspace(0.0, 1.0, 5), np.zeros((5, 2, 2)))


# -- p-variation and controls -------------------------------------------------


def test_one_variation_of_monotone_path():
    path = polyline(np.array([0.0, 0.2, 0.7, 1.1])[:, None])
    g = signature(path, 1, p=1.0)
    assert p_variation(g) == pytest.approx(1.1, abs=1e-14)


def test_one_variation_of_zigzag():
    path = polyline(np.array([0.0, 1.0, 0.0, 1.0])[:, None])
    g = signature(path, 1, p=1.0)
    assert p_variation(g) == pytest.approx(3.0, abs=1e-14)


def norm_square(g):
    """The packed pair norms spread over the upper triangle of a square table."""
    n = g.times.size
    table = np.zeros((n, n))
    table[np.triu_indices(n, k=1)] = g.pairwise_levels[0]
    return table


def test_p_variation_matches_exhaustive_enumeration():
    rng = np.random.default_rng(14)
    path = random_polyline(rng, dim=2, n_pts=5)
    g = signature(path, 2, p=2.0)
    gaps = norm_square(g)
    assert p_variation(g) == pytest.approx(
        pvar_exhaustive(gaps, 2.0), rel=1e-12
    )


def test_p_variation_monotone_in_interval():
    rng = np.random.default_rng(15)
    g = signature(random_polyline(rng, n_pts=8), 2, p=2.0)
    inner = p_variation(g, 2, 5)
    outer = p_variation(g, 1, 6)
    assert inner <= outer + 1e-14


@pytest.mark.parametrize("build_pairs", [7, roughkit.path._BUILD_PAIRS])
@pytest.mark.parametrize("steps, dim, level", [(9, 1, 2), (40, 2, 3), (25, 3, 4), (16, 2, 1), (20, 3, 3)])
def test_p_variation_of_sub_ranges_is_bitwise_the_norm_square(steps, dim, level, build_pairs, monkeypatch):
    """The restricted path's rectangles form the whole path's products, row
    by row: single rows longer than 7 entries at the top, blocks of rows
    at the bottom.  The walk as drawn, then scaled by 1e3 and 1e-3 with a
    zero step."""
    for scale, zero_step in ((1.0, None), (1e3, steps // 2), (1e-3, steps // 3)):
        g = walk_lift(steps, dim, level, seed=steps, scale=scale, zero_step=zero_step)
        powered = norm_square(g) ** g.p
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", build_pairs)
        for i0, i1 in [(0, steps), (0, 1), (2, 7), (steps // 3, steps), (steps - 1, steps)]:
            want = _best_partition_sum(powered[i0 : i1 + 1, i0 : i1 + 1]) ** (1.0 / g.p)
            assert p_variation(g, i0, i1) == float(want)
        monkeypatch.undo()


def test_control_forms_its_pairs_in_rectangles_without_gathers(monkeypatch):
    """The control's norm pass makes one `stack_product` per `_row_blocks`
    rectangle of at most `_BUILD_PAIRS` entries, or one row where a row
    holds more, on views of the path's letter-major inverse points and
    points: no gathered set of pairs."""
    g = walk_lift(40, 2, 3, seed=4)
    inverses, points = g._letter_major
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", 31)

    def refused(*args, **kwargs):
        raise AssertionError("the control gathered a set of pairs")

    monkeypatch.setattr(SampledRoughPath, "_products", refused)
    real, leads = roughkit.path.stack_product, []

    def recording(a, b, pool=None):
        assert all(np.shares_memory(x, inverses) for x in a)
        assert all(np.shares_memory(x, points) for x in b)
        leads.append(np.broadcast(a[0], b[0]).shape[:-1])
        return real(a, b, pool)

    monkeypatch.setattr(roughkit.path, "stack_product", recording)
    control_from_pvar(g)
    assert leads == [(s1 - s0, 40 - s0) for s0, s1 in g._row_blocks()]
    # single rows of 40 down to 16 points, then blocks of rows
    assert leads[:25] == [(1, cols) for cols in range(40, 15, -1)] and leads[25] == (2, 15)
    assert all(rows * cols <= 31 for rows, cols in leads[25:])


def test_control_and_p_variation_build_no_pair_store():
    g = walk_lift(64, 2, 3, seed=5)
    control_from_pvar(g), p_variation(g), p_variation(g, 3, 40)
    assert "pairwise_levels" not in g.__dict__


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_reach_bounds_every_point_and_pair_norm(dim, level, log_scale, seed):
    """r = L (max_s N(g_s^{-1}) + max_t N(g_t)) bounds the homogeneous norm
    of every point and pair of a walk at scale 10**log_scale with one zero
    step, which then loops out and back over its first four steps."""
    rng = np.random.default_rng(seed)
    steps = 10.0**log_scale * rng.standard_normal((8, dim))
    steps[3] = 0.0
    steps = np.vstack([steps, steps[:4], -steps[3::-1]])
    x = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    g = signature(SampledPath(np.linspace(0.0, 1.0, len(x)), x), level, p=level + 0.5)
    points = homogeneous_norms(g.levels[1:])
    assert g._reach >= max(np.max(points), np.max(g.pairwise_levels[0])) > 0.0


def test_control_of_constant_path_vanishes():
    path = polyline(np.zeros((4, 2)))
    omega = control_from_pvar(signature(path, 2, p=2.0))
    assert omega.total() == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_control_refuses_non_finite_or_negative_entries(bad):
    # such a table would read every difference quotient as 0.0
    g = signature(random_polyline(np.random.default_rng(5)), 2, p=2.0)
    omega = control_from_pvar(g)
    table = omega.table.copy()
    table[1, 3] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        Control(g.times, table)


def test_control_refuses_a_negative_scale():
    g = signature(random_polyline(np.random.default_rng(5)), 2, p=2.0)
    with pytest.raises(ValueError, match="finite and non-negative"):
        control_from_pvar(g).scaled(-1.0)


@pytest.mark.parametrize("factor", [np.inf, np.nan])
def test_control_scaled_refuses_a_non_finite_factor_before_it_multiplies(factor):
    # inf * 0.0 would warn "invalid value" before the constructor could refuse;
    # a negative factor is the test above
    omega = Control(np.arange(3.0), np.triu(np.ones((3, 3)), 1))
    with pytest.raises(ValueError, match="finite and non-negative"):
        omega.scaled(factor)


def test_control_scaled_refuses_a_finite_factor_whose_product_overflows():
    # 2.0 * 1e308 overflows to inf: the constructor's refusal, not an overflow warning
    omega = Control(np.arange(3.0), np.triu(np.full((3, 3), 2.0), 1))
    with pytest.raises(ValueError, match="finite and non-negative"):
        omega.scaled(1e308)
    assert omega.scaled(1e307).total() == 2e307


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_control_superadditivity(seed):
    rng = np.random.default_rng(seed)
    g = signature(random_polyline(rng, n_pts=6), 2, p=2.0)
    omega = control_from_pvar(g)
    defect = superadditivity_loop(omega.table)
    assert defect >= -1e-12
    # the interval dynamic program makes the table exactly superadditive
    assert defect <= 0.0


def walk_lift(steps, dim, level, seed, scale=1.0, zero_step=None):
    """Scaled random-walk lift with p just above the level, with no move at
    step `zero_step` if given."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, steps + 1)
    moves = rng.standard_normal((steps + 1, dim))
    if zero_step is not None:
        moves[zero_step + 1] = 0.0
    x = scale * (np.cumsum(moves, axis=0) / np.sqrt(steps))
    return signature(SampledPath(t, x), level, p=level + 0.2)


@pytest.mark.parametrize(
    "steps, dim, level",
    [(1, 1, 2), (2, 2, 2), (3, 1, 2), (64, 2, 2), (257, 1, 2), (257, 2, 2), (64, 2, 3)],
)
def test_control_is_bitwise_the_interval_loop(steps, dim, level):
    g = walk_lift(steps, dim, level, seed=steps + dim)
    table = control_from_pvar(g).table
    assert table.tobytes() == interval_dp_loop(norm_square(g) ** g.p).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("steps", [1, 2, 5, 64, 257])
def test_control_row_blocks_are_bitwise_the_band_loop(steps, dim, monkeypatch):
    """Blocks of 1, 2, 3 and 7 rows, short bottom blocks among them (63 and
    256 rows of work at N = 64 and 257), give the whole-band table bit for bit."""
    g = walk_lift(steps, dim, 2, seed=steps + 7 * dim)
    want = control_band_loop(norm_square(g) ** g.p)
    for rows in (1, 2, 3, 7):
        monkeypatch.setattr(roughkit.path, "_DP_BLOCK_BYTES", rows * 16 * (steps + 1))
        assert_bitwise(control_from_pvar(g).table, want)


def test_control_row_blocks_at_the_real_budget_are_bitwise_the_band_loop():
    steps = 600
    g = walk_lift(steps, 2, 2, seed=steps)
    # the rows 0..N-2 that have a gap of two or more span several blocks
    assert roughkit.path._DP_BLOCK_BYTES // (16 * (steps + 1)) < steps - 1
    assert_bitwise(control_from_pvar(g).table, control_band_loop(norm_square(g) ** g.p))


def test_control_endpoint_equals_pvar_power():
    rng = np.random.default_rng(16)
    g = signature(random_polyline(rng, n_pts=6), 2, p=2.0)
    omega = control_from_pvar(g)
    assert omega.value(0, g.num_steps) == pytest.approx(
        p_variation(g) ** 2.0, rel=1e-12
    )


# -- dilation -----------------------------------------------------------------


def test_dilate_by_one_is_identity():
    rng = np.random.default_rng(18)
    g = signature(random_polyline(rng), 3, p=3.0)
    h = g.dilate(1.0)
    for a, b in zip(g.levels, h.levels, strict=True):
        assert np.array_equal(a, b)


def test_dilate_scales_homogeneous_norm_linearly():
    rng = np.random.default_rng(19)
    g = signature(random_polyline(rng), 3, p=3.0)
    h = g.dilate(2.5)
    inc_g = increment_rows(g, 1, 4)
    inc_h = increment_rows(h, 1, 4)
    assert element_norm(inc_h) == pytest.approx(
        2.5 * element_norm(inc_g), rel=1e-12
    )


def test_dilate_scales_p_variation_linearly():
    rng = np.random.default_rng(20)
    g = signature(random_polyline(rng), 2, p=2.0)
    assert p_variation(g.dilate(3.0)) == pytest.approx(
        3.0 * p_variation(g), rel=1e-12
    )


def test_dilate_rejects_nonpositive():
    rng = np.random.default_rng(21)
    g = signature(random_polyline(rng), 2, p=2.0)
    with pytest.raises(ValueError):
        g.dilate(0.0)
    with pytest.raises(ValueError):
        g.dilate(-1.0)


@pytest.mark.parametrize("c", [math.nan, math.inf, 1e200, 1e120])
def test_dilate_refuses_a_bad_or_huge_c(c):
    """A c that is not finite, or whose power c**p overflows, is refused with
    one ValueError before any level is scaled: no inf * 0 warning, no bare
    OverflowError.  1e100 cubed is finite, and that dilation goes through."""
    g = signature(random_polyline(np.random.default_rng(21)), 3, p=3.0)
    with pytest.raises(ValueError, match=r"dilation c must be finite and positive with c\*\*p finite"):
        g.dilate(c)
    assert np.isfinite(g.dilate(1e100).levels[3]).all()


def test_dilate_refuses_a_level_that_overflows():
    """c**p is finite, yet c**3 times a level-3 entry of about 1.7e11 is
    not: the constructor refuses the non-finite block, with no overflow
    warning from the scaling first."""
    g = signature(polyline([[0.0, 0.0], [1e4, 0.0], [0.0, 0.0]]), 3)
    with pytest.raises(ValueError, match="level-3 block contains non-finite entries"):
        g.dilate(1e100)


def test_a_shuffle_check_that_overflows_is_a_refusal():
    """Levels 1 (1.4e154) and 2 (9.8e307) are finite, but x (x) x is not: the
    check would compare inf > inf and pass, so the certificate refuses it,
    with no overflow warning first."""
    g = signature(polyline([[0.0, 0.0], [1e4, 0.0], [0.0, 0.0]]), 2)
    with pytest.raises(ValueError, match="level-2 shuffle check is not finite"):
        g.dilate(1.4e150)
    # a running scale that is not finite would pass any defect
    with pytest.raises(ValueError, match="level-2 shuffle check is not finite"):
        certify_stack(signature(polyline([[0.0], [1.0]]), 2).levels, scale=np.inf)


@pytest.mark.parametrize("level", [2, 3, 4])
def test_a_segment_exponential_that_overflows_is_refused_as_non_finite(level):
    """A step of 1.5e154 has a finite level 1 and an overflowing x (x) x / 2:
    the lift refuses the non-finite level-2 block, with no overflow or
    invalid-value warning from the segment exponential or the product."""
    path = SampledPath([0.0, 1.0], [[0.0, 0.0], [1.5e154, 0.0]])
    with pytest.raises(ValueError, match="level-2 block contains non-finite entries"):
        signature(path, level)


# -- pure-area fixtures -------------------------------------------------------


def test_pure_area_zero_is_constant_identity():
    g = pure_area_path(0.0, 8)
    for pt in g.points:
        assert rows_distance(pt.levels, GroupElement.unit(2, 2).levels) == 0.0


def test_pure_area_blocks():
    a = 0.35
    g = pure_area_path(a, 16)
    end = g.points[-1]
    np.testing.assert_allclose(end.level_block(1), [0.0, 0.0], atol=1e-15)
    two = end.level_block(2).reshape(2, 2)
    np.testing.assert_allclose(two, [[0.0, a], [-a, 0.0]], atol=1e-15)


def test_pure_area_is_limit_of_shrinking_circles():
    """K polygonal loops, each of area a/K, converge to the pure-area point."""
    a, loops, sides = 0.35, 50, 150
    theta = np.linspace(0.0, 2.0 * np.pi, sides + 1)[:-1]
    r = np.sqrt(a / (loops * np.pi))
    loop_pts = np.stack([r * (np.cos(theta) - 1.0), r * np.sin(theta)], axis=1)
    pts = np.vstack([np.tile(loop_pts, (loops, 1)), [[0.0, 0.0]]])
    path = SampledPath(np.arange(pts.shape[0], dtype=float), pts)
    end = signature(path, 2).points[-1]
    target = pure_area_path(a, 1).points[-1]
    assert rows_distance(end.levels, target.levels) <= 1e-3


# -- CSV round trips and input validation -------------------------------------


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    path = random_polyline(rng, dim=3, n_pts=9)
    fname = str(tmp_path / "p.csv")
    write_path_csv(fname, path)
    back = read_path_csv(fname)
    np.testing.assert_array_equal(back.times, path.times)
    np.testing.assert_array_equal(back.values, path.values)


def test_csv_bad_number_reports_line(tmp_path):
    fname = tmp_path / "bad.csv"
    fname.write_text("t,x1\n0.0,1.0\n0.5,oops\n1.0,2.0\n")
    with pytest.raises(PathFormatError) as err:
        read_path_csv(str(fname))
    assert err.value.line == 3


def test_csv_bad_header_rejected(tmp_path):
    fname = tmp_path / "hdr.csv"
    fname.write_text("time,x1\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(PathFormatError) as err:
        read_path_csv(str(fname))
    assert err.value.line == 1


def test_csv_ragged_row_reports_line(tmp_path):
    fname = tmp_path / "ragged.csv"
    fname.write_text("t,x1,x2\n0.0,1.0,2.0\n0.5,1.0\n")
    with pytest.raises(PathFormatError) as err:
        read_path_csv(str(fname))
    assert err.value.line == 3


def test_csv_single_sample_rejected(tmp_path):
    fname = tmp_path / "one.csv"
    fname.write_text("t,x1\n0.0,1.0\n")
    with pytest.raises(PathFormatError):
        read_path_csv(str(fname))


def test_solution_csv_header(tmp_path):
    fname = tmp_path / "sol.csv"
    write_solution_csv(str(fname), np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = fname.read_text().splitlines()
    assert lines[0] == "t,y1,y2"
    assert len(lines) == 3


def test_solution_csv_round_trips_a_one_dimensional_state(tmp_path):
    """A 1-D values array is written as the one column y1, every float
    in repr form, so reading it back gives the same bits."""
    fname = tmp_path / "sol.csv"
    times = np.linspace(0.0, 1.0, 5)
    values = np.random.default_rng(23).standard_normal(5) * 10.0 ** np.arange(-8.0, 12.0, 4.0)
    write_solution_csv(str(fname), times, values)
    lines = fname.read_text().splitlines()
    assert lines[0] == "t,y1"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert_bitwise(back[:, 0], times)
    assert_bitwise(back[:, 1], values)


def test_non_increasing_times_rejected():
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 2.0, 1.0]), np.zeros((3, 1)))


def test_non_finite_data_rejected():
    with pytest.raises(ValueError):
        SampledPath(np.array([0.0, 1.0]), np.array([[0.0], [np.nan]]))


def test_chen_consistency_of_stored_increments():
    rng = np.random.default_rng(23)
    g = signature(random_polyline(rng, n_pts=6), 3, p=3.0)
    for (s, u, t) in [(0, 2, 5), (1, 3, 4)]:
        joined = increment_element(g, s, u) @ increment_element(g, u, t)
        assert joined.grouplike
        assert rows_distance(joined.levels, increment_rows(g, s, t)) <= 1e-13


def test_increment_levels_are_bitwise_the_object_increments():
    g = signature(random_polyline(np.random.default_rng(31)), 3, p=3.0)
    n = len(g.points)
    a_idx, b_idx = (x.reshape(-1) for x in np.meshgrid(np.arange(n), np.arange(n)))
    stacks = g.increment_levels(a_idx, b_idx)
    for row, (a, b) in enumerate(zip(a_idx, b_idx)):
        ref = g.points[a].inverse() @ g.points[b]
        for k in range(g.level + 1):
            assert np.array_equal(stacks[k][row], ref.level_block(k))
    for i in range(g.num_steps):
        ref = g.points[i].inverse() @ g.points[i + 1]
        assert ref.grouplike
        for k in range(1, g.level + 1):
            assert np.array_equal(g.step_level_blocks[k - 1][i], ref.level_block(k))
    inverses = g._inverse_levels
    for i, pt in enumerate(g.points):
        for k in range(g.level + 1):
            assert np.array_equal(inverses[k][i], pt.inverse().level_block(k))


def assert_products_are_the_increment_levels(g, levels, rows, upto, stacks, pool=None):
    """Levels 0..upto of a pair read against the rows of `stacks`, the
    `increment_levels` of all pairs in np.triu_indices order, by bytes.  A
    set's levels, and a pooled rectangle's, hold each letter's entries
    contiguously; with a pool they lie in its lead.  A rectangle's pairs t > s,
    read row-major, are the triu slice `rows`; its other entries are no
    pairs."""
    assert len(levels) == upto + 1
    for k, block in enumerate(levels[1:], start=1):
        lead = block.shape[:-1]
        assert block.shape[-1] == g.dim**k
        if pool is not None or len(lead) == 1:
            assert math.prod(lead) < 2 or block.strides[len(lead) - 1] == block.itemsize
        if pool is not None:
            head = math.prod(lead) * g._run_floats(upto)[0]
            assert np.shares_memory(block, pool[:head]) and not np.shares_memory(block, pool[head:])
        if len(lead) == 2:
            s, t = np.ogrid[: lead[0], 1 : lead[1] + 1]
            block = block[t > s]
        assert block.tobytes() == stacks[k][rows].tobytes()


def assert_pair_levels_are_the_increment_levels(g, monkeypatch, build_pairs=None):
    """The `_rectangle_products` of every `_row_blocks` rectangle and the
    `_products` of a scattered set of pairs, truncated at every level,
    allocated and in a pool, against np.triu_indices and
    `increment_levels`, by bytes; the rectangles cover the rows in order,
    so their pairs read row-major are the triu order, and the packed norms
    have its length.  Rectangles hold 1, 2(N+1) and 4,096 entries, and sets
    as many pairs, unless `build_pairs` names others."""
    n = len(g.points)
    s_idx, t_idx = np.triu_indices(n, k=1)
    stacks = g.increment_levels(s_idx, t_idx)
    # einsum readers need row-major increments for the same bits
    assert all(x.flags.c_contiguous for x in stacks)
    rng = np.random.default_rng(n)
    scattered = np.sort(rng.choice(s_idx.size, size=(s_idx.size + 1) // 2, replace=False))
    for size in build_pairs or (1, 2 * n, roughkit.path._BUILD_PAIRS):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", size)
        h = SampledRoughPath(g.times, g.levels, g.p)
        assert [x.shape for x in h.pairwise_levels] == [s_idx.shape]
        blocks = list(h._row_blocks())
        assert [s0 for s0, _ in blocks] == [0] + [s1 for _, s1 in blocks[:-1]] and blocks[-1][1] == n - 1
        assert all((s1 - s0) * (n - 1 - s0) <= size or s1 == s0 + 1 for s0, s1 in blocks)
        # a pooled rectangle's levels hold until the next one overwrites them
        pool = np.full(h._pair_pool(0).size, np.nan)
        for upto in range(g.level + 1):
            for s0, s1 in blocks:
                rows = (s0 <= s_idx) & (s_idx < s1)
                for scratch in (None, pool):
                    levels = h._rectangle_products(s0, s1, upto, scratch)
                    assert_products_are_the_increment_levels(h, levels, rows, upto, stacks, scratch)
            # sets of pairs, as the pair scan gathers its kept pairs
            for a in range(0, scattered.size, size):
                pairs = scattered[a : a + size]
                s, t = s_idx[pairs], t_idx[pairs]
                assert_products_are_the_increment_levels(h, h._products(s, t, upto), pairs, upto, stacks)
                scratch = np.full(pairs.size * h._run_floats(upto)[1], np.nan)
                levels = h._products(s, t, upto, scratch)
                assert_products_are_the_increment_levels(h, levels, pairs, upto, stacks, scratch)


def test_pairwise_levels_are_bitwise_the_increment_levels(monkeypatch):
    # no pair level is stored: each run forms its levels from the points,
    # one product truncated at level L-1, or at L
    g = signature(random_polyline(np.random.default_rng(32)), 3, p=3.0)
    assert_pair_levels_are_the_increment_levels(g, monkeypatch)


def signed_zero_path() -> SampledRoughPath:
    """A level-3 path in R^2 whose level 1 mixes -0.0 and +0.0 coordinates."""
    x = np.array([[0.0, -0.0], [-0.0, 0.5], [0.25, -0.0], [-0.0, -0.0], [-0.0, 0.0], [1.0, -0.0]])
    levels = (np.ones((6, 1)), x, np.einsum("ni,nj->nij", x, x).reshape(6, 4) / 2.0)
    levels += (np.einsum("ni,nj,nk->nijk", x, x, x).reshape(6, 8) / 6.0,)
    return SampledRoughPath(np.linspace(0.0, 1.0, 6), levels, 3.0)


def test_pair_levels_keep_the_signs_of_zero_coordinates(monkeypatch):
    # level 1 of a run is (0.0 + x_t) + (g_s^{-1})_1 in the truncated
    # product as in the full one, so -0.0 and +0.0 coordinates keep their signs
    g = signed_zero_path()
    assert np.signbit(g.levels[1]).any()
    assert_pair_levels_are_the_increment_levels(g, monkeypatch)


@pytest.mark.parametrize("n_pts", [2, 3, 65])
@pytest.mark.parametrize("run", [1, 97, 4096])
def test_pair_ends_are_the_triu_slices(n_pts, run, monkeypatch):
    # rectangles from the first row on: single rows where a row holds more
    # than `run` entries, blocks of rows below; level 1 alone, and level 1
    # with level 3
    rng = np.random.default_rng(n_pts)
    assert_pair_levels_are_the_increment_levels(
        signature(random_polyline(rng, n_pts=n_pts), 1, p=1.0), monkeypatch, (run,)
    )
    g = signature(random_polyline(rng, n_pts=n_pts), 3, p=3.0)
    assert_pair_levels_are_the_increment_levels(g, monkeypatch, (run,))
    # the ends (s, t) of the rectangles' pairs, row-major, are np.triu_indices
    ends = [np.broadcast_arrays(*np.ogrid[s0:s1, s0 + 1 : n_pts]) for s0, s1 in g._row_blocks()]
    for i, want in enumerate(np.triu_indices(n_pts, k=1)):
        got = np.concatenate([x[i][x[1] > x[0]] for x in ends])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_pts", [2, 3, 65])
def test_index_array_runs_are_the_triu_entries(n_pts):
    # the adjacent pairs, the set the pair scan seeds its bounds with, whose
    # levels are bitwise the cached steps', and a scattered sorted subset of
    # the pairs, each formed from index arrays
    rng = np.random.default_rng(n_pts)
    g = signature(random_polyline(rng, n_pts=n_pts), 3, p=3.0)
    s_idx, t_idx = np.triu_indices(n_pts, k=1)
    scattered = np.sort(rng.choice(s_idx.size, size=(s_idx.size + 1) // 2, replace=False))
    adjacent = np.arange(n_pts - 1)
    for s, t in ((adjacent, adjacent + 1), (s_idx[scattered], t_idx[scattered])):
        levels = g._products(s, t, g.level)
        for k, block in enumerate(levels[1:], start=1):
            assert block.tobytes() == g.increment_levels(s, t)[k].tobytes()
    for got, want in zip(g.step_level_blocks, g._products(adjacent, adjacent + 1, g.level)[1:], strict=True):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("n_steps", [1, 12, 13])
def test_half_step_blocks_are_the_cached_half_grid_increments(n_steps):
    g = signature(random_polyline(np.random.default_rng(n_steps), n_pts=n_steps + 1), 3, p=3.0)
    idx = list(range(0, n_steps + 1, 2)) + ([n_steps] if n_steps % 2 else [])
    want = g.increment_levels(idx[:-1], idx[1:])[1:]
    blocks = g.half_step_level_blocks
    assert blocks is g.half_step_level_blocks
    assert len(blocks) == g.level
    for got, ref in zip(blocks, want):
        assert got.tobytes() == ref.tobytes() and got.shape == ref.shape
        assert not got.flags.writeable


@pytest.mark.parametrize("i0, i1", [(0, 12), (0, 1), (3, 9), (11, 12)])
def test_restricted_path_hands_on_the_cached_step_blocks(i0, i1):
    """A restriction reads its parent's cached step blocks as read-only
    views, bitwise its own consecutive increments, and leaves them
    uncomputed when the parent has not cached them."""
    g = signature(random_polyline(np.random.default_rng(12), n_pts=13), 3, p=3.0)
    assert "step_level_blocks" not in vars(g.restricted(i0, i1))
    parent = g.step_level_blocks
    h = g.restricted(i0, i1)
    idx = np.arange(i1 - i0)
    own = h.increment_levels(idx, idx + 1)[1:]
    for got, whole, want in zip(h.step_level_blocks, parent, own, strict=True):
        assert np.shares_memory(got, whole) and not got.flags.writeable
        assert got.tobytes() == want.tobytes() and got.shape == want.shape


@pytest.mark.parametrize("seed", range(34, 44))
def test_homogeneous_norm_is_bitwise_the_pairwise_table(seed, monkeypatch):
    # one kernel serves single elements and the packed pair norms; a scalar
    # k-th root rounds differently from the array one on about 1% of pairs.
    # The norms are filled by the pair build in blocks of 1, 2 and all s-rows.
    g = signature(random_polyline(np.random.default_rng(seed), n_pts=7), 3, p=3.0)
    n = len(g.points)
    s_idx, t_idx = np.triu_indices(n, k=1)
    for build_pairs in (1, 2 * n, roughkit.path._BUILD_PAIRS):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", build_pairs)
        norms = SampledRoughPath(g.times, g.levels, g.p).pairwise_levels[0]
        assert norms.shape == s_idx.shape
        for j, (s, t) in enumerate(zip(s_idx, t_idx)):
            assert element_norm(increment_rows(g, s, t)) == norms[j]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm_table_and_control_are_bitwise_the_full_level_norms(d, level, monkeypatch):
    """No pair level is stored, yet the norms read all of them, level L
    too: on the walk as drawn, then with one zero step at scales 1e-3, 1
    and 1e3.  The control's table holds their powers at [s, t] and +0.0
    elsewhere, formed in rectangles of 1 entry (single rows longer than the
    budget), of two 30-point rows, and of the whole 30 x 30 square, whose
    entries t <= s are no pairs."""
    rng = np.random.default_rng(10 * d + level)
    drawn = rng.standard_normal((30, d))
    p = level + 0.5 if level < 4 else 4.0
    for scale, zero_step in ((1.0, None), (1e-3, 11), (1.0, 11), (1e3, 11)):
        steps = scale * drawn
        if zero_step is not None:
            steps[zero_step] = 0.0
        walk = np.vstack([np.zeros((1, d)), np.cumsum(steps, axis=0)])
        g = signature(SampledPath(np.linspace(0.0, 1.0, 31), walk), level, p=p)
        want = pairwise_norm_table(g)
        control = interval_dp_loop(want**p)
        for build_pairs in (1, 2 * 30, roughkit.path._BUILD_PAIRS):
            monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", build_pairs)
            h = SampledRoughPath(g.times, g.levels, g.p)
            assert [x.shape for x in h.pairwise_levels] == [(31 * 30 // 2,)]
            assert_bitwise(norm_square(h), want)
            assert_bitwise(_powered_gauge(homogeneous_norms, h), norm_square(h) ** p)
            assert_bitwise(control_from_pvar(h).table, control)


@pytest.mark.parametrize("n_steps", [256, 512])
def test_pair_geometry_keeps_only_the_packed_norms(n_steps):
    """After the build the path holds the P packed norms and a few kB
    besides, with its point caches (O(N)) taken first: no pair level, where
    level 2 alone would be 4P floats more (d=2, L=3)."""
    g = cubic_problem(n_steps).driver
    g._letter_major
    tracemalloc.start()
    try:
        g.pairwise_levels
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pairs = g.times.size * (g.times.size - 1) // 2
    assert pairs * 8 <= kept <= pairs * 8 + 8192


# -- level-stack storage ------------------------------------------------------


def test_rough_path_stores_only_level_stacks():
    g = signature(random_polyline(np.random.default_rng(33)), 3, p=3.0)
    assert [f.name for f in fields(SampledRoughPath)] == ["times", "levels", "p"]
    assert [x.shape for x in g.levels] == [(7, 1), (7, 2), (7, 4), (7, 8)]
    for arr in (g.times,) + g.levels:
        assert not arr.flags.writeable


@pytest.mark.parametrize("dim, level", [(2, 3), (3, 4)])
def test_signature_is_bitwise_the_per_point_lift(dim, level):
    path = random_polyline(np.random.default_rng(34), dim=dim, n_pts=9, scale=0.3)
    g = signature(path, level)
    ref = per_point_lift(path.values, level)
    assert all(np.array_equal(a, b) for a, b in zip(g.levels, ref, strict=True))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, d, level", [(300, 1, 1), (200, 2, 3), (100, 3, 4), (20, 2, 8), (2, 2, 12)])
def test_lift_memory_estimate_bounds_the_lifts_peak(n, d, level, monkeypatch):
    """`signature` counts 12 stacks of N+1 rows of S + 8(L+1) floats, S the
    floats of levels 0..L, before it allocates anything: one byte over
    physical memory it refuses, and at it the lift's traced peak stays
    within the count, small rows with their per-point arrays and large rows
    alike."""
    path = random_polyline(np.random.default_rng(38), dim=d, n_pts=n + 1)
    need = 12 * (n + 1) * (sum(d**k for k in range(level + 1)) + 8 * (level + 1)) * 8
    monkeypatch.setattr(roughkit.path, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"needs about {need:,} bytes, more than the {need - 1:,} bytes"):
        signature(path, level)
    monkeypatch.setattr(roughkit.path, "_physical_memory_bytes", lambda: need)
    assert traced_peak(signature, path, level) <= need


@pytest.mark.parametrize("steps", [8, 320, 5000])
def test_pure_area_memory_estimate_bounds_its_peak(steps, monkeypatch):
    need = 12 * (steps + 1) * (7 + 8 * 3) * 8
    monkeypatch.setattr(roughkit.path, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"signature lift of {steps + 1} grid points \\(d=2, level 2\\) needs about {need:,}"):
        pure_area_path(0.35, steps)
    monkeypatch.setattr(roughkit.path, "_physical_memory_bytes", lambda: need)
    assert traced_peak(pure_area_path, 0.35, steps) <= need


def test_each_lift_step_is_one_trusted_group_product():
    """The lift's contract: row i+1 of `levels` is bitwise point i times the
    exponential of step i, wrapped without a second certificate."""
    path = random_polyline(np.random.default_rng(37), dim=3, n_pts=12, scale=0.4)
    g = signature(path, 3)
    lie = [np.zeros((path.num_steps, 3**k)) for k in range(4)]
    lie[1] = path.increments()
    segs = stack_exp(tuple(lie))
    for i in range(path.num_steps):
        step = GroupElement._trusted(row(segs, i))
        got = (g.points[i] @ step).levels
        assert all(np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in zip(got, row(g.levels, i + 1), strict=True))


def test_pure_area_and_dilate_are_bitwise_the_per_point_versions():
    area, steps = 0.35, 6
    g = pure_area_path(area, steps)
    gen = np.array([0.0, 1.0, -1.0, 0.0])
    for k, pt in enumerate(g.points):
        ref = series_exp_loop(level_rows(2, 2, {2: (k / steps) * area * gen}))
        assert all(np.array_equal(pt.level_block(j), ref[j]) for j in range(3))
    lift = signature(random_polyline(np.random.default_rng(35)), 3)
    for pt, lift_pt in zip(lift.dilate(2.5).points, lift.points):
        ref = GroupElement(dilated(lift_pt.levels, 2.5), grouplike=True)
        assert pt.grouplike and ref.grouplike
        assert all(np.array_equal(pt.level_block(j), ref.level_block(j)) for j in range(4))


def test_signature_certifies_each_stack_once(monkeypatch):
    """One certificate per lift, of the points in the path constructor: the
    segments are exponentials, group-like by construction, and the step
    products start from the uncertified unit, so `GroupElement` checks none."""
    import roughkit.path as path_mod
    import roughkit.tensor as tensor_mod

    calls = []
    real = tensor_mod.certify_stack

    def counting(t, **kw):
        calls.append(t[0].shape[0])
        return real(t, **kw)

    for module in (path_mod, tensor_mod):
        monkeypatch.setattr(module, "certify_stack", counting)
    signature(random_polyline(np.random.default_rng(36), n_pts=40), 3)
    assert calls == [40]  # the points


def _lift_stack(rng):
    g = signature(random_polyline(rng, n_pts=5), 2, p=2.0)
    return g.times, [x.copy() for x in g.levels]


def _scalar_not_one(times, levels):
    levels[0][2] = 1.0 + 1e-15
    return times, levels, "scalar part exactly 1"


def _non_finite_entry(times, levels):
    levels[2][3, 1] = np.inf
    return times, levels, "non-finite"


def _length_mismatch(times, levels):
    return times[:-1], levels, "times vs"


def _perturbed_area(times, levels):
    levels[2][3, 1] += 1e-3
    return times, levels, "level-2 shuffle relation"


@pytest.mark.parametrize(
    "corrupt", [_scalar_not_one, _non_finite_entry, _length_mismatch, _perturbed_area]
)
def test_rough_path_constructor_rejects(corrupt):
    times, levels, message = corrupt(*_lift_stack(np.random.default_rng(37)))
    with pytest.raises(ValueError, match=message):
        SampledRoughPath(times, tuple(levels), 2.0)


def test_no_row_is_exempt_from_the_certificate():
    """A row off the group fails the path: no flag exempts it, and the
    constructor takes no fourth, per-point argument."""
    times, levels = _lift_stack(np.random.default_rng(37))
    levels[2][3, 1] += 1e-3
    with pytest.raises(ValueError, match="level-2 shuffle relation"):
        SampledRoughPath(times, tuple(levels), 2.0)
    flags = np.ones(times.size, dtype=bool)
    flags[3] = False
    with pytest.raises(TypeError):
        SampledRoughPath(times, tuple(levels), 2.0, flags)


@pytest.mark.parametrize("bad", [[0.0, np.nan, 2.0, 3.0], [0.0, 1.0, 2.0, np.inf]])
def test_non_finite_rough_path_times_rejected(bad):
    g = signature(polyline(np.zeros((4, 2))), 2)
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        SampledRoughPath(np.array(bad), g.levels, 2.0)


@pytest.mark.parametrize("p", [np.inf, np.nan, 0.5])
def test_rough_path_refuses_a_non_finite_or_small_p(p):
    # int(inf) would escape as an OverflowError, int(nan) as a conversion error
    g = signature(polyline(np.zeros((4, 2))), 2)
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        SampledRoughPath(g.times, g.levels, p)


def _loop(rng, radius, d=2, n_pts=20):
    """n_pts uniform points in the radius box, from the origin back to within 1e-3 of it."""
    values = rng.uniform(-radius, radius, (n_pts, d))
    values[0] = 0.0
    values[-1] = rng.uniform(-1e-3, 1e-3, d)
    return polyline(values)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    radius=st.sampled_from([1.0, 1e2, 1e3, 1e4]),
)
def test_loop_lifts_pass_the_certificate(seed, d, radius):
    """Exact lifts of loops that come back near their start after a long
    excursion stay certified, with every increment: the level-2 shuffle
    bound follows the largest point the path has passed."""
    g = signature(_loop(np.random.default_rng(seed), radius, d), 3)
    s_idx, t_idx = np.triu_indices(g.times.size, k=1)
    assert len(g.increment_levels(s_idx, t_idx)[2]) == s_idx.size


def test_single_element_increments_of_a_large_loop_are_its_certified_rows():
    """`increment_levels` certifies a pair at the path's scale, so a loop's
    returning point is accepted there, and a one-form evaluated on that row
    as a single element agrees bitwise with `pair_values` on it."""
    for seed in range(10):
        g = signature(_loop(np.random.default_rng(seed), 1e3), 3)
        n = g.num_steps
        inc = g.increment_levels([0], [n])
        # g_n^{-1} g_n has scalar part exactly 1, so level 1 of the argument is pi_1(inc)
        beta = OneFormPath.constant_linear(g, np.eye(g.dim))
        got = form_value(beta, n, g.points[n].levels, row(inc, 0))
        assert_bitwise(got, beta.pair_values([n], inc[1:])[0])


def test_restriction_keeps_the_certified_rows_of_a_large_loop():
    """The last three points of a loop that comes back within 1e-3 of its
    start after a 1e3 excursion keep the running shuffle scale they were
    certified at, so restricting to them refuses nothing; a scale restarted
    at the restriction refused 91 of these 100 paths."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1e3, 1e3, (22, 2))
        values[0] = 0.0
        values[-3:] = rng.uniform(-1e-3, 1e-3, (3, 2))
        g = signature(polyline(values), 3)
        n = g.num_steps
        h = g.restricted(n - 2, n)
        assert_bitwise(h.times, g.times[n - 2 :])
        assert h.p == g.p
        for a, b in zip(h.levels, g.levels, strict=True):
            assert_bitwise(a, b[n - 2 :])
        s_idx, t_idx = np.triu_indices(3, k=1)
        for a, b in zip(h.increment_levels(s_idx, t_idx), g.increment_levels(s_idx + n - 2, t_idx + n - 2)):
            assert_bitwise(a, b)


@pytest.mark.parametrize("row, defect", [(0, 1e-6), (19, 1e-2)])
def test_planted_shuffle_defect_is_refused_after_an_excursion(row, defect):
    """The loop's running scale is at most 1 + 2e6, so the bound at the
    returning point is at most 2e-4, against rounding of about 1e-9 there.
    The starting point, before the excursion, keeps its own bound of 1e-10."""
    g = signature(_loop(np.random.default_rng(38), 1e3), 3)
    levels = [x.copy() for x in g.levels]
    levels[2][row, 0] += defect
    with pytest.raises(ValueError, match="level-2 shuffle relation"):
        SampledRoughPath(g.times, tuple(levels), g.p)


def assert_trusted_pair_products_pass_the_certificate(g):
    """Every `_row_blocks` rectangle's products at its pairs t > s, levels
    1..L, pass `certify_stack` at the larger of their points' running
    scales: the check `increment_levels` makes and the rectangles trust."""
    scale = g._shuffle_scale
    for s0, s1 in g._row_blocks():
        s, t = np.broadcast_arrays(*np.ogrid[s0:s1, s0 + 1 : g.times.size])
        pairs = t > s
        s, t = s[pairs], t[pairs]
        stack = (np.ones((s.size, 1)),) + tuple(x[pairs] for x in g._rectangle_products(s0, s1, g.level)[1:])
        pair_scale = np.maximum(np.take(scale, s), np.take(scale, t))
        certify_stack(stack, scale=pair_scale)


@pytest.mark.parametrize("case", ["loops", "signed-zero"])
def test_trusted_pair_products_pass_the_certificate(case, monkeypatch):
    """The pair rectangles do not certify g_s^{-1} g_t, since both points
    were certified when the path was built.  On paths that
    stress that rule, each such product does pass the certificate."""
    if case == "loops":
        paths = [signature(_loop(np.random.default_rng(seed), 1e3, d), 3) for seed in range(10) for d in (1, 2, 3)]
    else:
        paths = [signed_zero_path()]
    for size in (97, roughkit.path._BUILD_PAIRS):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", size)
        for g in paths:
            assert_trusted_pair_products_pass_the_certificate(g)


def test_large_increment_passes_the_certificate():
    """The exact lift of one 1e2 step at level 3 is certified, with level 3
    at x^3/6 ~ 1.7e5: the shuffle bound scales with 1 + ||x||^2, and no
    check holds a level to an absolute tolerance."""
    g = signature(polyline([[0.0, 0.0], [1e2, 0.0]]), 3)
    assert g.levels[3][-1, 0] == pytest.approx(1e6 / 6.0, rel=1e-15)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    level=st.integers(2, 4),
    scale=st.sampled_from([1.0, 10.0, 30.0, 1e2, 1e3]),
    dilation=st.sampled_from([1.0, 7.0, 1e2]),
)
def test_scaled_walk_lifts_pass_the_certificate(seed, d, level, scale, dilation):
    """Exact lifts of random walks, and their dilations, stay certified at any
    size: the shuffle relation's bound grows with the row as its rounding does.
    Each coordinate moves one way; loops are covered above."""
    rng = np.random.default_rng(seed)
    steps = scale * rng.uniform(0.2, 1.0, (12, d)) * rng.choice([-1.0, 1.0], d)
    values = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
    signature(polyline(values), level).dilate(dilation)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    level=st.integers(2, 4),
    loop=st.booleans(),
    size=st.sampled_from([1.0, 1e2, 1e3]),
    dilation=st.sampled_from([1.0, 7.0, 1e2]),
)
def test_inverse_points_pass_the_certificate(seed, d, level, loop, size, dilation):
    """The constructor certifies the points and not their series inverses:
    an inverse's shuffle defect is its point's, negated, plus one rounding.
    On walks, loops and their dilations `_inverse_levels` passes the
    certificate at the path's own running scale."""
    rng = np.random.default_rng(seed)
    if loop:
        path = _loop(rng, size, d)
    else:
        steps = size * rng.uniform(0.2, 1.0, (12, d)) * rng.choice([-1.0, 1.0], d)
        path = polyline(np.vstack([np.zeros(d), np.cumsum(steps, axis=0)]))
    g = signature(path, level).dilate(dilation)
    certify_stack(g._inverse_levels, scale=g._shuffle_scale)
