from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import roughkit.path
from roughkit.oneform import OneFormPath
from roughkit.path import (
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
)
from roughkit.tensor import TruncatedTensor, certify_stack, tensor_exp

from conftest import assert_bitwise, element_norm, level_tensor, reversed_path
from oracles import (
    form_value,
    interval_dp_loop,
    ode_iterated_integrals,
    pairwise_norm_table,
    per_point_lift,
    pvar_exhaustive,
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
    expected = tensor_exp(level_tensor(2, 3, {1: v}))
    for k in range(4):
        np.testing.assert_allclose(
            g.points[-1].level_block(k), expected.level_block(k), atol=1e-15
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
    assert (end.tensor - TruncatedTensor.unit(2, 3)).norm() <= 1e-12


def test_chen_identity_under_concatenation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_polyline(rng, n_pts=5)
        b = random_polyline(rng, n_pts=6)
        joint = signature(a.concatenated(b), 3).points[-1]
        split = signature(a, 3).points[-1] @ signature(b, 3).points[-1]
        assert (joint.tensor - split.tensor).norm() <= 1e-12


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
    assert (end_a.tensor - end_b.tensor).norm() <= 1e-12


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
    with pytest.raises(ValueError):
        signature(polyline([[0.0], [1.0]]), 0)


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
    table[np.triu_indices(n, k=1)] = g.pairwise_homogeneous_norms
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


def test_control_of_constant_path_vanishes():
    path = polyline(np.zeros((4, 2)))
    omega = control_from_pvar(signature(path, 2, p=2.0))
    assert omega.total() == 0.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_control_superadditivity(seed):
    rng = np.random.default_rng(seed)
    g = signature(random_polyline(rng, n_pts=6), 2, p=2.0)
    omega = control_from_pvar(g)
    defect = superadditivity_loop(omega.table)
    assert defect >= -1e-12
    # the interval dynamic program makes the table exactly superadditive
    assert defect <= 0.0


def walk_lift(steps, dim, level, seed):
    """Scaled random-walk lift with p just above the level."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, steps + 1)
    x = np.cumsum(rng.standard_normal((steps + 1, dim)), axis=0) / np.sqrt(steps)
    return signature(SampledPath(t, x), level, p=level + 0.2)


@pytest.mark.parametrize(
    "steps, dim, level",
    [(1, 1, 2), (2, 2, 2), (3, 1, 2), (64, 2, 2), (257, 1, 2), (257, 2, 2), (64, 2, 3)],
)
def test_control_is_bitwise_the_interval_loop(steps, dim, level):
    g = walk_lift(steps, dim, level, seed=steps + dim)
    table = control_from_pvar(g).table
    assert table.tobytes() == interval_dp_loop(norm_square(g) ** g.p).tobytes()


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
    for a, b in zip(g.points, h.points):
        assert (a.tensor - b.tensor).norm() == 0.0


def test_dilate_scales_homogeneous_norm_linearly():
    rng = np.random.default_rng(19)
    g = signature(random_polyline(rng), 3, p=3.0)
    h = g.dilate(2.5)
    inc_g = g.increment(1, 4)
    inc_h = h.increment(1, 4)
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


# -- pure-area fixtures -------------------------------------------------------


def test_pure_area_zero_is_constant_identity():
    g = pure_area_path(0.0, 8)
    for pt in g.points:
        assert (pt.tensor - TruncatedTensor.unit(2, 2)).norm() == 0.0


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
    assert (end.tensor - target.tensor).norm() <= 1e-3


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
        joined = g.increment(s, u) @ g.increment(u, t)
        assert (joined.tensor - g.increment(s, t).tensor).norm() <= 1e-13


def mixed_certificate_path(rng) -> SampledRoughPath:
    """A level-3 lift whose odd points lose their area and their certificate."""
    g = signature(random_polyline(rng, n_pts=7), 3, p=3.0)
    levels = [x.copy() for x in g.levels]
    levels[2][1::2] = 0.0
    return SampledRoughPath(g.times, tuple(levels), 3.0, np.arange(7) % 2 == 0)


@pytest.mark.parametrize("mixed", [False, True])
def test_increment_levels_are_bitwise_the_object_increments(mixed):
    rng = np.random.default_rng(31)
    g = mixed_certificate_path(rng) if mixed else signature(random_polyline(rng), 3, p=3.0)
    n = len(g.points)
    a_idx, b_idx = (x.reshape(-1) for x in np.meshgrid(np.arange(n), np.arange(n)))
    stacks = g.increment_levels(a_idx, b_idx)
    for row, (a, b) in enumerate(zip(a_idx, b_idx)):
        ref = g.points[a].inverse() @ g.points[b]
        for k in range(g.level + 1):
            assert np.array_equal(stacks[k][row], ref.level_block(k))
    for i in range(g.num_steps):
        ref = g.points[i].inverse() @ g.points[i + 1]
        assert (g.grouplike[i] & g.grouplike[i + 1]) == ref.grouplike == (not mixed)
        for k in range(1, g.level + 1):
            assert np.array_equal(g.step_level_blocks[k - 1][i], ref.level_block(k))
    inverses = g._inverse_levels
    for i, pt in enumerate(g.points):
        for k in range(g.level + 1):
            assert np.array_equal(inverses[k][i], pt.inverse().level_block(k))


def assert_pair_levels_are_the_increment_levels(g, monkeypatch, build_pairs=None):
    """Stored levels 2..L-1, and every `pair_runs` run's (s, t) and levels
    1..L-1 or 1..L, against np.triu_indices and `increment_levels`, by
    bytes.  The pair build and the runs take blocks of 1, 2(N+1) and 4,096
    pairs unless `build_pairs` names others."""
    n = len(g.points)
    s_idx, t_idx = np.triu_indices(n, k=1)
    stacks = g.increment_levels(s_idx, t_idx)
    for size in build_pairs or (1, 2 * n, roughkit.path._BUILD_PAIRS):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", size)
        h = SampledRoughPath(g.times, g.levels, g.p, g.grouplike)
        assert len(h.pairwise_levels) == max(g.level - 2, 0)
        for k, block in enumerate(h.pairwise_levels, start=2):
            assert block.shape == (s_idx.size, g.dim**k)
            assert block.tobytes() == stacks[k].tobytes()
        for top in (False, True):
            runs = list(h.pair_runs(top))
            assert [r[0] for r in runs] == [slice(a, a + size) for a in range(0, s_idx.size, size)]
            for pairs, s, t, levels in runs:
                assert s.dtype == t.dtype == s_idx.dtype
                assert s.tobytes() == s_idx[pairs].tobytes()
                assert t.tobytes() == t_idx[pairs].tobytes()
                assert len(levels) == g.level - 1 + top
                for k, block in enumerate(levels, start=1):
                    assert block.tobytes() == stacks[k][pairs].tobytes()


@pytest.mark.parametrize("mixed", [False, True])
def test_pairwise_levels_are_bitwise_the_increment_levels(mixed, monkeypatch):
    # only pairs s < t and levels 2..L-1 are stored, in row-major order;
    # level 1 comes from the points and level L from the product, run by run
    rng = np.random.default_rng(32)
    g = mixed_certificate_path(rng) if mixed else signature(random_polyline(rng), 3, p=3.0)
    assert_pair_levels_are_the_increment_levels(g, monkeypatch)


def signed_zero_path() -> SampledRoughPath:
    """A level-3 path in R^2 whose level 1 mixes -0.0 and +0.0 coordinates."""
    x = np.array([[0.0, -0.0], [-0.0, 0.5], [0.25, -0.0], [-0.0, -0.0], [-0.0, 0.0], [1.0, -0.0]])
    levels = (np.ones((6, 1)), x, np.einsum("ni,nj->nij", x, x).reshape(6, 4) / 2.0)
    levels += (np.einsum("ni,nj,nk->nijk", x, x, x).reshape(6, 8) / 6.0,)
    return SampledRoughPath(np.linspace(0.0, 1.0, 6), levels, 3.0, np.ones(6, dtype=bool))


def test_pair_levels_keep_the_signs_of_zero_coordinates(monkeypatch):
    # level 1 of a run is (0.0 + x_t) + (g_s^{-1})_1, the additions the
    # product makes, so -0.0 and +0.0 coordinates come out as it has them
    g = signed_zero_path()
    assert np.signbit(g.levels[1]).any()
    assert_pair_levels_are_the_increment_levels(g, monkeypatch)


@pytest.mark.parametrize("n_pts", [2, 3, 65])
@pytest.mark.parametrize("run", [1, 97, 4096])
def test_pair_ends_are_the_triu_slices(n_pts, run, monkeypatch):
    # runs from the first pair on, which cross s-rows wherever the run
    # length does not divide them; level 1 alone, and level 1 with level 3
    rng = np.random.default_rng(n_pts)
    assert_pair_levels_are_the_increment_levels(
        signature(random_polyline(rng, n_pts=n_pts), 1, p=1.0), monkeypatch, (run,)
    )
    g = signature(random_polyline(rng, n_pts=n_pts), 3, p=3.0)
    assert_pair_levels_are_the_increment_levels(g, monkeypatch, (run,))
    # the single run that `difference_matrices` reads by default
    s_idx, t_idx = np.triu_indices(n_pts, k=1)
    _, s, t, levels = g._pair_run(slice(None))
    assert s.tobytes() == s_idx.tobytes() and t.tobytes() == t_idx.tobytes()
    for k, block in enumerate(levels, start=1):
        assert block.tobytes() == g.increment_levels(s_idx, t_idx)[k].tobytes()


@pytest.mark.parametrize("seed", range(34, 44))
def test_homogeneous_norm_is_bitwise_the_pairwise_table(seed, monkeypatch):
    # one kernel serves single elements and the packed pair norms; a scalar
    # k-th root rounds differently from the array one on about 1% of pairs.
    # The norms are filled by the pair build in blocks of 1, 2 and all s-rows.
    g = mixed_certificate_path(np.random.default_rng(seed))
    assert g.grouplike.any() and not g.grouplike.all()
    n = len(g.points)
    s_idx, t_idx = np.triu_indices(n, k=1)
    for build_pairs in (1, 2 * n, roughkit.path._BUILD_PAIRS):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", build_pairs)
        norms = SampledRoughPath(g.times, g.levels, g.p, g.grouplike).pairwise_homogeneous_norms
        assert norms.shape == s_idx.shape
        for j, (s, t) in enumerate(zip(s_idx, t_idx)):
            assert element_norm(g.increment(s, t)) == norms[j]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_norm_table_and_control_are_bitwise_the_full_level_norms(d, level, monkeypatch):
    # levels 1 and L are never stored, yet the norms read them: at L = 1 and
    # L = 2 nothing is stored and the packed norms must still be filled
    rng = np.random.default_rng(10 * d + level)
    walk = np.vstack([np.zeros((1, d)), np.cumsum(rng.standard_normal((30, d)), axis=0)])
    p = level + 0.5 if level < 4 else 4.0
    g = signature(SampledPath(np.linspace(0.0, 1.0, 31), walk), level, p=p)
    want = pairwise_norm_table(g)
    control = interval_dp_loop(want**p)
    for build_pairs in (1, 2 * 31, roughkit.path._BUILD_PAIRS):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", build_pairs)
        h = SampledRoughPath(g.times, g.levels, g.p, g.grouplike)
        assert len(h.pairwise_levels) == max(level - 2, 0)
        assert_bitwise(norm_square(h), want)
        assert_bitwise(control_from_pvar(h).table, control)


# -- level-stack storage ------------------------------------------------------


def test_rough_path_stores_only_level_stacks():
    g = signature(random_polyline(np.random.default_rng(33)), 3, p=3.0)
    assert [f.name for f in fields(SampledRoughPath)] == ["times", "levels", "p", "grouplike"]
    assert [x.shape for x in g.levels] == [(7, 1), (7, 2), (7, 4), (7, 8)]
    assert g.grouplike.dtype == bool and g.grouplike.all()
    for arr in (g.times, g.grouplike) + g.levels:
        assert not arr.flags.writeable


@pytest.mark.parametrize("dim, level", [(2, 3), (3, 4)])
def test_signature_is_bitwise_the_per_point_lift(dim, level):
    path = random_polyline(np.random.default_rng(34), dim=dim, n_pts=9, scale=0.3)
    g = signature(path, level)
    ref = per_point_lift(path.values, level)
    assert all(np.array_equal(a, b) for a, b in zip(g.levels, ref, strict=True))


def test_pure_area_and_dilate_are_bitwise_the_per_point_versions():
    area, steps = 0.35, 6
    g = pure_area_path(area, steps)
    gen = np.array([0.0, 1.0, -1.0, 0.0])
    for k, pt in enumerate(g.points):
        lie = level_tensor(2, 2, {2: (k / steps) * area * gen})
        ref = tensor_exp(lie)
        assert all(np.array_equal(pt.level_block(j), ref.level_block(j)) for j in range(3))
    lift = signature(random_polyline(np.random.default_rng(35)), 3)
    for pt, lift_pt in zip(lift.dilate(2.5).points, lift.points):
        ref = lift_pt.dilate(2.5)
        assert pt.grouplike and ref.grouplike
        assert all(np.array_equal(pt.level_block(j), ref.level_block(j)) for j in range(4))


def test_signature_certifies_each_stack_once(monkeypatch):
    import roughkit.path as path_mod

    calls = []
    real = path_mod.certify_stack

    def counting(t, rows=None, **kw):
        calls.append(t[0].shape[0] if rows is None else int(np.sum(rows)))
        return real(t, rows=rows, **kw)

    monkeypatch.setattr(path_mod, "certify_stack", counting)
    signature(random_polyline(np.random.default_rng(36), n_pts=40), 3)
    assert calls == [39, 40]  # the segments, then the points


def _lift_stack(rng):
    g = signature(random_polyline(rng, n_pts=5), 2, p=2.0)
    return g.times, [x.copy() for x in g.levels], g.grouplike.copy()


def _scalar_not_one(times, levels, flags):
    levels[0][2] = 1.0 + 1e-15
    return times, levels, flags, "scalar part exactly 1"


def _non_finite_entry(times, levels, flags):
    levels[2][3, 1] = np.inf
    return times, levels, flags, "non-finite"


def _length_mismatch(times, levels, flags):
    return times[:-1], levels, flags, "times vs"


def _perturbed_area(times, levels, flags):
    levels[2][3, 1] += 1e-3
    return times, levels, flags, "level-2 shuffle relation"


@pytest.mark.parametrize(
    "corrupt", [_scalar_not_one, _non_finite_entry, _length_mismatch, _perturbed_area]
)
def test_rough_path_constructor_rejects(corrupt):
    times, levels, flags, message = corrupt(*_lift_stack(np.random.default_rng(37)))
    with pytest.raises(ValueError, match=message):
        SampledRoughPath(times, tuple(levels), 2.0, flags)


def test_unflagged_row_is_not_certified():
    times, levels, flags = _lift_stack(np.random.default_rng(37))
    levels[2][3, 1] += 1e-3
    flags[3] = False
    g = SampledRoughPath(times, tuple(levels), 2.0, flags)
    assert not g.points[3].grouplike and g.points[2].grouplike


@pytest.mark.parametrize("bad", [[0.0, np.nan, 2.0, 3.0], [0.0, 1.0, 2.0, np.inf]])
def test_non_finite_rough_path_times_rejected(bad):
    g = signature(polyline(np.zeros((4, 2))), 2)
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        SampledRoughPath(np.array(bad), g.levels, 2.0, g.grouplike)


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
    excursion stay certified, with their inverses and every increment: the
    level-2 shuffle bound follows the largest point the path has passed."""
    g = signature(_loop(np.random.default_rng(seed), radius, d), 3)
    s_idx, t_idx = np.triu_indices(g.times.size, k=1)
    assert len(g.increment_levels(s_idx, t_idx)[2]) == s_idx.size
    assert g.grouplike.all()


def test_single_element_increments_of_a_large_loop_are_its_certified_rows():
    """`increment`, and a one-form evaluated on it, certify at the path's
    scale, as `increment_levels` does, so a loop's returning point is
    accepted there too; both agree bitwise with the `increment_levels` row."""
    for seed in range(10):
        g = signature(_loop(np.random.default_rng(seed), 1e3), 3)
        n = g.num_steps
        row = g.increment_levels([0], [n])
        inc = g.increment(0, n)
        for k in range(g.level + 1):
            assert_bitwise(inc.level_block(k), row[k][0])
        # g_n^{-1} g_n has scalar part exactly 1, so level 1 of the argument is pi_1(inc)
        beta = OneFormPath.constant_linear(g, np.eye(g.dim))
        got = form_value(beta, n, g.points[n], inc)
        assert_bitwise(got, beta.pair_values([n], row[1:])[0])


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
        assert h.p == g.p and h.grouplike.all()
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
        SampledRoughPath(g.times, tuple(levels), g.p, g.grouplike)


def assert_trusted_pair_products_pass_the_certificate(g):
    """Every `pair_runs` product, levels 1..L, passes `certify_stack` where
    both its points are group-like, at the larger of their running scales:
    the check `increment_levels` makes and the runs trust.  Returns the
    stacked products and that scale, so a caller can widen the check."""
    scale = g._shuffle_scale
    for _, s, t, levels in g.pair_runs(top=True):
        stack = (np.ones((s.size, 1)),) + levels
        pair_scale = np.maximum(np.take(scale, s), np.take(scale, t))
        rows = np.take(g.grouplike, s) & np.take(g.grouplike, t)
        certify_stack(stack, rows=rows, scale=pair_scale)
    return stack, pair_scale


@pytest.mark.parametrize("case", ["mixed", "loops", "signed-zero"])
def test_trusted_pair_products_pass_the_certificate(case, monkeypatch):
    """The pair build and `pair_runs` do not certify g_s^{-1} g_t, since
    both points were certified when the path was built.  On paths that
    stress that rule, each such product does pass the certificate."""
    if case == "mixed":
        paths = [mixed_certificate_path(np.random.default_rng(seed)) for seed in range(34, 44)]
    elif case == "loops":
        paths = [signature(_loop(np.random.default_rng(seed), 1e3, d), 3) for seed in range(10) for d in (1, 2, 3)]
    else:
        paths = [signed_zero_path()]
    for size in (97, roughkit.path._BUILD_PAIRS):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", size)
        for g in paths:
            stack, pair_scale = assert_trusted_pair_products_pass_the_certificate(g)
            if case == "mixed":
                # the odd points lost their area, so their products fail unmasked
                with pytest.raises(ValueError, match="group-like certificate failed"):
                    certify_stack(stack, scale=pair_scale)


def test_large_increment_passes_the_inverse_identity():
    """The exact lift of one 1e2 step at level 3: t t^{-1} rounds far above
    1e-12 at level 3 but within the bound scaled by the row's size."""
    g = signature(polyline([[0.0, 0.0], [1e2, 0.0]]), 3)
    assert g.grouplike.all()
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
    size: the inverse identity's bound grows with the row as its rounding does.
    Each coordinate moves one way; loops are covered below."""
    rng = np.random.default_rng(seed)
    steps = scale * rng.uniform(0.2, 1.0, (12, d)) * rng.choice([-1.0, 1.0], d)
    values = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
    g = signature(polyline(values), level).dilate(dilation)
    assert g.grouplike.all()
