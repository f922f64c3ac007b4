from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughkit.path import (
    Control,
    PathFormatError,
    SampledPath,
    SampledRoughPath,
    control_from_pvar,
    holder_control,
    p_variation,
    pure_area_path,
    read_path_csv,
    signature,
    write_path_csv,
    write_solution_csv,
)
from roughkit.tensor import GroupElement, homogeneous_norm, tensor_exp, TruncatedTensor

from oracles import ode_iterated_integrals, per_point_lift, pvar_exhaustive


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
    expected = tensor_exp(TruncatedTensor.from_vector(v, 3))
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
    full = path.concatenated(path.reversed())
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


def test_p_variation_matches_exhaustive_enumeration():
    rng = np.random.default_rng(14)
    path = random_polyline(rng, dim=2, n_pts=5)
    g = signature(path, 2, p=2.0)
    gaps = g.pairwise_homogeneous_norms
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
    defect = omega.superadditivity_defect()
    assert defect >= -1e-12
    # the interval dynamic program makes the table exactly superadditive
    assert defect <= 0.0


def test_control_endpoint_equals_pvar_power():
    rng = np.random.default_rng(16)
    g = signature(random_polyline(rng, n_pts=6), 2, p=2.0)
    omega = control_from_pvar(g)
    assert omega.value(0, g.num_steps) == pytest.approx(
        p_variation(g) ** 2.0, rel=1e-12
    )


def test_holder_control_is_linear_in_time():
    rng = np.random.default_rng(17)
    g = signature(random_polyline(rng, n_pts=6), 2, p=2.0)
    omega = holder_control(g)
    t = g.times
    K = omega.value(0, g.num_steps) / (t[-1] - t[0])
    assert omega.value(1, 4) == pytest.approx(K * (t[4] - t[1]), rel=1e-12)


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
    assert homogeneous_norm(inc_h) == pytest.approx(
        2.5 * homogeneous_norm(inc_g), rel=1e-12
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
    points = list(g.points)
    for i in range(1, len(points), 2):
        blocks = dict(enumerate(points[i].tensor.coeffs))
        blocks[2] = np.zeros(4)
        points[i] = GroupElement(TruncatedTensor.from_level_blocks(2, 3, blocks))
    return SampledRoughPath.from_points(g.times, tuple(points), 3.0)


@pytest.mark.parametrize("mixed", [False, True])
def test_increment_levels_are_bitwise_the_object_increments(mixed):
    rng = np.random.default_rng(31)
    g = mixed_certificate_path(rng) if mixed else signature(random_polyline(rng), 3, p=3.0)
    n = len(g.points)
    a_idx, b_idx = (x.reshape(-1) for x in np.meshgrid(np.arange(n), np.arange(n)))
    stacks = g.increment_levels(a_idx, b_idx)
    for row, (a, b) in enumerate(zip(a_idx, b_idx)):
        ref = g.increment(a, b)
        for k in range(g.level + 1):
            assert np.array_equal(stacks[k][row], ref.level_block(k))
    for i, inc in enumerate(g.step_increments):
        ref = g.increment(i, i + 1)
        assert inc.grouplike == ref.grouplike == (not mixed)
        for k in range(g.level + 1):
            assert np.array_equal(inc.level_block(k), ref.level_block(k))
    inverses = g._inverse_levels
    for i, pt in enumerate(g.points):
        for k in range(g.level + 1):
            assert np.array_equal(inverses[k][i], pt.inverse().level_block(k))


@pytest.mark.parametrize("mixed", [False, True])
def test_pairwise_levels_are_bitwise_the_increment_levels(mixed):
    rng = np.random.default_rng(32)
    g = mixed_certificate_path(rng) if mixed else signature(random_polyline(rng), 3, p=3.0)
    n = len(g.points)
    s_idx, t_idx = (x.reshape(-1) for x in np.indices((n, n)))
    stacks = g.increment_levels(s_idx, t_idx)
    assert len(g.pairwise_levels) == g.level
    for k, block in enumerate(g.pairwise_levels, start=1):
        assert block.shape == (n, n, g.dim**k)
        assert np.array_equal(block.reshape(n * n, -1), stacks[k])


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
        lie = TruncatedTensor.from_level_blocks(2, 2, {2: (k / steps) * area * gen})
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

    def counting(t, rows=None):
        calls.append(t[0].shape[0] if rows is None else int(np.sum(rows)))
        return real(t, rows=rows)

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


def test_large_increment_fails_the_inverse_identity():
    with pytest.raises(ValueError, match="group-like certificate failed: inverse identity"):
        signature(polyline([[0.0, 0.0], [1e2, 0.0]]), 3)
