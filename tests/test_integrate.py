import numpy as np
import pytest

import roughkit.integrate
import roughkit.path
from roughkit.funcs import LipFunction, PolyMap
from roughkit.integrate import (
    RegularityError,
    compose_integrand,
    integrate_controlled,
    rough_integral,
    taylor_oneform,
    young_integral,
)
from roughkit.oneform import OneFormPath, closed_lift_form
from roughkit.path import (
    SampledPath,
    SampledRoughPath,
    control_from_pvar,
    pure_area_path,
    signature,
)
from roughkit.tensor import DimensionMismatchError

from conftest import assert_bitwise, increment_rows, linear_vector_field
from oracles import (
    controlled_residuals_whole_gather,
    left_riemann,
    pushforward_dilate,
    value_on_increment,
    young_half_grid_loop,
)

A1 = np.array([[0.0, 1.0], [-0.5, 0.2]])
A2 = np.array([[0.3, -0.2], [0.8, 0.0]])


def linear_field(gamma=2.5):
    return LipFunction(linear_vector_field([A1, A2]), gamma=gamma)


def smooth_driver(n_steps, level=2, p=2.0):
    t = np.linspace(0.0, 1.0, n_steps + 1)
    pts = np.stack(
        [t + 0.3 * np.sin(2.0 * np.pi * t), 0.2 * np.cos(2.0 * np.pi * t)], axis=1
    )
    return signature(SampledPath(t, pts), level, p=p)


def field_integral_form(g, f):
    """One-form of t -> integral of f(x) dx over the driver itself."""
    identity = OneFormPath.constant_linear(g, np.eye(g.dim))
    return compose_integrand(f, g.positions(), identity)


# -- Young integration -----------------------------------------------------------


def test_young_constant_operator():
    rng = np.random.default_rng(80)
    t = np.linspace(0.0, 1.0, 33)
    sigma = SampledPath(t, 0.4 * rng.standard_normal((33, 2)))
    A = np.array([[1.0, -2.0], [0.5, 0.3]])
    tau = np.broadcast_to(A, (33, 2, 2))
    res = young_integral(tau, sigma, q=1.0, p=1.0)
    np.testing.assert_allclose(
        res.total, A @ (sigma.values[-1] - sigma.values[0]), atol=1e-13
    )


def test_young_sigma_dsigma_closed_form():
    t = np.linspace(0.0, 1.0, 1025)
    s = 0.3 + t + 0.2 * np.sin(2.0 * np.pi * t)
    res = young_integral(s[:, None, None], SampledPath(t, s[:, None]), q=1.8, p=1.8)
    assert abs(res.total[0] - 0.5 * (s[-1] ** 2 - s[0] ** 2)) <= 1e-10


def test_young_surrogate_pair_vs_fine_riemann_oracle():
    """Oscillatory pair handled at declared exponent 1.8, oracle at N = 2^16."""

    def sig_fn(t):
        return t + 0.25 * np.sin(2.0 * np.pi * t) + 0.06 * np.sin(6.0 * np.pi * t)

    t = np.linspace(0.0, 1.0, 1025)
    s = sig_fn(t)
    res = young_integral(
        np.cos(s)[:, None, None], SampledPath(t, s[:, None]), q=1.8, p=1.8
    )
    oracle = left_riemann(np.cos, sig_fn, 2**16)
    assert abs(res.total[0] - oracle) / abs(oracle) <= 1e-4


@pytest.mark.parametrize("n_steps", [1, 2, 63, 64, 257, 1000])
def test_young_discrepancy_matches_the_half_grid_loop(n_steps):
    """The batched half-grid sum rounds per step differently from the loop's
    matmuls; the discrepancies agree within a few ulps of the total (at most
    2.5 on 63 grids of 1 to 2,001 steps)."""
    rng = np.random.default_rng(n_steps)
    t = np.linspace(0.0, 1.0, n_steps + 1)
    x = np.cumsum(rng.standard_normal((n_steps + 1, 3)), axis=0) / np.sqrt(n_steps)
    tau = np.stack([np.cos(x), np.sin(x) * x[:, :1]], axis=1)
    res = young_integral(tau, SampledPath(t, x), q=1.0, p=1.0)
    ref = float(np.linalg.norm(res.total - young_half_grid_loop(tau, x)))
    assert abs(res.discrepancy - ref) <= 8.0 * np.spacing(np.max(np.abs(res.total)))


@pytest.mark.parametrize("exponent", [2.2, np.inf, np.nan, 0.0, 0.5])
def test_young_rejects_failing_exponents(exponent):
    t = np.linspace(0.0, 1.0, 17)
    s = np.sin(2.0 * np.pi * t)
    with pytest.raises(RegularityError, match=f"fails at p = {exponent}, q = {exponent}"):
        young_integral(s[:, None, None], SampledPath(t, s[:, None]), q=exponent, p=exponent)


def test_young_refuses_from_the_exponents_alone(monkeypatch):
    """The refusal reads p and q only: with physical memory reported as
    1 kB, any lift or pair table would hit the memory guard's ValueError
    first."""
    monkeypatch.setattr(roughkit.path, "_physical_memory_bytes", lambda: 1024)
    t = np.linspace(0.0, 1.0, 2001)
    s = np.sin(2.0 * np.pi * t)
    with pytest.raises(RegularityError, match="Young's condition"):
        young_integral(s[:, None, None], SampledPath(t, s[:, None]), q=2.2, p=2.2)


def test_young_validates_operator_shape():
    t = np.linspace(0.0, 1.0, 9)
    sigma = SampledPath(t, np.stack([t, t], axis=1))
    with pytest.raises(DimensionMismatchError):
        young_integral(np.zeros((9, 2, 3)), sigma, q=1.0, p=1.0)


@pytest.mark.parametrize("shape", [(16, 1, 1), (17, 1, 2)], ids=["short", "wide"])
def test_young_checks_the_operator_shape_before_the_exponents(shape):
    # the exponents fail as well; the shape error names the input at fault
    t = np.linspace(0.0, 1.0, 17)
    s = np.sin(2.0 * np.pi * t)
    with pytest.raises(DimensionMismatchError, match="tau must have shape"):
        young_integral(np.zeros(shape), SampledPath(t, s[:, None]), q=2.2, p=2.2)


# -- rough integration ------------------------------------------------------------


def test_rough_constant_form_reads_displacement():
    g = smooth_driver(24)
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    res = rough_integral(OneFormPath.constant_linear(g, A))
    disp = g.positions()[-1] - g.positions()[0]
    np.testing.assert_allclose(res.total, A @ disp, atol=1e-13)


def test_rough_gradient_form_is_exact():
    """The lift of D(phi) integrates to phi(x_T) - phi(x_0) on any polyline."""
    # phi(x) = x1^2 x2 + 0.5 x2^2; Dphi is a degree-2 row form
    grad = PolyMap(
        2,
        (1, 2),
        (
            np.zeros((1, 2)),
            np.array([[[0.0, 0.0], [0.0, 1.0]]]),
            np.array([[[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]),
        ),
    )

    def phi(x):
        return x[0] ** 2 * x[1] + 0.5 * x[1] ** 2

    rng = np.random.default_rng(81)
    t = np.linspace(0.0, 1.0, 15)
    path = SampledPath(t, 0.6 * rng.standard_normal((15, 2)))
    g = signature(path, 3, p=3.0)
    beta = closed_lift_form(grad, g, path.values[0])
    res = rough_integral(beta)
    want = phi(path.values[-1]) - phi(path.values[0])
    assert abs(res.total[0] - want) <= 1e-10
    # certified: the norm at gamma = 4 > p is finite
    assert np.isfinite(beta.operator_norm(4.0, control_from_pvar(g))) and 4.0 > g.p


def test_rough_pure_area_against_polygon_oracle():
    """With no displacement the integral reads the level-2 slot alone."""
    a = 0.35
    g = pure_area_path(a, 16)
    f = linear_field(gamma=3.0)
    res = rough_integral(field_integral_form(g, f))
    # Green's theorem limit: a * (d f2/dx1 - d f1/dx2)
    np.testing.assert_allclose(res.total, a * (A2[:, 0] - A1[:, 1]), atol=1e-12)

    loops, sides = 50, 150
    theta = np.linspace(0.0, 2.0 * np.pi, sides + 1)[:-1]
    r = np.sqrt(a / (loops * np.pi))
    loop_pts = np.stack([r * (np.cos(theta) - 1.0), r * np.sin(theta)], axis=1)
    pts = np.vstack([np.tile(loop_pts, (loops, 1)), [[0.0, 0.0]]])
    mids = 0.5 * (pts[:-1] + pts[1:])
    field_vals = np.stack([mids @ A1.T, mids @ A2.T], axis=2)
    oracle = np.einsum("noj,nj->o", field_vals, np.diff(pts, axis=0))
    assert np.max(np.abs(res.total - oracle)) <= 1e-3


def test_young_rough_agreement_below_p_two():
    """Left and trapezoid tags coincide on the mirror-symmetric fixture."""
    t = np.linspace(0.0, 1.0, 1025)
    s = t + np.sin(2.0 * np.pi * t) / (2.0 * np.pi)
    tau = np.cos(2.0 * np.pi * t)
    sigma = SampledPath(t, s[:, None])
    yi = young_integral(tau[:, None, None], sigma, q=1.8, p=1.8)
    g = signature(sigma, 1, p=1.8)
    ri = rough_integral(OneFormPath(g, 1, (tau[:, None, None].copy(),)))
    assert abs(yi.total[0] - ri.total[0]) <= 1e-8
    assert abs(yi.total[0] - 0.5) <= 1e-4


# -- integrand composition ---------------------------------------------------------


def test_compose_constant_field_gives_constant_form():
    g = smooth_driver(12)
    c = np.array([[0.7, -0.3], [0.1, 0.4]])
    f = LipFunction(PolyMap.constant(c, in_dim=2), gamma=2.5)
    beta = compose_integrand(f, g.positions(), OneFormPath.constant_linear(g, np.eye(2)))
    np.testing.assert_allclose(
        beta.levels[0], np.broadcast_to(c.reshape(-1, 2)[None], beta.levels[0].shape)
    )
    np.testing.assert_allclose(beta.levels[1], 0.0, atol=1e-15)
    res = rough_integral(beta)
    np.testing.assert_allclose(
        res.total, c @ (g.positions()[-1] - g.positions()[0]), atol=1e-13
    )


def test_compose_linear_field_matches_classical_quadrature():
    g = smooth_driver(40)
    f = linear_field()
    res = rough_integral(field_integral_form(g, f))
    pts = g.positions()
    mids = 0.5 * (pts[:-1] + pts[1:])
    field_vals = np.stack([mids @ A1.T, mids @ A2.T], axis=2)
    oracle = np.einsum("noj,nj->o", field_vals, np.diff(pts, axis=0))
    assert np.max(np.abs(res.total - oracle)) <= 1e-8


def test_compose_second_level_reads_exactly_the_area_slot():
    """Dropping the area, the antisymmetric part of pi_2, from the driver's
    points shifts the integral by the predicted pairing."""
    g = smooth_driver(12)
    f = linear_field()
    beta = field_integral_form(g, f)
    full = rough_integral(beta).total

    two = g.levels[2].reshape(-1, g.dim, g.dim)
    stripped = (g.levels[0], g.levels[1], (0.5 * (two + two.transpose(0, 2, 1))).reshape(-1, g.dim**2))
    g0 = SampledRoughPath(g.times, stripped, 2.0)
    beta0 = OneFormPath(g0, beta.out_dim, beta.levels)
    ablated = rough_integral(beta0).total

    gap = g.step_level_blocks[1] - g0.step_level_blocks[1]
    predicted = np.einsum("nok,nk->o", beta.levels[1][:-1], gap)
    assert np.max(np.abs(full - ablated)) > 1e-4
    np.testing.assert_allclose(full - ablated, predicted, atol=1e-12)


def test_discrepancy_is_bitwise_the_object_half_grid_sum():
    for n_steps in (12, 13):
        g = smooth_driver(n_steps, level=3, p=3.0)
        beta = field_integral_form(g, linear_field())
        res = rough_integral(beta)
        idx = list(range(0, n_steps + 1, 2)) + ([n_steps] if n_steps % 2 else [])
        coarse = np.zeros(beta.out_dim)
        for a, b in zip(idx[:-1], idx[1:]):
            coarse = coarse + value_on_increment(beta, a, increment_rows(g, a, b))
        assert res.discrepancy == float(np.linalg.norm(res.values[-1] - coarse))


def test_compose_rejects_low_gamma():
    g = smooth_driver(8, level=3, p=3.0)
    f = linear_field(gamma=1.5)
    with pytest.raises(ValueError):
        compose_integrand(f, g.positions(), OneFormPath.constant_linear(g, np.eye(2)))


# -- controlled integration --------------------------------------------------------


def test_controlled_constant_integrand():
    g = smooth_driver(16)
    c = np.array([[0.7, -0.3]])
    phi = np.broadcast_to(c, (len(g.points), 1, 2)).copy()
    eta, res, diag = integrate_controlled(
        phi, OneFormPath.zero(g, 2), gamma=2.5, omega=control_from_pvar(g)
    )
    np.testing.assert_allclose(
        res.total, c @ (g.positions()[-1] - g.positions()[0]), atol=1e-13
    )
    np.testing.assert_allclose(eta.levels[1], 0.0, atol=1e-15)
    assert diag["controlled_quotient"] <= 1e-12


def test_controlled_linear_integrand_vs_quadrature():
    g = smooth_driver(32)
    A = np.array([[0.4, -1.1], [0.7, 0.2]])
    pts = g.positions()
    phi = (pts @ A.T)[:, None, :]
    beta = OneFormPath.constant_linear(g, A)
    eta, res, diag = integrate_controlled(
        phi, beta, gamma=2.5, omega=control_from_pvar(g)
    )
    mids = 0.5 * (pts[:-1] + pts[1:])
    oracle = np.einsum("nj,nj->", mids @ A.T, np.diff(pts, axis=0))
    assert abs(res.total[0] - oracle) <= 1e-8
    assert diag["controlled_quotient"] <= 1e-10
    assert diag["measured_M"] <= 1.0 * (1.0 + 1e-9)


def test_controlled_integral_form_has_finite_raised_norm():
    """Integrating a controlled form raises the bounded exponent by one."""
    g = smooth_driver(24)
    f = linear_field()
    pos = g.positions()
    identity = OneFormPath.constant_linear(g, np.eye(2))
    beta = taylor_oneform(f, pos, identity)
    phi = f.apply(pos)
    omega = control_from_pvar(g)
    eta, res, diag = integrate_controlled(phi, beta, gamma=f.gamma, omega=omega)
    raised = eta.operator_norm(f.gamma + 1.0, omega)
    assert np.isfinite(raised) and f.gamma + 1.0 > g.p
    assert np.isfinite(diag["controlled_quotient"])


def test_controlled_integral_scans_the_pairs_once(monkeypatch):
    """beta's norm is the one pair scan of `integrate_controlled`: the
    integral of eta is certified, if at all, by its caller."""
    g = smooth_driver(24)
    f = linear_field()
    pos = g.positions()
    beta = taylor_oneform(f, pos, OneFormPath.constant_linear(g, np.eye(2)))
    scan = OneFormPath._level_quotients
    calls = []

    def counting(self, *args, **kw):
        calls.append(self)
        return scan(self, *args, **kw)

    monkeypatch.setattr(OneFormPath, "_level_quotients", counting)
    integrate_controlled(f.apply(pos), beta, gamma=f.gamma, omega=control_from_pvar(g))
    assert len(calls) == 1 and calls[0] is beta


def test_controlled_residuals_are_bitwise_the_whole_array_gather(monkeypatch):
    # the residuals are taken and their quotients folded a `_row_blocks`
    # rectangle at a time; the pairing kernel's rounding must not depend on
    # the rectangle's size.  A random form reads every level, level L included.
    rng = np.random.default_rng(12)
    g = smooth_driver(40, level=3, p=3.0)
    f = linear_field(gamma=3.5)
    phi = f.apply(g.positions())
    beta = OneFormPath(g, 4, tuple(rng.standard_normal((41, 4, 2**k)) for k in (1, 2, 3)))
    omega = control_from_pvar(g)
    want = controlled_residuals_whole_gather(phi.reshape(g.times.size, -1), beta)
    quotient = roughkit.integrate._pair_quotient
    seen = []

    def recording(num, *args, **kw):
        seen.append(num)
        return quotient(num, *args, **kw)

    monkeypatch.setattr(roughkit.integrate, "_pair_quotient", recording)
    diags = []
    for build_pairs in (1, 7, roughkit.path._BUILD_PAIRS):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", build_pairs)
        seen.clear()
        eta, res, diag = integrate_controlled(phi, beta, gamma=f.gamma, omega=omega)
        # one numerator per rectangle: its pairs row-major, its non-pairs zero
        blocks = list(g._row_blocks())
        assert len(seen) == len(blocks)
        pairs = []
        for num, (s0, s1) in zip(seen, blocks):
            s, t = np.ogrid[s0:s1, s0 + 1 : g.times.size]
            num = num.reshape(s1 - s0, -1)
            assert not np.any(num[t <= s])
            pairs.append(num[t > s])
        assert_bitwise(np.concatenate(pairs), want)
        diags.append(diag)
    s_idx, t_idx = np.triu_indices(g.times.size, k=1)
    worst, _ = quotient(want, omega.table[s_idx, t_idx], f.gamma / g.p)
    assert diags[0]["controlled_quotient"] == worst > 0.0
    assert diags[0] == diags[1] == diags[2]


# -- structural invariants ----------------------------------------------------------


def test_interval_additivity_is_exact():
    g = smooth_driver(20)
    beta = field_integral_form(g, linear_field())
    res = rough_integral(beta)
    i0, i1 = 5, 13
    piece = OneFormPath(
        g.restricted(i0, i1),
        beta.out_dim,
        tuple(b[i0 : i1 + 1] for b in beta.levels),
    )
    part = rough_integral(piece).total
    np.testing.assert_allclose(part, res.values[i1] - res.values[i0], atol=1e-13)


def test_rough_integral_is_linear_in_the_form():
    g = smooth_driver(16)
    rng = np.random.default_rng(82)
    b1 = OneFormPath(
        g, 2, tuple(rng.standard_normal((17, 2, 2**k)) for k in (1, 2))
    )
    b2 = OneFormPath(
        g, 2, tuple(rng.standard_normal((17, 2, 2**k)) for k in (1, 2))
    )
    lhs = rough_integral(2.0 * b1 - 0.5 * b2).values
    rhs = 2.0 * rough_integral(b1).values - 0.5 * rough_integral(b2).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_dilation_leaves_the_integral_unchanged():
    g = smooth_driver(16)
    beta = field_integral_form(g, linear_field())
    moved = pushforward_dilate(beta, 2.0)
    np.testing.assert_allclose(
        rough_integral(moved).values, rough_integral(beta).values, atol=1e-12
    )


def test_discrepancy_decreases_under_refinement():
    # A linear field would make the level-2 form exact on polylines, so use
    # a quadratic one where the Taylor remainder actually drives the gap.
    rng = np.random.default_rng(7)
    coeffs = [
        0.3 * rng.standard_normal((2, 2)),
        0.4 * rng.standard_normal((2, 2, 2)),
        0.2 * rng.standard_normal((2, 2, 2, 2)),
    ]
    f = LipFunction(PolyMap(2, (2, 2), coeffs), gamma=2.5)
    discs = [
        rough_integral(field_integral_form(smooth_driver(n), f)).discrepancy
        for n in (32, 64, 128)
    ]
    assert discs[0] > discs[1] > discs[2]
