import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import roughkit.oneform
import roughkit.path
from roughkit.funcs import LipFunction, PolyMap, strict_floor
from roughkit.integrate import compose_integrand
from roughkit.oneform import (
    _BOUND_ABS,
    _BOUND_REL,
    OneFormPath,
    _chain_bounds,
    _pair_quotient,
    _sigma_bounds,
    _spectral_pair_quotient,
    batched_spectral_norms,
    check_domination,
    closed_lift_form,
    integral_form_from_controlled,
)
from roughkit.path import (
    Control,
    SampledPath,
    control_from_pvar,
    signature,
)
from roughkit.rde import picard_step, solve
from roughkit.tensor import (
    DimensionMismatchError,
    GroupElement,
    sum_squares,
)

from conftest import (
    assert_bitwise,
    cubic_problem,
    increment_element,
    increment_rows,
    level_rows,
    linear_vector_field,
    reversed_path,
)
from oracles import (
    difference_matrices_einsum,
    form_value,
    full_scan_quotient,
    lift_pair_value,
    pushforward_dilate,
    value_on_increment,
)


def driver_2d(seed=50, n_pts=6, level=2, p=2.0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_pts)
    path = SampledPath(t, 0.5 * rng.standard_normal((n_pts, 2)))
    return signature(path, level, p=p)


def linear_field(gamma=2.5):
    A1 = np.array([[0.0, 1.0], [-0.5, 0.2]])
    A2 = np.array([[0.3, -0.2], [0.8, 0.0]])
    return LipFunction(linear_vector_field([A1, A2]), gamma=gamma)


def first_iteration_form(g, f):
    """The one-form of t -> integral of f(x) dx over the driver itself."""
    identity = OneFormPath.constant_linear(g, np.eye(g.dim))
    return compose_integrand(f, g.positions(), identity)


def random_form(g, out_dim, rng):
    levels = tuple(
        rng.standard_normal((len(g.points), out_dim, g.dim**k))
        for k in range(1, g.level + 1)
    )
    return OneFormPath(g, out_dim, levels)


def basis_argument(dim, level, k, j):
    """Level rows of an element with (b - 1) equal to the j-th level-k basis vector."""
    e = np.zeros(dim**k)
    e[j] = 1.0
    return level_rows(dim, level, {0: np.ones(1), k: e})


def functional_matrix(beta, slot, at, k):
    """Level-k matrix of b -> beta_{t_slot}(g_{t_at}, b) by basis evaluation."""
    g = beta.base
    cols = []
    for j in range(g.dim**k):
        b = basis_argument(g.dim, g.level, k, j)
        cols.append(form_value(beta, slot, g.points[at].levels, b))
    return np.stack(cols, axis=1)


# -- evaluation and cocyclicity -----------------------------------------------


def test_unit_argument_evaluates_to_zero():
    g = driver_2d()
    beta = OneFormPath.constant_linear(g, np.array([[1.0, 2.0], [3.0, -1.0]]))
    out = form_value(beta, 3, g.points[3].levels, GroupElement.unit(2, 2).levels)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_constant_functional_reads_first_level():
    g = driver_2d()
    A = np.array([[1.0, 2.0], [3.0, -1.0]])
    beta = OneFormPath.constant_linear(g, A)
    b = increment_rows(g, 2, 4)
    out = form_value(beta, 2, g.points[2].levels, b)
    np.testing.assert_allclose(out, A @ b[1], atol=1e-14)


def test_cocycle_identity_on_random_triples():
    g = driver_2d(seed=51, n_pts=9)
    beta = first_iteration_form(g, linear_field())
    rng = np.random.default_rng(52)
    for _ in range(20):
        i, j, k = sorted(rng.choice(np.arange(9), size=3, replace=False))
        a = increment_element(g, 0, i) if i > 0 else g.points[0]
        b, c = increment_element(g, i, j), increment_element(g, j, k)
        assert (a @ b).grouplike and (b @ c).grouplike
        lhs = form_value(beta, 2, a.levels, b.levels) + form_value(beta, 2, (a @ b).levels, c.levels)
        rhs = form_value(beta, 2, a.levels, (b @ c).levels)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


# -- operator norm ---------------------------------------------------------------


def test_constant_form_norm_is_pure_sup():
    g = driver_2d()
    A = np.array([[1.0, 2.0], [3.0, -1.0]])
    beta = OneFormPath.constant_linear(g, A)
    omega = control_from_pvar(g)
    _, quots, _ = beta.norm_components(2.5, omega)
    assert max(quots) <= 1e-14
    sigma = np.linalg.svd(A, compute_uv=False)[0]
    assert beta.operator_norm(2.5, omega) == pytest.approx(sigma, rel=1e-12)


def test_operator_norm_homogeneity():
    g = driver_2d(seed=53)
    beta = random_form(g, 2, np.random.default_rng(54))
    omega = control_from_pvar(g)
    base = beta.operator_norm(2.5, omega)
    assert (3.5 * beta).operator_norm(2.5, omega) == pytest.approx(
        3.5 * base, rel=1e-12
    )


def test_operator_norm_triangle_inequality():
    g = driver_2d(seed=55)
    rng = np.random.default_rng(56)
    omega = control_from_pvar(g)
    for _ in range(10):
        b1 = random_form(g, 2, rng)
        b2 = random_form(g, 2, rng)
        lhs = (b1 + b2).operator_norm(2.5, omega)
        rhs = b1.operator_norm(2.5, omega) + b2.operator_norm(2.5, omega)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_operator_norm_matches_exhaustive_enumeration():
    """The defining sup, rebuilt pairwise from basis evaluations alone."""
    g = driver_2d(seed=57, n_pts=6)
    beta = first_iteration_form(g, linear_field())
    omega = control_from_pvar(g)
    gamma = 2.5

    n = len(g.points)
    sup_part = 0.0
    for t in range(n):
        for k in (1, 2):
            mat = functional_matrix(beta, t, t, k)
            sup_part = max(sup_part, np.linalg.svd(mat, compute_uv=False)[0])

    diff_part = 0.0
    for k in range(1, strict_floor(gamma) + 1):
        for s in range(n):
            for t in range(s + 1, n):
                mat = functional_matrix(beta, t, t, k) - functional_matrix(
                    beta, s, t, k
                )
                norm = np.linalg.svd(mat, compute_uv=False)[0]
                quot = norm / omega.value(s, t) ** ((gamma - k) / g.p)
                diff_part = max(diff_part, quot)

    assert beta.operator_norm(gamma, omega) == pytest.approx(
        sup_part + diff_part, rel=1e-10
    )


def test_vanishing_control_with_moving_form_reports_infinity():
    g = driver_2d(seed=58)
    beta = random_form(g, 1, np.random.default_rng(59))
    dead = control_from_pvar(g).scaled(0.0)
    assert beta.operator_norm(2.5, dead) == np.inf


def test_norm_scans_refuse_a_control_from_another_grid():
    """norm_components, operator_norm and check_domination share the scan
    that indexes the control table by the path's pairs."""
    problem = cubic_problem(40)
    beta = OneFormPath.constant_linear(problem.driver, np.eye(2))
    shifted = Control(problem.driver.times + 1.0, problem.omega.table)
    for omega in (cubic_problem(80).omega, shifted):
        with pytest.raises(DimensionMismatchError, match="another time grid"):
            beta.norm_components(2.5, omega)
        with pytest.raises(DimensionMismatchError, match="another time grid"):
            beta.operator_norm(2.5, omega)
        with pytest.raises(DimensionMismatchError, match="another time grid"):
            check_domination(beta, 1.25, omega)


# -- closed lift of polynomial forms ---------------------------------------------


def test_constant_form_lift_reads_displacement():
    c = np.array([[2.0, -1.0]])
    g = driver_2d(seed=60)
    vals = closed_lift_form(PolyMap.constant(c, 2), g).integral_values()
    disp = g.positions() - g.positions()[0]
    np.testing.assert_allclose(vals, disp @ c.T, atol=1e-13)


def test_scalar_x_dx_over_two_segments():
    """0 -> 1 -> 3 against x dx gives the classical 9/2."""
    form = PolyMap(1, (1, 1), (np.zeros((1, 1)), np.eye(1).reshape(1, 1, 1)))
    path = SampledPath(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0], [3.0]]))
    total = closed_lift_form(form, signature(path, 2)).integral_values()[-1]
    assert abs(total[0] - 4.5) <= 1e-12


def test_lift_cocyclicity_on_grouplike_triples():
    rng = np.random.default_rng(61)
    quad = PolyMap(
        2,
        (1, 2),
        (
            np.array([[0.3, -0.2]]),
            rng.standard_normal((1, 2, 2)),
            0.5 * rng.standard_normal((1, 2, 2, 2)),
        ),
    )
    origin = np.zeros(2)
    g = driver_2d(seed=62, n_pts=9, level=3, p=3.0)
    for _ in range(20):
        i, j, k = sorted(rng.choice(np.arange(9), size=3, replace=False))
        a = g.points[i]
        b, c = increment_element(g, i, j), increment_element(g, j, k)
        assert (a @ b).grouplike and (b @ c).grouplike
        resid = (
            lift_pair_value(quad, origin, a.levels, b.levels)
            + lift_pair_value(quad, origin, (a @ b).levels, c.levels)
            - lift_pair_value(quad, origin, a.levels, (b @ c).levels)
        )
        assert np.max(np.abs(resid)) <= 1e-10


def test_lift_pair_value_is_bitwise_its_oneform():
    """A pair value from the lift's coefficient builder and pairing kernel at
    one point is bitwise the value of `closed_lift_form` at that grid point."""
    rng = np.random.default_rng(64)
    cubic = PolyMap(
        2,
        (2, 2),
        tuple(rng.standard_normal((2, 2) + (2,) * l) for l in range(3)),
    )
    start = np.array([0.3, -0.1])
    g = driver_2d(seed=65, n_pts=9, level=3, p=3.0)
    beta = closed_lift_form(cubic, g, start)
    for i in range(8):
        for j in range(i + 1, 9):
            inc = increment_rows(g, i, j)
            assert_bitwise(lift_pair_value(cubic, start, g.points[i].levels, inc), value_on_increment(beta, i, inc))


def test_lift_is_path_independent_at_group_level():
    """A there-and-back spur changes the polyline but not its lift."""
    rng = np.random.default_rng(63)
    quad = PolyMap(
        2,
        (1, 2),
        (
            np.array([[0.3, -0.2]]),
            rng.standard_normal((1, 2, 2)),
            0.4 * rng.standard_normal((1, 2, 2, 2)),
        ),
    )
    pts = np.array([[0.0, 0.0], [0.6, 0.2], [0.1, 0.9], [0.8, 1.0]])
    spur = np.array(
        [[0.0, 0.0], [0.6, 0.2], [0.9, -0.3], [0.6, 0.2], [0.1, 0.9], [0.8, 1.0]]
    )
    plain = closed_lift_form(quad, signature(SampledPath(np.arange(4.0), pts), 3)).integral_values()[-1]
    spurred = closed_lift_form(quad, signature(SampledPath(np.arange(6.0), spur), 3)).integral_values()[-1]
    assert np.max(np.abs(plain - spurred)) <= 1e-10


def test_lift_kills_loops():
    rng = np.random.default_rng(64)
    quad = PolyMap(
        2,
        (1, 2),
        (np.zeros((1, 2)), rng.standard_normal((1, 2, 2)), np.zeros((1, 2, 2, 2))),
    )
    t = np.linspace(0.0, 1.0, 7)
    pts = 0.5 * rng.standard_normal((7, 2))
    path = SampledPath(t, pts)
    loop = path.concatenated(reversed_path(path))
    total = closed_lift_form(quad, signature(loop, 3)).integral_values()[-1]
    assert np.max(np.abs(total)) <= 1e-10


def test_lift_along_a_driver_of_higher_level_is_exact():
    """A quadratic form needs a level-3 driver: along a level-2 one it would
    drop the level-3 term its exactness needs, and is refused.  The levels
    a higher driver adds pair with derivatives D^k p = 0, so the values
    along level-4 and level-5 lifts are bitwise those along the level-3 one."""
    rng = np.random.default_rng(66)
    quad = PolyMap(
        2,
        (1, 2),
        (np.array([[0.3, -0.2]]), rng.standard_normal((1, 2, 2)), rng.standard_normal((1, 2, 2, 2))),
    )
    steps = 0.1 * rng.standard_normal((51, 2))
    walk = SampledPath(np.linspace(0.0, 1.0, 51), np.cumsum(steps, axis=0))
    want = closed_lift_form(quad, signature(walk, 3)).integral_values()
    assert want.shape == (51, 1)
    with pytest.raises(ValueError, match="degree 2 needs level >= 3"):
        closed_lift_form(quad, signature(walk, 2))
    for level in (4, 5):
        assert_bitwise(closed_lift_form(quad, signature(walk, level)).integral_values(), want)


def test_lift_rejects_degree_above_level():
    cubic = PolyMap(
        1,
        (1, 1),
        tuple(np.zeros((1, 1) + (1,) * l) for l in range(4)),
    )
    walk = SampledPath(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5)[:, None])
    with pytest.raises(ValueError):
        closed_lift_form(cubic, signature(walk, 3))
    assert isinstance(closed_lift_form(cubic, signature(walk, 4)), OneFormPath)


def test_lift_refuses_mismatched_shapes():
    g = driver_2d(seed=67)
    with pytest.raises(DimensionMismatchError, match="out_shape"):
        closed_lift_form(PolyMap.constant(np.ones((1, 3)), 2), g)
    with pytest.raises(DimensionMismatchError, match="base point"):
        closed_lift_form(PolyMap.constant(np.ones((1, 2)), 2), g, np.zeros(3))
    with pytest.raises(DimensionMismatchError, match="driver dimension"):
        closed_lift_form(PolyMap.constant(np.ones((1, 3)), 3), g)


# -- domination certificates ------------------------------------------------------


def test_constant_form_certificate_holds():
    g = driver_2d(seed=65)
    A = np.array([[1.0, 2.0], [3.0, -1.0]])
    beta = OneFormPath.constant_linear(g, A)
    cert = check_domination(beta, theta=1.25, omega=control_from_pvar(g))
    assert cert.ok
    assert max(cert.level_quotients) <= 1e-12
    assert cert.M == pytest.approx(beta.sup_norm)


def test_first_iteration_form_is_dominated():
    """theta = (gamma+1)/p holds for the integral form of a Lip field."""
    g = driver_2d(seed=66, n_pts=12)
    f = linear_field(gamma=2.5)
    beta = first_iteration_form(g, f)
    theta = (f.gamma + 1.0) / g.p
    cert = check_domination(
        beta, theta=theta, omega=control_from_pvar(g), auto_scale=True
    )
    assert cert.ok
    assert cert.theta == pytest.approx(theta)
    assert all(np.isfinite(q) for q in cert.level_quotients)


def test_corrupted_slot_is_localized():
    g = driver_2d(seed=67, n_pts=8)
    A = np.array([[1.0, 2.0], [3.0, -1.0]])
    clean = OneFormPath.constant_linear(g, A)
    bad_slot = 4
    levels = [blk.copy() for blk in clean.levels]
    levels[0][bad_slot] += 5.0
    corrupt = OneFormPath(g, 2, tuple(levels))
    cert = check_domination(corrupt, theta=1.25, omega=control_from_pvar(g))
    assert not cert.ok
    assert bad_slot in cert.worst_pair
    assert cert.worst_level == 1


def test_theta_at_most_one_rejected():
    g = driver_2d(seed=68)
    beta = OneFormPath.constant_linear(g, np.eye(2))
    with pytest.raises(ValueError):
        check_domination(beta, theta=1.0, omega=control_from_pvar(g))


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_non_finite_theta_rejected(theta):
    """nan would make every exponent nan and every quotient 0, a false
    certificate; inf would make every quotient infinite."""
    sol = solve(cubic_problem(16))
    with pytest.raises(ValueError, match="theta must be finite"):
        check_domination(sol.form, theta, sol.problem.omega)


# -- construction and base changes -------------------------------------------------


def test_level_block_shapes_validated():
    g = driver_2d(seed=69)
    n = len(g.points)
    with pytest.raises(DimensionMismatchError):
        OneFormPath(g, 1, (np.zeros((n, 1, 2)),))
    with pytest.raises(DimensionMismatchError):
        OneFormPath(g, 1, (np.zeros((n, 1, 3)), np.zeros((n, 1, 4))))
    bad = np.zeros((n, 1, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        OneFormPath(g, 1, (bad, np.zeros((n, 1, 4))))


def test_pushforward_dilate_preserves_riemann_sums():
    g = driver_2d(seed=70)
    beta = first_iteration_form(g, linear_field())
    moved = pushforward_dilate(beta, 1.7)
    np.testing.assert_allclose(
        moved.step_values(), beta.step_values(), atol=1e-12
    )


def test_form_algebra_is_pointwise():
    g = driver_2d(seed=71)
    rng = np.random.default_rng(72)
    b1 = random_form(g, 2, rng)
    b2 = random_form(g, 2, rng)
    arg = increment_rows(g, 1, 5)
    lhs = form_value(b1 + 2.0 * b2 - b1, 3, g.points[3].levels, arg)
    rhs = 2.0 * form_value(b2, 3, g.points[3].levels, arg)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize(
    "num, w, dead_tol, expected",
    [
        ([2.0, 0.5], [0.0, 1.0], 1e-12, (np.inf, 0)),
        ([0.0, 0.5], [0.0, 1.0], 1e-12, (0.5, 1)),
        ([0.0, 0.0], [0.0, 0.0], 0.0, (0.0, 0)),
        ([1e-12, 0.5], [0.0, 1.0], 1e-12, (0.5, 1)),
        ([2e-12, 0.5], [0.0, 1.0], 1e-12, (np.inf, 0)),
        ([1e-12, 0.5], [0.0, 1.0], 0.0, (np.inf, 0)),
        ([3.0, 2.0, 8.0], [4.0, 1.0, 16.0], 1e-12, (2.0, 1)),
    ],
    ids=[
        "dead-pair-is-inf",
        "zero-over-zero-is-zero",
        "zero-over-zero-without-tolerance",
        "numerator-at-dead-tol-is-zero",
        "numerator-above-dead-tol-is-inf",
        "zero-dead-tol-counts-any-mass",
        "live-pairs-first-argmax",
    ],
)
def test_pair_quotient_edge_rules(num, w, dead_tol, expected):
    quot, j = _pair_quotient(np.array(num), np.array(w), 0.5, dead_tol=dead_tol)
    assert (quot, j) == expected


# -- pruned spectral pair scan ---------------------------------------------------


def scan_in_chunks(diff, w, size, expo, noise_floor, dead_tol):
    """(max, argmax) of the per-run scans folded over runs of `size` pairs."""
    q_max, j_max, best = 0.0, 0, 0.0
    for a in range(0, len(w), size):
        run = slice(a, a + size)
        chunk = diff[run].copy()  # spent by the scan
        pool = np.empty(len(w[run]) * (chunk[0].size + chunk.shape[1] ** 2))
        q, j, best = _spectral_pair_quotient(chunk, w[run], expo, best, noise_floor, dead_tol, pool)
        assert 0 <= j < len(w[run])
        if q > q_max:
            q_max, j_max = q, a + j
    return q_max, j_max


def assert_matches_full_scan(diff, w, expo, noise_floor=0.0, dead_tol=1e-12):
    """One chunk, then chunks of 1, 2 and 3 pairs: each the full scan's bits."""
    diff, w = np.asarray(diff, dtype=float), np.asarray(w, dtype=float)
    want = full_scan_quotient(diff, w, expo, noise_floor, dead_tol)
    for size in (len(w), 1, 2, 3):
        got = scan_in_chunks(diff, w, size, expo, noise_floor, dead_tol)
        assert got == want
        assert type(got[1]) is int
    return got


EYE2 = np.eye(2)
DT = 1e-12


@pytest.mark.parametrize(
    "diff, w, expo, noise_floor, dead_tol, expected",
    [
        # the tiny pair would win by far unfloored; at the floor it counts 0
        ([1e-3 * EYE2, np.diag([0.5, 0.1])], [1e-6, 1.0], 1.0, 1e-3, 1e-3, (0.5, 1)),
        # pair 0 is pruned, pair 1 is evaluated and floored: still pair 0
        ([1e-4 * np.diag([1.0, 0.0]), 1e-3 * EYE2], [1.0, 1.0], 1.0, 1e-3, 1e-3, (0.0, 0)),
        ([np.zeros((2, 2)), np.zeros((2, 2))], [1.0, 0.0], 1.0, 0.0, DT, (0.0, 0)),
        ([DT * EYE2, np.diag([0.5, 0.0])], [0.0, 1.0], 1.0, 0.0, DT, (0.5, 1)),
        (
            [np.nextafter(DT, 1.0) * EYE2, np.diag([0.5, 0.0])],
            [0.0, 1.0], 1.0, 0.0, DT, (np.inf, 0),
        ),
        (
            [np.nextafter(DT, 0.0) * EYE2, np.diag([0.5, 0.0])],
            [0.0, 1.0], 1.0, 0.0, DT, (0.5, 1),
        ),
        # norm_components' setting: dead_tol is the floor
        ([1e-9 * EYE2, np.diag([0.5, 0.0])], [0.0, 1.0], 1.0, 1e-9, 1e-9, (0.5, 1)),
        (
            [2e-9 * EYE2, np.diag([0.5, 0.0])],
            [0.0, 1.0], 1.0, 1e-9, 1e-9, (np.inf, 0),
        ),
        ([EYE2, 3.0 * EYE2, 3.0 * EYE2], [1.0, 0.0, 0.0], 1.0, 0.0, DT, (np.inf, 1)),
        # the same quotient from a doubled matrix over a doubled denominator
        (
            [0.1 * EYE2, np.diag([0.5, 0.25]), np.diag([1.0, 0.5]), np.diag([0.5, 0.25])],
            [1.0, 1.0, 4.0, 1.0], 0.5, 0.0, DT, (0.5, 1),
        ),
        (
            [[[0.0], [0.0]], [[0.3], [0.4]], [[0.4], [0.3]]],
            [1.0, 1.0, 1.0], 1.0, 0.0, DT, (0.5, 1),
        ),
        # out_dim 1: row norms on every pair, no pruning
        ([[[3.0, 4.0]], [[1e-3, 0.0]], [[0.0, 5.0]]], [1.0, 0.0, 1.0], 1.0, 1e-3, 1e-3, (5.0, 0)),
        ([[[1e-3, 0.0]], [[0.0, 1e-4]]], [1.0, 1.0], 1.0, 1e-3, 1e-3, (0.0, 0)),
    ],
    ids=[
        "noise-floor-zeroes-the-winner",
        "every-pair-floored-reports-pair-0",
        "all-zero-reports-pair-0",
        "dead-pair-at-dead-tol-is-zero",
        "dead-pair-just-above-dead-tol-is-inf",
        "dead-pair-just-below-dead-tol-is-zero",
        "dead-pair-at-floor-is-zero",
        "dead-pair-above-floor-is-inf",
        "dead-pair-tie-first-wins",
        "live-tie-first-wins",
        "single-column-rank-one",
        "out-dim-one-row-norms",
        "out-dim-one-all-floored",
    ],
)
def test_spectral_pair_quotient_edge_cases(
    diff, w, expo, noise_floor, dead_tol, expected
):
    got = assert_matches_full_scan(diff, w, expo, noise_floor, dead_tol)
    assert got == expected


def test_spectral_pair_quotient_keeps_a_winner_just_below_a_lower_bound():
    """Equal singular values make F/sqrt(r) = sigma exactly, so rounding can
    put the computed lower bound above the computed sigma.  A rank-one
    witness one ulp above that sigma then wins, and only the bound slack
    keeps it among the evaluated pairs."""
    rng = np.random.default_rng(3)
    blocks = np.linalg.qr(rng.standard_normal((2000, 3, 3)))[0]
    blocks *= rng.uniform(0.5, 2.0, 2000)[:, None, None]
    sigma = np.array([full_scan_quotient(b[None], np.ones(1), 1.0)[0] for b in blocks])
    over = np.sqrt(np.einsum("pij,pij->p", blocks, blocks)) / np.sqrt(3.0) - sigma
    worst = int(np.argmax(over / np.spacing(sigma)))
    witness = np.diag([np.nextafter(sigma[worst], np.inf), 0.0, 0.0])
    got = assert_matches_full_scan([blocks[worst], witness], [1.0, 1.0], 1.0)
    assert got == (witness[0, 0], 1)


def test_spectral_pair_quotient_survives_subnormal_squares():
    """At 1e-162 the squares are subnormal and the computed sigma can exceed
    the computed Frobenius norm by far: the absolute slack keeps such a
    winner against a normal-range pair whose lower bound sits in between."""
    rng = np.random.default_rng(4)
    tiny = 1e-162 * rng.standard_normal((500, 2, 2))
    sigma = np.array([full_scan_quotient(b[None], np.ones(1), 1.0)[0] for b in tiny])
    fro = np.sqrt(np.einsum("poj,poj->p", tiny, tiny))
    worst = int(np.argmax(np.divide(sigma, fro, out=np.zeros(500), where=fro > 0.0)))
    between = 0.5 * (sigma[worst] + fro[worst])
    assert sigma[worst] > fro[worst]
    diff = np.stack([EYE2, tiny[worst]])
    got = assert_matches_full_scan(diff, [1.0 / between, 1.0], 1.0)
    assert got == (sigma[worst], 1)


@st.composite
def pair_batches(draw):
    out_dim, cols = draw(st.sampled_from([(1, 3), (2, 1), (2, 2), (2, 4), (3, 3)]))
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["zero", "rank-one", "orthogonal", "dense", "repeat"]),
                st.sampled_from([1e-13, 1e-12, 1e-3, 0.05, 1.0, 7.0]),
                st.sampled_from([0.0, 1e-6, 0.25, 1.0, 2.0]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats, w = [], []
    for kind, scale, weight in specs:
        if kind == "repeat" and mats:
            mats.append(mats[int(rng.integers(len(mats)))].copy())
        elif kind == "zero":
            mats.append(np.zeros((out_dim, cols)))
        elif kind == "rank-one":
            mats.append(scale * np.outer(rng.standard_normal(out_dim), rng.standard_normal(cols)))
        elif kind == "orthogonal" and 1 < out_dim <= cols:
            # equal singular values: sigma is exactly F / sqrt(out_dim)
            mat = np.zeros((out_dim, cols))
            mat[:, :out_dim] = scale * np.linalg.qr(rng.standard_normal((out_dim, out_dim)))[0]
            mats.append(mat)
        else:
            mats.append(scale * rng.standard_normal((out_dim, cols)))
        w.append(weight)
    return np.stack(mats), np.array(w)


@given(
    batch=pair_batches(),
    expo=st.sampled_from([1.0 / 3.0, 2.0 / 3.0, 1.0]),
    noise_floor=st.sampled_from([0.0, 1e-12, 1e-3, 0.05]),
    dead_tol=st.sampled_from([0.0, 1e-12, 0.05]),
)
def test_spectral_pair_quotient_matches_full_scan(batch, expo, noise_floor, dead_tol):
    diff, w = batch
    assert_matches_full_scan(diff, w, expo, noise_floor, max(dead_tol, noise_floor))


def sigma_batch(rng, rows, cols, scale):
    """Stacks of rows x cols matrices at `scale`: dense, rank one, rank
    r - 1, Gram matrix near cI, a single entry, and zero."""
    r = min(rows, cols)
    n = 16
    mats = [rng.standard_normal((n, rows, cols))]
    mats.append(np.einsum("pi,pj->pij", rng.standard_normal((n, rows)), rng.standard_normal((n, cols))))
    if r > 1:
        mats.append(rng.standard_normal((n, rows, r - 1)) @ rng.standard_normal((n, r - 1, cols)))
    # orthonormal rows or columns, nudged: G = I + O(1e-9)
    q = np.linalg.qr(rng.standard_normal((n, max(rows, cols), r)))[0]
    near = q.transpose(0, 2, 1) if rows <= cols else q
    mats.append(near + 1e-9 * rng.standard_normal((n, rows, cols)))
    single = np.zeros((n, rows, cols))
    single[np.arange(n), rng.integers(rows, size=n), rng.integers(cols, size=n)] = rng.standard_normal(n)
    mats += [single, np.zeros((1, rows, cols))]
    return scale * np.concatenate(mats)


@pytest.mark.parametrize("cols", [1, 2, 4, 8, 27, 81])
@pytest.mark.parametrize("rows", [2, 3, 4])
def test_sigma_bounds_hold_against_the_eigensolver(rows, cols):
    """The trace bounds bracket the largest eigenvalue that eigvalsh finds
    for the matmul Gram matrix, `batched_spectral_norms`' route, on every
    kind of matrix from 1e-160 (subnormal squares) to 1e150; at r = 2 (and
    r = 1) the two bounds agree to the slack."""
    rng = np.random.default_rng(10 * rows + cols)
    r = min(rows, cols)
    for scale in [1e-160, 1e-155, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e150, *10.0 ** rng.uniform(-160, 150, 4)]:
        mats = sigma_batch(rng, rows, cols, scale)
        gram = np.matmul(mats, np.swapaxes(mats, -1, -2))
        sigma = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        lo, hi = _sigma_bounds(mats)
        assert np.all(np.isfinite(lo) & np.isfinite(hi)), scale
        assert np.all(lo <= sigma) and np.all(sigma <= hi), scale
        if r <= 2:
            assert np.all(hi - lo <= 2.5 * _BOUND_REL * hi + 2.0 * _BOUND_ABS), scale


def test_sigma_bounds_leave_an_overflowing_gram_open():
    """Where the trace of the Gram matrix reaches 1e308 the eigensolver's
    own Gram may overflow: such a matrix gets the bounds (-inf, inf), a
    finite trace of 1.44e308 as well as an overflowing one."""
    mats = np.zeros((3, 2, 2))
    mats[0, 0, 0] = 1.2e154
    mats[1] = 1e154
    mats[2] = [[1.0, 2.0], [3.0, 4.0]]
    lo, hi = _sigma_bounds(mats)
    assert np.array_equal(lo[:2], [-np.inf] * 2) and np.array_equal(hi[:2], [np.inf] * 2)
    assert lo[2] <= np.linalg.norm(mats[2], 2) <= hi[2] < np.inf


def test_spectral_norms_of_an_overflowing_gram():
    """A matrix whose Gram overflows is taken at a power-of-two scale and
    scaled back, single rows as well; the others keep their bits."""
    rng = np.random.default_rng(14)
    for rows in (1, 2, 3, 4):
        mats = rng.standard_normal((6, rows, 5))
        big = mats.copy()
        big[1::2] *= 2.0**600
        got = batched_spectral_norms(big)
        assert_bitwise(got[::2], batched_spectral_norms(mats[::2]))
        np.testing.assert_allclose(got[1::2], 2.0**600 * batched_spectral_norms(mats[1::2]), rtol=1e-15)
    assert batched_spectral_norms(np.diag([1e160, 1e160])[None]) == 1e160


@pytest.mark.parametrize("out_dim", [2, 3, 4])
def test_norms_scale_with_a_form_past_the_gram_range(out_dim):
    """At 1e160 every Gram overflows, and the sups, quotients and worst
    pairs of 1e160 f are still 1e160 times those of f, to rounding."""
    rng = np.random.default_rng(70 + out_dim)
    g = driver_2d(seed=70 + out_dim, n_pts=33, level=3, p=3.0)
    form = random_form(g, out_dim, rng)
    omega = control_from_pvar(g)
    sups, quots, pairs = form.norm_components(3.5, omega)
    big_sups, big_quots, big_pairs = (form * 1e160).norm_components(3.5, omega)
    np.testing.assert_allclose(big_sups, 1e160 * np.array(sups), rtol=1e-15)
    np.testing.assert_allclose(big_quots, 1e160 * np.array(quots), rtol=1e-15)
    assert big_pairs == pairs


def test_auto_scale_keeps_the_control_where_the_scale_overflows():
    """lambda = q**(1 / (theta - k/p)) past the largest float, or lambda
    times the control past it (the control taken 1e280 times larger, which
    divides lambda by 1e280), leaves the control as it is and fails the
    certificate."""
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 1.0, 33)
    g = signature(SampledPath(t, np.cumsum(0.3 * rng.standard_normal((33, 1)), axis=0)), 4, p=4.0)
    beta = random_form(g, 4, rng) * 1e100
    omega = control_from_pvar(g)
    for control in (omega, omega.scaled(1e280)):
        plain = check_domination(beta, 1.3, control)
        cert = check_domination(beta, 1.3, control, auto_scale=True)
        assert cert.control is control and not cert.ok
        assert cert.level_quotients == plain.level_quotients


def test_quotients_against_an_overflowing_control_power_are_zero():
    """omega**(theta - k/p) past the largest float is +inf, and a pair's
    quotient against it 0, without an overflow warning: at 1e300 times the
    p-variation control every level-1 power overflows, while the levels
    whose powers stay finite keep the full scan's quotients."""
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 1.0, 33)
    g = signature(SampledPath(t, np.cumsum(rng.standard_normal((33, 1)), axis=0)), 4, p=4.0)
    beta = random_form(g, 4, rng)
    omega = control_from_pvar(g).scaled(1e300)
    cert = check_domination(beta, 1.3, omega)
    s, t = np.triu_indices(33, k=1)
    with np.errstate(over="ignore"):
        want = [full_scan_quotient(kernel_differences(beta, k), omega.at(s, t), 1.3 - k / 4.0)[0] for k in range(1, 5)]
    assert cert.level_quotients == tuple(want)
    assert cert.level_quotients[0] == 0.0 < min(cert.level_quotients[1:])


def open_bounds(mats, pool=None):
    """`_sigma_bounds` that bounds nothing: every gate keeps what it is given."""
    return np.full(len(mats), -np.inf), np.full(len(mats), np.inf)


def test_trace_gates_spare_the_eigensolver(monkeypatch):
    """The pair scans of the cubic fixture's solve at N=64 pass the
    eigensolver fewer than 5% of the matrices they pass with the trace
    gates opened, and return the same bits.  Opened, the gates pass every
    Frobenius survivor.  The sups, which take every row ungated, are not
    counted."""
    counted = []
    full = roughkit.oneform.batched_spectral_norms
    scan = roughkit.oneform._spectral_pair_quotient.__code__

    def counting(mats):
        if mats.shape[1] > 1 and sys._getframe(1).f_code is scan:
            counted.append(len(mats))
        return full(mats)

    def run():
        counted.clear()
        sol = solve(cubic_problem(64, n_max=16), keep_history=True)
        return sol, sum(counted)

    monkeypatch.setattr(roughkit.oneform, "batched_spectral_norms", counting)
    gated, few = run()
    monkeypatch.setattr(roughkit.oneform, "_sigma_bounds", open_bounds)
    ungated, many = run()
    assert few < 0.05 * many
    for a, b in zip(gated.history, ungated.history, strict=True):
        assert (a.sup_parts, a.quot_parts) == (b.sup_parts, b.quot_parts)
    ca, cb = gated.certificate, ungated.certificate
    assert (ca.M, ca.level_quotients, ca.worst_pair) == (cb.M, cb.level_quotients, cb.worst_pair)
    assert gated.positions.tobytes() == ungated.positions.tobytes()


def test_picard_norms_and_certificates_bitwise_full_scan():
    """Every Picard step of the cubic fixture, and the certificate of every
    iterate with and without auto-scaling, as the full scan computes them."""
    problem = cubic_problem(64, n_max=16)
    history = solve(problem, keep_history=True).history
    g, omega, gamma = problem.driver, problem.omega, problem.gamma
    s_idx, t_idx = np.triu_indices(g.times.size, k=1)
    w = omega.table[s_idx, t_idx]
    k_max = min(g.level, strict_floor(gamma))
    for old, new in zip(history, history[1:]):
        diff = new.form - old.form
        scale = max(1.0, *(float(np.max(np.abs(b))) for b in new.form.levels + old.form.levels))
        floor = 64.0 * np.finfo(float).eps * scale
        ref = [
            full_scan_quotient(
                kernel_differences(diff, k), w, (gamma - k) / g.p, floor, max(1e-12, floor)
            )
            for k in range(1, k_max + 1)
        ]
        sups, quots, pairs = diff.norm_components(gamma, omega, noise_floor=floor)
        assert sups == tuple(
            full_scan_quotient(blk, np.ones(len(blk)), 1.0)[0] for blk in diff.levels
        )
        assert quots == tuple(q for q, _ in ref) == new.quot_parts
        assert sups == new.sup_parts
        assert pairs == [(int(s_idx[j]), int(t_idx[j])) for _, j in ref]

    theta = (gamma + 1.0) / g.p
    for state in history:
        expos = [theta - k / g.p for k in range(1, g.level + 1)]
        ref = [
            full_scan_quotient(kernel_differences(state.form, k), w, e)
            for k, e in enumerate(expos, start=1)
        ]
        quots = [q for q, _ in ref]
        worst = int(np.argmax(quots))
        cert = check_domination(state.form, theta, omega)
        assert cert.level_quotients == tuple(quots)
        assert cert.worst_level == worst + 1
        assert cert.worst_pair == (int(s_idx[ref[worst][1]]), int(t_idx[ref[worst][1]]))
        lam = max([1.0] + [q ** (1.0 / e) for q, e in zip(quots, expos) if q > 0.0])
        scaled = check_domination(state.form, theta, omega, auto_scale=True)
        assert np.isfinite(lam)
        table = lam * omega.table if lam > 1.0 else omega.table
        assert np.array_equal(scaled.control.table, table)
        assert scaled.level_quotients == tuple(
            q / lam**e if lam > 1.0 else q for q, e in zip(quots, expos)
        )


# -- difference matrices: per-letter gathers against the einsum ----------------


def form_over_walk(rng, d, level, out_dim, n_pts=6, kinds=("wide",)):
    """A one-form over the lift of a random walk, level k filled by kinds[k-1]:
    wide (entry magnitudes 1e-8..1e8), zero, signed (half of the entries
    +0.0 or -0.0), or converged (the difference of two iterates that agree
    to a few ulps, mostly exact zeros)."""
    t = np.linspace(0.0, 1.0, n_pts)
    g = signature(SampledPath(t, rng.standard_normal((n_pts, d))), level, p=level + 0.5)
    levels = []
    for k in range(1, level + 1):
        shape = (n_pts, out_dim, d**k)
        kind = kinds[(k - 1) % len(kinds)]
        block = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        if kind == "zero":
            block = np.zeros(shape)
        elif kind == "signed":
            block[rng.random(shape) < 0.5] = 0.0
            block[rng.random(shape) < 0.25] = -0.0
        elif kind == "converged":
            nudge = 1.0 + np.finfo(float).eps * rng.integers(-3, 4, shape)
            block = block * nudge - block
        levels.append(block)
    return OneFormPath(g, out_dim, tuple(levels))


def kernel_differences(form, k):
    """`difference_matrices` at level k on every pair s < t in row-major
    order: the pairs of the whole grid's rectangle."""
    g = form.base
    s, t = np.ogrid[0 : g.num_steps, 1 : g.times.size]
    return form.difference_matrices(k, (s, t), g._rectangle_products(0, g.num_steps, g.level - k)[1:])[t > s]


def assert_kernel_is_the_einsum(form, k):
    """`difference_matrices` bitwise the einsum, NaN non-pairs included, on
    the rectangles of the whole grid and of its lower half of rows, and on
    every pair as one set."""
    g = form.base
    for s0 in (0, g.num_steps // 2):
        rect = np.ogrid[s0 : g.num_steps, s0 + 1 : g.times.size]
        got = form.difference_matrices(k, rect, g._rectangle_products(s0, g.num_steps, g.level - k)[1:])
        assert_bitwise(got, difference_matrices_einsum(form, k, rect))
    pairs = np.triu_indices(g.times.size, k=1)
    got = form.difference_matrices(k, pairs, g._products(*pairs, g.level - k)[1:])
    assert_bitwise(got, difference_matrices_einsum(form, k))


@pytest.mark.parametrize("out_dim", [1, 2, 3])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_difference_matrices_bitwise_einsum(d, level, out_dim):
    rng = np.random.default_rng(100 * d + 10 * level + out_dim)
    for kinds in [("wide", "signed", "converged"), ("signed",)]:
        form = form_over_walk(rng, d, level, out_dim, kinds=kinds)
        for k in range(1, level + 1):
            assert_kernel_is_the_einsum(form, k)


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    level=st.integers(1, 4),
    out_dim=st.integers(1, 3),
    n_pts=st.integers(2, 7),
    kinds=st.lists(
        st.sampled_from(["wide", "zero", "signed", "converged"]), min_size=1, max_size=4
    ),
)
def test_difference_matrices_bitwise_einsum_hypothesis(
    seed, d, level, out_dim, n_pts, kinds
):
    form = form_over_walk(np.random.default_rng(seed), d, level, out_dim, n_pts, kinds)
    for k in range(1, level + 1):
        assert_kernel_is_the_einsum(form, k)


def test_picard_solve_bitwise_with_einsum_difference_matrices(monkeypatch):
    """The cubic fixture solved with the per-letter kernel and again with the
    einsum: every Picard step, its difference matrices, quotients and worst
    pairs, and every iterate's certificate carry the same bits.  Both scan
    the 2,080 pairs in rectangles of 97 entries, so every scan crosses
    rectangle boundaries, after the set of the 64 adjacent pairs that seeds
    each level's bound."""
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", 97)
    problem = cubic_problem(64, n_max=16)
    g, omega = problem.driver, problem.omega
    theta = (problem.gamma + 1.0) / g.p

    def run():
        sol = solve(problem, keep_history=True)
        certs = [
            check_domination(s.form, theta, omega, auto_scale=True) for s in sol.history
        ]
        return sol, certs

    ours, our_certs = run()
    with monkeypatch.context() as patch:
        patch.setattr(OneFormPath, "difference_matrices", difference_matrices_einsum)
        ref, ref_certs = run()
    assert len(ours.history) == len(ref.history) > 2
    for a, b in zip(ours.history, ref.history):
        assert (a.sup_parts, a.quot_parts) == (b.sup_parts, b.quot_parts)
        for x, y in zip(a.form.levels, b.form.levels):
            assert_bitwise(x, y)
    for a, b in zip(our_certs + [ours.certificate], ref_certs + [ref.certificate]):
        assert (a.M, a.theta, a.level_quotients, a.ok) == (
            b.M, b.theta, b.level_quotients, b.ok
        )
        assert (a.worst_level, a.worst_pair) == (b.worst_level, b.worst_pair)
        assert_bitwise(a.control.table, b.control.table)
    assert_bitwise(ours.positions, ref.positions)
    assert ours.fixed_point_residual == ref.fixed_point_residual
    forms = [s.form for s in ours.history]
    forms += [new - old for old, new in zip(forms, forms[1:])]
    for form in forms:
        for k in range(1, g.level + 1):
            assert_kernel_is_the_einsum(form, k)


# -- chunked quotient scan ----------------------------------------------------

N_PTS = 12
N_PAIRS = N_PTS * (N_PTS - 1) // 2


def full_scan_level_quotients(form, omega, expos, noise_floor):
    """`_level_quotients` by the full scan of every pair at once."""
    s_idx, t_idx = np.triu_indices(form.base.times.size, k=1)
    w = omega.table[s_idx, t_idx]
    quots, pairs = [], []
    for k, expo in enumerate(expos, start=1):
        diff = difference_matrices_einsum(form, k)
        q, j = full_scan_quotient(diff, w, expo, noise_floor, max(1e-12, noise_floor))
        quots.append(q)
        pairs.append((int(s_idx[j]), int(t_idx[j])))
    return quots, pairs


def ramp_form(out_dim, ramp):
    """Level-1 form A_t = ramp[t] M over a level-1 walk, so the pair
    difference is exactly (ramp[t] - ramp[s]) M; sigma_max(M) is 5 for the
    row [3, 4] and 4 for diag(3, 4), with zero rows below it past two outputs."""
    t = np.linspace(0.0, 1.0, len(ramp))
    g = signature(SampledPath(t, np.random.default_rng(9).standard_normal((len(ramp), 2))), 1, p=1.5)
    M = np.array([[3.0, 4.0]]) if out_dim == 1 else np.eye(out_dim, 2) * [3.0, 4.0]
    return OneFormPath(g, out_dim, (np.asarray(ramp, dtype=float)[:, None, None] * M,))


def gap_control(g, scale):
    """omega(s, t) = scale * (t - s) in grid steps."""
    i = np.arange(g.times.size, dtype=float)
    return Control(g.times, scale * np.maximum(i[None, :] - i[:, None], 0.0))


def chunk_case(case, out_dim, chunk):
    """(form, control, exponents, noise floor, expected (q, pair) or None)."""
    sigma = 5.0 if out_dim == 1 else 4.0
    if case.startswith("walk"):
        kinds = ("wide", "signed", "converged")
        form = form_over_walk(np.random.default_rng(70 + out_dim), 2, 3, out_dim, N_PTS, kinds)
        floor = 0.0
        if case == "walk-noise-floor":
            # the median level-1 pair size: about half the pairs are floored
            diff = difference_matrices_einsum(form, 1)
            floor = float(np.median(np.sqrt(np.einsum("poj,poj->p", diff, diff))))
        return form, control_from_pvar(form.base), [0.9, 0.6, 0.3], floor, None
    if case == "tie-straddles-chunk":
        # quotient sigma at pairs chunk-1 and chunk, the last of one read and
        # the first of the next; sigma / 2 everywhere else
        form = ramp_form(out_dim, np.arange(N_PTS))
        table = gap_control(form.base, 2.0).table.copy()
        s_idx, t_idx = np.triu_indices(N_PTS, k=1)
        for j in (chunk - 1, chunk):
            table[s_idx[j], t_idx[j]] /= 2.0
        pair = (int(s_idx[chunk - 1]), int(t_idx[chunk - 1]))
        return form, Control(form.base.times, table), [1.0], 0.0, (sigma, pair)
    if case == "symmetric-control":
        # a control whose table also holds omega(t, s) below its diagonal:
        # the rectangles' entries t <= s there weigh nothing
        form = form_over_walk(np.random.default_rng(75 + out_dim), 2, 3, out_dim, N_PTS, ("wide", "signed"))
        table = control_from_pvar(form.base).table
        return form, Control(form.base.times, table + table.T), [0.9, 0.6, 0.3], 0.0, None
    if case == "all-zero":
        form = ramp_form(out_dim, np.zeros(N_PTS))
        return form, gap_control(form.base, 1.0), [1.0], 0.0, (0.0, (0, 1))
    if case == "zero-control":
        # every pair ending after grid point 4 is dead with mass: +inf, first at (0, 5)
        form = ramp_form(out_dim, np.maximum(np.arange(N_PTS) - 4.0, 0.0))
        return form, gap_control(form.base, 0.0), [1.0], 0.0, (np.inf, (0, 5))
    raise ValueError(case)


CHUNK_CASES = ["walk", "walk-noise-floor", "tie-straddles-chunk", "all-zero", "zero-control", "symmetric-control"]


@pytest.mark.parametrize("chunk", [1, 2, 7, N_PAIRS - 1])
@pytest.mark.parametrize("out_dim", [1, 2])
@pytest.mark.parametrize("case", CHUNK_CASES)
def test_level_quotients_bitwise_full_scan_across_chunks(case, out_dim, chunk, monkeypatch):
    # rectangles of `chunk` entries: the tie case puts its two equal
    # quotients on the last pair of the top rectangle and the first of the next
    rows = max(1, chunk // (N_PTS - 1))
    form, omega, expos, floor, expected = chunk_case(case, out_dim, rows * (N_PTS - 1) - rows * (rows - 1) // 2)
    want = full_scan_level_quotients(form, omega, expos, floor)
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", chunk)
    assert form._level_quotients(omega, expos, floor) == want
    if expected is not None:
        assert (want[0][0], want[1][0]) == expected


# -- seeded bounds: the adjacent pairs start each level's lower bound ---------


def stretch_form(out_dim):
    """A level-3 form over a planar walk that halts for one step at point 5,
    its coefficient rows equal at points 5 and 6: every pair difference of
    (5, 6) is zero, while (5, 7) and (6, 7) are not."""
    rng = np.random.default_rng(80 + out_dim)
    x = np.cumsum(rng.standard_normal((N_PTS, 2)), axis=0)
    x[6] = x[5]
    g = signature(SampledPath(np.linspace(0.0, 1.0, N_PTS), x), 3, p=3.5)
    levels = [rng.standard_normal((N_PTS, out_dim, 2**k)) for k in (1, 2, 3)]
    for block in levels:
        block[6] = block[5]
    return OneFormPath(g, out_dim, tuple(levels))


def lattice_form(out_dim):
    """A level-2 form over a planar walk of half-integer steps repeating with
    period 3, integer coefficients of the same period: the lift is exact in
    binary, so pairs three points apart carry equal differences and ties."""
    steps = 0.5 * np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    x = np.vstack([np.zeros((1, 2)), np.cumsum(np.tile(steps, (4, 1)), axis=0)])[:N_PTS]
    g = signature(SampledPath(np.linspace(0.0, 1.0, N_PTS), x), 2, p=2.5)
    rng = np.random.default_rng(90 + out_dim)
    levels = [np.round(3.0 * rng.standard_normal((3, out_dim, 2**k))) for k in (1, 2)]
    return OneFormPath(g, out_dim, tuple(np.tile(b, (4, 1, 1))[:N_PTS] for b in levels))


def seed_case(case, out_dim):
    """(form, control, exponents, noise floor, expected (q, pair) of the top
    level or None)."""
    if case == "zero-control-stretch":
        # omega vanishes on the pairs inside [5, 7]: (5, 6) counts 0, and
        # the non-adjacent (5, 7) is infinite before the adjacent (6, 7)
        form = stretch_form(out_dim)
        tau = np.minimum(np.arange(N_PTS), 5.0) + np.maximum(np.arange(N_PTS) - 7.0, 0.0)
        table = np.maximum(tau[None, :] - tau[:, None], 0.0)
        return form, Control(form.base.times, table), [0.9, 0.6, 0.3], 0.0, (np.inf, (5, 7))
    if case == "rounded-ties":
        form = lattice_form(out_dim)
        return form, gap_control(form.base, 1.0), [1.0, 0.5], 0.0, None
    if case.startswith("noise-floor"):
        form = form_over_walk(np.random.default_rng(60 + out_dim), 2, 3, out_dim, N_PTS)
        sizes = np.sqrt(np.einsum("poj,poj->p", *2 * (difference_matrices_einsum(form, 1),)))
        floor = float(np.quantile(sizes, 0.5 if case == "noise-floor-half" else 0.9))
        return form, control_from_pvar(form.base), [0.9, 0.6, 0.3], floor, None
    if case == "adjacent-maximum":
        # one jump between points 6 and 7: 4 * 5 / (t - s) peaks at (6, 7)
        form = ramp_form(out_dim, np.where(np.arange(N_PTS) < 7, 0.0, 5.0))
        return form, gap_control(form.base, 1.0), [1.0], 0.0, (20.0, (6, 7))
    if case == "all-floored":
        # every pair's difference is nonzero and at or below the floor, as
        # in the first Picard step: quotient 0 at pair (0, 1)
        form = form_over_walk(np.random.default_rng(50 + out_dim), 2, 3, out_dim, N_PTS)
        floor = max(
            float(np.max(np.sqrt(np.einsum("poj,poj->p", *2 * (difference_matrices_einsum(form, k),)))))
            for k in (1, 2, 3)
        )
        return form, control_from_pvar(form.base), [0.9, 0.6, 0.3], floor, (0.0, (0, 1))
    raise ValueError(case)


SEED_CASES = [
    "zero-control-stretch", "rounded-ties", "noise-floor-half", "noise-floor-most",
    "adjacent-maximum", "all-floored",
]


@pytest.mark.parametrize("chunk", [1, 7, N_PAIRS])
@pytest.mark.parametrize("out_dim", [2, 3, 4])
@pytest.mark.parametrize("case", SEED_CASES)
def test_seeded_level_quotients_bitwise_full_scan(case, out_dim, chunk, monkeypatch):
    """The scan seeds each level's bound with the adjacent pairs' exact
    quotients; ties, +inf and floored numerators keep the full scan's
    quotients and its first worst pair."""
    form, omega, expos, floor, expected = seed_case(case, out_dim)
    want = full_scan_level_quotients(form, omega, expos, floor)
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", chunk)
    assert form._level_quotients(omega, expos, floor) == want
    if expected is not None:
        assert (want[0][-1], want[1][-1]) == expected
    if case == "rounded-ties":
        # the top level's worst pair ties with a later pair three points on
        s, t = want[1][-1]
        diff = difference_matrices_einsum(form, 2)
        s_idx, t_idx = np.triu_indices(N_PTS, k=1)
        j, k = (np.flatnonzero((s_idx == s + a) & (t_idx == t + a))[0] for a in (0, 3))
        assert t + 3 < N_PTS and diff[j].tobytes() == diff[k].tobytes()


@pytest.mark.parametrize("rows", [1, 2, 7])
@pytest.mark.parametrize("out_dim", [2, 3])
@pytest.mark.parametrize("case", CHUNK_CASES + SEED_CASES)
def test_pruned_level_quotients_bitwise_full_scan_in_row_blocks(case, out_dim, rows, monkeypatch):
    """Wide forms scan row blocks under the chain bounds, bottom block
    first.  With the run length patched to half of `rows` full rows, the
    top block of two runs' entries holds `rows` rows (later ones more), and
    the tie case puts its two equal quotients on the last pair of the top
    block and the first of the next."""
    n_steps = N_PTS - 1
    first = rows * n_steps - rows * (rows - 1) // 2
    if case in SEED_CASES:
        form, omega, expos, floor, _ = seed_case(case, out_dim)
    else:
        form, omega, expos, floor, _ = chunk_case(case, out_dim, first)
    want = full_scan_level_quotients(form, omega, expos, floor)
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", (rows * n_steps + 1) // 2)
    assert next(form.base._row_blocks(2)) == (0, rows)
    assert form._level_quotients(omega, expos, floor) == want


def record_runs(monkeypatch, g):
    """The packed indices, in np.triu_indices order, of the pairs t > s of
    every read the difference kernel forms over g, in call order, once the
    test has run the scan."""
    kernel, runs, n = OneFormPath.difference_matrices, [], g.times.size

    def recording(self, k, pairs, incs, pool=None):
        s, t = np.broadcast_arrays(*pairs)
        s, t = s[t > s], t[t > s]
        runs.append(s * n - s * (s + 1) // 2 + t - s - 1)
        return kernel(self, k, pairs, incs, pool)

    monkeypatch.setattr(OneFormPath, "difference_matrices", recording)
    return runs


@pytest.mark.parametrize("rows", [2, 7])
@pytest.mark.parametrize("out_dim", [2, 3])
def test_row_block_read_in_pool_runs_keeps_the_first_of_a_tie(out_dim, rows, monkeypatch):
    """Every pair of a ramp form over a gap control has the quotient
    sigma / 2 = 2, so every block is read whole.  The top block holds more
    entries than a rectangle read and is read in rectangles, the bottom
    first; the positive tie across each rectangle boundary goes to the
    earlier one, so the worst pair is (0, 1), as in the full scan."""
    form = ramp_form(out_dim, np.arange(N_PTS))
    omega = gap_control(form.base, 2.0)
    want = full_scan_level_quotients(form, omega, [1.0], 0.0)
    assert want == ([2.0], [(0, 1)])
    n_steps = N_PTS - 1
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", (rows * n_steps + 1) // 2)
    g = form.base
    first = rows * n_steps - rows * (rows - 1) // 2
    assert next(g._row_blocks(2)) == (0, rows) and len(list(g._row_blocks(1, 0, rows))) >= 2
    runs = record_runs(monkeypatch, g)
    assert form._level_quotients(omega, [1.0], 0.0) == want
    # the top block's rectangles, after the adjacent set and a single-pair probe
    top = [pairs for pairs in runs[1:] if pairs.size > 1 and pairs[-1] < first]
    assert len(top) >= 2
    assert np.array_equal(np.concatenate(top[::-1]), np.arange(first))


@pytest.mark.parametrize("out_dim", [2, 3])
def test_kept_pairs_longer_than_a_run_keep_the_first_of_a_tie(out_dim, monkeypatch):
    """With every row in one block, level 1 of a ramp form keeps the 11
    adjacent pairs and the 9 pairs three steps apart, at the quotient 2,
    which the other pairs, at 0.5, do not reach: under half of the block's
    66 pairs, but more than a read of 11.  They are read in sets of 11, the
    last first, and the tie across the sets goes to the first pair, (0, 1),
    as in the full scan."""
    form = ramp_form(out_dim, np.arange(N_PTS))
    g = form.base
    i = np.arange(N_PTS)
    gap = np.maximum(i[None, :] - i[:, None], 0.0)
    omega = Control(g.times, np.where(np.isin(gap, (1.0, 3.0)), 2.0, 8.0) * gap)
    want = full_scan_level_quotients(form, omega, [1.0], 0.0)
    assert want == ([2.0], [(0, 1)])
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", 7)
    # the rectangles of a block read whole, the largest read, hold at most 11 entries
    assert max((s1 - s0) * (11 - s0) for s0, s1 in g._row_blocks(1, 0, 11)) == 11
    blocks = type(g)._row_blocks

    def one_block(self, multiple=1, *rows):
        # every row in one block of the scan's bound tables
        return iter([(0, 11)]) if multiple == 2 else blocks(self, multiple, *rows)

    monkeypatch.setattr(type(g), "_row_blocks", one_block)
    runs = record_runs(monkeypatch, g)
    assert form._level_quotients(omega, [1.0], 0.0) == want
    s_idx, t_idx = np.triu_indices(N_PTS, k=1)
    kept = np.flatnonzero(np.isin(t_idx - s_idx, (1, 3)))
    # after the adjacent set: the kept pairs in sets of 11, the last first
    assert [pairs.size for pairs in runs[1:]] == [9, 11]
    assert np.array_equal(np.concatenate(runs[:0:-1]), kept)


def chain_bound_table(form):
    """`_chain_bounds` of every row at once, slackened: entry [k-1][s, t-1]
    bounds the level-k remainder of the pair (s, t), from the adjacent
    pairs' einsum differences and the steps' level norms."""
    g = form.base
    adjacent = (np.arange(g.num_steps), np.arange(1, g.times.size))
    sizes = [
        np.sqrt(np.einsum("poj,poj->p", *2 * (difference_matrices_einsum(form, k, adjacent),)))
        for k in range(1, g.level + 1)
    ]
    steps = [np.sqrt(sum_squares(b)) for b in g.step_level_blocks[:-1]]
    return _chain_bounds(sizes, steps, 0, g.num_steps, form._chain_slack())


def chain_case(rng, d, level, out_dim, kind, scale):
    """A form over a long walk of large steps (excursions of tens of units)
    that halts for three steps midway, a stretch where the p-variation
    control vanishes and the increments are the unit.  Smooth
    coefficients are polynomials in the position, rough ones independent
    draws at every point, and monotone ones a fixed matrix times a sum of
    positive draws, so that level L's differences add up along every row
    and its raw chain bound is exact; each level is scaled by `scale` to a
    random power in [-1, 1]."""
    n_pts = 40 if d < 3 else 28
    steps = 4.0 * rng.standard_normal((n_pts - 1, d))
    steps[n_pts // 2 : n_pts // 2 + 3] = 0.0
    x = np.vstack([np.zeros((1, d)), np.cumsum(steps, axis=0)])
    g = signature(SampledPath(np.linspace(0.0, 1.0, n_pts), x), level, p=level + 0.5)
    levels = []
    for k in range(1, level + 1):
        shape = (n_pts, out_dim, d**k)
        if kind == "smooth":
            c = rng.standard_normal((3,) + shape[1:])
            u = x[:, :1, None] / 30.0
            block = c[0] + u * c[1] + u * u * c[2]
        elif kind == "monotone":
            ramp = np.cumsum(rng.random(n_pts))
            block = ramp[:, None, None] * rng.standard_normal(shape[1:])
        else:
            block = rng.standard_normal(shape)
        levels.append(block * scale ** rng.uniform(-1.0, 1.0))
    return OneFormPath(g, out_dim, tuple(levels))


@pytest.mark.parametrize("out_dim", [2, 3])
@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_chain_bounds_hold_on_every_pair(d, level, out_dim):
    """Every non-adjacent pair's slackened chain bound is at least the
    Frobenius norm of its einsum difference matrix, for smooth, rough and
    monotone coefficients at scales 1e-3 to 1e3.  Where the raw chain is
    exact, rounding takes the direct norm over it by a few ulps, and the
    slack carries the bound."""
    rng = np.random.default_rng(1000 * d + 100 * level + out_dim)
    for kind in ("smooth", "rough", "monotone"):
        for scale in (1e-3, 1.0, 1e3):
            form = chain_case(rng, d, level, out_dim, kind, scale)
            n = form.base.times.size
            s_idx, t_idx = np.triu_indices(n, k=1)
            far = t_idx - s_idx > 1
            bounds = chain_bound_table(form)
            for k in range(1, level + 1):
                diff = difference_matrices_einsum(form, k)
                fro = np.sqrt(np.einsum("poj,poj->p", diff, diff))
                bound = bounds[k - 1][s_idx, t_idx - 1]
                assert np.all(bound[far] >= fro[far]), (kind, scale, k)


def test_pruned_scans_form_few_pairs_in_late_picard_steps(monkeypatch):
    """In Picard steps 6-11 of the cubic fixture at N=64 the chain bounds
    leave fewer than 1% of the non-adjacent pairs to the difference kernel
    at every level, where a scan without them forms all of them.  The
    adjacent pairs, whose remainders seed the bounds, are not counted."""
    problem = cubic_problem(64, n_max=16)
    history = solve(problem, keep_history=True).history
    formed = {}
    kernel = OneFormPath.difference_matrices

    def counting(self, k, pairs, incs, pool=None):
        s, t = pairs
        formed[k] = formed.get(k, 0) + int(np.count_nonzero(t - s > 1))
        return kernel(self, k, pairs, incs, pool)

    monkeypatch.setattr(OneFormPath, "difference_matrices", counting)
    far = 64 * 65 // 2 - 64
    for n in range(6, 12):
        formed.clear()
        assert picard_step(history[n - 1], problem).quot_parts == history[n].quot_parts
        assert len(formed) == 3
        assert all(count < 0.01 * far for count in formed.values()), (n, formed)


def test_pair_scan_transient_holds_one_bound_as_the_grid_grows():
    """One norm pass over a two-output form (d=2, L=3) holds a pool of one
    run and the current run's arrays, whatever N, so its transient stays
    under 1.6 MB at N=256 and at N=512, where the runs are full; a single
    float per pair would take 1.05 MB of that at N=512, and level-1
    differences of all pairs 4.2 MB."""
    for n_steps in (256, 512):
        problem = cubic_problem(n_steps)
        g = problem.driver
        identity = OneFormPath.constant_linear(g, np.eye(2))
        form = compose_integrand(problem.field, g.positions(problem.xi), identity)
        omega = control_from_pvar(g)
        form.level_sups
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            form.norm_components(problem.gamma, omega)
            transient = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert form.out_dim == 2
        assert transient <= 1.6e6


def test_pair_scan_peak_memory_stays_below_the_dense_tables():
    """Pair levels, the p-variation control and one norm pass over a
    two-output form at N=300 (d=2, L=3) peak below the (N+1)^2 level tables
    of a dense pair layout alone."""
    problem = cubic_problem(300)
    g = problem.driver
    identity = OneFormPath.constant_linear(g, np.eye(2))
    form = compose_integrand(problem.field, g.positions(problem.xi), identity)
    dense = g.times.size**2 * sum(g.dim**k for k in range(1, g.level + 1)) * 8
    tracemalloc.start()
    try:
        g.pairwise_levels
        omega = control_from_pvar(g)
        form.norm_components(problem.gamma, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert form.out_dim == 2
    assert peak < dense


def test_integral_form_reads_derivative_levels_below_the_top():
    # levels 1..L-1 of the integrand's form; a whole form's L levels are refused
    walk = np.random.default_rng(3).standard_normal((6, 2))
    g = signature(SampledPath(np.linspace(0.0, 1.0, 6), walk), 3)
    phi = np.ones((6, 1, 2))
    form = OneFormPath.constant_linear(g, np.eye(2))
    eta = integral_form_from_controlled(g, phi, form.levels[:-1])
    assert_bitwise(eta.levels[0], phi)
    # the last letter of level 2 is the integrand's second slot
    swapped = form.levels[0].reshape(6, 1, 2, 2).transpose(0, 1, 3, 2)
    assert_bitwise(eta.levels[1], swapped.reshape(6, 1, 4))
    with pytest.raises(DimensionMismatchError, match="derivative levels"):
        integral_form_from_controlled(g, phi, form.levels)


def test_pair_geometry_peak_memory_matches_the_estimate():
    """The memory estimate counts what the control holds at N=768 (d=2,
    L=3): its table and the pool of one rectangle of at most 4,096
    entries, whose levels 0..3 and product term take 15 + 8 floats an
    entry.  With the path's point caches taken first, the control peaks
    within 15% above it, and one norm pass over the table adds at most the
    1.6 MB that bounds its transient."""
    problem = cubic_problem(768)
    g = problem.driver
    identity = OneFormPath.constant_linear(g, np.eye(2))
    form = compose_integrand(problem.field, g.positions(problem.xi), identity)
    g._letter_major
    n = g.times.size
    need = (n * n + 4096 * (15 + 8)) * 8
    tracemalloc.start()
    try:
        omega = control_from_pvar(g)
        control = tracemalloc.get_traced_memory()[1]
        form.norm_components(problem.gamma, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 <= control / need <= 1.15
    assert peak <= need + 1.6e6


def test_control_dynamic_program_holds_one_table(monkeypatch):
    """With the path's point caches taken first, `control_from_pvar` at
    N=300 peaks within 1.6 square tables plus its rectangles' pool: the
    table, the rectangles that write their norms into it and the per-gap
    temporaries.  Rectangles of 256 entries, here single rows of up to
    300, keep the pool at 55 kB, so a second table for the transpose would
    exceed the bound; at 4,096 entries the pool (754 kB) and its norms'
    temporaries would hide it."""
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", 256)
    g = cubic_problem(300).driver
    g._letter_major
    table = g.times.size**2 * 8
    entries = max((s1 - s0) * (g.num_steps - s0) for s0, s1 in g._row_blocks())
    pool = entries * (15 + 8) * 8
    assert pool == 55_200 and 1.6 * table + pool < 2 * table
    tracemalloc.start()
    try:
        control_from_pvar(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * table + pool
