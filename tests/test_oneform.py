import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import roughkit.path
from roughkit.funcs import LipFunction, PolyMap, strict_floor
from roughkit.integrate import compose_integrand
from roughkit.oneform import (
    ClosedLift,
    OneFormPath,
    _pair_quotient,
    _spectral_pair_quotient,
    check_domination,
    integral_form_from_controlled,
    lift_polynomial_form,
)
from roughkit.path import (
    Control,
    SampledPath,
    control_from_pvar,
    signature,
)
from roughkit.rde import solve
from roughkit.tensor import (
    DimensionMismatchError,
    GroupElement,
    TruncatedTensor,
)

from conftest import (
    assert_bitwise,
    cubic_problem,
    level_tensor,
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


def linear_field(gamma=2.5, radius=3.0):
    A1 = np.array([[0.0, 1.0], [-0.5, 0.2]])
    A2 = np.array([[0.3, -0.2], [0.8, 0.0]])
    return LipFunction(
        linear_vector_field([A1, A2]), gamma=gamma, radius=radius
    )


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
    """Group-algebra element with (b - 1) equal to the j-th level-k basis vector."""
    e = np.zeros(dim**k)
    e[j] = 1.0
    return GroupElement(level_tensor(dim, level, {0: np.ones(1), k: e}))


def functional_matrix(beta, slot, at, k):
    """Level-k matrix of b -> beta_{t_slot}(g_{t_at}, b) by basis evaluation."""
    g = beta.base
    cols = []
    for j in range(g.dim**k):
        b = basis_argument(g.dim, g.level, k, j)
        cols.append(form_value(beta, slot, g.points[at], b))
    return np.stack(cols, axis=1)


# -- evaluation and cocyclicity -----------------------------------------------


def test_unit_argument_evaluates_to_zero():
    g = driver_2d()
    beta = OneFormPath.constant_linear(g, np.array([[1.0, 2.0], [3.0, -1.0]]))
    unit = GroupElement(TruncatedTensor.unit(2, 2), grouplike=True)
    out = form_value(beta, 3, g.points[3], unit)
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_constant_functional_reads_first_level():
    g = driver_2d()
    A = np.array([[1.0, 2.0], [3.0, -1.0]])
    beta = OneFormPath.constant_linear(g, A)
    b = g.increment(2, 4)
    out = form_value(beta, 2, g.points[2], b)
    np.testing.assert_allclose(out, A @ b.level_block(1), atol=1e-14)


def test_cocycle_identity_on_random_triples():
    g = driver_2d(seed=51, n_pts=9)
    beta = first_iteration_form(g, linear_field())
    rng = np.random.default_rng(52)
    for _ in range(20):
        i, j, k = sorted(rng.choice(np.arange(9), size=3, replace=False))
        a = g.increment(0, i) if i > 0 else g.points[0]
        b = g.increment(i, j)
        c = g.increment(j, k)
        lhs = form_value(beta, 2, a, b) + form_value(beta, 2, a @ b, c)
        rhs = form_value(beta, 2, a, b @ c)
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
    lift = lift_polynomial_form(PolyMap.constant(c, 2), level=2)
    g = driver_2d(seed=60)
    vals = lift.along(g)
    disp = g.positions() - g.positions()[0]
    np.testing.assert_allclose(vals, disp @ c.T, atol=1e-13)


def test_scalar_x_dx_over_two_segments():
    """0 -> 1 -> 3 against x dx gives the classical 9/2."""
    form = PolyMap(1, (1, 1), (np.zeros((1, 1)), np.eye(1).reshape(1, 1, 1)))
    lift = lift_polynomial_form(form, level=2)
    path = SampledPath(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0], [3.0]]))
    total = lift.along(signature(path, 2))[-1]
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
    lift = lift_polynomial_form(quad, level=3)
    g = driver_2d(seed=62, n_pts=9, level=3, p=3.0)
    for _ in range(20):
        i, j, k = sorted(rng.choice(np.arange(9), size=3, replace=False))
        a = g.points[i]
        b = g.increment(i, j)
        c = g.increment(j, k)
        resid = (
            lift_pair_value(lift, a, b)
            + lift_pair_value(lift, a @ b, c)
            - lift_pair_value(lift, a, b @ c)
        )
        assert np.max(np.abs(resid)) <= 1e-10


def test_lift_pair_value_is_bitwise_its_oneform():
    """A pair value from the lift's coefficient builder and pairing kernel at
    one point is bitwise the value of `as_oneform` at that grid point."""
    rng = np.random.default_rng(64)
    cubic = PolyMap(
        2,
        (2, 2),
        tuple(rng.standard_normal((2, 2) + (2,) * l) for l in range(3)),
    )
    lift = lift_polynomial_form(cubic, level=3, base_point=np.array([0.3, -0.1]))
    g = driver_2d(seed=65, n_pts=9, level=3, p=3.0)
    beta = lift.as_oneform(g)
    for i in range(8):
        for j in range(i + 1, 9):
            inc = g.increment(i, j)
            assert_bitwise(lift_pair_value(lift, g.points[i], inc), value_on_increment(beta, i, inc))


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
    lift = lift_polynomial_form(quad, level=3)
    pts = np.array([[0.0, 0.0], [0.6, 0.2], [0.1, 0.9], [0.8, 1.0]])
    spur = np.array(
        [[0.0, 0.0], [0.6, 0.2], [0.9, -0.3], [0.6, 0.2], [0.1, 0.9], [0.8, 1.0]]
    )
    plain = lift.along(signature(SampledPath(np.arange(4.0), pts), 3))[-1]
    spurred = lift.along(signature(SampledPath(np.arange(6.0), spur), 3))[-1]
    assert np.max(np.abs(plain - spurred)) <= 1e-10


def test_lift_kills_loops():
    rng = np.random.default_rng(64)
    quad = PolyMap(
        2,
        (1, 2),
        (np.zeros((1, 2)), rng.standard_normal((1, 2, 2)), np.zeros((1, 2, 2, 2))),
    )
    lift = lift_polynomial_form(quad, level=3)
    t = np.linspace(0.0, 1.0, 7)
    pts = 0.5 * rng.standard_normal((7, 2))
    path = SampledPath(t, pts)
    loop = path.concatenated(reversed_path(path))
    total = lift.along(signature(loop, 3))[-1]
    assert np.max(np.abs(total)) <= 1e-10


def test_lift_refuses_a_driver_of_another_level():
    """A level-3 lift of a quadratic form along a level-2 lift would drop
    the level-3 term its exactness needs."""
    rng = np.random.default_rng(66)
    quad = PolyMap(
        2,
        (1, 2),
        (np.array([[0.3, -0.2]]), rng.standard_normal((1, 2, 2)), rng.standard_normal((1, 2, 2, 2))),
    )
    lift = lift_polynomial_form(quad, level=3)
    steps = 0.1 * rng.standard_normal((51, 2))
    walk = SampledPath(np.linspace(0.0, 1.0, 51), np.cumsum(steps, axis=0))
    assert lift.along(signature(walk, 3)).shape == (51, 1)
    with pytest.raises(DimensionMismatchError, match="level-3 lift along a level-2 driver"):
        lift.as_oneform(signature(walk, 2))
    with pytest.raises(DimensionMismatchError, match="level-3 lift along a level-4 driver"):
        lift.along(signature(walk, 4))


def test_lift_rejects_degree_above_level():
    cubic = PolyMap(
        1,
        (1, 1),
        tuple(np.zeros((1, 1) + (1,) * l) for l in range(4)),
    )
    with pytest.raises(ValueError):
        lift_polynomial_form(cubic, level=3)
    assert isinstance(lift_polynomial_form(cubic, level=4), ClosedLift)


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
    arg = g.increment(1, 5)
    lhs = form_value(b1 + 2.0 * b2 - b1, 3, g.points[3], arg)
    rhs = 2.0 * form_value(b2, 3, g.points[3], arg)
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
        q, j, best = _spectral_pair_quotient(diff[run], w[run], expo, best, noise_floor, dead_tol)
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
                diff.difference_matrices(k), w, (gamma - k) / g.p, floor, max(1e-12, floor)
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
            full_scan_quotient(state.form.difference_matrices(k), w, e)
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


@pytest.mark.parametrize("out_dim", [1, 2, 3])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_difference_matrices_bitwise_einsum(d, level, out_dim):
    rng = np.random.default_rng(100 * d + 10 * level + out_dim)
    for kinds in [("wide", "signed", "converged"), ("signed",)]:
        form = form_over_walk(rng, d, level, out_dim, kinds=kinds)
        for k in range(1, level + 1):
            assert_bitwise(form.difference_matrices(k), difference_matrices_einsum(form, k))


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
        assert_bitwise(form.difference_matrices(k), difference_matrices_einsum(form, k))


def test_picard_solve_bitwise_with_einsum_difference_matrices(monkeypatch):
    """The cubic fixture solved with the per-letter kernel and again with the
    einsum: every Picard step, its difference matrices, quotients and worst
    pairs, and every iterate's certificate carry the same bits.  Both scan
    the 2,080 pairs in chunks of 97, so every scan crosses chunk boundaries."""
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
            assert_bitwise(form.difference_matrices(k), difference_matrices_einsum(form, k))


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
    row [3, 4] and 4 for diag(3, 4)."""
    t = np.linspace(0.0, 1.0, len(ramp))
    g = signature(SampledPath(t, np.random.default_rng(9).standard_normal((len(ramp), 2))), 1, p=1.5)
    M = np.array([[3.0, 4.0]]) if out_dim == 1 else np.diag([3.0, 4.0])
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
        # quotient sigma at pairs chunk-1 and chunk, the last of one chunk and
        # the first of the next; sigma / 2 everywhere else
        form = ramp_form(out_dim, np.arange(N_PTS))
        table = gap_control(form.base, 2.0).table.copy()
        s_idx, t_idx = np.triu_indices(N_PTS, k=1)
        for j in (chunk - 1, chunk):
            table[s_idx[j], t_idx[j]] /= 2.0
        pair = (int(s_idx[chunk - 1]), int(t_idx[chunk - 1]))
        return form, Control(form.base.times, table), [1.0], 0.0, (sigma, pair)
    if case == "all-zero":
        form = ramp_form(out_dim, np.zeros(N_PTS))
        return form, gap_control(form.base, 1.0), [1.0], 0.0, (0.0, (0, 1))
    if case == "zero-control":
        # every pair ending after grid point 4 is dead with mass: +inf, first at (0, 5)
        form = ramp_form(out_dim, np.maximum(np.arange(N_PTS) - 4.0, 0.0))
        return form, gap_control(form.base, 0.0), [1.0], 0.0, (np.inf, (0, 5))
    raise ValueError(case)


@pytest.mark.parametrize("chunk", [1, 2, 7, N_PAIRS - 1])
@pytest.mark.parametrize("out_dim", [1, 2])
@pytest.mark.parametrize(
    "case", ["walk", "walk-noise-floor", "tie-straddles-chunk", "all-zero", "zero-control"]
)
def test_level_quotients_bitwise_full_scan_across_chunks(case, out_dim, chunk, monkeypatch):
    form, omega, expos, floor, expected = chunk_case(case, out_dim, chunk)
    want = full_scan_level_quotients(form, omega, expos, floor)
    monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", chunk)
    assert form._level_quotients(omega, expos, floor) == want
    if expected is not None:
        assert (want[0][0], want[1][0]) == expected


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
    """The memory estimate counts what the pair build, the control and one
    norm pass hold at N=768 (d=2, L=3): pair level 2, the packed norms and
    one control table."""
    problem = cubic_problem(768)
    g = problem.driver
    identity = OneFormPath.constant_linear(g, np.eye(2))
    form = compose_integrand(problem.field, g.positions(problem.xi), identity)
    n = g.times.size
    need = (n * (n - 1) // 2 * (4 + 1) + n * n) * 8
    tracemalloc.start()
    try:
        g.pairwise_levels
        omega = control_from_pvar(g)
        form.norm_components(problem.gamma, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak / need - 1.0) <= 0.15


def test_control_dynamic_program_holds_one_table():
    """With the pair norms built, `control_from_pvar` at N=300 peaks within
    1.6 square tables: the table itself and its per-gap temporaries, with
    no second table for the transpose."""
    g = cubic_problem(300).driver
    g.pairwise_levels
    tracemalloc.start()
    try:
        control_from_pvar(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * g.times.size**2 * 8
