import gc
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import roughkit.path
from roughkit.funcs import LipFunction, PolyMap, ScaledMap, SineField, SmoothMap, divide
from roughkit.integrate import RegularityError, compose_integrand, integrate_controlled, rough_integral
from roughkit.path import Control, SampledPath, SampledRoughPath, control_from_pvar, signature
from roughkit import rde
from roughkit.oneform import OneFormPath, integral_form_from_controlled
from roughkit.rde import (
    RdeProblem,
    _product_form,
    continuity_probe,
    difference_tower,
    driver_distance,
    fit_decay,
    fixed_point_form,
    initial_state,
    picard_step,
    rescale_problem,
    solve,
    uniqueness_probe,
)
from roughkit.tensor import DimensionMismatchError, stack_exp, stack_product

from conftest import (
    AREA_A1,
    AREA_A2,
    AREA_VALUE,
    AREA_XI,
    assert_bitwise,
    cubic_field,
    cubic_path,
    cubic_problem,
    exp_field,
    exp_problem,
    dilated,
    level_rows,
    linear_vector_field,
    looped_lift,
    perturbed_probe_driver,
    probe_problem,
)
from oracles import (
    driver_distance_whole_gather,
    form_value,
    permuted_divided_seed,
    polygon_loop_endpoint,
    product_form_two_branch,
    pushforward_dilate,
    rk4_polyline,
    series_exp_loop,
)


def zero_field(dim: int = 1) -> LipFunction:
    return LipFunction(PolyMap.constant(np.zeros((dim, dim)), in_dim=dim), gamma=4.0)


def tower_problem(**kw) -> RdeProblem:
    t = np.linspace(0.0, 1.0, 25)
    x = 0.35 * t + 0.12 * np.sin(2.0 * np.pi * t)
    return RdeProblem(
        signature(SampledPath(t, x[:, None]), 3, p=3.0),
        exp_field(),
        xi=np.array([1.0]),
        **kw,
    )


def planar_problem(**kw) -> RdeProblem:
    """Two-dimensional state on a 12-step planar walk, quadratic field, gamma 4."""
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 1.0, 13)
    steps = 0.25 * rng.standard_normal((12, 2))
    x = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    coeffs = (
        np.array([[0.3, -0.2], [0.1, 0.4]]),
        0.3 * rng.standard_normal((2, 2, 2)),
        0.1 * rng.standard_normal((2, 2, 2, 2)),
    )
    field = LipFunction(PolyMap(2, (2, 2), coeffs), gamma=4.0)
    return RdeProblem(
        signature(SampledPath(t, x), 3, p=3.0), field, xi=np.array([1.0, -0.5]), **kw
    )


# -- single iteration steps --------------------------------------------------------


def test_zero_field_fixes_start_immediately():
    prob = RdeProblem(probe_problem().driver, zero_field(), xi=np.array([2.5]))
    state = picard_step(initial_state(prob), prob)
    assert state.delta == 0.0
    assert np.array_equal(state.positions, np.full((201, 1), 2.5))
    assert all(np.all(b == 0.0) for b in state.form.levels)


def test_constant_field_first_step_is_exact():
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 1.0, 41)
    pts = 0.5 * rng.standard_normal((41, 2))
    driver = signature(SampledPath(t, pts), 2, p=2.0)
    A = np.array([[0.7, -0.2], [0.1, 0.4]])
    field = LipFunction(PolyMap.constant(A, in_dim=2), gamma=3.0)
    prob = RdeProblem(driver, field, xi=np.array([0.2, -0.1]))
    first = picard_step(initial_state(prob), prob)
    want = prob.xi[None, :] + (pts - pts[0]) @ A.T
    np.testing.assert_allclose(first.positions, want, atol=1e-14)
    # no state dependence, so the map is stationary after one application
    second = picard_step(first, prob)
    assert second.delta == 0.0
    assert np.array_equal(second.positions, first.positions)


def test_scalar_linear_iterates_are_partial_sums():
    """dy = y dx iterates truncate the exponential series term by term."""
    t = np.linspace(0.0, 1.0, 1025)
    x = 0.4 * t + 0.16 * np.sin(2.0 * np.pi * t)
    prob = RdeProblem(
        signature(SampledPath(t, x[:, None]), 3, p=3.0),
        exp_field(),
        xi=np.array([1.0]),
    )
    X = x[-1] - x[0]
    state = initial_state(prob)
    for n in range(1, 6):
        state = picard_step(state, prob)
        want = sum(X**k / math.factorial(k) for k in range(n + 1))
        assert abs(state.positions[-1, 0] - want) <= 1e-10


def test_iterates_rebuilt_from_their_forms(exp_solutions):
    sol = exp_solutions[128]
    for state in sol.history[1:]:
        rebuilt = sol.problem.xi[None, :] + rough_integral(state.form).values
        assert np.max(np.abs(rebuilt - state.positions)) <= 1e-12


def test_problem_refuses_a_control_from_another_grid():
    """An 81-point control table would be read at the wrong flat offsets
    by a 41-point driver's pairs."""
    coarse = cubic_problem(40)
    fine = cubic_problem(80).omega
    with pytest.raises(DimensionMismatchError, match="another time grid"):
        RdeProblem(coarse.driver, cubic_field(), xi=coarse.xi, control=fine)
    shifted = Control(coarse.driver.times + 1.0, coarse.omega.table)
    with pytest.raises(DimensionMismatchError, match="another time grid"):
        RdeProblem(coarse.driver, cubic_field(), xi=coarse.xi, control=shifted)
    # the driver's own control, scaled, is accepted
    RdeProblem(coarse.driver, cubic_field(), xi=coarse.xi, control=coarse.omega.scaled(2.0))


def test_problem_validates_dimensions():
    driver = probe_problem().driver
    with pytest.raises(ValueError, match="field must map"):
        RdeProblem(driver, cubic_field(), xi=np.array([1.0, 0.0]))
    with pytest.raises(RegularityError, match="must exceed p - 1"):
        RdeProblem(
            driver,
            LipFunction(linear_vector_field([np.eye(1)]), gamma=1.8),
            xi=np.array([1.0]),
        )
    with pytest.warns(UserWarning, match="band") as caught:
        RdeProblem(
            driver,
            LipFunction(linear_vector_field([np.eye(1)]), gamma=2.5),
            xi=np.array([1.0]),
        )
    # the warning names the line that built the problem, not the generated __init__
    assert [Path(w.filename) for w in caught] == [Path(__file__)]


IDENTITY_TYPES = {
    "SampledPath": lambda: SampledPath(np.arange(3.0), np.ones((3, 1))),
    "SampledRoughPath": lambda: exp_problem(4).driver,
    "Control": lambda: exp_problem(4).omega,
    "OneFormPath": lambda: initial_state(exp_problem(4)).form,
    "PolyMap": lambda: cubic_field().map,
    "SineField": lambda: SineField(np.array([0.7]), np.array([[1.2, -0.6]]), np.array([0.3])),
    "DividedMap": lambda: divide(cubic_field()).map,
    "IntegralResult": lambda: rough_integral(initial_state(exp_problem(4)).form),
    "RdeProblem": lambda: exp_problem(4),
    "PicardState": lambda: initial_state(exp_problem(4)),
    "RdeSolution": lambda: solve(exp_problem(4, n_max=2)),
    "TowerReport": lambda: difference_tower(tower_problem(), 1, 2),
}


@pytest.mark.parametrize("make", list(IDENTITY_TYPES.values()), ids=list(IDENTITY_TYPES))
def test_array_dataclasses_compare_and_hash_by_identity(make):
    """Frozen dataclasses that hold arrays compare and hash by identity, as
    `GroupElement` does: generated value equality raises on an array's truth
    value, and the generated hash on an unhashable array."""
    a = make()
    twin = replace(a)
    assert a == a and a != twin
    assert hash(a) == hash(a) and len({a, twin}) == 2


# -- decay reports -----------------------------------------------------------------


def test_fit_decay_recovers_planted_constant():
    p, C = 3.0, 0.2
    deltas = [0.5, 0.7, 0.9]
    for n in range(3, 14):
        x = n - 3
        deltas.append(C**x / math.gamma(x / p + 1.0))
    report = fit_decay(deltas, p)
    assert report.fitted_C == pytest.approx(C, rel=1e-9)
    for n in range(3, 14):
        assert report.bounds[n] == pytest.approx(deltas[n], rel=1e-9)
    assert all(math.isnan(b) for b in report.bounds[:3])
    assert len(report.ratios) == len(deltas) - 1


def test_tail_bound_matches_direct_summation():
    p, C = 3.0, 0.2
    deltas = [0.9, 0.6, 0.4] + [
        C ** (n - 3) / math.gamma((n - 3) / p + 1.0) for n in range(3, 12)
    ]
    report = fit_decay(deltas, p)
    direct = sum(
        C ** (n - 3) / math.gamma((n - 3) / p + 1.0) for n in range(12, 400)
    )
    assert report.tail_bound() == pytest.approx(direct, rel=1e-10)
    assert math.isnan(fit_decay([1.0, 0.5], p).tail_bound())


def test_tail_bound_is_infinite_when_a_term_overflows():
    # a run halted by the norm cap fits C near 304; C**x overflows a float
    report = fit_decay([1.0, 5.0, 1e2, 1e4, 1e5, 1e6, 1e7, 5e9], 3.0)
    assert report.fitted_C > 300.0
    assert report.tail_bound() == math.inf


def test_report_rows_align():
    report = fit_decay([0.9, 0.5, 0.2, 0.05, 0.01, 0.001, 5e-5], 3.0)
    rows = report.rows()
    assert [r[0] for r in rows] == list(range(7))
    assert [r[1] for r in rows] == list(report.deltas)


# -- solve -------------------------------------------------------------------------


def test_zero_field_solve_stays_at_start():
    prob = RdeProblem(probe_problem().driver, zero_field(), xi=np.array([-1.5]))
    sol = solve(prob)
    assert sol.converged
    assert sol.iterations == 1
    assert np.array_equal(sol.positions, np.full((201, 1), -1.5))


def test_scalar_exponential_endpoint(exp_solutions):
    # x(1) - x(0) = 0.4 exactly, so y(1) = e^0.4
    sol = exp_solutions[256]
    want = math.exp(0.4)
    assert abs(sol.positions[-1, 0] - want) / want <= 1e-8
    assert sol.converged


def test_pure_area_driver_matches_commutator_flow(area_solution):
    want = polygon_loop_endpoint(AREA_A1, AREA_A2, AREA_VALUE, 8000, AREA_XI)
    got = area_solution.positions[-1]
    assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-3


def test_polyline_solution_matches_classical_integration(cubic_solutions):
    sol = cubic_solutions[256]
    field = cubic_field()
    path = cubic_path(256)
    oracle = rk4_polyline(
        lambda y: field.apply(y[None, :]).reshape(2, 2),
        sol.problem.xi,
        path.times,
        path.values,
        substeps=32,
    )
    rel = np.max(np.linalg.norm(sol.positions - oracle, axis=1)) / np.max(
        np.linalg.norm(oracle, axis=1)
    )
    assert rel <= 1e-6


@pytest.mark.parametrize("scale", [1.0, 50.0])
def test_looped_lifts_pass_the_certificate_with_the_loops_area(scale):
    """The coarse rows of a looped polyline, dilated by `scale`, pass the
    path constructor's certificate, and each step's Levy area is its loop's
    scale^2 eps dt: the straight part carries none, and the loop's level 1
    is zero, so Chen's product adds nothing across them."""
    eps, path = 0.2, cubic_path(64)
    _, g = looped_lift(SampledPath(path.times, scale * path.values), scale**2 * eps)
    two = g.step_level_blocks[1]
    np.testing.assert_allclose(0.5 * (two[:, 1] - two[:, 2]), scale**2 * eps * np.diff(path.times), rtol=1e-9)


def side_by_side(field):
    """The field matrix of independent copies of dy = f(y) dx, for y their
    states end to end: block-diagonal in each copy's f(y), so one RK4 run
    integrates them all."""
    m, d = field.out_shape

    def matrix(y):
        f = field.apply(y.reshape(-1, m)).reshape(-1, m, d)
        k = np.arange(f.shape[0])
        out = np.zeros((k.size, m, k.size, d))
        out[k, :, k] = f
        return out.reshape(k.size * m, k.size * d)

    return matrix


def test_rough_driver_solves_match_rk4_on_the_looped_polyline():
    """On drivers whose steps carry area eps * dt that their level 1 does
    not explain, the coarse solve converges to RK4 on the fine polyline.
    The polylines of a grid share its fine times, so one RK4 run takes the
    systems side by side.  Measured max gaps at N = 32 / 64 / 128:
    eps = 0: 6.9e-7 / 8.6e-8 / 1.1e-8, order 3.00; eps = 0.05: 5.8e-6 /
    2.4e-6 / 1.1e-6, order 1.22, while the loops move the solution by
    7.15-7.21e-3, so the gap is 0.015-0.08% of that; eps = 0.2: 6.8e-5 /
    3.1e-5 / 1.4e-5, order 1.15, while the loops move the solution by
    2.85-2.87e-2, so the gap is 0.05-0.24% of that."""
    field, xi, grids = cubic_field(), np.array([0.5, -0.25]), (32, 64, 128)
    gaps = {0.0: [], 0.05: [], 0.2: []}
    for n in grids:
        fines, lifts = zip(*(looped_lift(cubic_path(n), eps) for eps in gaps))
        runs = rk4_polyline(side_by_side(field), np.tile(xi, len(gaps)), fines[0].times, np.hstack([f.values for f in fines]), 2)
        want = np.split(runs[::5], len(gaps), axis=1)
        for (eps, gap), lift, ref in zip(gaps.items(), lifts, want):
            sol = solve(RdeProblem(lift, field, xi=xi))
            assert sol.converged and sol.certificate.ok
            gap.append(np.max(np.abs(sol.positions - ref)))
            if eps:
                assert gap[-1] < 0.01 * np.max(np.abs(ref - want[0]))
    order = {eps: -np.polyfit(np.log(grids), np.log(gap), 1)[0] for eps, gap in gaps.items()}
    assert order[0.0] >= 2.5 and order[0.05] >= 0.9 and order[0.2] >= 0.9


def random_walk_system(n: int) -> tuple[SampledPath, LipFunction, np.ndarray]:
    """A random walk of 8 steps in R^3 resampled to n grid steps, a
    degree-2 field on a 2-d state (gamma = 5) and its start, from seed 0."""
    rng = np.random.default_rng(0)
    knots = np.vstack([np.zeros(3), np.cumsum(0.4 * rng.standard_normal((8, 3)), axis=0)])
    coeffs = (0.4 * rng.standard_normal((2, 3)), 0.3 * rng.standard_normal((2, 3, 2)), 0.1 * rng.standard_normal((2, 3, 2, 2)))
    field, xi = LipFunction(PolyMap(2, (2, 3), coeffs), gamma=5.0), 0.5 * rng.standard_normal(2)
    t = np.linspace(0.0, 1.0, n + 1)
    return SampledPath(t, np.stack([np.interp(t, np.linspace(0.0, 1.0, 9), k) for k in knots.T], axis=1)), field, xi


def test_rough_walk_solves_match_rk4_on_the_looped_polyline():
    """The same oracle on a (d=3, L=4) driver, a random walk of 8 steps
    resampled to N = 16 / 32 / 64 grid steps, with loops of area 0.2 dt in
    its first two coordinates and a degree-2 field on a 2-d state.
    Measured on walks and fields drawn from seeds 0, 1 and 2: max gaps
    4.6e-5 / 9.4e-6 / 2.3e-6, 1.2e-4 / 2.6e-5 / 6.2e-6 and 2.6e-4 /
    5.9e-5 / 1.4e-5, orders 2.17, 2.16 and 2.11; the loops move the
    solution by 1.3e-2 to 1.0e-1, so the gap is 0.006-0.85% of that."""
    grids, gaps = (16, 32, 64), []
    for n in grids:
        walk, field, xi = random_walk_system(n)
        (plain, _), (loops, lift) = (looped_lift(walk, eps, level=4) for eps in (0.0, 0.2))
        runs = rk4_polyline(side_by_side(field), np.tile(xi, 2), plain.times, np.hstack([plain.values, loops.values]), 2)
        want = runs[::5, :2], runs[::5, 2:]
        sol = solve(RdeProblem(lift, field, xi=xi))
        assert sol.converged and sol.certificate.ok
        gaps.append(np.max(np.abs(sol.positions - want[1])))
        assert gaps[-1] < 0.01 * np.max(np.abs(want[1] - want[0]))
    assert -np.polyfit(np.log(grids), np.log(gaps), 1)[0] >= 1.8


def test_level_two_solves_match_rk4_on_the_looped_polyline():
    """The cubic oracle at L = 2 with p = 2.5: the driver keeps the loops'
    area and drops level 3, and the solve reads one derivative level.
    Measured max gaps at N = 32 / 64 / 128 / 256 (p = 2.9 gives the same
    positions): eps = 0: 4.2e-5 / 1.0e-5 / 2.6e-6 / 6.4e-7, order 2.00;
    eps = 0.05: 1.7e-4 / 1.0e-4 / 5.9e-5 / 3.4e-5, order 0.77 on the first
    three grids and 0.80 on the last three; eps = 0.2: 9.2e-4 / 5.3e-4 /
    3.1e-4 / 2.0e-4, orders 0.79 and 0.70.  The loops move the solution by
    7.1-7.2e-3 and 2.8-2.9e-2, so the gap is 0.5-3.2% of that."""
    field, xi, grids = cubic_field(), np.array([0.5, -0.25]), (32, 64, 128)
    gaps = {0.0: [], 0.05: [], 0.2: []}
    for n in grids:
        fines, lifts = zip(*(looped_lift(cubic_path(n), eps, level=2) for eps in gaps))
        runs = rk4_polyline(side_by_side(field), np.tile(xi, len(gaps)), fines[0].times, np.hstack([f.values for f in fines]), 2)
        want = np.split(runs[::5], len(gaps), axis=1)
        for (eps, gap), lift, ref in zip(gaps.items(), lifts, want):
            sol = solve(RdeProblem(SampledRoughPath(lift.times, lift.levels, 2.5), field, xi=xi))
            assert sol.converged and sol.certificate.ok
            gap.append(np.max(np.abs(sol.positions - ref)))
            if eps:
                assert gap[-1] < 0.05 * np.max(np.abs(ref - want[0]))
    order = {eps: -np.polyfit(np.log(grids), np.log(gap), 1)[0] for eps, gap in gaps.items()}
    assert order[0.0] >= 1.8 and order[0.05] >= 0.6 and order[0.2] >= 0.6


def test_fixed_point_residual_within_budget(
    exp_solutions, cubic_solutions, area_solution
):
    sols = [exp_solutions[n] for n in (128, 256)]
    sols += [cubic_solutions[n] for n in (128, 256)]
    sols.append(area_solution)
    for sol in sols:
        assert sol.fixed_point_residual <= 10.0 * sol.problem.tol


def test_fixed_point_form_is_fixed_by_one_more_composition():
    """Level j of a composition reads only the levels below j, so L
    compositions from zero are the fixed point, one more returns it
    bitwise.  With a tiny field every change is tiny, and a stop on a small
    change would leave the upper levels at zero."""
    cubic = cubic_problem(64)
    prob = RdeProblem(cubic.driver, cubic.field.scaled(1e-14), xi=cubic.xi)
    positions = prob.driver.positions(prob.xi)
    form = fixed_point_form(prob, positions)
    assert all(np.any(level) for level in form.levels)
    for again, level in zip(compose_integrand(prob.field, positions, form).levels, form.levels):
        assert_bitwise(again, level)


def test_delta_ratios_decay_factorially(exp_solutions, cubic_solutions):
    for sol in (*exp_solutions.values(), *cubic_solutions.values()):
        ratios = sol.report.ratios
        tail = ratios[4:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert ratios[-1] < 0.1


def test_iterate_forms_uniformly_controlled(exp_solutions, cubic_solutions):
    """The raised-regularity norms of the integrand iterates plateau."""
    for sol, cap in ((exp_solutions[128], 5e3), (cubic_solutions[128], 50.0)):
        prob = sol.problem
        norms = [
            st.form.operator_norm(prob.gamma + 1.0, prob.omega)
            for st in sol.history[1:]
        ]
        assert all(math.isfinite(v) for v in norms)
        assert max(norms) <= cap
        tail = norms[-4:]
        assert max(tail) - min(tail) <= 1e-3 * max(tail)


def test_unconverged_report_when_budget_too_small():
    sol = solve(exp_problem(64, n_max=3))
    assert not sol.converged
    assert "n_max" in sol.message
    assert len(sol.report.deltas) == 3


def test_norm_cap_triggers_rescaling_hint():
    """dy = 0.7 y^2 dx blows up along this walk (the CLI test's, at seed 3):
    the distance passes the cap of 1e8 at the eighth iteration, which halts
    the solve with a hint to rescale.  The cap is no problem field."""
    rng = np.random.default_rng(3)
    x = np.concatenate([[0.0], np.cumsum(0.5 * rng.standard_normal(32))])
    driver = signature(SampledPath(np.linspace(0.0, 1.0, 33), x[:, None]), 3, p=3.0)
    square = PolyMap(1, (1, 1), (np.zeros((1, 1)), np.zeros((1, 1, 1)), np.full((1, 1, 1, 1), 0.7)))
    sol = solve(RdeProblem(driver, LipFunction(square, gamma=4.0), xi=np.array([1.0])))
    assert not sol.converged
    assert sol.message.startswith("iteration exceeded the norm cap 1e+08; consider rescaling")
    assert len(sol.report.deltas) == 8
    assert sol.report.deltas[-2] <= 1e8 < sol.report.deltas[-1]
    with pytest.raises(TypeError, match="norm_cap"):
        exp_problem(8, norm_cap=1e8)


def test_rising_distances_double_the_dilation_scale():
    """Along the cubic driver dilated by 4 the distance rises twice in a
    row, so solve doubles its dilation scale once and stops an iteration
    sooner; every reported delta is the history's distance re-weighed at
    the final scale.  Without auto_rescale the scale stays 1.0."""
    prob = cubic_problem(64)
    big = prob.with_driver(prob.driver.dilate(4.0))
    for auto, scale, iterations in ((True, 2.0, 18), (False, 1.0, 19)):
        sol = solve(big, keep_history=True, auto_rescale=auto)
        assert (sol.scale, sol.iterations, sol.converged) == (scale, iterations, True)
        want = tuple(s.delta_at_scale(sol.scale, big.gamma) for s in sol.history[1:])
        assert sol.report.deltas == want
        # without the history the superseded iterates keep their distances alone
        plain = solve(big, auto_rescale=auto)
        assert plain.history is None
        assert (plain.scale, plain.iterations, plain.message) == (sol.scale, sol.iterations, sol.message)
        assert plain.report == sol.report
        assert_bitwise(plain.positions, sol.positions)


def test_solve_peak_memory_does_not_grow_with_its_iterations():
    """Without keep_history a superseded iterate drops its positions and
    form, so 12 iterations of the cubic solve at N=128 peak no higher than
    4 do, within one iterate's arrays; kept, the 8 more iterates would add
    31 kB each."""
    peaks = []
    for n_max in (4, 12):
        problem = cubic_problem(128, tol=1e-300, n_max=n_max)
        problem.omega, problem.driver._letter_major
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sol = solve(problem)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert (sol.iterations, sol.converged) == (n_max, False)
    iterate = sol.positions.nbytes + sum(x.nbytes for x in sol.form.levels)
    assert iterate > 30_000
    assert peaks[1] <= peaks[0] + iterate


def test_vanishing_control_halts_as_diverged():
    """A zero control makes every nonzero difference quotient +inf: the
    second distance is infinite, the solve halts there, and the report and
    the certificate are still built."""
    prob = cubic_problem(32)
    prob = RdeProblem(prob.driver, prob.field, prob.xi, control=control_from_pvar(prob.driver).scaled(0.0))
    sol = solve(prob)
    assert sol.converged is False
    assert sol.message.startswith("iteration diverged: form distance is not finite")
    assert sol.iterations == 2
    first, second = sol.report.deltas
    assert 0.0 < first < np.inf and second == np.inf
    assert sol.report.fitted_C is None
    assert not sol.certificate.ok
    assert sol.certificate.level_quotients[0] == np.inf


def test_form_error_bar_positive_and_tiny(exp_solutions):
    sol = exp_solutions[128]
    assert 0.0 < sol.form_error_bar < 1e-8
    assert sol.report.deltas[-1] < 1e-9


# -- rescaling ---------------------------------------------------------------------


class DelegatedMap(SmoothMap):
    """A user map with no `scaled` of its own, so rescaling wraps it in
    `ScaledMap`."""

    def __init__(self, inner: SmoothMap):
        self.inner, self.in_dim, self.out_shape = inner, inner.in_dim, inner.out_shape

    def apply(self, Y):
        return self.inner.apply(Y)

    def derivative(self, Y, order):
        return self.inner.derivative(Y, order)


def user_map_problem(n_steps: int, **kw) -> RdeProblem:
    """The exponential fixture with its field behind `DelegatedMap`."""
    field = exp_field()
    user = LipFunction(DelegatedMap(field.map), field.gamma)
    return RdeProblem(exp_problem(n_steps).driver, user, xi=np.array([1.0]), **kw)


class DerivativeOnlyMap(SmoothMap):
    """A user map that gives its derivatives of every order from 0 and no
    `apply`: its value is its order-0 derivative."""

    def __init__(self, inner: SmoothMap):
        self.inner, self.in_dim, self.out_shape = inner, inner.in_dim, inner.out_shape

    def derivative(self, Y, order):
        return self.inner.derivative(Y, order)


def test_a_map_with_derivatives_only_solves_bitwise_like_its_inner_map():
    prob = cubic_problem(32, n_max=16)
    field = prob.field
    user = LipFunction(DerivativeOnlyMap(field.map), field.gamma)
    a = solve(prob)
    b = solve(RdeProblem(prob.driver, user, xi=prob.xi, n_max=16))
    assert a.converged and b.converged and a.report == b.report
    assert_bitwise(a.positions, b.positions)
    for x, y in zip(a.form.levels, b.form.levels):
        assert_bitwise(x, y)


RESCALE_POINTS = np.array([[-1.5], [0.0], [0.3], [2.0]])


def test_rescale_by_one_is_the_identity():
    for prob in (probe_problem(), user_map_problem(64)):
        scaled = rescale_problem(prob, 1.0)
        for a, b in zip(scaled.driver.step_level_blocks, prob.driver.step_level_blocks):
            assert_bitwise(a, b)
        for k in range(prob.field.smoothness + 1):
            assert_bitwise(
                scaled.field.derivative(RESCALE_POINTS, k),
                prob.field.derivative(RESCALE_POINTS, k),
            )


def test_rescale_by_c_trades_field_size_into_the_driver():
    """At c = 2 the field's derivatives are the base's / c and the driver's
    level k and control are the base's times c^k and c^p; powers of two
    keep all three bitwise."""
    c = 2.0
    for prob in (probe_problem(), user_map_problem(64)):
        scaled = rescale_problem(prob, c)
        for k in range(prob.field.smoothness + 1):
            assert_bitwise(
                scaled.field.derivative(RESCALE_POINTS, k),
                prob.field.derivative(RESCALE_POINTS, k) / c,
            )
        for k, (a, b) in enumerate(
            zip(scaled.driver.step_level_blocks, prob.driver.step_level_blocks), 1
        ):
            assert_bitwise(a, c**k * b)
        assert_bitwise(scaled.omega.table, c**prob.driver.p * prob.omega.table)


def test_rescaled_user_map_solves_the_same_equation():
    """`ScaledMap` carries a user map through `rescale_problem`: the solve
    along the dilated driver gives the original path, and scaling the
    wrapper again multiplies its factor."""
    prob = user_map_problem(64, n_max=16)
    c = 8.0
    scaled = rescale_problem(prob, c)
    wrapped = scaled.field.map
    assert isinstance(wrapped, ScaledMap) and wrapped.base is prob.field.map
    assert wrapped.scaled(c) == ScaledMap(c * wrapped.factor, prob.field.map)
    base, other = solve(prob), solve(scaled)
    assert base.converged and other.converged
    assert np.max(np.abs(base.positions - other.positions)) <= 1e-12


@pytest.mark.parametrize("c", [0.0, -2.0, math.inf, math.nan, 1e200, 1e120])
def test_rescale_rejects_nonpositive_target(c):
    """The driver's dilation refuses c before the field or the control is
    scaled; at L = p = 3, 1e120 cubed overflows."""
    with pytest.raises(ValueError, match=r"dilation c must be finite and positive with c\*\*p finite"):
        rescale_problem(probe_problem(), c)


def test_solution_invariant_under_rescaling(probe_solutions):
    base = probe_solutions["base"]
    other = probe_solutions["rescaled"]
    assert np.max(np.abs(base.positions - other.positions)) <= 1e-10


def test_rescaled_form_is_dilated_original(probe_solutions):
    # same functional on both sides once the argument is dilated, so the
    # level-k coefficients differ by exactly c^-k
    pushed = pushforward_dilate(probe_solutions["base"].form, probe_solutions["c"])
    for a, b in zip(pushed.levels, probe_solutions["rescaled"].form.levels):
        assert np.max(np.abs(a - b)) <= 1e-11


def test_rescaled_form_agrees_on_dilated_arguments(probe_solutions):
    base = probe_solutions["base"]
    other = probe_solutions["rescaled"]
    c = probe_solutions["c"]
    n = base.problem.driver.times.size
    rng = np.random.default_rng(3)
    for _ in range(10):
        i = int(rng.integers(0, n))
        v = series_exp_loop(level_rows(1, 3, {1: 0.3 * rng.standard_normal(1)}))
        lhs = form_value(base.form, i, v, v)
        rhs = form_value(other.form, i, dilated(v, c), dilated(v, c))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


# -- difference towers -------------------------------------------------------------


def test_tower_seed_reads_field_at_start():
    prob = tower_problem()
    report = difference_tower(prob, l_max=2, n_max=4)
    x = prob.driver.positions()[:, 0]
    span = float(np.max(x[None, :] - x[:, None]))
    assert report.eta_sup[(0, 0)] == pytest.approx(span, rel=1e-12)


def test_constant_field_tower_vanishes_above_seed():
    prob = tower_problem()
    const = RdeProblem(
        prob.driver,
        LipFunction(PolyMap.constant(np.array([[0.8]]), in_dim=1), gamma=4.0),
        xi=np.array([1.0]),
    )
    report = difference_tower(const, l_max=2, n_max=3)
    x = prob.driver.positions()[:, 0]
    span = float(np.max(x[None, :] - x[:, None]))
    assert report.eta_sup[(0, 0)] == pytest.approx(0.8 * span, rel=1e-12)
    others = [v for k, v in report.eta_sup.items() if k != (0, 0)]
    assert max(others) <= 1e-15


def test_tower_first_row_matches_iterate_differences():
    report = difference_tower(tower_problem(), l_max=2, n_max=4)
    assert report.z_cross_residual <= 1e-10


def test_tower_interval_chaining_identity():
    report = difference_tower(tower_problem(), l_max=2, n_max=4)
    assert report.chasles_residual <= 1e-9


def test_tower_envelopes_finite():
    report = difference_tower(tower_problem(), l_max=2, n_max=4)
    assert math.isfinite(report.fitted_M) and report.fitted_M >= 1.0
    assert report.eta_bound_ok
    assert report.beta_bound_ok
    assert all(math.isfinite(v) for v in report.beta_norms.values())


def test_tower_rejects_bad_level_range():
    with pytest.raises(ValueError):
        difference_tower(tower_problem(), l_max=3, n_max=2)
    with pytest.raises(ValueError):
        difference_tower(tower_problem(), l_max=-1, n_max=2)


def test_planar_tower_and_probe_run_the_cross_terms():
    # m = d = 2, so every product form pairs distinct letters and state slots
    prob = planar_problem()
    report = difference_tower(prob, l_max=2, n_max=4)
    assert report.z_cross_residual <= 1e-10
    assert report.chasles_residual <= 1e-9
    sol = solve(prob)
    assert sol.converged
    assert uniqueness_probe(prob, sol.positions, sol.positions).conclusive


@pytest.mark.parametrize(
    "make", [tower_problem, planar_problem, probe_problem], ids=lambda f: f.__name__
)
def test_tower_seeds_are_bitwise_the_permuted_divided_field(make, monkeypatch):
    """The diagonal seeds eta^{l,l} are the tower step with E the identity and
    a zero form; that product only adds exact zeros to the permuted field."""
    calls = []
    step = rde._tower_step

    def recording(hv, ht, E_values, E_form):
        out = step(hv, ht, E_values, E_form)
        calls.append((hv, ht, E_values, E_form, out))
        return out

    monkeypatch.setattr(rde, "_tower_step", recording)
    difference_tower(make(), l_max=3, n_max=3)
    seeds = [c for c in calls if not any(b.any() for b in c[3].levels)]
    assert len(seeds) == 3
    for hv, ht, E_values, E_form, (values, form) in seeds:
        m = hv.shape[1]
        assert np.array_equal(E_values, np.broadcast_to(np.eye(m), E_values.shape))
        # the divided field's form is built up to level L-1 only
        assert len(ht) == 2
        phi, levels = permuted_divided_seed(hv, ht)
        want = integral_form_from_controlled(E_form.base, phi, levels)
        assert len(form.levels) == len(want.levels) == 3
        for a, b in zip(form.levels, want.levels):
            assert_bitwise(a, b)
        assert_bitwise(values, want.integral_values())


@pytest.mark.parametrize(
    "kw",
    [
        {"tol": math.nan},
        {"tol": math.inf},
        {"tol": 0.0},
        {"n_max": -1},
    ],
    ids=repr,
)
def test_problem_refuses_stopping_rules_that_cannot_stop(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        exp_problem(8, **kw)


def test_problem_with_no_iterations_says_so():
    sol = solve(exp_problem(8, n_max=0))
    assert sol.iterations == 0 and not sol.converged
    assert sol.message == "no iterations performed (n_max=0)"


def test_tower_peak_memory_grows_about_linearly(monkeypatch):
    """The tower holds one start's rows and forms, plus the rows its identity
    checks read, so doubling N from 192 to 384 at most 2.25x its peak (1.93
    measured); one float per pair held through it reads 2.42, every start's
    row of one key 2.72.  The pair scans' transients have their own test
    and are left out: a scan's peak is dropped when it returns, while what
    the tower holds during the scan still counts."""
    scan = OneFormPath._level_quotients
    held = []

    def unpeaked(self, *args):
        held.append(tracemalloc.get_traced_memory()[1])
        try:
            return scan(self, *args)
        finally:
            tracemalloc.reset_peak()

    monkeypatch.setattr(OneFormPath, "_level_quotients", unpeaked)
    # an untraced call first, so the reading is the same alone and in a suite
    difference_tower(cubic_problem(8), 1, 1)
    peaks = []
    for n_steps in (192, 384):
        problem = cubic_problem(n_steps)
        problem.omega
        held.clear()
        tracemalloc.start()
        try:
            difference_tower(problem, 1, 1)
            peaks.append(max(held + [tracemalloc.get_traced_memory()[1]]))
        finally:
            tracemalloc.stop()
    # the rows, not a constant, carry the peak
    assert 1.5 * peaks[0] <= peaks[1] <= 2.25 * peaks[0]


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("vector", [True, False], ids=["vector", "matrix"])
def test_product_form_is_bitwise_the_two_branch_product(m, d, level, vector):
    rng = np.random.default_rng(100 * m + 10 * d + level)
    t = np.linspace(0.0, 1.0, 5)
    walk = np.vstack([np.zeros((1, d)), np.cumsum(rng.standard_normal((4, d)), axis=0)])
    base = signature(SampledPath(t, walk), level, p=float(level))

    def form(out_dim):
        blocks = (rng.standard_normal((5, out_dim, d**k)) for k in range(1, level + 1))
        return OneFormPath(base, out_dim, tuple(blocks))

    H_values, H_form = rng.standard_normal((5, m, d, m)), form(m * d * m)
    E_shape = (m,) if vector else (m, m)
    E_values, E_form = rng.standard_normal((5,) + E_shape), form(int(np.prod(E_shape)))
    phi, got = _product_form(H_values, H_form.levels[:-1], E_values, E_form)
    want_phi, want = product_form_two_branch(H_values, H_form, E_values, E_form)
    assert_bitwise(phi, want_phi)
    # level L is left out: the integral form never reads it
    assert len(got) == len(want) - 1 == level - 1
    for a, b in zip(got, want):
        assert_bitwise(a, b)


# -- uniqueness and continuity probes ----------------------------------------------


def test_identical_candidates_conclusive(probe_solutions):
    prob = probe_solutions["problem"]
    pos = probe_solutions["base"].positions
    report = uniqueness_probe(prob, pos, pos)
    assert report.sup_distance == 0.0
    assert report.conclusive
    assert all(b == 0.0 for b in report.implied_bounds)


def test_independent_scalings_declared_equal(probe_solutions):
    report = uniqueness_probe(
        probe_solutions["problem"],
        probe_solutions["base"].positions,
        probe_solutions["rescaled"].positions,
    )
    assert report.conclusive
    assert report.implied_bounds[-1] < 1e-10
    sups = report.operator_sups
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 1e-11
    # contraction sharpens every round, the mark of factorial decay
    rate = [b / a for a, b in zip(sups, sups[1:])]
    assert all(a > b for a, b in zip(rate, rate[1:]))


def test_probe_operator_sups_are_the_svd_norms(monkeypatch):
    """At m = 2 the probe's operator norms come from the Gram eigensolver;
    they agree with np.linalg.norm(ord=2), an SVD, to a few ulps."""
    prob = planar_problem()
    a, b = solve(prob), solve(rescale_problem(prob, 18.52207462688132))
    got = uniqueness_probe(prob, a.positions, b.positions)
    monkeypatch.setattr(rde, "batched_spectral_norms", lambda m: np.linalg.norm(m, ord=2, axis=(-2, -1)))
    want = uniqueness_probe(prob, a.positions, b.positions)
    assert got.conclusive == want.conclusive
    assert got.sup_distance == want.sup_distance
    np.testing.assert_allclose(got.operator_sups, want.operator_sups, rtol=1e-14, atol=0.0)


def test_probe_refuses_wrong_start(probe_solutions):
    prob = probe_solutions["problem"]
    pos = probe_solutions["base"].positions
    with pytest.raises(ValueError, match="initial condition"):
        uniqueness_probe(prob, pos, pos + 0.05)


def test_probe_refuses_non_solution(probe_solutions):
    prob = probe_solutions["problem"]
    pos = probe_solutions["base"].positions.copy()
    pos[100] += 0.05
    with pytest.raises(ValueError, match="not a solution"):
        uniqueness_probe(prob, probe_solutions["base"].positions, pos)


def test_driver_distance_zero_for_identical():
    driver = probe_problem().driver
    assert driver_distance(driver, driver) == 0.0


def test_driver_distance_linear_in_perturbation():
    driver = probe_problem().driver
    d2 = driver_distance(driver, perturbed_probe_driver(1e-2))
    d3 = driver_distance(driver, perturbed_probe_driver(1e-3))
    assert 9.5 <= d2 / d3 <= 10.5


def test_driver_distance_is_bitwise_the_whole_gather(monkeypatch):
    # the per-level distances are summed a rectangle of pairs at a time
    driver = probe_problem().driver
    for delta in (1e-1, 1e-2, 1e-3):
        other = perturbed_probe_driver(delta)
        want = driver_distance_whole_gather(driver, other)
        for build_pairs in (97, roughkit.path._BUILD_PAIRS):
            monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", build_pairs)
            assert driver_distance(driver, other) == want > 0.0


def test_driver_distance_builds_no_pair_store():
    """Each rectangle's levels 1..L are its own product, so the gauge reads
    neither path's `pairwise_levels`."""
    a, b = probe_problem().driver, perturbed_probe_driver(1e-2)
    assert driver_distance(a, b) > 0.0
    assert "pairwise_levels" not in a.__dict__ and "pairwise_levels" not in b.__dict__


def test_every_all_pairs_walk_reads_the_row_blocks(monkeypatch):
    """The level scan, the controlled residuals and the driver gauge's
    table of powers, `_powered_gauge`, take their pairs from the rectangles
    of `SampledRoughPath._row_blocks`, so rectangles of 97 entries there
    split each of their walks over the 300 pairs of the tower fixture into
    five, where 4,096 entries make one.  A walk's frame is the first named
    one that resumes the reader; the memory guard reads the rectangles to
    size its pool.  The tower walks starts, not pairs; its iterates' norms
    are level scans."""
    reader = SampledRoughPath._row_blocks
    walkers = Counter()

    def counting(self, *args, **kwargs):
        for block in reader(self, *args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            walkers[frame.f_code.co_name] += 1
            yield block

    monkeypatch.setattr(SampledRoughPath, "_row_blocks", counting)
    problem = tower_problem()
    g, omega, gamma = problem.driver, problem.omega, problem.gamma
    beta = OneFormPath.constant_linear(g, np.eye(1))
    phi = problem.field.apply(g.positions(problem.xi)).reshape(-1, 1, 1)
    counts = []
    for size in (roughkit.path._BUILD_PAIRS, 97):
        monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", size)
        walkers.clear()
        beta.operator_norm(gamma, omega)
        integrate_controlled(phi, beta, gamma, omega)
        driver_distance(g, g.dilate(1.5))
        difference_tower(problem, 0, 1)
        counts.append(dict(walkers))
    names = {"_level_quotients", "integrate_controlled", "_powered_gauge", "_pair_pool"}
    assert set(counts[0]) == set(counts[1]) == names
    for name in names:
        assert counts[1][name] == 5 * counts[0][name] > 0


def test_driver_distance_over_physical_memory_is_refused(monkeypatch):
    """The gauge's table and the pool of its largest rectangle for each path,
    levels 0..L and a product term an entry, are counted before the table
    is allocated; over physical memory the gauge raises the control's
    ValueError rather than running out of memory.  What it counts is most
    of what it holds: with the paths' point caches taken first it peaks
    within 1.5 times the estimate, its rectangles' temporaries included
    (1.27 at N=200); a second table for the powers would add 0.5."""
    a, b = probe_problem().driver, perturbed_probe_driver(1e-2)
    n, widths = a.times.size, [a.dim**k for k in range(a.level + 1)]
    entries = max((s1 - s0) * (a.num_steps - s0) for s0, s1 in a._row_blocks())
    need = (n * n + 2 * entries * (sum(widths) + widths[-1])) * 8
    assert entries == 4096 and need == 650_888
    monkeypatch.setattr(roughkit.path, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"needs about {need:,} bytes, more than the {need - 1:,} bytes of physical memory"):
        driver_distance(a, b)
    monkeypatch.setattr(roughkit.path, "_physical_memory_bytes", lambda: need)
    a._letter_major, b._letter_major
    tracemalloc.start()
    try:
        got = driver_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == driver_distance_whole_gather(a, b) > 0.0
    assert peak <= 1.5 * need


def test_driver_distance_rejects_mismatched_grids():
    driver = probe_problem().driver
    t = np.linspace(0.0, 1.0, 33)
    other = signature(SampledPath(t, t[:, None]), 3, p=3.0)
    with pytest.raises(ValueError):
        driver_distance(driver, other)


def test_continuity_response_scales_linearly(continuity_report):
    rows = continuity_report.rows
    assert rows[0][0] == 0.0 and rows[0][1] <= 1e-12
    dists = [r[0] for r in rows[1:]]
    disps = [r[1] for r in rows[1:]]
    assert all(a < b for a, b in zip(dists, dists[1:]))
    assert all(a < b for a, b in zip(disps, disps[1:]))
    assert continuity_report.monotone
    assert 0.9 <= continuity_report.fitted_order <= 1.1


def chen_looped_driver(path: SampledPath, eps: float, loops: int, level: int = 3) -> SampledRoughPath:
    """`looped_lift`'s coarse path with `loops` square loops, a power of two,
    each of area eps * dt / loops, at the end of every step.  By Chen's
    identity step i is exp(dx_i) times the loops' signature, the unit
    square loop's power dilated by sqrt(eps * dt_i / loops), so no fine
    polyline is lifted and many loops cost no more than one."""
    square = np.zeros((5, path.dim))
    square[1:4, :2] = [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    power = tuple(x[-1:] for x in signature(SampledPath(np.arange(5.0), square), level).levels)
    for _ in range(loops.bit_length() - 1):
        power = stack_product(power, power)
    side = np.sqrt(eps * np.diff(path.times) / loops)[:, None]
    lie = [np.zeros((path.num_steps, path.dim**k)) for k in range(level + 1)]
    lie[1] = path.increments()
    steps = stack_product(stack_exp(tuple(lie)), dilated(power, side))
    points = [tuple(np.zeros((1, path.dim**k)) for k in range(level + 1))]
    points[0][0][0, 0] = 1.0
    for i in range(path.num_steps):
        points.append(stack_product(points[-1], tuple(x[i : i + 1] for x in steps)))
    return SampledRoughPath(path.times, tuple(np.concatenate(x) for x in zip(*points)), float(level))


def test_level_three_only_perturbations_move_the_solution_in_proportion():
    """Drivers with K = 1, 4, 16 loops per step against K = 256 agree at
    levels 1 and 2 and differ at level 3 by 1.05e-2 / 4.9e-3 / 2.1e-3, so
    only the level the paper's rough paths add is perturbed.  The solution
    moves by 0.0212 times `driver_distance` at every K, fitted order 1.0004
    (measured 0.0205-0.0215 and 1.0000-1.0006 at N = 32, 64, 128 with
    eps = 0.2 and at N = 64 with eps = 0.05).  At K = 1 the driver is
    `looped_lift`'s, up to rounding."""
    path, eps = cubic_path(64), 0.2
    drivers = {k: chen_looped_driver(path, eps, k) for k in (1, 4, 16, 256)}
    for a, b in zip(drivers[1].levels, looped_lift(path, eps)[1].levels, strict=True):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15)
    ref = drivers.pop(256)
    for g in drivers.values():
        assert all(np.array_equal(a, b) for a, b in zip(g.levels[:3], ref.levels[:3]))
    report = continuity_probe(RdeProblem(ref, cubic_field(), xi=np.array([0.5, -0.25])), list(drivers.values()))
    ratios = [disp / dist for dist, disp in report.rows]
    assert all(disp > 0.0 for _, disp in report.rows)
    assert 0.018 <= min(ratios) and max(ratios) <= 0.025 and max(ratios) <= 1.01 * min(ratios)
    assert report.monotone and 0.95 <= report.fitted_order <= 1.05


def area_perturbed(g: SampledRoughPath, eps: float) -> SampledRoughPath:
    """g_t (x) exp(eps t [e1, e2]): level 1 is g's, and each increment
    g_{s,t} gains eps (t - s) of area, conjugated by exp(eps s [e1, e2])."""
    lie = [np.zeros((g.times.size, g.dim**k)) for k in range(g.level + 1)]
    bracket = np.zeros((g.dim, g.dim))
    bracket[0, 1], bracket[1, 0] = 1.0, -1.0
    lie[2] = eps * g.times[:, None] * bracket.reshape(1, -1)
    return SampledRoughPath(g.times, stack_product(g.levels, stack_exp(tuple(lie))), g.p)


@pytest.mark.parametrize(
    "family, band, spread",
    [(area_perturbed, (0.06, 0.075), 1.02), (lambda g, eps: g.dilate(1.0 + eps), (0.24, 0.28), 1.05)],
    ids=["area", "dilation"],
)
def test_area_and_dilation_perturbations_move_the_solution_in_proportion(family, band, spread):
    """On the cubic driver at N = 64, eps = 1e-1, 1e-2, 1e-3.  The area
    family leaves level 1 alone; the solution moves by 0.0670-0.0675 times
    `driver_distance`, fitted order 0.998.  Dilation by 1 + eps: 0.2527-
    0.2600, order 0.994.  Measured at N = 32, 64, 128 and over eps from
    1e-1 to 1e-4: area 0.0668-0.0679, orders 0.998-1.000; dilation
    0.2523-0.2601, orders 0.994-0.999."""
    problem = cubic_problem(64)
    drivers = [family(problem.driver, eps) for eps in (1e-1, 1e-2, 1e-3)]
    if family is area_perturbed:
        assert all(np.array_equal(g.levels[1], problem.driver.levels[1]) for g in drivers)
    report = continuity_probe(problem, drivers)
    ratios = [disp / dist for dist, disp in report.rows]
    assert all(disp > 0.0 for _, disp in report.rows)
    assert band[0] <= min(ratios) and max(ratios) <= band[1] and max(ratios) <= spread * min(ratios)
    assert report.monotone and 0.95 <= report.fitted_order <= 1.05


@pytest.mark.parametrize(
    "family, band, spread",
    [
        ("area", (0.028, 0.036), 1.04),
        ("dilation", (0.032, 0.044), 1.12),
        ("level3", (0.033, 0.042), 1.02),
    ],
    ids=["area", "dilation", "level3"],
)
def test_continuity_families_on_the_rough_walk(family, band, spread):
    """The three families on a (d=3, L=4) driver: `random_walk_system(16)`
    with 256 loops of total area 0.2 dt per step, by Chen's identity.
    Area: eps = 1e-1, 1e-2, 1e-3, level 1 bitwise the base's.  Dilation
    by 1 + eps, same eps.  Level 3: K = 1, 4, 16 loops against 256, levels
    1 and 2 bitwise the base's (levels 3 and 4 differ).  Measured
    displacement / `driver_distance` at N = 16 / 32 / 64: area 0.0317-
    0.0326, orders 0.995; dilation 0.0362-0.0396, 0.982; level 3 0.0371-
    0.0384, 0.995-0.998.  Spreads across eps or K: up to 2.4%, 9.0% and
    0.8%.  Walks and fields from seeds 1 and 2 gave ratios 0.047-0.095,
    0.083-0.093 and 0.073-0.087, orders 0.983-1.025."""
    walk, field, xi = random_walk_system(16)
    base = chen_looped_driver(walk, 0.2, 256, level=4)
    if family == "level3":
        drivers = [chen_looped_driver(walk, 0.2, k, level=4) for k in (1, 4, 16)]
    else:
        perturb = area_perturbed if family == "area" else lambda g, eps: g.dilate(1.0 + eps)
        drivers = [perturb(base, eps) for eps in (1e-1, 1e-2, 1e-3)]
    kept = {"area": 2, "dilation": 1, "level3": 3}[family]
    assert all(np.array_equal(a, b) for g in drivers for a, b in zip(g.levels[:kept], base.levels[:kept]))
    report = continuity_probe(RdeProblem(base, field, xi=xi), drivers)
    ratios = [disp / dist for dist, disp in report.rows]
    assert all(disp > 0.0 for _, disp in report.rows)
    assert band[0] <= min(ratios) and max(ratios) <= band[1] and max(ratios) <= spread * min(ratios)
    assert report.monotone and 0.95 <= report.fitted_order <= 1.05


def test_time_change_leaves_solution_unchanged(probe_solutions):
    """Same sample points on a warped clock: nothing downstream sees times."""
    t = np.linspace(0.0, 1.0, 201)
    x = 0.3 * t + 0.1 * np.sin(2.0 * np.pi * t)
    warped = (np.exp(1.4 * t) - 1.0) / (np.exp(1.4) - 1.0)
    sol_b = solve(
        RdeProblem(
            signature(SampledPath(warped, x[:, None]), 3, p=3.0),
            exp_field(),
            xi=np.array([1.0]),
            n_max=16,
        )
    )
    base = probe_solutions["base"]
    assert np.max(np.abs(base.positions - sol_b.positions)) <= 1e-10
