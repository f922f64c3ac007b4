import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import roughkit.path
from roughkit.funcs import LipFunction, PolyMap
from roughkit.integrate import RegularityError, integrate_controlled, rough_integral
from roughkit.path import Control, SampledPath, SampledRoughPath, signature
from roughkit import rde
from roughkit.oneform import OneFormPath, integral_form_from_controlled
from roughkit.rde import (
    RdeProblem,
    _product_form,
    difference_tower,
    driver_distance,
    fit_decay,
    initial_state,
    picard_step,
    rescale_problem,
    solve,
    uniqueness_probe,
)
from roughkit.tensor import DimensionMismatchError, tensor_exp

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
    level_tensor,
    linear_vector_field,
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
)


def zero_field(dim: int = 1) -> LipFunction:
    return LipFunction(
        PolyMap.constant(np.zeros((dim, dim)), in_dim=dim), gamma=4.0, radius=4.0
    )


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
    field = LipFunction(PolyMap(2, (2, 2), coeffs), gamma=4.0, radius=4.0)
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
    field = LipFunction(PolyMap.constant(A, in_dim=2), gamma=3.0, radius=4.0)
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
    with pytest.raises(RegularityError):
        RdeProblem(
            driver,
            LipFunction(
                linear_vector_field([np.eye(1)]), gamma=1.8, radius=4.0
            ),
            xi=np.array([1.0]),
        )
    with pytest.warns(UserWarning, match="band"):
        RdeProblem(
            driver,
            LipFunction(
                linear_vector_field([np.eye(1)]), gamma=2.5, radius=4.0
            ),
            xi=np.array([1.0]),
        )


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


def test_fixed_point_residual_within_budget(
    exp_solutions, cubic_solutions, area_solution
):
    sols = [exp_solutions[n] for n in (128, 256)]
    sols += [cubic_solutions[n] for n in (128, 256)]
    sols.append(area_solution)
    for sol in sols:
        assert sol.fixed_point_residual <= 10.0 * sol.problem.tol


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
    sol = solve(exp_problem(64, n_max=10, norm_cap=1e-12))
    assert not sol.converged
    assert "rescal" in sol.message
    assert len(sol.report.deltas) >= 1


def test_form_error_bar_positive_and_tiny(exp_solutions):
    sol = exp_solutions[128]
    assert 0.0 < sol.form_error_bar < 1e-8
    assert sol.report.deltas[-1] < 1e-9


# -- rescaling ---------------------------------------------------------------------


def test_rescale_identity_at_matching_target():
    prob = probe_problem()
    scaled, c = rescale_problem(prob, prob.field.lip_norm_bound)
    assert c == 1.0
    assert scaled.field.lip_norm_bound == prob.field.lip_norm_bound
    for a, b in zip(scaled.driver.step_level_blocks, prob.driver.step_level_blocks):
        assert np.array_equal(a, b)


def test_rescale_sets_field_bound_to_target():
    prob = probe_problem()
    scaled, c = rescale_problem(prob, 0.5)
    assert scaled.field.lip_norm_bound == pytest.approx(0.5, rel=1e-12)
    assert c == pytest.approx(prob.field.lip_norm_bound / 0.5, rel=1e-12)


def test_rescale_rejects_nonpositive_target():
    prob = probe_problem()
    with pytest.raises(ValueError):
        rescale_problem(prob, 0.0)
    with pytest.raises(ValueError):
        rescale_problem(prob, -2.0)


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
        v = tensor_exp(level_tensor(1, 3, {1: 0.3 * rng.standard_normal(1)}))
        lhs = form_value(base.form, i, v, v)
        rhs = form_value(other.form, i, v.dilate(c), v.dilate(c))
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
        LipFunction(PolyMap.constant(np.array([[0.8]]), in_dim=1), gamma=4.0,
                    radius=4.0),
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

    def recording(hv, ht, E_values, E_form, start=0):
        out = step(hv, ht, E_values, E_form, start)
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


def test_tower_peak_memory_grows_about_linearly():
    """The tower holds one start's rows and forms, plus the rows its identity
    checks read, so doubling N from 32 to 64 at most 2.5x its peak; tables
    over all pairs would about quadruple it."""
    peaks = []
    for n_steps in (32, 64):
        problem = cubic_problem(n_steps)
        problem.omega
        tracemalloc.start()
        try:
            difference_tower(problem, 2, 4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.5 * peaks[0]


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
    # the per-level distances are summed a run of pairs at a time
    driver = probe_problem().driver
    for delta in (1e-1, 1e-2, 1e-3):
        other = perturbed_probe_driver(delta)
        want = driver_distance_whole_gather(driver, other)
        for build_pairs in (97, roughkit.path._BUILD_PAIRS):
            monkeypatch.setattr(roughkit.path, "_BUILD_PAIRS", build_pairs)
            assert driver_distance(driver, other) == want > 0.0


def test_every_all_pairs_walk_reads_the_pair_runs(monkeypatch):
    """The level scan, the controlled residuals and the driver gauge take
    their pairs from `SampledRoughPath.pair_runs`, so runs of 97 pairs there
    split each of their walks over the 300 pairs of the tower fixture into
    four runs.  The tower walks starts, not pair runs; its iterates' norms
    are level scans."""
    reader = SampledRoughPath.pair_runs
    walkers = Counter()

    def counting(self, top=False):
        for run in reader(self, top):
            # the frame that resumed the reader is the walk reading it
            walkers[sys._getframe(1).f_code.co_name] += 1
            yield run

    monkeypatch.setattr(SampledRoughPath, "pair_runs", counting)
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
    names = {"_level_quotients", "integrate_controlled", "driver_distance"}
    assert set(counts[0]) == set(counts[1]) == names
    for name in names:
        assert counts[1][name] == 4 * counts[0][name] > 0


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
