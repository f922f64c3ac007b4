"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single verdict line (run with ``-s`` to see them) and
then asserts it, so a red run names the guarantee that broke instead of a
bare test id.  Tolerances here are the published ones; the unit suites pin
tighter, fixture-specific values.
"""

import json
import math
import subprocess
import sys

import numpy as np

from roughkit.funcs import LipFunction, PolyMap
from roughkit.integrate import rough_integral, young_integral
from roughkit.oneform import OneFormPath, closed_lift_form
from roughkit.path import SampledPath, signature
from roughkit.rde import fit_decay, uniqueness_probe

from conftest import (
    AREA_A1,
    AREA_A2,
    AREA_VALUE,
    AREA_XI,
    cli_env,
    cubic_field,
    cubic_path,
    reversed_path,
)
from oracles import lift_pair_value, polygon_loop_endpoint, rebracket_product_rhs, rk4_polyline


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{num:02d}] {'PASS' if ok else 'FAIL'} {label} ({detail})"
    print(line)
    assert ok, line


def random_polyline(rng, n_pts=6, dim=3) -> SampledPath:
    # cumulative gaps keep the clock strictly increasing
    t = np.cumsum(rng.uniform(0.1, 1.0, n_pts))
    t = (t - t[0]) / (t[-1] - t[0])
    return SampledPath(t, 0.6 * rng.standard_normal((n_pts, dim)))


def lls_blocks(g) -> dict:
    """Last-letter split: level k+1 as a (d**k, d) matrix, k = 1..L-1."""
    return {k: g.level_block(k + 1).reshape(g.dim**k, g.dim) for k in range(1, g.level)}


# -- algebra of lifts ---------------------------------------------------------------


def test_01_concatenation_signature_is_group_product():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        a, b = random_polyline(rng), random_polyline(rng)
        ga = signature(a, 4).points[-1]
        gb = signature(b, 4).points[-1]
        gc = signature(a.concatenated(b), 4).points[-1]
        prod = ga @ gb
        for k in range(1, 5):
            err = np.max(np.abs(gc.level_block(k) - prod.level_block(k)))
            worst = max(worst, float(err))
    verdict(
        1,
        "concatenation signature equals group product",
        worst <= 1e-12,
        f"100 pairs, d=3, level 4, max block error {worst:.2e} <= 1e-12",
    )


def test_02_signature_blocks_obey_factorial_bound():
    rng = np.random.default_rng(202)
    worst = 0.0
    violations = 0
    for _ in range(20):
        path = random_polyline(rng, n_pts=7)
        g = signature(path, 6).points[-1]
        length = path.length()
        for k in range(1, 7):
            ratio = (
                float(np.linalg.norm(g.level_block(k)))
                * math.factorial(k)
                / length**k
            )
            worst = max(worst, ratio)
            violations += ratio > 1.0 + 1e-12
    verdict(
        2,
        "signature blocks stay below length^k / k!",
        violations == 0,
        f"20 polylines, k <= 6, worst ratio {worst:.3f}, {violations} violations",
    )


def test_03_last_letter_split_rebrackets_products():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        a = signature(random_polyline(rng), 4).points[-1]
        b = signature(random_polyline(rng), 4).points[-1]
        lhs = lls_blocks(a @ b)
        rhs = rebracket_product_rhs(
            [a.level_block(k) for k in range(5)],
            lls_blocks(a),
            lls_blocks(b),
            b.level_block(1),
        )
        for k in lhs:
            worst = max(worst, float(np.max(np.abs(lhs[k] - rhs[k]))))
    verdict(
        3,
        "last-letter split of a product rebrackets through the factors",
        worst <= 1e-10,
        f"100 signature pairs, max error {worst:.2e} <= 1e-10",
    )


def test_04_closed_lift_is_cocyclic_and_exact():
    # a full-rank quadratic form on R^2, lifted at level 3
    coeffs = [
        np.array([[0.0, 1.0]]),
        np.array([[[0.3, -0.2], [0.5, 0.1]]]),
        np.array([[[[0.4, 0.0], [0.0, -0.3]], [[0.2, 0.6], [0.0, 0.1]]]]),
    ]
    form = PolyMap(2, (1, 2), coeffs)
    start = np.array([0.2, -0.1])
    rng = np.random.default_rng(404)
    coc = 0.0
    for _ in range(50):
        a = signature(random_polyline(rng, dim=2), 3).points[-1]
        b = signature(random_polyline(rng, dim=2), 3).points[-1]
        c = signature(random_polyline(rng, dim=2), 3).points[-1]
        res = (
            lift_pair_value(form, start, a.levels, b.levels)
            + lift_pair_value(form, start, (a @ b).levels, c.levels)
            - lift_pair_value(form, start, a.levels, (b @ c).levels)
        )
        coc = max(coc, float(np.max(np.abs(res))))

    out = random_polyline(rng, n_pts=9, dim=2)
    loop = signature(out.concatenated(reversed_path(out)), 3)
    loop_lift = closed_lift_form(form, loop, out.values[0])
    loop_err = float(np.max(np.abs(loop_lift.integral_values()[-1])))

    xdx = PolyMap(1, (1, 1), [np.zeros((1, 1)), np.array([[[1.0]]])])
    seg = SampledPath(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0], [3.0]]))
    total = closed_lift_form(xdx, signature(seg, 2), seg.values[0]).integral_values()[-1][0]
    exact_err = abs(total - 4.5)

    ok = coc <= 1e-10 and loop_err <= 1e-10 and exact_err <= 1e-12
    verdict(
        4,
        "closed lift is cocyclic, kills loops, integrates x dx exactly",
        ok,
        f"cocycle {coc:.2e} <= 1e-10, loop {loop_err:.2e} <= 1e-10, "
        f"x dx error {exact_err:.2e} <= 1e-12",
    )


# -- integration --------------------------------------------------------------------


def test_05_young_and_rough_integrals_agree():
    t = np.linspace(0.0, 1.0, 1025)
    s = t + np.sin(2.0 * np.pi * t) / (2.0 * np.pi)
    tau = np.cos(2.0 * np.pi * t)
    sigma = SampledPath(t, s[:, None])
    yi = young_integral(tau[:, None, None], sigma, q=1.8, p=1.8)
    ri = rough_integral(OneFormPath(signature(sigma, 1, p=1.8), 1, (tau[:, None, None].copy(),)))
    gap = abs(yi.total[0] - ri.total[0])

    s2 = 0.3 + t + 0.2 * np.sin(2.0 * np.pi * t)
    res = young_integral(s2[:, None, None], SampledPath(t, s2[:, None]), q=1.8, p=1.8)
    closed = abs(res.total[0] - 0.5 * (s2[-1] ** 2 - s2[0] ** 2))

    ok = gap <= 1e-8 and closed <= 1e-10
    verdict(
        5,
        "Young and rough routes agree below p=2",
        ok,
        f"route gap {gap:.2e} <= 1e-8, closed-form error {closed:.2e} <= 1e-10",
    )


def test_06_solution_forms_carry_finite_raised_norms(
    exp_solutions, cubic_solutions, area_solution
):
    consts = {}
    for name, sol in (
        ("exp", exp_solutions[128]),
        ("cubic", cubic_solutions[128]),
        ("area", area_solution),
    ):
        prob = sol.problem
        consts[name] = sol.form.operator_norm(prob.gamma + 1.0, prob.omega)
    ok = all(np.isfinite(v) for v in consts.values())
    verdict(
        6,
        "solution one-forms are bounded at exponent gamma+1",
        ok,
        ", ".join(f"{k}: {v:.4g}" for k, v in consts.items()),
    )


# -- solver accuracy ----------------------------------------------------------------


def test_07_smooth_fixtures_match_independent_integrators(
    exp_solutions, cubic_solutions
):
    want = math.exp(0.4)
    exp_rel = abs(exp_solutions[256].positions[-1, 0] - want) / want

    path = cubic_path(256)
    field = cubic_field()
    oracle = rk4_polyline(
        lambda y: field.apply(y[None, :]).reshape(2, 2),
        cubic_solutions[256].problem.xi,
        path.times,
        path.values,
        substeps=32,
    )
    diff = np.linalg.norm(cubic_solutions[256].positions - oracle, axis=1)
    cubic_rel = float(np.max(diff) / np.max(np.linalg.norm(oracle, axis=1)))

    ok = exp_rel <= 1e-8 and cubic_rel <= 1e-6
    verdict(
        7,
        "solver matches closed form and Runge-Kutta on smooth drivers",
        ok,
        f"exp endpoint rel {exp_rel:.2e} <= 1e-8, cubic sup rel {cubic_rel:.2e} <= 1e-6",
    )


def test_08_pure_area_drive_matches_shrinking_loops(area_solution):
    oracle = polygon_loop_endpoint(AREA_A1, AREA_A2, AREA_VALUE, 8000, AREA_XI)
    rel = float(
        np.linalg.norm(area_solution.positions[-1] - oracle) / np.linalg.norm(oracle)
    )
    verdict(
        8,
        "pure-area solution is the limit of shrinking physical loops",
        rel <= 1e-3,
        f"endpoint rel {rel:.2e} <= 1e-3 against 8000-loop polygon drive",
    )


def test_09_iteration_deltas_decay_factorially(exp_solutions, cubic_solutions):
    details = []
    ok = True
    for name, sols in (("exp", exp_solutions), ("cubic", cubic_solutions)):
        cs = {}
        for n, sol in sols.items():
            deltas = list(sol.report.deltas[:12])
            ok = ok and len(deltas) == 12 and deltas[-1] <= 1e-8
            ratios = [b / a for a, b in zip(deltas, deltas[1:])]
            ok = ok and all(a > b for a, b in zip(ratios[4:], ratios[5:]))
            cs[n] = fit_decay(deltas, sol.problem.driver.p).fitted_C
            ok = ok and np.isfinite(cs[n])
        spread = abs(cs[128] - cs[256]) / cs[256]
        ok = ok and spread <= 0.2
        details.append(f"{name}: C {cs[128]:.4g}/{cs[256]:.4g}, drift {spread:.1%}")
    verdict(
        9,
        "Picard deltas decay with stable fitted constants",
        ok,
        "; ".join(details) + "; final deltas <= 1e-8",
    )


# -- well-posedness -----------------------------------------------------------------


def test_10_rescaled_solve_agrees_and_uniqueness_certifies(probe_solutions):
    base = probe_solutions["base"]
    sup = float(
        np.max(np.abs(base.positions - probe_solutions["rescaled"].positions))
    )
    report = uniqueness_probe(
        probe_solutions["problem"], base.positions, probe_solutions["rescaled"].positions
    )
    bounds = list(report.implied_bounds[:10])
    ok = sup <= 1e-8 and report.conclusive and bounds[-1] < 1e-10
    verdict(
        10,
        "rescaled solve agrees and the uniqueness probe certifies it",
        ok,
        f"sup gap {sup:.2e} <= 1e-8, implied bound {bounds[-1]:.2e} < 1e-10 "
        f"after {len(bounds)} rounds",
    )


def test_11_solution_responds_linearly_to_the_driver(continuity_report):
    rows = continuity_report.rows
    dists = [r[0] for r in rows[1:]]
    disps = [r[1] for r in rows[1:]]
    ok = (
        all(a < b for a, b in zip(dists, dists[1:]))
        and all(a < b for a, b in zip(disps, disps[1:]))
        and continuity_report.monotone
        and continuity_report.fitted_order >= 0.9
    )
    verdict(
        11,
        "solution distance shrinks with driver distance at linear order",
        ok,
        f"3 perturbation sizes, fitted order {continuity_report.fitted_order:.3f} >= 0.9",
    )


# -- command line -------------------------------------------------------------------


def _write_csv(path, values) -> None:
    dim = values.shape[1] - 1
    header = "t," + ",".join(f"x{i + 1}" for i in range(dim))
    rows = [",".join(repr(float(v)) for v in row) for row in values]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def _run(args, cwd, blas_threads=None):
    proc = subprocess.run(
        [sys.executable, "-m", "roughkit.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=cli_env(blas_threads),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_12_cli_outputs_are_deterministic(tmp_path):
    t = np.linspace(0.0, 1.0, 101)
    spiral = np.stack([t, t * np.cos(4.0 * np.pi * t), t * np.sin(4.0 * np.pi * t)], axis=1)
    _write_csv(tmp_path / "spiral.csv", spiral)

    tt = np.linspace(0.0, 1.0, 65)
    drive = np.stack([tt, 0.4 * tt + 0.16 * np.sin(2.0 * np.pi * tt)], axis=1)
    _write_csv(tmp_path / "drive.csv", drive)

    grad = {
        "type": "poly",
        "in_dim": 2,
        "out_shape": [1, 2],
        "degree": 2,
        "coeffs": [
            [[0.0, 0.0]],
            [[[0.0, 0.0], [0.0, 1.0]]],
            [[[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
        ],
    }
    (tmp_path / "grad.json").write_text(json.dumps(grad))
    field = {
        "type": "poly",
        "in_dim": 1,
        "out_shape": [1, 1],
        "degree": 1,
        "coeffs": [[[0.0]], [[[1.0]]]],
    }
    (tmp_path / "field.json").write_text(json.dumps(field))

    commands = [
        ["signature", "spiral.csv", "--level", "3"],
        ["integrate", "spiral.csv", "--form", "grad.json", "--gamma", "2.5"],
        [
            "solve", "drive.csv", "--field", "field.json", "--xi", "1.0",
            "--gamma", "4", "--radius", "4", "--report", "report.json",
            "--out-csv", "solution.csv", "--decay-csv", "decay.csv",
        ],
    ]
    artifacts = ("report.json", "solution.csv", "decay.csv")

    snapshots = []
    for blas_threads in (None, None, 2):
        snap = []
        for args in commands:
            snap.append(_run(args, tmp_path, blas_threads))
        snap.extend((tmp_path / name).read_bytes() for name in artifacts)
        snapshots.append(snap)

    ok = snapshots[0] == snapshots[1] == snapshots[2]
    verdict(
        12,
        "CLI output is byte-identical across reruns and thread counts",
        ok,
        f"{len(commands)} commands x 3 runs (the last with 2 BLAS threads), "
        f"{len(artifacts)} solver artifacts compared",
    )
