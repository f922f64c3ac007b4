import dataclasses
import json
import math
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import roughkit.cli as cli
import roughkit.path
from roughkit.integrate import RegularityError
from roughkit.path import SampledPath, read_path_csv, signature
from roughkit.rde import RdeProblem, solve

from conftest import (
    AREA_A1,
    AREA_A2,
    AREA_VALUE,
    AREA_XI,
    cli_env,
    cubic_field,
    cubic_path,
    exp_field,
)
from oracles import polygon_loop_endpoint


def run_cli(*args, blas_threads=None):
    return subprocess.run(
        [sys.executable, "-m", "roughkit.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=cli_env(blas_threads),
    )


def write_csv(path, times, values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(values.shape[1])) + "\n")
        for t, row in zip(times, values):
            fh.write(",".join(repr(float(v)) for v in (t, *row)) + "\n")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def exp_csv(dirpath, n_steps=256):
    t = np.linspace(0.0, 1.0, n_steps + 1)
    x = 0.4 * t + 0.16 * np.sin(2.0 * np.pi * t)
    out = dirpath / f"exp{n_steps}.csv"
    write_csv(out, t, x[:, None])
    return out


def scalar_linear_field_json(dirpath):
    out = dirpath / "field.json"
    write_json(
        out,
        {
            "type": "poly",
            "in_dim": 1,
            "out_shape": [1, 1],
            "degree": 1,
            "coeffs": [[[0.0]], [[[1.0]]]],
        },
    )
    return out


GRAD_FORM = {
    # gradient of x1^2 x2 + x2^2 / 2
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


# -- signature ---------------------------------------------------------------------


def test_signature_segment_blocks(tmp_path):
    csv = tmp_path / "seg.csv"
    write_csv(csv, [0.0, 1.0], np.array([[0.0, 0.0], [1.0, 0.0]]))
    res = run_cli("signature", csv, "--level", 2)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["schema"] == "roughkit/1"
    assert rep["levels"]["1"] == [1.0, 0.0]
    assert rep["levels"]["2"] == [0.5, 0.0, 0.0, 0.0]
    assert rep["decay_table"][0]["norm"] == 1.0


def test_signature_loop_reports_identity(tmp_path):
    csv = tmp_path / "loop.csv"
    square = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
    )
    write_csv(csv, np.linspace(0.0, 1.0, 5), 0.7 * square)
    rep = json.loads(run_cli("signature", csv, "--level", 1).stdout)
    assert max(abs(v) for v in rep["levels"]["1"]) <= 1e-15


def test_signature_deterministic_and_matches_library(tmp_path):
    t = np.linspace(0.0, 1.0, 100)
    spiral = np.stack(
        [t * np.cos(4.0 * np.pi * t), t * np.sin(4.0 * np.pi * t)], axis=1
    )
    csv = tmp_path / "spiral.csv"
    write_csv(csv, t, spiral)
    first = run_cli("signature", csv, "--level", 3)
    second = run_cli("signature", csv, "--level", 3)
    threaded = run_cli("signature", csv, "--level", 3, blas_threads=2)
    assert first.stdout == second.stdout == threaded.stdout
    rep = json.loads(first.stdout)
    lifted = signature(read_path_csv(csv), 3)
    for k in (1, 2, 3):
        assert np.array_equal(
            np.asarray(rep["levels"][str(k)]), lifted.points[-1].level_block(k)
        )


def test_signature_of_a_large_walk_is_certified(tmp_path):
    """A 100-step walk with steps 2 N(0, 1) reaches |x| of about 29; its exact
    lift must pass the group-like certificate, whose inverse-identity bound
    scales with the point's size."""
    rng = np.random.default_rng(0)
    steps = 2.0 * rng.standard_normal((100, 2))
    walk = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    assert np.abs(walk).max() > 20.0
    csv = tmp_path / "big.csv"
    write_csv(csv, np.linspace(0.0, 1.0, 101), walk)
    res = run_cli("signature", csv, "--level", 3)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)
    lifted = signature(read_path_csv(csv), 3)
    for k in (1, 2, 3):
        assert np.array_equal(np.asarray(rep["levels"][str(k)]), lifted.levels[k][-1])


def test_signature_of_a_large_loop_is_certified(tmp_path):
    """A 20-point loop of radius 1e3 that ends within 1e-3 of its start: the
    level-2 shuffle bound follows the path, not the returning point."""
    rng = np.random.default_rng(3)
    loop = rng.uniform(-1e3, 1e3, (20, 2))
    loop[0], loop[-1] = 0.0, rng.uniform(-1e-3, 1e-3, 2)
    csv = tmp_path / "loop.csv"
    write_csv(csv, np.linspace(0.0, 1.0, 20), loop)
    res = run_cli("signature", csv, "--level", 3)
    assert res.returncode == 0, res.stderr


# -- integrate ---------------------------------------------------------------------


def test_integrate_constant_form_gives_endpoint_difference(tmp_path):
    rng = np.random.default_rng(9)
    t = np.linspace(0.0, 1.0, 21)
    pts = 0.4 * rng.standard_normal((21, 2))
    csv = tmp_path / "p.csv"
    write_csv(csv, t, pts)
    form = tmp_path / "c.json"
    write_json(
        form,
        {
            "type": "poly",
            "in_dim": 2,
            "out_shape": [1, 2],
            "degree": 0,
            "coeffs": [[[0.6, -0.2]]],
        },
    )
    res = run_cli("integrate", csv, "--form", form, "--p", 2.0, "--gamma", 3.0)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    want = np.array([0.6, -0.2]) @ (pts[-1] - pts[0])
    assert abs(rep["total"][0] - want) <= 1e-12
    assert rep["route"] == "closed-lift"


def test_integrate_exact_gradient(tmp_path):
    # start away from the origin so absolute coordinates matter
    rng = np.random.default_rng(81)
    t = np.linspace(0.0, 1.0, 15)
    pts = 0.6 * rng.standard_normal((15, 2))
    csv = tmp_path / "p.csv"
    write_csv(csv, t, pts)
    form = tmp_path / "g.json"
    write_json(form, GRAD_FORM)
    res = run_cli("integrate", csv, "--form", form, "--p", 3.0, "--gamma", 4.0)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    phi = lambda x: x[0] ** 2 * x[1] + 0.5 * x[1] ** 2
    assert abs(rep["total"][0] - (phi(pts[-1]) - phi(pts[0]))) <= 1e-10
    assert rep["certified"] is True
    assert rep["route"] == "closed-lift"


def test_integrate_flags_uncertified_regularity(tmp_path):
    rng = np.random.default_rng(13)
    t = np.linspace(0.0, 1.0, 33)
    csv = tmp_path / "p.csv"
    write_csv(csv, t, 0.3 * rng.standard_normal((33, 2)))
    form = tmp_path / "s.json"
    write_json(
        form,
        {
            "type": "builtin",
            "name": "sine",
            "amp": [[0.5, 0.3]],
            "freq": [[[1.3, 0.2], [0.4, 1.7]]],
            "phase": [[0.0, 0.5]],
        },
    )
    res = run_cli("integrate", csv, "--form", form, "--p", 2.0, "--gamma", 1.5)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["uncertified"] is True
    assert rep["certified"] is False
    # the norm is finite: gamma = 1.5 <= p alone leaves the sums uncertified
    assert math.isfinite(rep["operator_norm"])
    assert rep["route"] == "taylor"


def area_form_json(dirpath):
    """The linear form y -> (A1 y, A2 y) of the area fixture."""
    form = dirpath / "lin.json"
    write_json(
        form,
        {
            "type": "poly",
            "in_dim": 2,
            "out_shape": [2, 2],
            "degree": 1,
            # block[i, j, k] = A_j[i, k]
            "coeffs": [
                [[0.0, 0.0], [0.0, 0.0]],
                np.stack([AREA_A1, AREA_A2], axis=1).tolist(),
            ],
        },
    )
    return form


def test_integrate_pure_area_linear_form(tmp_path):
    form = area_form_json(tmp_path)
    A1, A2 = AREA_A1, AREA_A2
    res = run_cli(
        "integrate", "--pure-area", AREA_VALUE, "--steps", 320,
        "--form", form, "--gamma", 3.0,
    )
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    want = AREA_VALUE * (A2[:, 0] - A1[:, 1])
    assert np.max(np.abs(np.asarray(rep["total"]) - want)) <= 1e-12
    assert rep["certified"] is True


# -- solve -------------------------------------------------------------------------

SOLVE_REPORT_KEYS = {
    "schema", "command", "p", "gamma", "converged", "message", "iterations",
    "delta_norms", "delta_ratios", "fitted_C", "form_error_bar",
    "fixed_point_residual", "final_value", "scale", "certificate",
}


@pytest.fixture(scope="module")
def exp_solve_artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("solve")
    csv = exp_csv(d)
    field = scalar_linear_field_json(d)
    res = run_cli(
        "solve", csv, "--field", field, "--xi", "1.0",
        "--p", 3.0, "--gamma", 4.0, "--n-max", 16,
        "--out-csv", d / "y.csv", "--decay-csv", d / "decay.csv",
        "--report", d / "report.json",
    )
    return {"dir": d, "result": res}


def test_solve_exponential_report(exp_solve_artifacts):
    res = exp_solve_artifacts["result"]
    d = exp_solve_artifacts["dir"]
    assert res.returncode == 0
    rep = json.loads((d / "report.json").read_text())
    assert set(rep) == SOLVE_REPORT_KEYS
    assert set(rep["certificate"]) == {"M", "theta", "ok"}
    assert rep["converged"] is True
    assert rep["certificate"]["ok"] is True
    assert rep["scale"] == 1.0
    want = math.exp(0.4)
    assert abs(rep["final_value"][0] - want) / want <= 1e-8
    ratios = rep["delta_ratios"]
    tail = ratios[4:]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    assert math.isfinite(rep["fitted_C"])


def test_solve_writes_solution_and_decay_tables(exp_solve_artifacts):
    d = exp_solve_artifacts["dir"]
    sol_lines = (d / "y.csv").read_text().splitlines()
    assert sol_lines[0] == "t,y1"
    assert len(sol_lines) == 258
    assert float(sol_lines[1].split(",")[1]) == 1.0
    decay_lines = (d / "decay.csv").read_text().splitlines()
    assert decay_lines[0] == "n,delta,bound"
    rep = json.loads((d / "report.json").read_text())
    assert len(decay_lines) == len(rep["delta_norms"]) + 1
    first = decay_lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == rep["delta_norms"][0]


def test_solve_pure_area_matches_loop_oracle(tmp_path):
    field = tmp_path / "areafield.json"
    write_json(
        field,
        {
            "type": "poly",
            "in_dim": 2,
            "out_shape": [2, 2],
            "degree": 1,
            "coeffs": [
                [[0.0, 0.0], [0.0, 0.0]],
                np.stack([AREA_A1, AREA_A2], axis=1).tolist(),
            ],
        },
    )
    res = run_cli(
        "solve", "--pure-area", AREA_VALUE, "--steps", 320,
        "--field", field, "--xi", "1.0,0.5", "--gamma", 3.0,
    )
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    want = polygon_loop_endpoint(AREA_A1, AREA_A2, AREA_VALUE, 8000, AREA_XI)
    got = np.asarray(rep["final_value"])
    assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-3


def test_solve_nonconvergence_exits_one(tmp_path):
    csv = exp_csv(tmp_path, 64)
    field = scalar_linear_field_json(tmp_path)
    res = run_cli(
        "solve", csv, "--field", field, "--xi", "1.0",
        "--p", 3.0, "--gamma", 4.0, "--n-max", 3,
        "--report", tmp_path / "r.json",
    )
    assert res.returncode == 1
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["converged"] is False
    assert "n_max" in rep["message"]
    assert len(rep["delta_norms"]) == 3


def test_solve_halted_by_the_norm_cap_reports_an_infinite_error_bar(tmp_path):
    # dy = 0.7 y^2 dx blows up along this walk; the fitted C is large enough
    # that the Cauchy tail overflows
    rng = np.random.default_rng(3)
    x = np.concatenate([[0.0], np.cumsum(0.5 * rng.standard_normal(32))])
    csv = tmp_path / "walk.csv"
    write_csv(csv, np.linspace(0.0, 1.0, 33), x[:, None])
    field = tmp_path / "square.json"
    write_json(field, {"type": "poly", "in_dim": 1, "out_shape": [1, 1], "degree": 2,
                       "coeffs": [[[0.0]], [[[0.0]]], [[[[0.7]]]]]})
    res = run_cli(
        "solve", csv, "--field", field, "--xi", 1, "--gamma", 4, "--p", 3,
        "--report", tmp_path / "r.json",
    )
    assert res.returncode == 1, res.stderr
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["converged"] is False
    assert "norm cap" in rep["message"]
    assert rep["form_error_bar"] == "inf"


def cubic_solve_inputs(dirpath, dilation):
    """The cubic fixture at N=64 as CLI inputs, its path scaled by `dilation`."""
    cubic = cubic_path(64)
    write_csv(dirpath / "cubic.csv", cubic.times, dilation * cubic.values)
    write_json(
        dirpath / "cubic.json",
        {
            "type": "poly",
            "in_dim": 2,
            "out_shape": [2, 2],
            "degree": 3,
            "coeffs": [c.tolist() for c in cubic_field().map.coeffs],
        },
    )
    return ["solve", dirpath / "cubic.csv", "--field", dirpath / "cubic.json", "--xi", "0.5,-0.25", "--gamma", 4]


def test_solve_reports_the_dilation_scale_it_used(tmp_path):
    """Along the cubic path times 4 the distances rise twice in a row and
    the solver doubles its dilation scale; --no-rescale keeps it at 1."""
    solve_args = cubic_solve_inputs(tmp_path, 4.0)
    for flags, scale in (([], 2.0), (["--no-rescale"], 1.0)):
        res = run_cli(*solve_args, *flags, "--report", tmp_path / "r.json")
        assert res.returncode == 0, res.stderr
        rep = json.loads((tmp_path / "r.json").read_text())
        assert (rep["converged"], rep["scale"]) == (True, scale)


def test_radius_changes_no_solve_output(tmp_path):
    """--radius is checked to be finite and positive and then read by
    nothing: two values give the same bytes in every solve output."""
    solve_args = cubic_solve_inputs(tmp_path, 1.0)
    outputs = []
    for radius in (3.0, 0.5):
        work = tmp_path / f"radius{radius}"
        work.mkdir()
        res = run_cli(
            *solve_args, "--radius", radius, "--report", work / "report.json",
            "--out-csv", work / "solution.csv", "--decay-csv", work / "decay.csv",
        )
        assert res.returncode == 0, res.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted(work.iterdir())})
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]


def test_strict_mode_exits_three_on_failed_certificate(tmp_path, monkeypatch):
    """Exit 3 needs a failing certificate, which no wellposed fixture
    produces; fake the solver result to pin the plumbing."""
    csv = exp_csv(tmp_path, 32)
    field = scalar_linear_field_json(tmp_path)
    t = np.linspace(0.0, 1.0, 33)
    x = 0.4 * t + 0.16 * np.sin(2.0 * np.pi * t)
    prob = RdeProblem(
        signature(SampledPath(t, x[:, None]), 3, p=3.0),
        exp_field(),
        xi=np.array([1.0]),
        n_max=16,
    )
    real = solve(prob)
    assert real.converged
    bad_cert = dataclasses.replace(real.certificate, M=math.inf)
    assert not bad_cert.ok
    fake = dataclasses.replace(real, certificate=bad_cert)
    monkeypatch.setattr(cli, "solve", lambda problem, auto_rescale=True: fake)
    code = cli.main(
        [
            "solve", str(csv), "--field", str(field), "--xi", "1.0",
            "--p", "3.0", "--gamma", "4.0", "--strict",
            "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 3
    # without --strict the same result exits cleanly
    code = cli.main(
        [
            "solve", str(csv), "--field", str(field), "--xi", "1.0",
            "--p", "3.0", "--gamma", "4.0",
            "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0


# -- determinism -------------------------------------------------------------------


def test_reports_byte_identical_across_runs_and_threads(tmp_path):
    csv = exp_csv(tmp_path, 64)
    field = scalar_linear_field_json(tmp_path)
    form = tmp_path / "g.json"
    write_json(form, GRAD_FORM)
    grad_csv = tmp_path / "grad.csv"
    rng = np.random.default_rng(81)
    write_csv(grad_csv, np.linspace(0.0, 1.0, 15), 0.6 * rng.standard_normal((15, 2)))

    def snapshot(threads=None):
        out = {}
        out["sig"] = run_cli("signature", csv, "--level", 3, blas_threads=threads).stdout
        out["int"] = run_cli(
            "integrate", grad_csv, "--form", form, "--p", 3.0, "--gamma", 4.0,
            blas_threads=threads,
        ).stdout
        run_cli(
            "solve", csv, "--field", field, "--xi", "1.0",
            "--p", 3.0, "--gamma", 4.0,
            "--out-csv", tmp_path / "y.csv", "--decay-csv", tmp_path / "d.csv",
            "--report", tmp_path / "r.json",
            blas_threads=threads,
        )
        out["sol"] = (tmp_path / "y.csv").read_bytes()
        out["decay"] = (tmp_path / "d.csv").read_bytes()
        out["report"] = (tmp_path / "r.json").read_bytes()
        return out

    runs = [snapshot(), snapshot(), snapshot(threads=2)]
    for key in runs[0]:
        assert runs[0][key] == runs[1][key] == runs[2][key]


def test_outputs_byte_identical_across_blas_thread_counts(tmp_path):
    """solve and integrate write the same bytes with one and with two
    BLAS/OpenMP threads, the counts fixed in the child before numpy loads."""
    cubic = cubic_path(64)
    write_csv(tmp_path / "cubic.csv", cubic.times, cubic.values)
    write_json(
        tmp_path / "cubic.json",
        {
            "type": "poly",
            "in_dim": 2,
            "out_shape": [2, 2],
            "degree": 3,
            "coeffs": [c.tolist() for c in cubic_field().map.coeffs],
        },
    )
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.standard_normal((97, 2)), axis=0) / np.sqrt(96.0)
    write_csv(tmp_path / "walk.csv", np.linspace(0.0, 1.0, 97), walk)
    write_json(tmp_path / "g.json", GRAD_FORM)
    commands = (
        [
            "solve", tmp_path / "cubic.csv", "--field", tmp_path / "cubic.json",
            "--xi", "0.5,-0.25", "--gamma", 4.0, "--radius", 3.0,
            "--report", "report.json", "--out-csv", "solution.csv",
            "--decay-csv", "decay.csv",
        ],
        [
            "integrate", tmp_path / "walk.csv", "--form", tmp_path / "g.json",
            "--gamma", 2.5, "--out", "integral.json",
        ],
    )

    def outputs(threads):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        for args in commands:
            res = subprocess.run(
                [sys.executable, "-m", "roughkit.cli", *map(str, args)],
                capture_output=True, text=True, env=cli_env(threads), cwd=work,
            )
            assert res.returncode == 0, res.stderr
        return {f.name: f.read_bytes() for f in sorted(work.iterdir())}

    one = outputs(1)
    assert sorted(one) == ["decay.csv", "integral.json", "report.json", "solution.csv"]
    assert outputs(2) == one


# -- input errors ------------------------------------------------------------------


def test_bad_number_reports_line(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("t,x1\n0.0,0.0\n0.5,oops\n1.0,1.0\n")
    res = run_cli("signature", csv, "--level", 2)
    assert res.returncode == 2
    assert "line 3" in res.stderr


def test_bad_header_reports_line(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("time,value\n0.0,0.0\n1.0,1.0\n")
    res = run_cli("signature", csv, "--level", 2)
    assert res.returncode == 2
    assert "line 1" in res.stderr


def test_missing_file_exits_two(tmp_path):
    res = run_cli("signature", tmp_path / "absent.csv", "--level", 2)
    assert res.returncode == 2


def test_bad_field_spec_exits_two(tmp_path):
    csv = exp_csv(tmp_path, 8)
    field = tmp_path / "f.json"
    write_json(field, {"type": "mystery"})
    res = run_cli(
        "solve", csv, "--field", field, "--xi", "1.0", "--p", 3.0, "--gamma", 4.0
    )
    assert res.returncode == 2
    assert "mystery" in res.stderr


def test_bad_xi_exits_two(tmp_path):
    csv = exp_csv(tmp_path, 8)
    field = scalar_linear_field_json(tmp_path)
    res = run_cli(
        "solve", csv, "--field", field, "--xi", "1.0,abc",
        "--p", 3.0, "--gamma", 4.0,
    )
    assert res.returncode == 2


@pytest.mark.parametrize("xi", [",", ""])
def test_empty_xi_exits_two(tmp_path, capsys, xi):
    csv = exp_csv(tmp_path, 8)
    field = scalar_linear_field_json(tmp_path)
    argv = ["solve", csv, "--field", field, f"--xi={xi}", "--p", 3.0, "--gamma", 4.0]
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == "roughkit: input error: initial condition is empty\n"


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--n-max", "-1")])
def test_bad_stopping_rule_exits_two(tmp_path, flag, value):
    csv = exp_csv(tmp_path, 8)
    field = scalar_linear_field_json(tmp_path)
    res = run_cli(
        "solve", csv, "--field", field, "--xi", "1.0",
        "--p", 3.0, "--gamma", 4.0, flag, value,
    )
    assert res.returncode == 2
    assert "input error" in res.stderr


NON_FINITE_CASES = [
    ("closed-lift", "--p", "p must be finite"),
    ("solve", "--p", "p must be finite"),
    ("pure-area", "--p", "p must be finite"),
    ("pure-area", "--pure-area", "area must be finite"),
    ("closed-lift", "--gamma", "gamma must be finite"),
    ("taylor", "--gamma", "gamma must be finite"),
    ("solve", "--gamma", "gamma must be finite"),
    ("solve", "--radius", "radius must be finite"),
    ("closed-lift", "--radius", "radius must be finite and positive"),
    ("solve", "--xi", "initial condition must be finite"),
]


def grad_form_json(dirpath):
    form = dirpath / "grad.json"
    write_json(form, GRAD_FORM)
    return form


def cubic_form_json(dirpath):
    """A cubic gradient, above the closed lift's degree at level 3."""
    cubic = [np.zeros((1,) + (2,) * (l + 1)) for l in range(4)]
    cubic[3][0, 0, 0, 0, 0] = 1.0
    form = dirpath / "cubic.json"
    write_json(form, {
        "type": "poly", "in_dim": 2, "out_shape": [1, 2], "degree": 3,
        "coeffs": [c.tolist() for c in cubic],
    })
    return form


@pytest.mark.parametrize(
    "route, flag, message, value",
    [case + (value,) for value in ["inf", "-inf", "nan"] for case in NON_FINITE_CASES]
    + [
        ("closed-lift", "--radius", "radius must be finite and positive", "-1"),
        ("taylor", "--radius", "radius must be finite and positive", "-1"),
    ],
)
def test_non_finite_numeric_input_exits_two(tmp_path, capsys, route, flag, value, message):
    """inf and nan, and a radius not above zero, are input errors, refused
    before any arithmetic could overflow, warn or escape as a traceback
    (exit 1 means non-convergence)."""
    rng = np.random.default_rng(4)
    walk = tmp_path / "walk.csv"
    write_csv(walk, np.linspace(0.0, 1.0, 9), 0.3 * rng.standard_normal((9, 2)))
    linear = area_form_json(tmp_path)
    argv = {
        "closed-lift": ["integrate", walk, "--form", grad_form_json(tmp_path)],
        "taylor": ["integrate", walk, "--form", cubic_form_json(tmp_path)],
        "pure-area": ["integrate", "--pure-area", 0.5, "--steps", 8, "--form", linear, "--p", 2.5],
        "solve": ["solve", walk, "--field", linear, "--xi", "0.1,0.2"],
    }[route]
    # a later flag overrides an earlier one; "=" keeps "-inf" from reading as a flag
    argv += ["--gamma", 4.0, f"{flag}={value}" if flag != "--xi" else f"--xi={value},0.2"]
    assert cli.main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("roughkit: input error:") and message in err


@pytest.mark.parametrize("route, form_json", [("closed-lift", grad_form_json), ("taylor", cubic_form_json)])
def test_integrate_refuses_gamma_at_most_p_minus_one(tmp_path, capsys, monkeypatch, route, form_json):
    """At gamma <= p - 1 the compensated sums have no meaning: each route
    refuses a finite gamma = p - 1 with the regularity gate's one line, and
    from the exponents alone, so the O(N^3) control is never built."""
    from roughkit.integrate import _check_gamma

    def no_control(driver):
        raise AssertionError("the control was built for a refused gamma")

    monkeypatch.setattr(roughkit.path, "control_from_pvar", no_control)
    rng = np.random.default_rng(4)
    walk = tmp_path / "walk.csv"
    write_csv(walk, np.linspace(0.0, 1.0, 9), 0.3 * rng.standard_normal((9, 2)))
    argv = ["integrate", walk, "--form", form_json(tmp_path), "--p", 3.0, "--gamma", 2.0]
    assert cli.main([str(a) for a in argv]) == 2
    with pytest.raises(RegularityError) as gate:
        _check_gamma(2.0, 3.0)
    err = capsys.readouterr().err
    assert err == f"roughkit: input error: {gate.value}\n" and "p - 1" in err


def test_overflowing_pure_area_prints_only_the_refusal(tmp_path, capsys):
    """A finite area whose squares overflow is refused by the control, and
    the homogeneous norms that overflow on the way raise no RuntimeWarning."""
    argv = ["integrate", "--pure-area", "1e308", "--steps", "8",
            "--form", str(area_form_json(tmp_path)), "--p", "2.5", "--gamma", "4"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert err == "roughkit: input error: control entries must be finite and non-negative\n"


def test_bad_level_exits_two(tmp_path):
    csv = exp_csv(tmp_path, 8)
    res = run_cli("signature", csv, "--level", 0)
    assert res.returncode == 2
    assert res.stderr == "roughkit: input error: level must be at least 1, got 0\n"


def test_threads_flag_is_gone(tmp_path):
    # BLAS thread counts are set through the environment, not a flag
    csv = exp_csv(tmp_path, 8)
    res = run_cli("--threads", 4, "signature", csv, "--level", 2)
    assert res.returncode == 2 and "usage: roughkit" in res.stderr


def test_pure_area_integral_uses_the_declared_p(tmp_path):
    # gamma 2.6 does not exceed p 2.9, so the integral must not be certified
    res = run_cli(
        "integrate", "--pure-area", 1, "--steps", 32, "--form", area_form_json(tmp_path),
        "--gamma", 2.6, "--p", 2.9,
    )
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["p"] == 2.9
    assert rep["certified"] is False and rep["uncertified"] is True


def test_pure_area_needs_level_two_exponent(tmp_path):
    field = scalar_linear_field_json(tmp_path)
    res = run_cli(
        "solve", "--pure-area", 0.3, "--field", field,
        "--xi", "1.0,0.5", "--p", 3.0, "--gamma", 4.0,
    )
    assert res.returncode == 2
    assert "level 2" in res.stderr


def test_pair_geometry_over_physical_memory_exits_two(tmp_path, monkeypatch, capsys):
    """The pair geometry is refused before it is allocated when its
    estimated size exceeds physical memory, here faked down to one byte
    under it, on a grid whose lift fits in that."""
    monkeypatch.setattr(roughkit.path, "_physical_memory_bytes", lambda: 817_607)
    rng = np.random.default_rng(2)
    write_csv(tmp_path / "walk.csv", np.linspace(0.0, 1.0, 101), rng.standard_normal((101, 2)))
    write_json(tmp_path / "g.json", GRAD_FORM)
    code = cli.main(
        ["integrate", str(tmp_path / "walk.csv"), "--form", str(tmp_path / "g.json"),
         "--p", "3.0", "--gamma", "4.0"]
    )
    assert code == 2
    # the control table and the pool of its largest rectangle, 40 rows s by
    # the 100 points t > 0, whose levels 0..3 and product term take 15 + 8
    # floats an entry; the lift's estimate is 12 * 101 * (15 + 32) * 8
    need = (101 * 101 + 40 * 100 * (15 + 8)) * 8
    assert need == 817_608 > 12 * 101 * (15 + 32) * 8
    err = capsys.readouterr().err
    assert f"{need:,} bytes" in err and "physical memory" in err


def run_cli_capped(*args):
    """`run_cli` with the child's address space capped at 4 GiB and one BLAS
    thread, so a lift that escaped its memory guard fails to allocate
    instead of exhausting the machine."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    return subprocess.run(
        [sys.executable, "-m", "roughkit.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=cli_env(blas_threads=1),
        preexec_fn=cap,
    )


@pytest.mark.parametrize("route", ["level-45", "level-1e12", "solve-p-40", "pure-area-steps"])
def test_lift_over_physical_memory_exits_two_before_allocating(tmp_path, route):
    """A lift whose level stacks exceed physical memory is refused with exit
    2 and its estimated need before any stack is allocated: one row of level
    45 over R^2 alone is 2**45 floats, where the parent crashed with an
    allocation error.  Past 64 levels the estimate is capped, so a huge
    level costs no time either."""
    csv = tmp_path / "tiny.csv"
    write_csv(csv, [0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]])
    args = {
        "level-45": ["signature", csv, "--level", 45],
        "level-1e12": ["signature", csv, "--level", 10**12],
        "solve-p-40": [*cubic_solve_inputs(tmp_path, 1.0), "--p", 40],
        "pure-area-steps": [
            "integrate", "--pure-area", 1, "--steps", 10**15, "--form", area_form_json(tmp_path),
            "--gamma", 4, "--p", 2.5,
        ],
    }[route]
    res = run_cli_capped(*args)
    assert res.returncode == 2, res.stderr
    assert "signature lift of" in res.stderr and "bytes of physical memory" in res.stderr
    assert "Traceback" not in res.stderr


def test_integrate_and_solve_build_no_pair_store(tmp_path, monkeypatch):
    """The control writes each run's norms into its table and the chain
    slack bounds the pairs from the points, so neither command leaves
    `pairwise_levels` on the driver it lifted."""
    drivers = []

    def lift(*args, **kw):
        drivers.append(signature(*args, **kw))
        return drivers[-1]

    monkeypatch.setattr(cli, "signature", lift)
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(7)
    write_csv(tmp_path / "walk.csv", np.linspace(0.0, 1.0, 41), rng.standard_normal((41, 2)) / 6.0)
    write_json(tmp_path / "g.json", GRAD_FORM)
    integrate = ["integrate", "walk.csv", "--form", "g.json", "--p", "3.0", "--gamma", "4.0"]
    assert cli.main(integrate + ["--out", "integral.json"]) == 0
    solve_args = [str(x) for x in cubic_solve_inputs(tmp_path, 1.0)]
    assert cli.main(solve_args + ["--report", "report.json"]) == 0
    assert len(drivers) == 2
    assert all("pairwise_levels" not in g.__dict__ for g in drivers)
