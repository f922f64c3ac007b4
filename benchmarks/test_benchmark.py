"""Tests of the benchmark itself: output checks, the tracer, and set-up failure.

Run from the repository root with `python -m pytest benchmarks`.  The output
checks are fed oracle-built outputs, then deliberately corrupted copies, so
no test here runs a full workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def solution_csv(times: np.ndarray, ys: np.ndarray) -> bytes:
    rows = ["t,y1,y2"] + [",".join(repr(float(v)) for v in (t, *y)) for t, y in zip(times, ys)]
    return ("\n".join(rows) + "\n").encode()


@pytest.fixture(scope="module")
def cubic(tmp_path_factory):
    wl = workloads.make("solve-cubic", workloads.DEFAULT_SEED, tmp_path_factory.mktemp("cubic"))
    times, _ = workloads.cubic_driver(wl.meta["N"])
    report = {"converged": True, "iterations": 12, "certificate": {"ok": True}}
    good = {
        "report.json": json.dumps(report).encode(),
        "solution.csv": solution_csv(times, wl.oracle["solution"]),
        "decay.csv": b"n,delta,bound\n",
    }
    return wl, good, times


def test_cubic_seed_11_is_the_fixture():
    rng = np.random.default_rng(11)
    scales = (0.4, 0.3, 0.12, 0.04)
    for k, (got, scale) in enumerate(zip(workloads.cubic_coeffs(11), scales)):
        assert np.array_equal(got, scale * rng.standard_normal((2,) * (k + 2)))


def test_cubic_check_accepts_oracle_output(cubic):
    wl, good, _ = cubic
    problems, extras = wl.check(good)
    assert problems == []
    assert extras["solution_error"] == 0.0


@pytest.mark.parametrize(
    "corrupt, expect",
    [
        (lambda o, t, y: {**o, "report.json": o["report.json"].replace(b'"converged": true', b'"converged": false')}, "converge"),
        (lambda o, t, y: {**o, "report.json": o["report.json"].replace(b'"ok": true', b'"ok": false')}, "certificate"),
        (lambda o, t, y: {**o, "report.json": b"{not json"}, "JSON"),
        (lambda o, t, y: {**o, "solution.csv": solution_csv(t, y + 2e-6)}, "oracle"),
        (lambda o, t, y: {**o, "solution.csv": solution_csv(t[:-1], y[:-1])}, "shape"),
        (lambda o, t, y: {k: v for k, v in o.items() if k != "decay.csv"}, "decay.csv missing"),
    ],
)
def test_cubic_check_rejects_corrupted_output(cubic, corrupt, expect):
    wl, good, times = cubic
    problems, _ = wl.check(corrupt(good, times, wl.oracle["solution"]))
    assert any(expect in p for p in problems), problems


def test_integrate_check(tmp_path):
    wl = workloads.make("integrate-pvar", workloads.DEFAULT_SEED, tmp_path)
    total = wl.oracle["total"]

    def out(route="closed-lift", value=total):
        return {"integral.json": json.dumps({"route": route, "total": [value]}).encode()}

    assert wl.check(out()) == ([], {"integral_error": 0.0})
    bumped = total + 1e-9 * max(1.0, abs(total))
    assert any("potential difference" in p for p in wl.check(out(value=bumped))[0])
    assert any("route" in p for p in wl.check(out(route="taylor"))[0])
    assert any("missing" in p for p in wl.check({})[0])


def test_signature_check(tmp_path):
    wl = workloads.make("signature-long", workloads.DEFAULT_SEED, tmp_path)
    d = wl.meta["d"]
    levels = {"1": wl.oracle["1"].tolist(), "2": wl.oracle["2"].tolist(), "3": [0.0] * d**3, "4": [0.0] * d**4}

    def out(lv):
        return {"signature.json": json.dumps({"levels": lv}).encode()}

    assert wl.check(out(levels))[0] == []
    two = list(levels["2"])
    two[1] += 1e-6
    assert any("level 2" in p for p in wl.check(out({**levels, "2": two}))[0])
    assert any("level 1" in p for p in wl.check(out({**levels, "1": levels["1"][:-1]}))[0])
    assert any("levels" in p for p in wl.check(out({k: v for k, v in levels.items() if k != "4"}))[0])


def test_polyline_level_two_matches_chen_product():
    xs = np.random.default_rng(0).standard_normal((6, 2))
    sig = np.zeros((2, 2))
    x1 = np.zeros(2)
    for dx in np.diff(xs, axis=0):
        sig = sig + np.outer(x1, dx) + 0.5 * np.outer(dx, dx)
        x1 = x1 + dx
    one, two = workloads.polyline_levels_1_2(xs)
    assert np.allclose(one, x1) and np.allclose(two, sig.reshape(-1))


def test_outputs_differing_from_first_run_fail(tmp_path):
    wl = workloads.make("integrate-pvar", workloads.DEFAULT_SEED, tmp_path)
    Path(wl.outputs[0]).write_text(json.dumps({"route": "closed-lift", "total": [wl.oracle["total"]]}))
    problems, _, reference = run.check_run(wl, None)
    assert problems == []
    assert run.check_run(wl, reference)[0] == []
    Path(wl.outputs[0]).write_text(json.dumps({"route": "closed-lift", "total": [wl.oracle["total"]]}, indent=1))
    assert any("differ from the first run" in p for p in run.check_run(wl, reference)[0])


def test_self_times_partition_the_root_span():
    tr = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    def mid():
        traced_leaf()
        time.sleep(0.005)

    traced_leaf = tr.spanned("leaf", leaf)
    root = tr.spanned("root", tr.spanned("mid", mid))
    root()
    own = tr.self_time_by_name()
    assert sum(own.values()) == pytest.approx(tr.spans[0].duration, rel=1e-9)
    assert own["leaf"] >= 0.01 and own["mid"] >= 0.005
    assert [s.parent for s in tr.spans] == [None, 0, 1]


def test_instrument_restores_and_accounts_for_main(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import roughkit.cli as cli
    import roughkit.tensor as tensor

    before = {name: getattr(cli, name) for name in ("read_path_csv", "signature", "solve", "rough_integral")}
    matmul = tensor.GroupElement.__matmul__
    times, xs = workloads.random_walk(np.random.default_rng(1), 32, 2)
    workloads.write_path_csv(tmp_path / "p.csv", times, xs)
    out = tmp_path / "sig.json"

    tr = tracing.Tracer()
    tracing.instrument(tr)
    try:
        start = time.perf_counter()
        rc = tr.spanned("cli.main", cli.main)(["signature", str(tmp_path / "p.csv"), "--level", "3", "--out", str(out)])
        main_s = time.perf_counter() - start
    finally:
        tr.restore()
    assert rc == 0
    assert {name: getattr(cli, name) for name in before} == before
    assert tensor.GroupElement.__matmul__ is matmul
    metrics = tracing.layer_metrics(tr, main_s, main_s, None)
    assert set(metrics) == set(tracing.per_layer_units())
    assert metrics["trace.accounted_share"] == pytest.approx(1.0, abs=0.05)
    assert metrics["tensor.products_per_lift_step"] == 1.0
    assert metrics["path.signature_s"] > 0.0 and metrics["path.read_csv_s"] > 0.0
    spans = {s.name for s in tr.spans}
    assert {"cli.main", "path.read_csv", "path.signature"} <= spans


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "solve-cubic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
