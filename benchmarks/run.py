#!/usr/bin/env python3
"""roughkit benchmark: three CLI workloads, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload solve-cubic --seed 11 --seconds 56 --trace 0
    python3 benchmarks/run.py            # every workload at the default seed, with tables

--trace 0 measures what a user pays: `python -m roughkit.cli` runs as a
subprocess in a closed loop, one client and never two runs at once, until
the next run would end more than half a run past --seconds (at least two
runs).  It reports the median wall time and child peak RSS, and `setup_s`,
the median wall time of a fresh interpreter importing roughkit.cli, timed
between the runs.

--trace 1 calls roughkit.cli.main in-process on the same inputs, once
untraced and once with spans around each layer's entry points (see
tracing.py), and reports per-layer self times and counts.  The spans are
written to .bench_work/spans-<workload>-<seed>.json.

Every run's outputs are checked against a numpy oracle and against the
bytes of the workload's first run in this process; a run that exits nonzero
or fails a check counts as failed.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PER_RUN = 3
MIN_RUNS = 2
# every child must end within this many seconds of its workload's start
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class ChildResult(NamedTuple):
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict[str, str]:
    """The inherited environment with the absolute src directory first on PYTHONPATH.

    BLAS thread variables are inherited unchanged (and recorded in the metadata).
    """
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(cmd: list[str], env: dict, cwd: Path, timeout: float) -> ChildResult:
    """Run one child to completion; its own peak RSS comes from wait4."""
    err_path = cwd / "child.stderr"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        lock = threading.Lock()
        reaped = False

        def kill() -> None:
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            # wait for exit without reaping, so a late kill() hits a zombie, never a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                reaped = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, err_path.read_text()[-2000:])


def metadata() -> dict:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    lines = nonblank = 0
    modules = sorted((SRC / "roughkit").glob("*.py"))
    for f in modules:
        text = f.read_text().splitlines()
        lines += len(text)
        nonblank += sum(1 for line in text if line.strip())
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "src_lines": lines,
        "src_nonblank_lines": nonblank,
        "src_modules": len(modules),
    }


def check_run(wl: workloads.Workload, reference: dict | None) -> tuple[list[str], dict, dict]:
    outputs = wl.read_outputs()
    problems, extras = wl.check(outputs)
    if reference is not None and outputs != reference:
        changed = sorted(k for k in set(outputs) | set(reference) if outputs.get(k) != reference.get(k))
        problems.append(f"output bytes differ from the first run: {', '.join(changed)}")
    return problems, extras, outputs


def end_to_end(wl: workloads.Workload, work: Path, seconds: float, started: float) -> dict:
    env = child_env()

    def import_cli() -> float:
        r = run_child([sys.executable, "-c", "import roughkit.cli"], env, work, DEADLINE_S - (time.perf_counter() - started))
        if r.returncode != 0:
            raise RuntimeError(f"cannot import roughkit.cli from {SRC}:\n{r.stderr}")
        return r.wall_s

    import_cli()  # warm-up: a fresh checkout compiles its bytecode on the first import
    setup, runs, failures, extras = [], [], [], []
    reference = None
    loop_start = time.perf_counter()
    while True:
        # set-up is timed between the runs, so both medians cover the same minutes of a host whose speed drifts
        setup.extend(import_cli() for _ in range(SETUP_PER_RUN))
        wl.clear_outputs()
        r = run_child([sys.executable, "-m", "roughkit.cli", *wl.argv], env, work, DEADLINE_S - (time.perf_counter() - started))
        problems, extra, outputs = check_run(wl, reference)
        if r.returncode != 0:
            problems.insert(0, f"exit code {r.returncode}: {r.stderr.strip()[-500:]}")
        reference = outputs if reference is None else reference
        runs.append(r)
        extras.append(extra)
        failures.append(problems)
        elapsed = time.perf_counter() - loop_start
        # stop where the window's end falls nearest, so the measured time averages --seconds
        if len(runs) >= MIN_RUNS and elapsed + elapsed / len(runs) / 2 > seconds:
            break
    return {
        "metrics": {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "setup_s": statistics.median(setup),
        },
        "samples": {
            "wall_s": [r.wall_s for r in runs],
            "peak_rss_mb": [r.peak_rss_mb for r in runs],
            "setup_s": setup,
        },
        "extras": extras,
        "problems": failures,
    }


def traced(wl: workloads.Workload, name: str, seed: int) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import roughkit.cli as cli

    failures, extras, timings = [], [], []
    reference = None
    tracer = tracing.Tracer()
    for instrumented in (False, True):
        wl.clear_outputs()
        main = cli.main
        if instrumented:
            tracing.instrument(tracer)
            main = tracer.spanned("cli.main", cli.main)
        start = time.perf_counter()
        try:
            outcome = f"main() returned {main(list(wl.argv))}"
        except Exception:  # a crash is a failed run, like a nonzero exit
            outcome = f"main() raised:\n{traceback.format_exc(limit=-3)}"
        finally:
            timings.append(time.perf_counter() - start)
            tracer.restore()
        problems, extra, outputs = check_run(wl, reference)
        if outcome != "main() returned 0":
            problems.insert(0, outcome)
        reference = outputs if reference is None else reference
        failures.append(problems)
        extras.append(extra)

    untraced_s, main_s = timings
    metrics = tracing.layer_metrics(tracer, main_s, untraced_s, extras[-1].get("iterations"))
    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"spans-{name}-{seed}.json"
    spans_file.write_text(json.dumps({"workload": name, "seed": seed, "spans": tracer.as_records(),
                                      "counts": {c: {str(w): v for w, v in by_span.items()} for c, by_span in tracer.counts.items()}}))
    return {"metrics": metrics, "extras": extras, "problems": failures, "spans_file": str(spans_file.relative_to(ROOT))}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        t0 = time.perf_counter()
        wl = workloads.make(name, seed, work)
        inputs_s = time.perf_counter() - t0
        result = traced(wl, name, seed) if trace else end_to_end(wl, work, seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(result["problems"])
    failed = sum(1 for p in result["problems"] if p)
    result.update(workload=name, meta=wl.meta, inputs_s=inputs_s, attempted=attempted, failed=failed)
    return result


def units(trace: bool) -> dict[str, str]:
    return tracing.per_layer_units() if trace else END_TO_END_UNITS


def print_table(result: dict, trace: bool) -> None:
    name = result["workload"]
    print(f"== {name}  {json.dumps(result['meta'])}")
    for metric, unit in units(trace).items():
        print(f"  {metric:34s} {result['metrics'][metric]:>16.6g} {unit}")
    if not trace:
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':34s} {rate:>16.6g} failed/attempted ({result['failed']}/{result['attempted']})")
        for key in ("iterations", "solution_error", "integral_error", "signature_error"):
            vals = [e[key] for e in result["extras"] if e.get(key) is not None]
            if vals:
                print(f"  {key:34s} {statistics.median(vals):>16.6g} (median of {len(vals)} runs)")
    for i, problems in enumerate(result["problems"]):
        for p in problems:
            print(f"  run {i}: FAILED: {p}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=56.0, help="measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result (samples, metadata) as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "roughkit" / "cli.py").is_file():
        print(f"benchmark: no roughkit sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    meta = metadata()
    print(json.dumps({"meta": meta}))
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace)
        print_table(result, trace)
        results.append(result)

    if args.out is not None:
        Path(args.out).write_text(json.dumps({"meta": meta, "seed": args.seed, "seconds": args.seconds,
                                              "trace": args.trace, "results": results}, indent=1) + "\n")
    unit_of = units(trace)

    def prefix(r: dict) -> str:
        return "" if len(results) == 1 else r["workload"] + "."

    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            prefix(r) + m: {"value": r["metrics"][m], "unit": u} for r in results for m, u in unit_of.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
