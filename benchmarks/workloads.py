"""Seeded inputs, numpy oracles and output checks for the benchmark workloads.

Each workload writes its CLI inputs (path CSV, field/form JSON) into a work
directory, computes its oracle with plain numpy, and returns the `roughkit`
argument list plus a check that turns the run's output bytes into a list of
problems (empty when the run is correct).  Nothing here imports roughkit, so
the oracles are independent of the code under test.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 11

# Solution of the cubic fixture is compared against an RK4 polyline oracle;
# the solver agrees to about 2e-9 at N=256, so 1e-6 only flags real breakage.
SOLUTION_TOL = 1e-6
# relative to max(1, |oracle|), so values near zero are not held to 1e-10 absolute
INTEGRAL_RTOL = 1e-10
SIGNATURE_RTOL = 1e-10
RK4_SUBSTEPS = 8
CUBIC_SPREAD = 0.02


@dataclass
class Workload:
    """One benchmark workload, materialised for a seed in a work directory."""

    name: str
    argv: list[str]
    outputs: list[Path]
    meta: dict
    check: Callable[[dict[str, bytes]], tuple[list[str], dict]]
    oracle: dict = field(default_factory=dict)

    def read_outputs(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in self.outputs if p.exists()}

    def clear_outputs(self) -> None:
        for p in self.outputs:
            p.unlink(missing_ok=True)


def write_path_csv(path: Path, times: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(values.shape[1])) + "\n")
        for t, row in zip(times, values):
            fh.write(",".join(repr(float(v)) for v in (t, *row)) + "\n")


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj))


def random_walk(rng: np.random.Generator, n_steps: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Brownian-scaled walk on [0, 1] starting at the origin."""
    times = np.linspace(0.0, 1.0, n_steps + 1)
    steps = rng.standard_normal((n_steps, dim)) / math.sqrt(n_steps)
    values = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return times, values


def _poly_eval(coeffs: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    """sum_l A_l[y, ..., y], contracting the trailing input slots."""
    out = np.array(coeffs[0], dtype=float)
    for l, block in enumerate(coeffs[1:], start=1):
        term = block
        for _ in range(l):
            term = term @ y
        out = out + term
    return out


def _problems_from_json(raw: bytes | None, name: str) -> tuple[dict | None, list[str]]:
    if raw is None:
        return None, [f"{name} missing"]
    try:
        return json.loads(raw), []
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, [f"{name} is not valid JSON: {exc}"]


def _read_table(raw: bytes) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(raw.decode())))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:] if r])


# -- solve-cubic -------------------------------------------------------------


def cubic_driver(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The cubic fixture's driver from tests/conftest.py."""
    t = np.linspace(0.0, 1.0, n_steps + 1)
    xs = np.stack(
        [0.4 * t + 0.15 * np.sin(2.0 * np.pi * t), 0.3 * np.cos(2.0 * np.pi * t) - 0.3],
        axis=1,
    )
    return t, xs


def _cubic_draw(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        0.4 * rng.standard_normal((2, 2)),
        0.3 * rng.standard_normal((2, 2, 2)),
        0.12 * rng.standard_normal((2, 2, 2, 2)),
        0.04 * rng.standard_normal((2, 2, 2, 2, 2)),
    ]


def cubic_coeffs(seed: int) -> list[np.ndarray]:
    """Degree-3 field R^2 -> L(R^2, R^2); seed 11 is the fixture of tests/conftest.py.

    The field lies CUBIC_SPREAD of the way from the fixture's draw towards the
    seed's own draw at the fixture's scales.  Independent draws need 10 to 16+
    iterations and some miss --n-max 16, so run time would follow the seed
    more than the code.  At a spread of 0.1 a quarter of the seeds took 11
    iterations instead of 12, which alone moves the quartiles of wall_s by
    about 7%; at 0.02 seeds 1-12 all take 12.
    """
    fixture = _cubic_draw(DEFAULT_SEED)
    return [f + CUBIC_SPREAD * (c - f) for c, f in zip(_cubic_draw(seed), fixture)]


def rk4_polyline(coeffs: list[np.ndarray], xi: np.ndarray, xs: np.ndarray, substeps: int) -> np.ndarray:
    """Solve dy = f(y) dx along the polyline xs, RK4 in the segment parameter."""
    ys = np.empty((xs.shape[0], xi.size))
    y = np.array(xi, dtype=float)
    ys[0] = y
    h = 1.0 / substeps
    for i, dx in enumerate(np.diff(xs, axis=0)):
        rhs = lambda z: _poly_eval(coeffs, z) @ dx  # noqa: E731
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
    return ys


def solve_cubic(seed: int, work: Path) -> Workload:
    n, d, m, level, gamma = 256, 2, 2, 3, 4.0
    xi = np.array([0.5, -0.25])
    times, xs = cubic_driver(n)
    coeffs = cubic_coeffs(seed)
    driver_csv, field_json = work / "driver.csv", work / "field.json"
    write_path_csv(driver_csv, times, xs)
    write_json(
        field_json,
        {
            "type": "poly",
            "in_dim": m,
            "out_shape": [m, d],
            "degree": 3,
            "coeffs": [c.tolist() for c in coeffs],
        },
    )
    oracle = rk4_polyline(coeffs, xi, xs, RK4_SUBSTEPS)
    report, solution, decay = work / "report.json", work / "solution.csv", work / "decay.csv"

    def check(out: dict[str, bytes]) -> tuple[list[str], dict]:
        rep, problems = _problems_from_json(out.get(report.name), report.name)
        extras: dict = {}
        if rep is not None:
            if rep.get("converged") is not True:
                problems.append("solve did not converge")
            if (rep.get("certificate") or {}).get("ok") is not True:
                problems.append("certificate not ok")
            extras["iterations"] = rep.get("iterations")
        if decay.name not in out:
            problems.append(f"{decay.name} missing")
        if solution.name not in out:
            return problems + [f"{solution.name} missing"], extras
        try:
            header, table = _read_table(out[solution.name])
        except (ValueError, IndexError, UnicodeDecodeError) as exc:
            return problems + [f"{solution.name} unreadable: {exc}"], extras
        if header != ["t", "y1", "y2"] or table.shape != (n + 1, m + 1):
            return problems + [f"{solution.name} has shape {table.shape}, header {header}"], extras
        if not np.array_equal(table[:, 0], times):
            problems.append("solution grid differs from the driver grid")
        err = float(np.max(np.abs(table[:, 1:] - oracle)))
        extras["solution_error"] = err
        if not err <= SOLUTION_TOL:
            problems.append(f"solution off the RK4 oracle by {err:.3e} > {SOLUTION_TOL:g}")
        return problems, extras

    argv = [
        "solve", str(driver_csv), "--field", str(field_json), "--xi", "0.5,-0.25",
        "--gamma", "4", "--radius", "3", "--tol", "1e-10", "--n-max", "16",
        "--report", str(report), "--out-csv", str(solution), "--decay-csv", str(decay),
    ]
    meta = {"seed": seed, "N": n, "d": d, "m": m, "L": level, "p": 3.0, "gamma": gamma}
    return Workload("solve-cubic", argv, [report, solution, decay], meta, check, {"solution": oracle})


# -- integrate-pvar ----------------------------------------------------------


def cubic_potential(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V(x) = b.x + H[x,x]/2 + T[x,x,x]/6 with H, T symmetric."""
    b = rng.standard_normal(d)
    H = rng.standard_normal((d, d))
    H = 0.5 * (H + H.T)
    T = rng.standard_normal((d, d, d))
    T = sum(T.transpose(p) for p in itertools.permutations(range(3))) / 6.0
    return b, H, T


def potential(b: np.ndarray, H: np.ndarray, T: np.ndarray, x: np.ndarray) -> float:
    return float(b @ x + 0.5 * x @ H @ x + (T @ x @ x @ x) / 6.0)


def integrate_pvar(seed: int, work: Path) -> Workload:
    n, d, level, gamma = 768, 2, 3, 2.5
    rng = np.random.default_rng(seed)
    times, xs = random_walk(rng, n, d)
    b, H, T = cubic_potential(rng, d)
    # grad V(x)_j = b_j + H[j] x + T[j][x, x] / 2, as a (1, d)-valued form
    coeffs = [b[None, :], H[None, :, :], 0.5 * T[None, :, :, :]]
    path_csv, form_json, out_json = work / "walk.csv", work / "form.json", work / "integral.json"
    write_path_csv(path_csv, times, xs)
    write_json(
        form_json,
        {"type": "poly", "in_dim": d, "out_shape": [1, d], "degree": 2, "coeffs": [c.tolist() for c in coeffs]},
    )
    expected = potential(b, H, T, xs[-1]) - potential(b, H, T, xs[0])

    def check(out: dict[str, bytes]) -> tuple[list[str], dict]:
        rep, problems = _problems_from_json(out.get(out_json.name), out_json.name)
        if rep is None:
            return problems, {}
        if rep.get("route") != "closed-lift":
            problems.append(f"route is {rep.get('route')!r}, expected 'closed-lift'")
        total = rep.get("total")
        if not (isinstance(total, list) and len(total) == 1 and isinstance(total[0], (int, float))):
            return problems + [f"total {total!r} is not a one-entry list"], {}
        err = abs(total[0] - expected) / max(1.0, abs(expected))
        if not err <= INTEGRAL_RTOL:
            problems.append(f"total off the potential difference by {err:.3e} relative")
        return problems, {"integral_error": err}

    argv = ["integrate", str(path_csv), "--form", str(form_json), "--gamma", "2.5", "--out", str(out_json)]
    meta = {"seed": seed, "N": n, "d": d, "L": level, "p": 3.0, "gamma": gamma}
    return Workload("integrate-pvar", argv, [out_json], meta, check, {"total": expected})


# -- signature-long ----------------------------------------------------------


def polyline_levels_1_2(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels 1 and 2 of a polyline's signature, flattened row-major."""
    dx = np.diff(xs, axis=0)
    before = np.cumsum(dx, axis=0) - dx  # sum of the increments before each step
    two = before.T @ dx + 0.5 * dx.T @ dx
    return xs[-1] - xs[0], two.reshape(-1)


def signature_long(seed: int, work: Path) -> Workload:
    n, d, level = 4096, 3, 4
    rng = np.random.default_rng(seed)
    times, xs = random_walk(rng, n, d)
    path_csv, out_json = work / "walk.csv", work / "signature.json"
    write_path_csv(path_csv, times, xs)
    one, two = polyline_levels_1_2(xs)

    def check(out: dict[str, bytes]) -> tuple[list[str], dict]:
        rep, problems = _problems_from_json(out.get(out_json.name), out_json.name)
        if rep is None:
            return problems, {}
        levels = rep.get("levels") or {}
        worst = 0.0
        for k, want in (("1", one), ("2", two)):
            try:
                got = np.asarray(levels[k], dtype=float)
            except (KeyError, TypeError, ValueError):
                problems.append(f"level {k} missing or not numeric")
                continue
            if got.shape != want.shape:
                problems.append(f"level {k} has shape {got.shape}, expected {want.shape}")
                continue
            err = float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
            worst = max(worst, err)
            if not err <= SIGNATURE_RTOL:
                problems.append(f"level {k} off the polyline formula by {err:.3e} relative")
        if sorted(levels) != [str(k) for k in range(1, level + 1)]:
            problems.append(f"levels {sorted(levels)} reported, expected 1..{level}")
        return problems, {"signature_error": worst}

    argv = ["signature", str(path_csv), "--level", str(level), "--out", str(out_json)]
    meta = {"seed": seed, "N": n, "d": d, "L": level, "p": None, "gamma": None}
    return Workload("signature-long", argv, [out_json], meta, check, {"1": one, "2": two})


WORKLOADS = {
    "solve-cubic": solve_cubic,
    "integrate-pvar": integrate_pvar,
    "signature-long": signature_long,
}


def make(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work)
