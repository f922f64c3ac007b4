"""Shared fixtures: the frozen solver fixtures used across rde, CLI, and
acceptance tests, solved once per session, the environment for CLI
subprocesses, the bitwise array comparison, and small builders of level
rows, fields and loops."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import roughkit
from roughkit.funcs import LipFunction, PolyMap
from roughkit.path import SampledPath, SampledRoughPath, _element_views, pure_area_path, signature
from roughkit.rde import RdeProblem, continuity_probe, rescale_problem, solve
from roughkit.tensor import homogeneous_norms

settings.register_profile(
    "suite", deadline=None, max_examples=25, derandomize=True
)
settings.load_profile("suite")


def cli_env(blas_threads: int | None = None) -> dict[str, str]:
    """The inherited environment with the imported roughkit's parent directory
    first on PYTHONPATH, so a `python -m roughkit.cli` child runs the same copy
    of the package as the tests, from any working directory.  With
    blas_threads the child's BLAS/OpenMP thread count is fixed before numpy
    loads."""
    src = Path(roughkit.__file__).resolve().parent.parent
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    if blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return env


def assert_bitwise(a, b):
    """Equal shapes and equal bits, so signed zeros count."""
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -- small builders ------------------------------------------------------------


def level_rows(dim: int, level: int, blocks: dict) -> tuple[np.ndarray, ...]:
    """One element's flat level rows 0..level from a sparse {degree: flat
    block} map; other degrees are zero."""
    return tuple(np.asarray(blocks.get(k, np.zeros(dim**k)), dtype=float) for k in range(level + 1))


def one_row(levels) -> tuple[np.ndarray, ...]:
    """One element's flat level rows as a 1-row level stack."""
    return tuple(np.asarray(b)[None] for b in levels)


def row(stack, i: int) -> tuple[np.ndarray, ...]:
    """Row i of a level stack as one element's flat level rows."""
    return tuple(x[i] for x in stack)


def increment_rows(g: SampledRoughPath, i: int, j: int) -> tuple[np.ndarray, ...]:
    """g_i^{-1} g_j as flat level rows: the row of `increment_levels([i], [j])`,
    certified at the path's shuffle scale rather than its own size."""
    return row(g.increment_levels([i], [j]), 0)


def increment_element(g: SampledRoughPath, i: int, j: int):
    """g_i^{-1} g_j as a certified GroupElement over its `increment_rows`, as
    `points` are, so that products of such elements run `certify_stack`."""
    return _element_views(g.increment_levels([i], [j]))[0]


def element_norm(levels) -> float:
    """Homogeneous norm of one element's level rows, as the 1-row stack
    `homogeneous_norms` reads."""
    return float(homogeneous_norms(one_row(levels[1:]))[0])


def algebra_norms(stack) -> np.ndarray:
    """The algebra norm, the sum over degrees of the Euclidean level norms,
    of each row of a level stack; of one element's flat rows, a scalar."""
    return sum(np.linalg.norm(x, axis=-1) for x in stack)


def rows_distance(a, b) -> float:
    """Algebra norm of the difference of two elements' level rows."""
    assert len(a) == len(b)
    return float(algebra_norms([x - y for x, y in zip(a, b)]))


def dilated(stack, c: float) -> tuple[np.ndarray, ...]:
    """Degree-homogeneous dilation: level k scaled by c**k."""
    return tuple((c**k) * x for k, x in enumerate(stack))


def linear_vector_field(mats) -> PolyMap:
    """f(y)[:, j] = mats[j] @ y, the field of dy = sum_j A_j y dx^j."""
    m, d = mats[0].shape[0], len(mats)
    lin = np.stack([np.asarray(A, dtype=float) for A in mats], axis=1)
    return PolyMap(m, (m, d), (np.zeros((m, d)), lin))


def reversed_path(path: SampledPath) -> SampledPath:
    """The same polyline run backwards over the same time span."""
    t = path.times
    return SampledPath(t[0] + t[-1] - t[::-1], path.values[::-1])


# -- exponential fixture: scalar dy = y dx on a smooth monotone-ish path -----


def scalar_exp_path(n_steps: int) -> SampledPath:
    t = np.linspace(0.0, 1.0, n_steps + 1)
    x = 0.4 * t + 0.16 * np.sin(2.0 * np.pi * t)
    return SampledPath(t, x[:, None])


def exp_field() -> LipFunction:
    return LipFunction(linear_vector_field([np.array([[1.0]])]), gamma=4.0)


def exp_problem(n_steps: int, **kw) -> RdeProblem:
    driver = signature(scalar_exp_path(n_steps), 3, p=3.0)
    return RdeProblem(driver, exp_field(), xi=np.array([1.0]), **kw)


# -- cubic fixture: 2-d state, 2-d driver, degree-3 polynomial field ---------


def cubic_field() -> LipFunction:
    rng = np.random.default_rng(11)
    coeffs = (
        0.4 * rng.standard_normal((2, 2)),
        0.3 * rng.standard_normal((2, 2, 2)),
        0.12 * rng.standard_normal((2, 2, 2, 2)),
        0.04 * rng.standard_normal((2, 2, 2, 2, 2)),
    )
    return LipFunction(PolyMap(2, (2, 2), coeffs), gamma=4.0)


def cubic_path(n_steps: int) -> SampledPath:
    t = np.linspace(0.0, 1.0, n_steps + 1)
    xs = np.stack(
        [
            0.4 * t + 0.15 * np.sin(2.0 * np.pi * t),
            0.3 * np.cos(2.0 * np.pi * t) - 0.3,
        ],
        axis=1,
    )
    return SampledPath(t, xs)


def cubic_problem(n_steps: int, **kw) -> RdeProblem:
    driver = signature(cubic_path(n_steps), 3, p=3.0)
    return RdeProblem(driver, cubic_field(), xi=np.array([0.5, -0.25]), **kw)


# -- pure-area fixture: level-2 driver with no displacement ------------------

AREA_A1 = np.array([[0.0, 1.0], [-0.5, 0.2]])
AREA_A2 = np.array([[0.3, -0.2], [0.8, 0.0]])
AREA_VALUE = 0.35
AREA_XI = np.array([1.0, 0.5])


def area_problem(steps: int = 320, **kw) -> RdeProblem:
    field = LipFunction(linear_vector_field([AREA_A1, AREA_A2]), gamma=3.0)
    return RdeProblem(pure_area_path(AREA_VALUE, steps), field, xi=AREA_XI, **kw)


# -- looped drivers: group-valued paths whose steps carry area of their own --


def looped_lift(path: SampledPath, eps: float, level: int = 3) -> tuple[SampledPath, SampledRoughPath]:
    """A genuinely rough driver on `path`'s grid, and the polyline it lifts.

    Each grid step is followed by one square loop of area eps * dt in the
    first two coordinates, which starts and ends at the step's end point:
    the fine polyline runs x_i, x_{i+1} and three corners per step.  Its
    signature's rows at the grid points, every fifth, form the coarse path:
    each step carries area eps * dt that its level 1 does not explain, and
    RK4 on the fine polyline is an oracle for a solve on the coarse path.
    """
    t, x = path.times, path.values
    dt = np.diff(t)
    e1, e2 = np.sqrt(eps * dt)[None, :, None] * np.eye(path.dim)[:2, None, :]
    corners = (x[:-1], x[1:], x[1:] + e1, x[1:] + e1 + e2, x[1:] + e2)
    fine = SampledPath(
        np.append((t[:-1, None] + dt[:, None] * np.arange(5) / 5).reshape(-1), t[-1]),
        np.vstack([np.stack(corners, axis=1).reshape(-1, path.dim), x[-1:]]),
    )
    lift = signature(fine, level)
    return fine, SampledRoughPath(t, tuple(block[::5] for block in lift.levels), lift.p)


# -- probe fixture: scalar equation on a 200-step grid, used by the ----------
# -- uniqueness and continuity probes and the acceptance suite ----------------


def probe_path() -> SampledPath:
    t = np.linspace(0.0, 1.0, 201)
    x = 0.3 * t + 0.1 * np.sin(2.0 * np.pi * t)
    return SampledPath(t, x[:, None])


def probe_problem(**kw) -> RdeProblem:
    return RdeProblem(
        signature(probe_path(), 3, p=3.0), exp_field(), xi=np.array([1.0]), **kw
    )


def perturbed_probe_driver(delta: float) -> SampledRoughPath:
    t = np.linspace(0.0, 1.0, 201)
    x = 0.3 * t + 0.1 * np.sin(2.0 * np.pi * t)
    bump = 0.5 * np.sin(4.0 * np.pi * t) + 0.5 * t * (1.0 - t)
    return signature(SampledPath(t, (x + delta * bump)[:, None]), 3, p=3.0)


@pytest.fixture(scope="session")
def probe_solutions():
    """The probe equation solved twice: as posed and dilated by c = 8."""
    prob = probe_problem(n_max=16)
    c = 8.0
    return {
        "problem": prob,
        "base": solve(prob),
        "rescaled": solve(rescale_problem(prob, c)),
        "c": c,
    }


@pytest.fixture(scope="session")
def continuity_report():
    prob = probe_problem(n_max=16)
    drivers = [prob.driver] + [
        perturbed_probe_driver(d) for d in (1e-1, 1e-2, 1e-3)
    ]
    return continuity_probe(prob, drivers)


@pytest.fixture(scope="session")
def exp_solutions():
    """Exponential fixture solved at two grid resolutions, with history."""
    return {
        n: solve(exp_problem(n, n_max=16), keep_history=True)
        for n in (128, 256)
    }


@pytest.fixture(scope="session")
def cubic_solutions():
    return {
        n: solve(cubic_problem(n, n_max=16), keep_history=True)
        for n in (128, 256)
    }


@pytest.fixture(scope="session")
def area_solution():
    return solve(area_problem())
