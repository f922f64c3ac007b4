"""Young and rough integration on sampled grids.

The grid is the data: integrals are finest-grid compensated sums, and the
returned discrepancy (difference against the half-grid sum) stands in for
the partition limit.  Summation is left-to-right so results are
bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcs import LipFunction
from .oneform import OneFormPath, _pair_quotient, integral_form_from_controlled
from .path import Control, SampledPath, _coarse_pairs
from .tensor import DimensionMismatchError, compositions, split_matrix, sum_squares

__all__ = [
    "RegularityError",
    "IntegralResult",
    "young_integral",
    "rough_integral",
    "taylor_oneform",
    "compose_integrand",
    "integrate_controlled",
]


class RegularityError(ValueError):
    """An exponent condition fails: Young's p, q >= 1 and 1/p + 1/q > 1 for
    a Young integral, or gamma > p - 1 for the integral map of a Lip(gamma)
    form along a p-rough path."""


def _check_gamma(gamma: float, p: float) -> bool:
    """Refuse gamma <= p - 1, where the integral map is not defined, and
    return whether gamma > p, the band where the compensated sums are
    certified to converge."""
    if gamma <= p - 1.0:
        raise RegularityError(
            f"gamma = {gamma} must exceed p - 1 = {p - 1.0} for the integral map to be defined"
        )
    return gamma > p


@dataclass(frozen=True, eq=False)
class IntegralResult:
    """Cumulative integral values on the grid plus an error proxy."""

    times: np.ndarray
    values: np.ndarray
    discrepancy: float

    @property
    def total(self) -> np.ndarray:
        return self.values[-1]


def young_integral(
    tau_values: np.ndarray, sigma: SampledPath, q: float, p: float
) -> IntegralResult:
    """Riemann-Stieltjes integral of an operator path against sigma.

    tau_values has shape (N+1, w, d) on sigma's grid.  Trapezoid tags: the
    Young limit admits any tag choice, and the trapezoid rule is the one
    that is exact for polylines against polyline-linear integrands.
    """
    tau_values = np.asarray(tau_values, dtype=float)
    n = sigma.times.size
    if tau_values.ndim != 3 or tau_values.shape[0] != n or tau_values.shape[2] != sigma.dim:
        raise DimensionMismatchError(
            f"tau must have shape (N+1, w, {sigma.dim}), got {tau_values.shape}"
        )
    # false on NaN; exponents below 1 go before 1/p or 1/q could divide by zero
    if not (p >= 1.0 and q >= 1.0 and 1.0 / p + 1.0 / q > 1.0):
        raise RegularityError(f"Young's condition p, q >= 1, 1/p + 1/q > 1 fails at p = {p}, q = {q}")
    steps = sigma.increments()
    mids = 0.5 * (tau_values[:-1] + tau_values[1:])
    contrib = np.einsum("nwd,nd->nw", mids, steps)
    values = np.zeros((n, tau_values.shape[1]))
    np.cumsum(contrib, axis=0, out=values[1:])
    a, b = _coarse_pairs(n - 1)
    coarse_mids = 0.5 * (tau_values[a] + tau_values[b])
    coarse = np.einsum("nwd,nd->nw", coarse_mids, sigma.values[b] - sigma.values[a])
    return IntegralResult(sigma.times, values, _discrepancy(values, coarse))


def _discrepancy(values: np.ndarray, coarse_steps: np.ndarray) -> float:
    """Distance from the fine total to the coarse steps summed left to right."""
    return float(np.linalg.norm(values[-1] - np.cumsum(coarse_steps, axis=0)[-1]))


def rough_integral(beta: OneFormPath) -> IntegralResult:
    """Integral of a one-form along its base path.

    Cumulative left sums of beta_{t_k}(g_{t_k}, g_{t_k,t_{k+1}}); the
    half-grid sum provides the discrepancy.  The caller certifies the sums:
    they converge when the form's `operator_norm` at some gamma > p is finite.
    """
    base = beta.base
    values = beta.integral_values()
    starts, _ = _coarse_pairs(base.num_steps)
    disc = _discrepancy(values, beta.pair_values(starts, base.half_step_level_blocks))
    return IntegralResult(base.times, values, disc)


def taylor_oneform(
    f: LipFunction, rho_positions: np.ndarray, rho_form: OneFormPath
) -> OneFormPath:
    """One-form of the composite path t -> f(rho_t), flattened output.

    Level k collects every derivative order l and every composition
    (k_1, .., k_l) of k: (1/l!) D^l f(rho_t) applied to the chosen levels of
    rho's form, pre-composed with the matching coordinate split of the
    argument.  Derivative orders stop at f's regularity budget,
    strict_floor(f.gamma).
    """
    levels = _taylor_levels(f, rho_positions, rho_form, rho_form.base.level)
    return OneFormPath(rho_form.base, levels[0].shape[1], levels)


def _taylor_levels(
    f: LipFunction, rho_positions: np.ndarray, rho_form: OneFormPath, top: int
) -> tuple[np.ndarray, ...]:
    """Levels 1..top of `taylor_oneform`, each (N+1, w, d**k); a level does
    not depend on the levels above it, so stopping early changes no bits."""
    base = rho_form.base
    n, d = base.times.size, base.dim
    m = rho_form.out_dim
    if f.in_dim != m:
        raise DimensionMismatchError(
            f"map expects dim {f.in_dim}, controlled path has {m}"
        )
    rho_positions = np.asarray(rho_positions, dtype=float)
    if rho_positions.shape != (n, m):
        raise DimensionMismatchError("rho positions must have shape (N+1, m)")
    w = f.map.out_size
    n_deriv = f.smoothness
    derivs = {
        l: f.derivative(rho_positions, l).reshape((n, w) + (m,) * l)
        for l in range(1, min(n_deriv, top) + 1)
    }
    levels = []
    for k in range(1, top + 1):
        acc = np.zeros((n, w, d**k))
        for l in range(1, min(k, n_deriv) + 1):
            for parts in compositions(k, l):
                # contract derivative slot i (axis 2 + i) with level k_i of
                # rho's form, whose letters take axis 2 + l + i
                ops = [derivs[l], [0, 1, *range(2, 2 + l)]]
                for i, ki in enumerate(parts):
                    ops += [rho_form.levels[ki - 1], [0, 2 + i, 2 + l + i]]
                contracted = np.einsum(*ops, [0, 1, *range(2 + l, 2 + 2 * l)]).reshape(n, w, d**k)
                acc += contracted @ split_matrix(d, parts) / math.factorial(l)
        levels.append(acc)
    return tuple(levels)


def compose_integrand(
    f: LipFunction,
    rho_positions: np.ndarray,
    rho_form: OneFormPath,
) -> OneFormPath:
    """One-form of t -> integral of f(rho) dg, the solver's workhorse.

    Valid for gamma > p - 1.  Level 1 is f(rho_t) itself; higher levels read
    the Taylor one-form of f(rho) through the last-letter pairing.
    """
    base = rho_form.base
    _check_gamma(f.gamma, base.p)
    if f.out_shape[-1] != base.dim:
        raise DimensionMismatchError(
            f"field output {f.out_shape} does not accept dim-{base.dim} increments"
        )
    phi = f.apply(np.asarray(rho_positions, dtype=float))
    w = int(np.prod(f.out_shape[:-1], dtype=int)) if f.out_shape[:-1] else 1
    phi = phi.reshape(base.times.size, w, base.dim)
    derivative_levels = _taylor_levels(f, rho_positions, rho_form, base.level - 1)
    return integral_form_from_controlled(base, phi, derivative_levels)


def integrate_controlled(
    phi_values: np.ndarray,
    beta: OneFormPath,
    gamma: float,
    omega: Control,
) -> tuple[OneFormPath, IntegralResult, dict]:
    """Integrate an operator path phi controlled by beta; returns the
    integral's one-form, the integral, and measured controlled-path bounds.

    The diagnostic dict reports the sup quotient of
    ||phi_t - phi_s - beta_s(g_s, g_{s,t})|| / omega^(gamma/p) and, as
    measured_M, that quotient over ||beta||_gamma, so callers can verify the
    premise against their own bound rather than assume it.
    """
    base = beta.base
    # the integral's form checks that phi has shape (N+1, w, d); its level 1 is phi
    eta = integral_form_from_controlled(base, phi_values, beta.levels[:-1])
    n, w, d = eta.levels[0].shape
    if beta.out_dim != w * d:
        raise DimensionMismatchError("beta must control the flattened integrand")
    flat = eta.levels[0].reshape(n, w * d)

    beta_norm = beta.operator_norm(gamma, omega)
    # folded rectangle by rectangle into the maximum over all pairs; a
    # non-pair's residual is zeroed, so its quotient is 0
    worst = 0.0
    for s0, s1 in base._row_blocks():
        s, t = np.arange(s0, s1)[:, None], np.arange(s0 + 1, n)[None, :]
        incs = tuple(x.reshape(s.size * t.size, -1) for x in base._rectangle_products(s0, s1, base.level)[1:])
        pred = beta.pair_values(np.repeat(s, t.size), incs).reshape(s.size, t.size, -1)
        resid = np.sqrt(sum_squares(flat[t] - flat[s] - pred))
        resid[t <= s] = 0.0
        worst = max(worst, _pair_quotient(resid.reshape(-1), omega.at(s, t).reshape(-1), gamma / base.p)[0])
    measured_M = worst / beta_norm if beta_norm > 0.0 else 0.0
    result = rough_integral(eta)
    diagnostics = {
        "beta_norm": beta_norm,
        "controlled_quotient": worst,
        "measured_M": measured_M,
    }
    return eta, result, diagnostics
