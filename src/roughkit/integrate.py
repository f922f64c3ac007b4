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
from .path import Control, SampledPath, signature, p_variation
from .tensor import DimensionMismatchError, compositions, split_matrix

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
    """Young's condition 1/p + 1/q > 1 fails for the supplied exponents."""


@dataclass(frozen=True)
class IntegralResult:
    """Cumulative integral values on the grid plus an error proxy."""

    times: np.ndarray
    values: np.ndarray
    discrepancy: float
    certified: bool | None = None
    operator_norm: float | None = None
    gamma: float | None = None

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
    if 1.0 / p + 1.0 / q <= 1.0:
        pp, qq = max(p, 1.0), max(q, 1.0)
        var_sigma = p_variation(signature(sigma, int(pp), p=pp))
        tau_flat = np.asarray(tau_values, dtype=float).reshape(len(sigma.times), -1)
        tau_path = SampledPath(sigma.times, tau_flat)
        var_tau = p_variation(signature(tau_path, int(qq), p=qq))
        raise RegularityError(
            f"1/{p} + 1/{q} <= 1; measured variations: "
            f"sigma {var_sigma:.6g} ({p}-var), tau {var_tau:.6g} ({q}-var)"
        )
    tau_values = np.asarray(tau_values, dtype=float)
    n = sigma.times.size
    if tau_values.ndim != 3 or tau_values.shape[0] != n or tau_values.shape[2] != sigma.dim:
        raise DimensionMismatchError(
            f"tau must have shape (N+1, w, {sigma.dim}), got {tau_values.shape}"
        )
    steps = sigma.increments()
    mids = 0.5 * (tau_values[:-1] + tau_values[1:])
    contrib = np.einsum("nwd,nd->nw", mids, steps)
    values = np.zeros((n, tau_values.shape[1]))
    np.cumsum(contrib, axis=0, out=values[1:])
    a, b = _coarse_pairs(n - 1)
    coarse_mids = 0.5 * (tau_values[a] + tau_values[b])
    coarse = np.einsum("nwd,nd->nw", coarse_mids, sigma.values[b] - sigma.values[a])
    return IntegralResult(sigma.times, values, _discrepancy(values, coarse))


def _coarse_pairs(num_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the half-grid steps; on an odd grid the last is short."""
    idx = np.append(np.arange(0, num_steps, 2), num_steps)
    return idx[:-1], idx[1:]


def _discrepancy(values: np.ndarray, coarse_steps: np.ndarray) -> float:
    """Distance from the fine total to the coarse steps summed left to right."""
    return float(np.linalg.norm(values[-1] - np.cumsum(coarse_steps, axis=0)[-1]))


def rough_integral(
    beta: OneFormPath,
    gamma: float | None = None,
    omega: Control | None = None,
) -> IntegralResult:
    """Integral of a one-form along its base path.

    Cumulative left sums of beta_{t_k}(g_{t_k}, g_{t_k,t_{k+1}}); the
    half-grid sum provides the discrepancy.  When gamma and a control are
    supplied the operator norm is evaluated and the result is certified iff
    the norm is finite and gamma > p.
    """
    base = beta.base
    if gamma is not None and gamma <= base.p - 1.0:
        raise ValueError(
            f"gamma = {gamma} is not above p - 1 = {base.p - 1.0}; "
            "the compensated sums have no meaning there"
        )
    values = beta.integral_values()
    a, b = _coarse_pairs(base.num_steps)
    disc = _discrepancy(values, beta.pair_values(a, base.increment_levels(a, b)[1:]))

    certified = None
    norm = None
    if gamma is not None and omega is not None:
        norm = beta.operator_norm(gamma, omega)
        certified = bool(np.isfinite(norm) and gamma > base.p)
    return IntegralResult(
        base.times, values, disc, certified=certified, operator_norm=norm, gamma=gamma
    )


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
                term = derivs[l]
                # contract derivative slot i with level k_i of rho's form
                in_letters = "abcde"[:l]
                out_letters = "ABCDE"[:l]
                spec = (
                    "nw" + in_letters
                    + ","
                    + ",".join(f"n{a}{A}" for a, A in zip(in_letters, out_letters))
                    + "->nw"
                    + out_letters
                )
                blocks = [rho_form.levels[ki - 1] for ki in parts]
                contracted = np.einsum(spec, term, *blocks).reshape(n, w, d**k)
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
    if f.gamma <= base.p - 1.0:
        raise ValueError(f"gamma = {f.gamma} must exceed p - 1 = {base.p - 1.0}")
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
    # folded run by run: max keeps the earlier of equal values, so this is
    # the maximum over all pairs at once
    worst = 0.0
    for _, s, t, incs in base.pair_runs(top=True):
        pred = beta.pair_values(s, incs)
        resid = np.linalg.norm(np.take(flat, t, axis=0) - np.take(flat, s, axis=0) - pred, axis=1)
        worst = max(worst, _pair_quotient(resid, omega.at(s, t), gamma / base.p)[0])
    measured_M = worst / beta_norm if beta_norm > 0.0 else 0.0
    result = rough_integral(eta, gamma=gamma + 1.0, omega=omega)
    diagnostics = {
        "beta_norm": beta_norm,
        "controlled_quotient": worst,
        "measured_M": measured_M,
    }
    return eta, result, diagnostics
