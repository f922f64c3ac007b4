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

from .funcs import LipFunction, SmoothMap, strict_floor
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
    idx = _coarse_indices(n - 1)
    coarse = 0.0
    for a, b in zip(idx[:-1], idx[1:]):
        coarse = coarse + 0.5 * (tau_values[a] + tau_values[b]) @ (
            sigma.values[b] - sigma.values[a]
        )
    disc = float(np.linalg.norm(values[-1] - coarse))
    return IntegralResult(sigma.times, values, disc)


def _coarse_indices(num_steps: int) -> list[int]:
    idx = list(range(0, num_steps + 1, 2))
    if idx[-1] != num_steps:
        idx.append(num_steps)
    return idx


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
    contrib = beta.step_values()
    values = np.zeros((base.times.size, beta.out_dim))
    np.cumsum(contrib, axis=0, out=values[1:])

    idx = np.array(_coarse_indices(base.num_steps))
    incs = base.increment_levels(idx[:-1], idx[1:])
    coarse = np.zeros(beta.out_dim)
    for row, a in enumerate(idx[:-1]):
        # the same products, in the same order, as beta.value_on_increment
        step = np.zeros(beta.out_dim)
        for k in range(1, base.level + 1):
            step += beta.levels[k - 1][a] @ incs[k][row]
        coarse = coarse + step
    disc = float(np.linalg.norm(values[-1] - coarse))

    certified = None
    norm = None
    if gamma is not None and omega is not None:
        norm = float(beta.operator_norm(gamma, omega))
        certified = bool(np.isfinite(norm) and gamma > base.p)
    return IntegralResult(
        base.times, values, disc, certified=certified, operator_norm=norm, gamma=gamma
    )


def taylor_oneform(
    f: LipFunction | SmoothMap,
    rho_positions: np.ndarray,
    rho_form: OneFormPath,
    gamma: float | None = None,
) -> OneFormPath:
    """One-form of the composite path t -> f(rho_t), flattened output.

    Level k collects every derivative order l and every composition
    (k_1, .., k_l) of k: (1/l!) D^l f(rho_t) applied to the chosen levels of
    rho's form, pre-composed with the matching coordinate split of the
    argument.  Derivative orders stop at the regularity budget.
    """
    if isinstance(f, LipFunction):
        gamma = f.gamma if gamma is None else gamma
        fmap = f.map
    else:
        fmap = f
    if gamma is None:
        raise ValueError("gamma required for a bare map")
    base = rho_form.base
    n, d = base.times.size, base.dim
    m = rho_form.out_dim
    if fmap.in_dim != m:
        raise DimensionMismatchError(
            f"map expects dim {fmap.in_dim}, controlled path has {m}"
        )
    rho_positions = np.asarray(rho_positions, dtype=float)
    if rho_positions.shape != (n, m):
        raise DimensionMismatchError("rho positions must have shape (N+1, m)")
    w = fmap.out_size
    n_deriv = strict_floor(gamma)
    derivs = {
        l: fmap.derivative(rho_positions, l).reshape((n, w) + (m,) * l)
        for l in range(1, min(n_deriv, base.level) + 1)
    }
    levels = []
    for k in range(1, base.level + 1):
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
    return OneFormPath(base, w, tuple(levels))


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
    derivative_form = taylor_oneform(f, rho_positions, rho_form)
    return integral_form_from_controlled(phi, derivative_form)


def integrate_controlled(
    phi_values: np.ndarray,
    beta: OneFormPath,
    gamma: float,
    omega: Control,
    M: float | None = None,
) -> tuple[OneFormPath, IntegralResult, dict]:
    """Integrate an operator path phi controlled by beta; returns the
    integral's one-form, the integral, and measured controlled-path bounds.

    The diagnostic dict reports the sup quotient of
    ||phi_t - phi_s - beta_s(g_s, g_{s,t})|| / (||beta||_gamma omega^(gamma/p))
    so callers can verify the premise rather than assume it.
    """
    base = beta.base
    n, d = base.times.size, base.dim
    phi_values = np.asarray(phi_values, dtype=float)
    if phi_values.shape[0] != n or phi_values.ndim != 3 or phi_values.shape[2] != d:
        raise DimensionMismatchError("phi must have shape (N+1, w, d)")
    w = phi_values.shape[1]
    flat = phi_values.reshape(n, w * d)
    if beta.out_dim != w * d:
        raise DimensionMismatchError("beta must control the flattened integrand")

    s_idx, t_idx = base.pair_indices
    pred = np.zeros((s_idx.size, w * d))
    for k in range(1, base.level + 1):
        pred += np.einsum(
            "pok,pk->po",
            beta.levels[k - 1][s_idx],
            base.pairwise_levels[k - 1][s_idx, t_idx],
        )
    resid = np.linalg.norm(flat[t_idx] - flat[s_idx] - pred, axis=1)
    beta_norm = float(beta.operator_norm(gamma, omega))
    worst, _ = _pair_quotient(resid, omega.table[s_idx, t_idx], gamma / base.p)
    measured_M = worst / beta_norm if beta_norm > 0.0 else 0.0

    eta = integral_form_from_controlled(phi_values, beta)
    result = rough_integral(eta, gamma=gamma + 1.0, omega=omega)
    diagnostics = {
        "beta_norm": beta_norm,
        "controlled_quotient": worst,
        "measured_M": measured_M,
        "M_bound": M,
        "ok": M is None or measured_M <= M * (1.0 + 1e-9),
    }
    return eta, result, diagnostics
