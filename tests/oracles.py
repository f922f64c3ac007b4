"""Independent reference computations the tests freeze values against.

Everything here recomputes a quantity through a route the library does
not use: brute-force enumeration instead of dynamic programming, ODE
stepping instead of group products, matrix exponentials instead of
Picard iteration, finite differences instead of coefficient calculus.
Only numpy/scipy, never roughkit internals; `per_point_lift` alone uses
roughkit's public single-element API, as the reference for the stacked lift.
"""

import itertools

import numpy as np
from scipy.linalg import expm


def pvar_exhaustive(gaps: np.ndarray, p: float) -> float:
    """Max over every partition through grid points of sum |gap|^p, ^(1/p).

    gaps[i, j] is the increment size from i to j.  Enumerates all 2^(N-1)
    point subsets; keep N small.
    """
    n = gaps.shape[0] - 1
    best = 0.0
    for r in range(n):
        for interior in itertools.combinations(range(1, n), r):
            pts = (0, *interior, n)
            total = sum(gaps[a, b] ** p for a, b in zip(pts, pts[1:]))
            best = max(best, total)
    return best ** (1.0 / p)


def rk4_polyline(field_matrix, xi, times, values, substeps=32):
    """Classical ODE oracle for dy = f(y) dx along a polyline.

    field_matrix(y) returns the (m, d) matrix f(y); on each grid step the
    rate dx/dt is constant, so dy/dt = f(y) rate is integrated with
    `substeps` classical RK4 steps.
    """
    y = np.array(xi, dtype=float)
    out = [y.copy()]
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        rate = (values[i + 1] - values[i]) / dt
        h = dt / substeps
        for _ in range(substeps):
            k1 = field_matrix(y) @ rate
            k2 = field_matrix(y + 0.5 * h * k1) @ rate
            k3 = field_matrix(y + 0.5 * h * k2) @ rate
            k4 = field_matrix(y + h * k3) @ rate
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y.copy())
    return np.array(out)


def polygon_loop_endpoint(A1, A2, area, loops, xi):
    """Flow endpoint of dy = A1 y dx1 + A2 y dx2 over shrinking square loops.

    Each loop follows e1, e2, -e1, -e2 with side sqrt(area/loops); the
    K-fold product of the per-loop conjugation converges to the
    commutator flow exp(area [A2, A1]) applied to xi.
    """
    h = float(np.sqrt(area / loops))
    step = expm(-h * A2) @ expm(-h * A1) @ expm(h * A2) @ expm(h * A1)
    return np.linalg.matrix_power(step, loops) @ np.asarray(xi, dtype=float)


def ode_iterated_integrals(times, values, level, substeps=200):
    """Iterated integrals of a polyline by RK4 on dS_k/dt = S_{k-1} (x) dx/dt.

    Returns flat blocks [S_0, .., S_level] at the final time, each of
    shape (d**k,).  Shares no code with the group-product lift.
    """
    values = np.asarray(values, dtype=float)
    d = values.shape[1]
    blocks = [np.ones(1)] + [np.zeros(d**k) for k in range(1, level + 1)]

    def rhs(bs, rate):
        out = [np.zeros(1)]
        for k in range(1, level + 1):
            out.append(np.outer(bs[k - 1], rate).reshape(-1))
        return out

    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        rate = (values[i + 1] - values[i]) / dt
        h = dt / substeps
        for _ in range(substeps):
            k1 = rhs(blocks, rate)
            k2 = rhs([b + 0.5 * h * v for b, v in zip(blocks, k1)], rate)
            k3 = rhs([b + 0.5 * h * v for b, v in zip(blocks, k2)], rate)
            k4 = rhs([b + h * v for b, v in zip(blocks, k3)], rate)
            blocks = [
                b + (h / 6.0) * (a + 2.0 * c + 2.0 * e + f)
                for b, a, c, e, f in zip(blocks, k1, k2, k3, k4)
            ]
    return blocks


def central_difference(apply_fn, y, h=1e-5):
    """First derivative of a vector map, one trailing input axis appended."""
    y = np.asarray(y, dtype=float)
    base = np.asarray(apply_fn(y))
    out = np.zeros(base.shape + (y.size,))
    for i in range(y.size):
        e = np.zeros(y.size)
        e[i] = h
        out[..., i] = (np.asarray(apply_fn(y + e)) - np.asarray(apply_fn(y - e))) / (
            2.0 * h
        )
    return out


def rebracket_product_rhs(levels_a, lls_a, lls_b, pi1_b):
    """Right side of the product identity for the last-letter rebracketing.

    For group elements a, b the rebracketed blocks of ab must equal
    (blockwise, prefix degree k)

        lls(ab)[k] = lls(a)[k]
                   + sum_{j<=k} pi_{k-j}(a) (x) lls(b)[j]
                   + pi_k(a) (x) pi_1(b)

    which is the graded expansion of I'(ab) = I'(a) + proj((a(x)a) I'(b))
    + proj((a-1)(x)(a(b-1))): the second tensor factor is capped at one
    letter, so only pi_0..pi_{k-1} of the left multiplications survive.

    levels_a[k]: flat degree-k block of a (levels_a[0] = [1]).
    lls_a, lls_b: dicts {k: (d^k, d) block} for k = 1..L-1.
    pi1_b: degree-1 block of b.  Returns {k: (d^k, d)}.
    """
    d = pi1_b.size
    out = {}
    for k, block in lls_a.items():
        acc = block.copy()
        for j in range(1, k + 1):
            prefix = levels_a[k - j].reshape(-1)
            acc = acc + np.einsum("A,ab->Aab", prefix, lls_b[j]).reshape(
                d**k, d
            )
        acc = acc + np.einsum("A,b->Ab", levels_a[k].reshape(-1), pi1_b)
        out[k] = acc
    return out


def left_riemann(phi, x, n_fine):
    """Left Riemann sum of int phi(x_t) dx_t for closed-form scalar paths.

    phi and x are callables on [0, 1]; the sum runs over n_fine uniform
    subintervals.
    """
    t = np.linspace(0.0, 1.0, n_fine + 1)
    xt = x(t)
    return float(np.sum(phi(xt[:-1]) * np.diff(xt)))


def graded_product_loop(a, b):
    """Truncated tensor product of two lists of flat level blocks.

    One element at a time with np.outer, degree j = 0..k accumulated from
    zeros: the summation order any faster product must reproduce bitwise.
    """
    out = []
    for k in range(len(a)):
        acc = np.zeros(a[k].size)
        for j in range(k + 1):
            acc += np.outer(a[j], b[k - j]).reshape(-1)
        out.append(acc)
    return out


def series_inverse_loop(blocks):
    """(1 + u)^{-1} = sum_n (-u)^n term by term, in graded_product_loop order."""
    u = [np.zeros(1)] + [np.asarray(b, dtype=float) for b in blocks[1:]]
    acc = [np.ones(1)] + [np.zeros(b.size) for b in u[1:]]
    power = [np.ones(1)] + [np.zeros(b.size) for b in u[1:]]
    for n in range(1, len(blocks)):
        power = graded_product_loop(power, u)
        acc = [x + ((-1.0) ** n) * p for x, p in zip(acc, power)]
    return acc


def per_point_lift(values, level):
    """Signature points of a polyline built one group element at a time.

    Each segment is `tensor_exp` of its increment, certified, and each point
    the certified product of the previous point and the segment.  Returns
    the level stacks, entry [k] of shape (N+1, d**k).
    """
    from roughkit.tensor import GroupElement, TruncatedTensor, tensor_exp

    values = np.asarray(values, dtype=float)
    dim = values.shape[1]
    points = [GroupElement(TruncatedTensor.unit(dim, level), grouplike=True)]
    for step in np.diff(values, axis=0):
        seg = tensor_exp(TruncatedTensor.from_vector(step, level)).tensor
        points.append(points[-1] @ GroupElement(seg, grouplike=True))
    return [np.stack([g.level_block(k) for g in points]) for k in range(level + 1)]
