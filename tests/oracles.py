"""Independent reference computations the tests freeze values against.

Everything here recomputes a quantity through a route the library does
not use: brute-force enumeration instead of dynamic programming, ODE
stepping instead of group products, matrix exponentials instead of
Picard iteration, finite differences instead of coefficient calculus.
Only numpy/scipy, never roughkit internals; `per_point_lift` alone uses
roughkit's public single-element API, `GroupElement`, as the reference for
the stacked lift; `taylor_remainder_check` reads a map's public derivatives;
`form_value`, `value_on_increment`, `pushforward_dilate` and
`lift_pair_value` evaluate one-forms on single elements' level rows through
the forms' arrays, `pair_values`,
the base's inverse stack and a closed lift's coefficient builder and pairing
kernel; `difference_matrices_einsum` reads a
one-form path's arrays and its base's `increment_levels`,
`product_form_two_branch` reads the forms' arrays and roughkit's
`split_matrix` (whose reference is `split_matrix_permutations`),
`permuted_divided_seed` reads a form's level blocks, and
`pairwise_norm_table`, `controlled_residuals_whole_gather` and
`driver_distance_whole_gather` read paths' `increment_levels` over every
pair at once.  None reads the pair geometry (`pairwise_levels`, the
`_row_blocks` rectangles): pair indices come from `np.triu_indices`, and
the package itself never names that order.
"""

import functools
import itertools
import math

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


def young_half_grid_loop(tau_values, sigma_values):
    """Trapezoid sum of tau d(sigma) over the half grid (steps of two grid
    points, the last one short on an odd grid), one matmul per step, summed
    left to right."""
    n = sigma_values.shape[0] - 1
    idx = list(range(0, n + 1, 2)) + ([n] if n % 2 else [])
    coarse = 0.0
    for a, b in zip(idx[:-1], idx[1:]):
        coarse = coarse + 0.5 * (tau_values[a] + tau_values[b]) @ (
            sigma_values[b] - sigma_values[a]
        )
    return coarse


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


def stack_product_loop(a, b):
    """`graded_product_loop` over level stacks whose leading axes broadcast.

    Every level, the scalar one included, is the sum from zeros of the row-wise
    outer products j = 0..k in j order, with no unit term skipped.
    """
    lead = np.broadcast(a[0], b[0]).shape[:-1]
    out = []
    for k in range(len(a)):
        acc = np.zeros(lead + a[k].shape[-1:])
        for j in range(k + 1):
            acc += (a[j][..., :, None] * b[k - j][..., None, :]).reshape(lead + (-1,))
        out.append(acc)
    return tuple(out)


def series_loop(u, coeffs, acc):
    """acc + sum_n coeffs[n-1] u^n term by term, the powers of u by
    graded_product_loop from the unit: the order of the library's one
    nilpotent series."""
    power = [np.ones(1)] + [np.zeros(b.size) for b in u[1:]]
    for c in coeffs:
        power = graded_product_loop(power, u)
        acc = [x + c * p for x, p in zip(acc, power)]
    return acc


def series_inverse_loop(blocks):
    """(1 + u)^{-1} = sum_n (-u)^n term by term, in graded_product_loop order."""
    u = [np.zeros(1)] + [np.asarray(b, dtype=float) for b in blocks[1:]]
    acc = [np.ones(1)] + [np.zeros(b.size) for b in u[1:]]
    return series_loop(u, [(-1.0) ** n for n in range(1, len(blocks))], acc)


def series_exp_loop(blocks):
    """exp(u) = sum_n u^n / n! for blocks u with zero scalar part."""
    u = [np.asarray(b, dtype=float) for b in blocks]
    acc = [np.ones(1)] + [np.zeros(b.size) for b in u[1:]]
    return series_loop(u, [1.0 / math.factorial(n) for n in range(1, len(u))], acc)


def series_log_loop(blocks):
    """log(1 + u) = sum_n (-1)^(n+1) u^n / n for a unital element, its
    scalar part dropped."""
    u = [np.zeros(1)] + [np.asarray(b, dtype=float) for b in blocks[1:]]
    return series_loop(u, [(-1.0) ** (n + 1) / n for n in range(1, len(u))], [np.zeros(b.size) for b in u])


def per_point_lift(values, level):
    """Signature points of a polyline built one group element at a time.

    Each segment is `series_exp_loop` of its increment, certified, and each
    point the certified product of the previous point and the segment.
    Returns the level stacks, entry [k] of shape (N+1, d**k).
    """
    from roughkit.tensor import GroupElement

    values = np.asarray(values, dtype=float)
    dim = values.shape[1]
    unit = [np.ones(1)] + [np.zeros(dim**k) for k in range(1, level + 1)]
    points = [GroupElement(tuple(unit), grouplike=True)]
    for step in np.diff(values, axis=0):
        lie = [step if k == 1 else np.zeros(dim**k) for k in range(level + 1)]
        points.append(points[-1] @ GroupElement(tuple(series_exp_loop(lie)), grouplike=True))
    return [np.stack([g.level_block(k) for g in points]) for k in range(level + 1)]


def interval_dp_loop(E):
    """The p-variation control table by the gap/offset double loop.

    V[i, j] = max(E[i, j], max_off V[i, i+off] + V[i+off, j]), gaps in
    increasing order, then the lower triangle zeroed: the order of every
    sum a faster control must reproduce bitwise.
    """
    n = E.shape[0] - 1
    V = E.copy()
    for gap in range(2, n + 1):
        i = np.arange(0, n + 1 - gap)
        j = i + gap
        best = V[i, j]
        for off in range(1, gap):
            cand = V[i, i + off] + V[i + off, j]
            best = np.maximum(best, cand)
        V[i, j] = best
    V[np.tril_indices(n + 1)] = 0.0
    return V


def control_band_loop(E):
    """The p-variation control table one whole gap band at a time.

    E holds the powered norms above the diagonal.  The lower triangle keeps
    the transpose of each finished gap, so a band's midpoint sums read two
    unit-stride windows; each band's candidates are a fresh array.  The lower
    triangle is zeroed at the end.
    """
    V = np.array(E, dtype=float)
    n1 = V.shape[0]
    flat = V.reshape(-1)
    flat[n1 :: n1 + 1] = flat[1 :: n1 + 1]
    size = flat.itemsize
    band = (n1 + 1) * size, size
    for gap in range(2, n1):
        rows = n1 - gap
        left = np.ndarray((rows, gap - 1), buffer=flat, offset=size, strides=band)
        right = np.ndarray((rows, gap - 1), buffer=flat, offset=(gap * n1 + 1) * size, strides=band)
        diag = flat[gap :: n1 + 1][:rows]
        np.maximum(diag, (left + right).max(axis=1), out=diag)
        flat[gap * n1 :: n1 + 1][:rows] = diag
    V[np.tri(n1, dtype=bool)] = 0.0
    return V


def superadditivity_loop(table):
    """max over i < m < j of table[i, m] + table[m, j] - table[i, j], pair by pair."""
    n = table.shape[0]
    worst = -np.inf
    for i in range(n):
        for j in range(i + 2, n):
            mids = table[i, i + 1 : j] + table[i + 1 : j, j]
            worst = max(worst, float(np.max(mids) - table[i, j]))
    return worst


def full_scan_quotient(diff, w, expo, noise_floor=0.0, dead_tol=1e-12):
    """Worst floored spectral quotient by evaluating every pair.

    The largest singular value of each diff[i] through the out_dim x out_dim
    Gram eigenproblem (row norms when out_dim is 1), numerators at or below
    noise_floor set to zero, then num / w**expo with dead pairs (w**expo == 0)
    counting +inf above dead_tol and 0 otherwise.  Returns the maximum and
    the first pair attaining it: the (max, argmax) a pruned scan must
    reproduce bitwise.
    """
    if diff.shape[-2] == 1:
        norms = np.linalg.norm(diff[..., 0, :], axis=-1)
    else:
        gram = diff @ np.swapaxes(diff, -1, -2)
        vals = np.linalg.eigvalsh(gram)
        norms = np.sqrt(np.maximum(vals[..., -1], 0.0))
    if noise_floor > 0.0:
        norms = np.where(norms <= noise_floor, 0.0, norms)
    denom = w**expo
    quot = np.where(denom > 0.0, norms / np.where(denom > 0.0, denom, 1.0), 0.0)
    quot = np.where((denom == 0.0) & (norms > dead_tol), np.inf, quot)
    j = int(np.argmax(quot))
    return float(quot[j]), j


def difference_matrices_einsum(form, k, pairs=None, incs=None, pool=None):
    """Level-k pair difference matrices of a one-form path by one einsum per level.

    Over the pairs (s, t): every s < t in row-major order by default, else
    index arrays that broadcast, flat or a rectangle's np.ogrid, whose
    entries t <= s are no pairs and NaN, as the kernel's; `incs` and
    `pool`, the kernel's pair levels and scratch, are not read.  Reads the
    form's arrays and recomputes each pair increment from the base's points
    with `increment_levels`, never the cached pair geometry: the level
    blocks of both pair ends, then for each higher level m the whole gathered
    block A_s^(m) reshaped to (pairs, out, d**(m-k), d**k) contracted with
    pi_{m-k}(g_{s,t}) over its leading letter.  The reference a per-letter
    kernel must reproduce bitwise.
    """
    s, t = np.triu_indices(form.base.times.size, k=1) if pairs is None else pairs
    shape = np.broadcast_shapes(s.shape, t.shape)
    s, t = (np.broadcast_to(x, shape).ravel() for x in (s, t))
    live = t > s
    s_idx, t_idx = s[live], t[live]
    d = form.base.dim
    diff = form.levels[k - 1][t_idx] - form.levels[k - 1][s_idx]
    for m in range(k + 1, form.base.level + 1):
        A_s = form.levels[m - 1][s_idx].reshape(
            s_idx.size, form.out_dim, d ** (m - k), d**k
        )
        inc = form.base.increment_levels(s_idx, t_idx)[m - k]
        diff = diff - np.einsum("powj,pw->poj", A_s, inc)
    out = np.full((s.size,) + diff.shape[1:], np.nan)
    out[live] = diff
    return out.reshape(shape + diff.shape[1:])


def product_form_two_branch(H_values, H_form, E_values, E_form):
    """Controlled description of u -> H_u E_u with one einsum branch per shape of E.

    H takes values in m x d x m arrays, E in vectors of size m (values
    (N+1, m)) or in m x m matrices.  Vectors and matrices get separate
    einsum subscripts instead of reading a vector as an m x 1 matrix; the
    cross terms pair partial levels through `split_matrix`.  Returns the
    product values (N+1, w, d) and the level blocks of its form: the
    reference a single-branch kernel must reproduce bitwise.
    """
    from roughkit.tensor import split_matrix

    d, level = H_form.base.dim, H_form.base.level
    n, m = H_values.shape[:2]
    vector = E_values.ndim == 2
    w = m if vector else m * m
    if vector:
        phi = np.einsum("nija,na->nij", H_values, E_values)
    else:
        phi = np.einsum("nija,nab->nibj", H_values, E_values).reshape(n, w, d)
    phi = phi.reshape(n, w, d)
    levels = []
    for k in range(1, level + 1):
        acc = np.zeros((n, w * d, d**k))
        BH = H_form.levels[k - 1].reshape(n, m, d, m, d**k)
        if vector:
            acc += np.einsum("nijaK,na->nijK", BH, E_values).reshape(n, w * d, d**k)
            acc += np.einsum("nija,naK->nijK", H_values, E_form.levels[k - 1]).reshape(
                n, w * d, d**k
            )
        else:
            FE = E_form.levels[k - 1].reshape(n, m, m, d**k)
            acc += np.einsum("nijaK,nab->nibjK", BH, E_values).reshape(n, w * d, d**k)
            acc += np.einsum("nija,nabK->nibjK", H_values, FE).reshape(n, w * d, d**k)
        for k1 in range(1, k):
            k2 = k - k1
            BH1 = H_form.levels[k1 - 1].reshape(n, m, d, m, d**k1)
            if vector:
                FE2 = E_form.levels[k2 - 1].reshape(n, m, d**k2)
                cross = np.einsum("nijaA,naB->nijAB", BH1, FE2)
            else:
                FE2 = E_form.levels[k2 - 1].reshape(n, m, m, d**k2)
                cross = np.einsum("nijaA,nabB->nibjAB", BH1, FE2)
            acc += cross.reshape(n, w * d, d**k) @ split_matrix(d, (k1, k2))
        levels.append(acc)
    return phi, tuple(levels)


@functools.lru_cache(maxsize=None)
def permutation_table(K):
    """All K! permutations of range(K), one row each, in lexicographic order."""
    return np.array(list(itertools.permutations(range(K))), dtype=np.int64).reshape(-1, K)


def split_matrix_permutations(dim, parts):
    """Level-splitting matrix by scanning every arrangement of the part labels.

    The K! permutations of the labels, de-duplicated (keep K <= 9), are
    the interleavings.  Each one's positions, read part by part (a stable
    sort of its labels), place the output word's letters in the merged
    word, and the (output, merged) entry counts one.
    """
    labels = np.repeat(np.arange(len(parts)), parts)
    K = labels.size
    # a label sequence as one base-K integer, so np.unique de-duplicates rows
    codes = labels[permutation_table(K)] @ K ** np.arange(K - 1, -1, -1)
    _, first = np.unique(codes, return_index=True)
    patterns = labels[permutation_table(K)[first]]
    n = dim**K
    # output word r's letters, then r * n: one product gives each entry's flat index
    rows = np.vstack([np.indices((dim,) * K).reshape(K, n), np.arange(n) * n]).astype(float)
    weights = np.hstack([dim ** (K - 1 - np.argsort(patterns, axis=1, kind="stable")), np.ones((len(patterns), 1))])
    # integer dot products below 2**53, so the float product is exact
    flat = (weights @ rows).astype(np.int64).reshape(-1)
    return np.bincount(flat, minlength=n * n).reshape(n, n).astype(float)


def compositions_recursive(total, length):
    """Compositions of `total` into `length` positive parts, by recursion on
    the first part."""
    if length < 1 or total < length:
        return []
    if length == 1:
        return [(total,)]
    return [
        (first, *rest)
        for first in range(1, total - length + 2)
        for rest in compositions_recursive(total - first, length - 1)
    ]


def permuted_divided_seed(hv, ht_levels):
    """Integrand of a diagonal tower seed by permuting the divided field.

    hv holds h(y_a, y_b) as (N+1, m, d, m) values and ht_levels the level
    blocks of its form, output (i, j, a) flattened.  The seed integrates
    h against the identity, so its integrand is h reindexed to output
    ((i, a), j): returns phi (N+1, m*m, d) and the form levels
    (N+1, m*m*d, d**k), one transpose each, no arithmetic.  The reference
    the product with the identity matrix must reproduce bitwise.
    """
    n, m, d, _ = hv.shape
    phi = np.ascontiguousarray(hv.transpose(0, 1, 3, 2)).reshape(n, m * m, d)
    levels = []
    for k, block in enumerate(ht_levels, start=1):
        arr = block.reshape(n, m, d, m, d**k)
        levels.append(
            np.ascontiguousarray(arr.transpose(0, 1, 3, 2, 4)).reshape(
                n, m * m * d, d**k
            )
        )
    return phi, tuple(levels)


def pairwise_norm_table(g):
    """Homogeneous norms of every pair increment, level L included, from one
    `increment_levels` call over all pairs s < t.

    Sum over k = 1..L, in k order, of the k-th root of the row norm of level
    k; zero on and below the diagonal.  The table a build that never stores
    level L must reproduce bitwise.
    """
    n = g.times.size
    s_idx, t_idx = np.triu_indices(n, k=1)
    inc = g.increment_levels(s_idx, t_idx)
    table = np.zeros((n, n))
    table[s_idx, t_idx] = sum(
        np.linalg.norm(inc[k], axis=-1) ** (1.0 / k) for k in range(1, len(inc))
    )
    return table


def controlled_residuals_whole_gather(flat, beta):
    """||phi_t - phi_s - beta_s(g_s, g_{s,t})|| for every pair s < t at once.

    flat is the integrand (N+1, w*d) and beta its controlling form: every
    level of beta gathered at all pairs, paired with the increments of one
    `increment_levels` call by "nok,nk->no" and summed from zero in level
    order.  The residuals a rectangle-wise walk must reproduce bitwise.
    """
    base = beta.base
    s_idx, t_idx = np.triu_indices(base.times.size, k=1)
    inc = base.increment_levels(s_idx, t_idx)
    pred = 0.0
    for k, A in enumerate(beta.levels, start=1):
        pred = pred + np.einsum("nok,nk->no", A[s_idx], inc[k])
    return np.linalg.norm(flat[t_idx] - flat[s_idx] - pred, axis=1)


def driver_distance_whole_gather(a, b):
    """The p-variation gauge of two lifts from their increments at all pairs.

    Gap [s, t] sums, in level order, the row distances of the two lifts'
    increment levels 1..L; the best partition sum of gap**p runs over the
    last partition point before each grid point, then takes the 1/p power.
    """
    n = a.times.size
    s_idx, t_idx = np.triu_indices(n, k=1)
    gaps = np.zeros((n, n))
    gaps[s_idx, t_idx] = sum(
        np.linalg.norm(da - db, axis=1)
        for da, db in zip(
            a.increment_levels(s_idx, t_idx)[1:], b.increment_levels(s_idx, t_idx)[1:]
        )
    )
    E = gaps**a.p
    best = np.zeros(n)
    for j in range(1, n):
        best[j] = np.max(best[:j] + E[:j, j])
    return float(best[-1] ** (1.0 / a.p))


def taylor_remainder_check(f, x, y):
    """Max over orders j <= n of ||D^j f(x) - sum_k D^{j+k} f(y)[s, .., s] / k!||
    over |s|^(gamma - j), with s = x - y, k = 0..n-j and n = f.smoothness.

    The quantity every Lip(gamma) bound controls.  Derivatives come from the
    map's `derivative_at`; each Taylor term is contracted one slot at a time.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    step = x - y
    dist = float(np.linalg.norm(step))
    n = f.smoothness
    worst = 0.0
    for j in range(n + 1):
        pred = 0.0
        for k in range(n - j + 1):
            term = f.map.derivative_at(y, j + k)
            for _ in range(k):
                term = term @ step
            pred = pred + term / math.factorial(k)
        diff = f.map.derivative_at(x, j) - pred
        worst = max(worst, float(np.linalg.norm(diff)) / dist ** (f.gamma - j))
    return worst


def value_on_increment(beta, i, inc):
    """beta_{t_i}(g_{t_i}, inc) for one element's flat level rows inc, by
    `pair_values` on row i."""
    blocks = tuple(np.asarray(inc[k])[None] for k in range(1, beta.base.level + 1))
    return beta.pair_values([i], blocks)[0]


def form_value(beta, i, a, b):
    """beta_{t_i}(a, b) = sum_k A_{t_i}^(k) pi_k(g_{t_i}^{-1} a (b - 1)) at grid index i.

    a and b are elements' flat level rows.  g_{t_i}^{-1} is row i of the
    base's certified inverse stack, so a path's large loops are read at the
    path's scale; the products are graded_product_loop's.
    """
    inv = [x[i] for x in beta.base._inverse_levels]
    b_minus_one = [b[0] - 1.0] + list(b[1:])
    u = graded_product_loop(graded_product_loop(inv, a), b_minus_one)
    return value_on_increment(beta, i, u)


def pushforward_dilate(beta, c):
    """beta read through the dilation delta_c of its base: the form over
    `base.dilate(c)` with level k scaled by c**-k, which takes beta's values on
    dilated arguments, so its Riemann sums are beta's."""
    from roughkit.oneform import OneFormPath

    levels = tuple(float(c) ** (-k) * A for k, A in enumerate(beta.levels, start=1))
    return OneFormPath(beta.base.dilate(c), beta.out_dim, levels)


def lift_pair_value(form, base_point, a, b):
    """The closed lift of a polynomial form p on elements' flat level rows
    (a, b): its coefficients at the point a reaches from the base point,
    level k the derivative D^{k-1}p there with its own letter moved last,
    paired with the levels of b by the kernel `OneFormPath.pair_values`
    uses."""
    from roughkit.oneform import _pairing

    x = np.asarray(base_point, dtype=float) + a[1]
    w, d = form.out_shape[0], form.in_dim
    coeffs = tuple(
        form.derivative(x[None], k - 1)
        .reshape(1, w, d, d ** (k - 1))
        .transpose(0, 1, 3, 2)
        .reshape(1, w, d**k)
        for k in range(1, len(b))
    )
    blocks = tuple(np.asarray(b[k])[None] for k in range(1, len(b)))
    return _pairing(coeffs, blocks)[0]
