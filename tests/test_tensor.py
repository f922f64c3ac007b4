import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from roughkit.path import SampledPath, signature
from roughkit.tensor import (
    DimensionMismatchError,
    GroupElement,
    certify_stack,
    letter_major_views,
    compositions,
    split_matrix,
    stack_exp,
    stack_inverse,
    stack_product,
    sum_squares,
)

from conftest import (
    algebra_norms,
    assert_bitwise,
    dilated,
    element_norm,
    level_rows,
    one_row,
    row,
    rows_distance,
)
from oracles import (
    compositions_recursive,
    graded_product_loop,
    rebracket_product_rhs,
    series_inverse_loop,
    series_log_loop,
    split_matrix_permutations,
    stack_product_loop,
)


def basis(i, dim, level):
    """Level rows of the letter e_i, zero at every other degree, the scalar included."""
    v = np.zeros(dim)
    v[i] = 1.0
    return level_rows(dim, level, {1: v})


def random_signature(rng, dim=3, level=4, n_pts=6) -> GroupElement:
    t = np.sort(rng.uniform(0.0, 1.0, n_pts))
    t[0], t[-1] = 0.0, 1.0
    pts = 0.6 * rng.standard_normal((n_pts, dim))
    return signature(SampledPath(t, pts), level).points[-1]


def random_stack(rng, n, dim, level, from_level=0) -> tuple[np.ndarray, ...]:
    """n random elements, not unital; levels below from_level are zero."""
    return tuple(
        rng.standard_normal((n, dim**k)) if k >= from_level else np.zeros((n, dim**k))
        for k in range(level + 1)
    )


def exp_rows(lie):
    """`stack_exp` of one element's level rows with zero scalar part."""
    return row(stack_exp(one_row(lie)), 0)


def assert_close(a, b, tol=1e-12):
    """Same shapes at every degree, every coefficient within tol."""
    assert [np.shape(x) for x in a] == [np.shape(y) for y in b]
    for x, y in zip(a, b):
        assert np.max(np.abs(x - y), initial=0.0) <= tol


def test_product_of_one_plus_basis_vectors():
    one_plus = [GroupElement(level_rows(2, 2, {0: np.ones(1), 1: v})) for v in np.eye(2)]
    prod = one_plus[0] @ one_plus[1]
    assert prod.level_block(0)[0] == 1.0
    np.testing.assert_allclose(prod.level_block(1), [1.0, 1.0])
    np.testing.assert_allclose(
        prod.level_block(2), [0.0, 1.0, 0.0, 0.0], atol=0.0
    )


def test_multiplication_by_unit_is_identity():
    rng = np.random.default_rng(0)
    a = random_stack(rng, 10, dim=3, level=3)
    one = one_row(GroupElement.unit(3, 3).levels)
    assert_close(stack_product(a, one), a)
    assert_close(stack_product(one, a), a)


def test_commuting_exponentials_add():
    e1 = basis(0, 2, 3)
    prod = stack_product(one_row(exp_rows(e1)), one_row(exp_rows(e1)))
    double = exp_rows(tuple(2.0 * x for x in e1))
    for k in range(4):
        np.testing.assert_allclose(prod[k][0], double[k], atol=1e-14)


def test_exp_of_zero_is_unit():
    assert_close(exp_rows(level_rows(2, 2, {})), GroupElement.unit(2, 2).levels)


def test_log_exp_round_trip():
    v = level_rows(2, 3, {1: np.ones(2)})
    back = series_log_loop(exp_rows(v))
    for k in range(4):
        np.testing.assert_allclose(back[k], v[k], atol=1e-14)


def test_exp_series_truncation():
    a = exp_rows(basis(0, 2, 2))
    assert a[0][0] == 1.0
    np.testing.assert_allclose(a[1], [1.0, 0.0])
    np.testing.assert_allclose(a[2], [0.5, 0.0, 0.0, 0.0])


def test_inverse_of_unit():
    one = GroupElement.unit(2, 2)
    assert_close(one.inverse().levels, one.levels)


def test_inverse_of_exponential_negates():
    rng = np.random.default_rng(1)
    v = row(random_stack(rng, 1, dim=2, level=3, from_level=1), 0)
    inv = GroupElement(exp_rows(v)).inverse()
    neg = exp_rows(tuple(-x for x in v))
    for k in range(4):
        np.testing.assert_allclose(inv.level_block(k), neg[k], atol=1e-13)


def test_inverse_cancels_on_random_signatures():
    rng = np.random.default_rng(2)
    one = GroupElement.unit(3, 4).levels
    for _ in range(100):
        a = random_signature(rng)
        assert rows_distance((a @ a.inverse()).levels, one) <= 1e-12


def stack_of(elems) -> tuple[np.ndarray, ...]:
    return tuple(
        np.stack([g.level_block(k) for g in elems]) for k in range(elems[0].level + 1)
    )


def test_stack_kernel_is_bitwise_the_loop_arithmetic():
    rng = np.random.default_rng(3)
    elems = [random_signature(rng) for _ in range(5)]
    others = [random_signature(rng) for _ in range(5)]
    inv = stack_inverse(stack_of(elems))
    prod = stack_product(stack_of(elems), stack_of(others))
    for i, (g, h) in enumerate(zip(elems, others)):
        ref_inv = series_inverse_loop(g.levels)
        ref_prod = graded_product_loop(g.levels, h.levels)
        for k in range(g.level + 1):
            assert np.array_equal(inv[k][i], ref_inv[k])
            assert np.array_equal(inv[k][i], g.inverse().level_block(k))
            assert np.array_equal(prod[k][i], ref_prod[k])
            assert np.array_equal(prod[k][i], (g @ h).level_block(k))


def unital_stack(rng, n, dim=2, level=4):
    """n random unital elements, with -0.0, +0.0 and subnormal entries planted
    in every level, so the sums from zero meet signed zeros and tiny terms."""
    stack = (np.ones((n, 1)),) + tuple(rng.standard_normal((n, dim**k)) for k in range(1, level + 1))
    special = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e-300])
    for x in stack[1:]:
        flat = x.reshape(-1)
        at = rng.choice(flat.size, size=max(1, flat.size // 3), replace=False)
        flat[at] = rng.choice(special, size=at.size)
    return stack


def assert_product_is_the_loop(a, b):
    """Allocated, and also in a NaN-filled pool, whose leading letter-major
    views then hold the levels: each letter a C-ordered block of the
    leading shape's n entries, for rows and for broadcast rectangles alike.
    The views are np.moveaxis's: the same shape, strides and data."""
    want = stack_product_loop(a, b)
    got = [stack_product(a, b)]
    lead, widths = np.broadcast(a[0], b[0]).shape[:-1], [x.shape[-1] for x in a]
    n = math.prod(lead)
    pool = np.full(n * (sum(widths) + widths[-1]), np.nan)
    block = pool.reshape((-1,) + lead)
    for x, at in zip(letter_major_views(pool, lead, widths + widths[-1:]), np.cumsum([0] + widths)):
        ref = np.moveaxis(block[at : at + x.shape[-1]], 0, -1)
        assert (x.shape, x.strides, x.ctypes.data) == (ref.shape, ref.strides, ref.ctypes.data)
    got.append(stack_product(a, b, pool))
    for x, w, at in zip(got[-1], widths, np.cumsum([0] + widths) * n):
        assert x.base is not None and np.shares_memory(x, pool[at : at + n * w])
        assert x.shape == lead + (w,) and np.moveaxis(x, -1, 0).flags.c_contiguous
    for levels in got:
        assert len(levels) == len(want)
        for x, y in zip(levels, want):
            assert_bitwise(x, y)


@pytest.mark.parametrize("seed", range(4))
def test_unital_product_is_bitwise_the_sum_from_zero(seed):
    rng = np.random.default_rng(seed)
    a, b = unital_stack(rng, 9), unital_stack(rng, 9)
    assert_product_is_the_loop(a, b)
    # every level of b negative zero: (0.0 + -0.0) + a_k, as the loop sums it
    zero = (b[0],) + tuple(np.full_like(x, -0.0) for x in b[1:])
    assert_product_is_the_loop(a, zero)
    assert_product_is_the_loop(zero, zero)


def test_series_powers_with_zero_scalar_are_bitwise_the_sum_from_zero():
    rng = np.random.default_rng(11)
    u = (np.zeros((6, 1)),) + unital_stack(rng, 6)[1:]
    power = (np.ones((6, 1)),) + tuple(np.zeros(x.shape) for x in u[1:])
    for _ in range(len(u)):
        assert_product_is_the_loop(power, u)
        assert_product_is_the_loop(u, power)
        power = stack_product(power, u)
    assert all(not np.any(x) for x in power)


@pytest.mark.parametrize("off", [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("side", [0, 1])
def test_scalar_one_ulp_off_the_unit_takes_the_general_sum(off, side):
    rng = np.random.default_rng(5)
    pair = [unital_stack(rng, 7), unital_stack(rng, 7)]
    scalar = np.ones((7, 1))
    scalar[3] = off
    pair[side] = (scalar,) + pair[side][1:]
    assert_product_is_the_loop(*pair)
    # the unit's shortcut would have given other bits on that row
    unit = [(np.ones((7, 1)),) + x[1:] for x in pair]
    assert any(
        not np.array_equal(x[3].view(np.uint64), y[3].view(np.uint64))
        for x, y in zip(stack_product(*pair), stack_product_loop(*unit))
    )


@pytest.mark.parametrize("unital", [True, False])
def test_broadcast_pair_products_are_bitwise_the_sum_from_zero(unital):
    rng = np.random.default_rng(8)
    a, b = unital_stack(rng, 5, dim=3, level=3), unital_stack(rng, 6, dim=3, level=3)
    if not unital:
        a = (np.full((5, 1), 0.5),) + a[1:]
    rows = tuple(x[:, None, :] for x in a)
    cols = tuple(x[None, :, :] for x in b)
    assert_product_is_the_loop(rows, cols)
    assert stack_product(rows, cols)[3].shape == (5, 6, 27)


def letter_major(stack):
    """The same stack with each (n, d**k) level a view of a contiguous (d**k, n) array."""
    return tuple(np.ascontiguousarray(x.T).T for x in stack)


@pytest.mark.parametrize("unital", [True, False])
def test_letter_major_operands_give_letter_major_levels_with_the_same_bits(unital):
    rng = np.random.default_rng(9)
    a, b = unital_stack(rng, 7), unital_stack(rng, 7)
    if not unital:
        a = (np.full((7, 1), 0.5),) + a[1:]
    got = stack_product(letter_major(a), letter_major(b))
    for x, y in zip(got, stack_product_loop(a, b)):
        # the rows, here the pairs, on the contiguous axis
        assert x.strides[0] == x.itemsize
        assert_bitwise(x, y)


def test_row_major_operands_give_c_contiguous_levels():
    rng = np.random.default_rng(10)
    a, b = unital_stack(rng, 7), unital_stack(rng, 7)
    for u, v in [(a, b), (a, (np.zeros((7, 1)),) + b[1:])]:
        assert all(x.flags.c_contiguous for x in stack_product(u, v))
    # the one-row products of the object lift
    g, h = random_signature(rng), random_signature(rng)
    assert all(x.flags.c_contiguous for x in stack_product(one_row(g.levels), one_row(h.levels)))


def test_sum_squares_is_bitwise_numpys_norm_in_either_layout():
    """Pins the pairwise order: a numpy release that sums a row in another
    order fails here, not in the pair norms far downstream."""
    rng = np.random.default_rng(12)
    for width in [*range(1, 140), 256, 729, 4096]:
        for scale in (1.0, np.exp(30.0), np.exp(-30.0)):
            x = scale * rng.standard_normal((5, width)) * np.exp(rng.uniform(-3.0, 3.0, (5, width)))
            x[0, ::2] = -0.0
            x[1] = 0.0
            x[2, ::3] = rng.choice([5e-324, -2.5e-310, 1e-300], size=x[2, ::3].size)
            want = np.add.reduce(x * x, axis=-1)
            for layout in (x, letter_major((x,))[0]):
                got = sum_squares(layout)
                assert_bitwise(got, want)
                assert_bitwise(np.sqrt(got), np.linalg.norm(x, axis=-1))


def _verdict(fn) -> str | None:
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


# rows of (seed, level-2 perturbation, dilation); a dilation scales the
# shuffle relation's rounding and its bound together
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**31 - 1),
            st.sampled_from([0.0, 1e-13, 1e-9, 1e-3]),
            st.sampled_from([1.0, 300.0]),
        ),
        min_size=1,
        max_size=5,
    )
)
@example([(0, 0.0, 1.0), (1, 0.0, 300.0)])
@example([(0, 0.0, 1.0), (1, 1e-3, 1.0), (2, 0.0, 300.0)])
@example([(0, 0.0, 300.0), (1, 1e-3, 1.0)])
def test_batched_certificate_matches_per_element(rows):
    tensors = []
    for seed, eps, c in rows:
        rng = np.random.default_rng(seed)
        blocks = list(dilated(random_signature(rng, dim=2, level=3).levels, c))
        blocks[2] = blocks[2] + eps * rng.standard_normal(4)
        tensors.append(tuple(blocks))
    per_element = [
        _verdict(lambda t=t: GroupElement(t, grouplike=True)) for t in tensors
    ]
    stack = stack_of([GroupElement(t) for t in tensors])
    everything = next((v for v in per_element if v), None)
    assert _verdict(lambda: certify_stack(stack)) == everything


def test_scalar_part_must_be_exactly_one():
    """A row whose scalar part is off 1 by 1e-15 is refused by the
    certificate itself, which checks the scalar part exactly, as the
    constructors do."""
    rng = np.random.default_rng(5)
    stack = one_row(dilated(random_signature(rng, dim=2, level=3).levels, 1e3))
    certify_stack(stack)
    off_unit = (stack[0] * (1.0 + 1e-15),) + stack[1:]
    with pytest.raises(ValueError, match="group-like certificate failed: scalar part not exactly 1"):
        certify_stack(off_unit)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e3])
def test_segment_exponentials_have_no_shuffle_defect(d, scale):
    """`signature` does not certify its segments: the level 2 of `stack_exp`
    of a row whose only nonzero level is 1 is exactly x (x) x / 2, so the
    certificate's symmetric defect is exactly 0.0 at every level."""
    rng = np.random.default_rng(d)
    x = scale * rng.standard_normal((64, d))
    outer = x[:, :, None] * x[:, None, :]
    for level in (2, 3, 4):
        segs = stack_exp((np.zeros((64, 1)), x) + tuple(np.zeros((64, d**k)) for k in range(2, level + 1)))
        two = segs[2].reshape(64, d, d)
        defect = 0.5 * (two + two.transpose(0, 2, 1)) - 0.5 * outer
        assert np.all(defect == 0.0)


def test_homogeneous_norm_of_unit_is_zero():
    assert element_norm(GroupElement.unit(2, 2).levels) == 0.0


def test_homogeneous_norm_of_segment_exponential():
    val = element_norm(exp_rows(basis(0, 2, 2)))
    assert val == pytest.approx(1.0 + 0.5**0.5, abs=1e-14)


def test_homogeneous_norm_dilation_homogeneity():
    rng = np.random.default_rng(3)
    for lam in (0.3, 2.0, 4.0):
        a = random_signature(rng).levels
        assert element_norm(dilated(a, lam)) == pytest.approx(
            lam * element_norm(a), rel=1e-12
        )


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_associativity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    level = int(rng.integers(2, 5))
    a, b, c = (random_stack(rng, 4, dim, level) for _ in range(3))
    left = stack_product(stack_product(a, b), c)
    right = stack_product(a, stack_product(b, c))
    gap = algebra_norms([x - y for x, y in zip(left, right)])
    assert np.all(gap <= 1e-12 * np.maximum(1.0, algebra_norms(left)))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_grading_of_products(seed):
    """pi_k(ab) only sees pi_j(a), pi_{k-j}(b): zeroing levels above k
    changes nothing at level k."""
    rng = np.random.default_rng(seed)
    level = 4
    a, b = (random_stack(rng, 4, dim=2, level=level) for _ in range(2))
    k = int(rng.integers(1, level + 1))
    full = stack_product(a, b)[k]

    def chop(t):
        return tuple(x if j <= k else np.zeros_like(x) for j, x in enumerate(t))

    np.testing.assert_allclose(stack_product(chop(a), chop(b))[k], full, atol=1e-13)


def test_exp_log_bijection_on_slices():
    """The library's exponential against the loop oracle of the log series,
    both ways round."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = row(random_stack(rng, 1, dim=3, level=3, from_level=1), 0)
        assert rows_distance(series_log_loop(exp_rows(v)), v) <= 1e-13
        a = random_signature(rng, dim=3, level=3).levels
        assert rows_distance(exp_rows(series_log_loop(a)), a) <= 1e-13


def test_norm_submultiplicative_up_to_pinned_constant():
    """The per-level Euclidean norms are admissible only up to a
    combinatorial constant; 4.1 covers every level pair at L = 4."""
    rng = np.random.default_rng(5)
    a, b = (random_stack(rng, 50, dim=2, level=4) for _ in range(2))
    worst = np.max(algebra_norms(stack_product(a, b)) / (algebra_norms(a) * algebra_norms(b)))
    assert worst <= 4.1


# -- the single-element class ---------------------------------------------------


@pytest.mark.parametrize(
    "levels, error, match",
    [
        ((np.ones(1),), ValueError, "L >= 1"),
        ((np.ones(1), np.zeros(0)), ValueError, "dim must be >= 1"),
        ((np.ones(1), np.zeros(2), np.zeros(3)), DimensionMismatchError, "level-2 block has 3 entries, expected 4"),
        ((np.ones(1), np.array([0.0, np.inf])), ValueError, "level-1 block contains non-finite entries"),
        ((np.ones(1), np.array([np.nan, 0.0]), np.zeros(4)), ValueError, "level-1 block contains non-finite"),
        ((np.array([np.nextafter(1.0, 2.0)]), np.zeros(2)), ValueError, "scalar part exactly 1"),
        ((np.zeros(1), np.zeros(2)), ValueError, "scalar part exactly 1"),
    ],
    ids=["no-level-1", "dim-0", "block-size", "inf", "nan", "scalar-ulp", "scalar-0"],
)
def test_group_element_refuses_malformed_levels(levels, error, match):
    with pytest.raises(error, match=match):
        GroupElement(levels)


def test_group_element_certificate_refuses_a_broken_shuffle_relation():
    """Level 2 of 1 + e1 + e1 x e1/2 is its symmetric part; 1e-3 off it, the
    flag is refused while the uncertified element is accepted."""
    levels = level_rows(2, 2, {0: np.ones(1), 1: np.array([1.0, 0.0]), 2: np.array([0.5, 0.0, 0.0, 0.0])})
    assert GroupElement(levels, grouplike=True).grouplike
    broken = levels[:2] + (levels[2] + np.array([1e-3, 0.0, 0.0, 0.0]),)
    assert not GroupElement(broken).grouplike
    with pytest.raises(ValueError, match="group-like certificate failed: level-2 shuffle relation"):
        GroupElement(broken, grouplike=True)


def test_group_element_copies_and_freezes_its_levels():
    levels = [np.ones(1), np.array([0.5, -0.5]), np.zeros(4)]
    g = GroupElement(levels)
    levels[1][0] = 7.0
    assert g.level_block(1)[0] == 0.5 and (g.dim, g.level) == (2, 2)
    assert not any(x.flags.writeable for x in g.levels)


def test_group_elements_compare_and_hash_by_identity():
    a, b = GroupElement.unit(2, 2), GroupElement.unit(2, 2)
    assert a == a and a != b and len({a, a, b}) == 2


@pytest.mark.parametrize("other", [(3, 2), (2, 3), (1, 2)])
def test_dimension_mismatch_rejected(other):
    with pytest.raises(DimensionMismatchError, match="cannot combine"):
        GroupElement.unit(2, 2) @ GroupElement.unit(*other)


def test_group_product_that_overflows_is_refused():
    big = GroupElement(level_rows(2, 2, {0: np.ones(1), 1: np.full(2, 1e200)}))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="level-2 block contains non-finite"):
        big @ big


# -- last-letter rebracketing (the final-integration extractor) --------------


def lls_blocks(g: GroupElement) -> dict:
    """Level k+1 as a (d**k, d) matrix from prefix words to the last letter,
    k = 1..L-1: the iterated integrals missing the final integration."""
    return {k: g.level_block(k + 1).reshape(g.dim**k, g.dim) for k in range(1, g.level)}


def test_rebracket_of_unit_vanishes():
    one = GroupElement.unit(3, 3)
    for block in lls_blocks(one).values():
        np.testing.assert_array_equal(block, np.zeros_like(block))


def test_rebracket_of_segment_matches_quadrature():
    """On exp(e1) the rebracketed level-2 block is int_0^1 u du e1 (x) e1."""
    a = GroupElement(exp_rows(basis(0, 2, 2)))
    u = np.linspace(0.0, 1.0, 20001)
    quad = np.trapezoid(u, u)
    block = lls_blocks(a)[1]
    np.testing.assert_allclose(block, [[quad, 0.0], [0.0, 0.0]], atol=1e-9)


def test_rebracket_product_identity_on_signatures():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_signature(rng, dim=2, level=4)
        b = random_signature(rng, dim=2, level=4)
        lhs = lls_blocks(a @ b)
        rhs = rebracket_product_rhs(
            [a.level_block(k) for k in range(5)],
            lls_blocks(a),
            lls_blocks(b),
            b.level_block(1),
        )
        for k in lhs:
            np.testing.assert_allclose(lhs[k], rhs[k], atol=1e-10)


# -- composition splits -------------------------------------------------------


def test_split_reproduces_level_products_on_grouplikes():
    rng = np.random.default_rng(7)
    for parts in [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2)]:
        a = random_signature(rng, dim=2, level=4)
        K = sum(parts)
        image = split_matrix(2, parts) @ a.level_block(K)
        expected = a.level_block(parts[0])
        for k in parts[1:]:
            expected = np.kron(expected, a.level_block(k))
        np.testing.assert_allclose(image, expected, atol=1e-10)


def test_split_linearity_and_shapes():
    m = split_matrix(2, (2, 1))
    assert m.shape == (8, 8)
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, 8))
    np.testing.assert_allclose(m @ (x + 3.0 * y), m @ x + 3.0 * (m @ y), atol=1e-13)


def test_split_rejects_wrong_block_size():
    # a degree-3 split over R^2 is 8 x 8, so a 4-entry block cannot be applied
    with pytest.raises(ValueError):
        split_matrix(2, (2, 1)) @ np.zeros(4)
    with pytest.raises(ValueError, match="positive integers"):
        split_matrix(2, (2, 0))


SPLIT_CASES = [
    (d, parts)
    for d in (1, 2, 3)
    for K in range(1, 9)
    if d**K <= 729
    for length in range(1, K + 1)
    for parts in compositions_recursive(K, length)
]


def test_split_matrix_is_bitwise_the_permutation_scan():
    """The recursion on the last letter counts the same interleavings as
    the scan over every arrangement of the part labels: integer entries,
    so equal, not close.  Every composition with d <= 3, K <= 8 and
    d**K <= 729."""
    assert len(SPLIT_CASES) == 573
    for d, parts in SPLIT_CASES:
        got = split_matrix(d, parts)
        assert np.array_equal(got, split_matrix_permutations(d, parts)), (d, parts)
        assert not got.flags.writeable


def test_compositions_match_the_recursion_on_the_first_part():
    for total in range(-1, 12):
        for length in range(-1, 12):
            assert compositions(total, length) == compositions_recursive(total, length), (total, length)


def test_split_of_ten_one_letter_parts_counts_ten_factorial_quickly():
    """10! interleavings: a scan over them took about 50 s; the recursion
    builds ten 1 x 1 maps."""
    start = time.perf_counter()
    assert split_matrix(1, (1,) * 10)[0, 0] == math.factorial(10)
    assert time.perf_counter() - start < 5.0
