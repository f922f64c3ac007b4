import math

import numpy as np
import pytest

from roughkit.funcs import (
    DividedMap,
    FieldSpecError,
    LipFunction,
    PolyMap,
    ScaledMap,
    SineField,
    _contract_last,
    divide,
    field_from_json,
    strict_floor,
)

from conftest import assert_bitwise
from oracles import central_difference, taylor_remainder_check


def scalar_poly(*coeffs: float) -> PolyMap:
    """Univariate polynomial sum c_l y^l as a PolyMap with scalar output."""
    blocks = tuple(
        np.full((1,) + (1,) * l, c, dtype=float) for l, c in enumerate(coeffs)
    )
    return PolyMap(1, (1,), blocks)


def random_cubic_field(rng, m=2) -> PolyMap:
    blocks = tuple(
        0.5**l * rng.standard_normal((m,) + (m,) * l) for l in range(4)
    )
    return PolyMap(m, (m,), blocks)


# -- exact derivatives ---------------------------------------------------------


def test_strict_floor_is_largest_integer_below():
    assert strict_floor(2.0) == 1
    assert strict_floor(2.5) == 2
    assert strict_floor(3.0) == 2
    assert strict_floor(4.0) == 3


def test_linear_map_first_derivative_is_constant():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = PolyMap(2, (2,), (np.zeros(2), A))
    for y in ([0.0, 0.0], [1.3, -0.7]):
        np.testing.assert_allclose(f.derivative_at(np.array(y), 1), A)


def test_square_second_derivative_is_two():
    f = scalar_poly(0.0, 0.0, 1.0)
    for y in (-1.0, 0.0, 2.5):
        d2 = f.derivative_at(np.array([y]), 2)
        np.testing.assert_allclose(d2, [[[2.0]]])


def test_cubic_derivative_matches_finite_differences():
    rng = np.random.default_rng(30)
    f = random_cubic_field(rng)
    for _ in range(5):
        y = rng.uniform(-1.0, 1.0, 2)
        exact = f.derivative_at(y, 1)
        approx = central_difference(f, y)
        np.testing.assert_allclose(exact, approx, rtol=1e-7, atol=1e-9)


def test_coefficient_blocks_are_symmetrized():
    skew = np.zeros((1, 2, 2))
    skew[0, 0, 1] = 1.0
    f = PolyMap(2, (1,), (np.zeros(1), np.zeros((1, 2)), skew))
    sym = f.coeffs[2]
    np.testing.assert_allclose(sym, np.transpose(sym, (0, 2, 1)))
    # symmetrization never changes the polynomial itself
    y = np.array([0.7, -0.4])
    assert f(y)[0] == pytest.approx(y[0] * y[1], rel=1e-14)


def test_sine_field_derivative_matches_finite_differences():
    f = SineField(
        amp=np.array([0.8, 0.5]),
        freq=np.array([[1.0, -2.0], [0.5, 3.0]]),
        phase=np.array([0.1, -0.4]),
    )
    rng = np.random.default_rng(31)
    y = rng.uniform(-1.0, 1.0, 2)
    np.testing.assert_allclose(
        f.derivative_at(y, 1), central_difference(f, y), rtol=1e-7, atol=1e-9
    )


def test_sine_field_derivative_has_no_alphabet_ceiling():
    """Order 30 takes 32 einsum labels, more than one alphabet's 26: each
    slot is a factor of the frequency on the shifted sine."""
    f = SineField(amp=np.array([0.8, 0.5]), freq=np.array([[1.1], [-0.9]]), phase=np.array([0.1, -0.4]))
    y = np.array([[0.3], [-0.7]])
    angles = y @ f.freq.T + f.phase
    want = f.amp * f.freq[:, 0] ** 30 * np.sin(angles + 30 * np.pi / 2.0)
    got = f.derivative(y, 30)
    assert got.shape == (2, 2) + (1,) * 30
    np.testing.assert_allclose(got.reshape(2, 2), want, rtol=1e-13)


def test_scalar_sine_field_keeps_its_shape():
    """A 0-d amp gives out_shape (), and order k has shape (n,) + (m,) * k;
    the caller's arrays stay writeable."""
    freq = np.array([1.1, -0.5])
    f = SineField(0.8, freq, 0.3)
    y = np.array([[0.2, 0.4], [-0.1, 0.7]])
    angles = y @ freq + 0.3
    assert f.out_shape == ()
    for k in range(4):
        got = f.derivative(y, k)
        assert got.shape == (2,) + (2,) * k
        want = 0.8 * np.sin(angles + k * np.pi / 2.0)
        for _ in range(k):
            want = want[..., None] * freq
        np.testing.assert_allclose(got, want, rtol=1e-14)
    assert freq.flags.writeable


def test_lip_function_blocks_orders_beyond_budget():
    f = LipFunction(scalar_poly(0.0, 1.0, 1.0), gamma=2.5)
    f.derivative(np.array([[0.0]]), 2)
    with pytest.raises(ValueError):
        f.derivative(np.array([[0.0]]), 3)


def test_lip_function_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LipFunction(scalar_poly(1.0), gamma=1.0)


def closed_form_values(f, Y):
    """Each family's value by its own formula: the contracted coefficient
    blocks summed from zero, the amplitudes times the sines of the angles,
    the quadrature of Df along the segment, and the factor times the base's
    value."""
    if isinstance(f, PolyMap):
        out = np.zeros((Y.shape[0],) + f.out_shape)
        for l, block in enumerate(f.coeffs):
            out += _contract_last(block, Y, l)
        return out
    if isinstance(f, SineField):
        return f.amp * np.sin(np.einsum("...i,ni->n...", f.freq, Y) + f.phase)
    if isinstance(f, DividedMap):
        m = f.source.in_dim
        X, Z = Y[:, :m], Y[:, m:]
        P = Z[None, :, :] + f.nodes[:, None, None] * (X - Z)[None, :, :]
        q, n, _ = P.shape
        D1 = f.source.derivative(P.reshape(q * n, m), 1).reshape((q, n) + f.out_shape)
        return np.einsum("q,qn...->n...", f.weights, D1)
    return f.factor * closed_form_values(f.base, Y)


def test_value_is_the_order_0_derivative_with_the_closed_form_bits():
    rng = np.random.default_rng(41)
    points = np.vstack([rng.standard_normal((6, 2)), np.zeros((1, 2)), -np.zeros((1, 2))])
    sine = SineField(
        rng.standard_normal((2, 2)), rng.standard_normal((2, 2, 2)),
        np.array([[0.0, -0.0], [-0.0, 0.7]]),
    )
    maps = [random_cubic_field(rng), sine]
    maps += [divide(f) for f in maps]
    maps += [ScaledMap(-1.5, f) for f in maps]
    for f in maps:
        Y = points if f.in_dim == 2 else np.hstack([points, points[::-1]])
        want = closed_form_values(f, Y)
        assert_bitwise(f.apply(Y), want)
        assert_bitwise(f.derivative(Y, 0), want)
        assert_bitwise(f(Y[-1]), want[-1])
        assert_bitwise(LipFunction(f, 3.5).apply(Y), want)
    # a zero angle keeps its sign: sin(-0.0) is -0.0, sin(-0.0 + 0.0) is not
    assert np.signbit(sine.apply(points[-1:])[0, 0, 1])


# -- Taylor remainder quotients ------------------------------------------------


def test_polynomial_within_budget_has_zero_remainder():
    """Degree <= smoothness: the Taylor expansion is the polynomial."""
    f = LipFunction(scalar_poly(0.3, -1.0, 0.5), gamma=2.5)
    rng = np.random.default_rng(32)
    for _ in range(10):
        x, y = rng.uniform(-1.0, 1.0, 2)
        assert taylor_remainder_check(f, [x], [y]) <= 1e-12


def test_square_remainder_quotients():
    quad = scalar_poly(0.0, 0.0, 1.0)
    rough = LipFunction(quad, gamma=1.5)
    smooth = LipFunction(quad, gamma=2.5)
    q = taylor_remainder_check(rough, [0.9], [-0.8])
    assert 0.0 < q < np.inf
    assert taylor_remainder_check(smooth, [0.9], [-0.8]) <= 1e-12


def test_quartic_quotient_against_dense_sampling():
    """Empirical Lip(2.5) quotient of a quartic, two routes.

    The oracle recomputes the three remainder quotients with plain
    polynomial arithmetic on a dense grid; the library's maximum over a
    coarser grid must land within 5% of it.
    """
    c = np.array([0.1, 1.0, 0.2, -0.5, 0.3])
    f = LipFunction(scalar_poly(*c), gamma=2.5)

    der = [np.polynomial.polynomial.polyder(c, m) for m in range(4)]

    def oracle_quotient(x, y):
        s = x - y
        worst = 0.0
        for j in range(3):
            pred = sum(
                np.polynomial.polynomial.polyval(y, der[j + k]) * s**k / math.factorial(k)
                for k in range(3 - j)
            )
            actual = np.polynomial.polynomial.polyval(x, der[j])
            worst = max(worst, abs(actual - pred) / abs(s) ** (2.5 - j))
        return worst

    dense = np.linspace(-1.0, 1.0, 241)
    oracle_max = max(
        oracle_quotient(x, y) for x in dense for y in dense[::8] if x != y
    )
    coarse = np.linspace(-1.0, 1.0, 25)
    lib_max = max(
        taylor_remainder_check(f, [x], [y]) for x in coarse for y in coarse if x != y
    )
    assert lib_max == pytest.approx(oracle_max, rel=0.05)


# -- division property ---------------------------------------------------------


def test_divide_linear_is_constant():
    A = np.array([[1.0, -2.0], [0.5, 4.0]])
    h = divide(PolyMap(2, (2,), (np.zeros(2), A)))
    rng = np.random.default_rng(34)
    for _ in range(5):
        z = rng.uniform(-2.0, 2.0, 4)
        np.testing.assert_allclose(h.apply(z)[0], A, atol=1e-14)


def test_divide_square_is_sum_of_endpoints():
    h = divide(scalar_poly(0.0, 0.0, 1.0))
    for x, y in [(1.0, 2.0), (-0.3, 0.8), (5.0, 5.0)]:
        got = h.apply(np.array([x, y]))[0]
        np.testing.assert_allclose(got, [[x + y]], atol=1e-13)


def test_divide_identity_for_cubic_field():
    rng = np.random.default_rng(35)
    f = random_cubic_field(rng)
    h = divide(f)
    X = rng.uniform(-1.5, 1.5, (1000, 2))
    Y = rng.uniform(-1.5, 1.5, (1000, 2))
    lhs = f.apply(X) - f.apply(Y)
    rhs = np.einsum("nij,nj->ni", h.apply(np.hstack([X, Y])), X - Y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_divide_identity_for_sine_builtin():
    f = SineField(
        amp=np.array([1.0, 0.6]),
        freq=np.array([[2.0, 0.5], [-1.0, 1.5]]),
        phase=np.array([0.0, 0.7]),
    )
    h = divide(f)
    rng = np.random.default_rng(36)
    X = rng.uniform(-1.0, 1.0, (200, 2))
    Y = rng.uniform(-1.0, 1.0, (200, 2))
    lhs = f.apply(X) - f.apply(Y)
    rhs = np.einsum("nij,nj->ni", h.apply(np.hstack([X, Y])), X - Y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_divide_drops_one_degree_of_regularity():
    f = LipFunction(random_cubic_field(np.random.default_rng(37)), gamma=3.5)
    h = divide(f)
    assert isinstance(h, LipFunction)
    assert h.gamma == pytest.approx(2.5)
    assert isinstance(h.map, DividedMap)
    low = LipFunction(scalar_poly(0.0, 1.0), gamma=1.5)
    assert isinstance(divide(low), DividedMap)


def test_divided_map_derivative_matches_finite_differences():
    f = random_cubic_field(np.random.default_rng(38))
    h = divide(f)
    z = np.array([0.4, -0.2, 0.9, 0.1])
    np.testing.assert_allclose(
        h.derivative_at(z, 1), central_difference(h, z), rtol=1e-6, atol=1e-8
    )


# -- JSON field spec -----------------------------------------------------------


def test_json_poly_round_trip():
    spec = {
        "type": "poly",
        "in_dim": 2,
        "out_shape": [2],
        "degree": 1,
        "coeffs": [[0.0, 0.0], [[1.0, 2.0], [3.0, 4.0]]],
    }
    f = field_from_json(spec)
    assert isinstance(f, PolyMap)
    np.testing.assert_allclose(f(np.array([1.0, 1.0])), [3.0, 7.0])


def test_json_builtin_sine():
    f = field_from_json(
        {
            "type": "builtin",
            "name": "sine",
            "amp": [2.0],
            "freq": [[1.0]],
            "phase": [0.0],
        }
    )
    assert isinstance(f, SineField)
    assert f(np.array([np.pi / 2.0]))[0] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "spec",
    [
        42,
        {"type": "mystery"},
        {"type": "builtin", "name": "tanh"},
        {"type": "poly", "in_dim": 1, "out_shape": [1], "degree": 2, "coeffs": [[0.0]]},
        {
            "type": "poly",
            "in_dim": 2,
            "out_shape": [1],
            "degree": 1,
            "coeffs": [[0.0], [[1.0, 2.0, 3.0]]],
        },
        {"type": "poly", "in_dim": 1, "out_shape": [1]},
    ],
)
def test_json_bad_specs_rejected(spec):
    with pytest.raises(FieldSpecError):
        field_from_json(spec)
