"""Field arithmetic: axioms checked exhaustively at every order up to 25."""

import itertools
import random

import pytest

from prmquadrics.gf import (
    DegreeOutOfRange,
    NonPrime,
    NotPrimePower,
    field_create,
    field_from_order,
    irreducible_binary_constants,
)

ALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
              (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2)]


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_field_axioms_exhaustive(p, e):
    f = field_create(p, e)
    q = f.q
    assert len(set(f.elements)) == q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_frobenius_and_fermat(p, e):
    f = field_create(p, e)
    for a in range(f.q):
        assert f.pow(a, f.q) == a
        for b in range(f.q):
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_square_census_odd_characteristic(p, e):
    f = field_create(p, e)
    squares = {f.mul(x, x) for x in range(f.q)}
    nonzero_squares = squares - {0}
    assert len(nonzero_squares) == (f.q - 1) // 2
    for x in range(f.q):
        assert f.is_square(x) == (x in squares)


def test_every_element_square_in_char2():
    for p, e in [(2, 1), (2, 2), (2, 3), (2, 4)]:
        f = field_create(p, e)
        squares = {f.mul(x, x) for x in range(f.q)}
        assert squares == set(range(f.q))
        assert all(f.is_square(x) for x in range(f.q))


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_trace_linear_and_surjective(p, e):
    f = field_create(p, e)
    images = set()
    for x in range(f.q):
        t = f.trace_to_prime(x)
        assert t < p  # lands in the prime field
        images.add(t)
        for y in range(f.q):
            assert f.trace_to_prime(f.add(x, y)) == f.add(
                f.trace_to_prime(x), f.trace_to_prime(y)
            )
        for c in range(p):
            assert f.trace_to_prime(f.mul(c, x)) == f.mul(c, f.trace_to_prime(x))
    assert images == set(range(p))


def test_trace_examples():
    assert field_create(2, 1).trace_to_prime(1) == 1
    f4 = field_create(2, 2)
    z = f4.from_coeffs((0, 1))
    # z**2 = z + 1 under x^2 + x + 1, so Tr(z) = z + z**2 = 1.
    assert f4.mul(z, z) == f4.add(z, 1)
    assert f4.trace_to_prime(z) == 1
    assert f4.trace_to_prime(0) == 0


def test_is_square_examples():
    f3 = field_create(3, 1)
    assert f3.is_square(1)
    assert not f3.is_square(2)  # squares of GF(3) are {0, 1} by enumeration
    f5 = field_create(5, 1)
    assert f5.is_square(4)  # 2**2


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2)])
def test_modulus_is_irreducible_by_exhaustive_factor_search(p, e):
    """Oracle: no pair of lower-degree monic polynomials multiplies to it."""
    f = field_create(p, e)
    modulus = list(f.modulus)
    assert modulus[-1] == 1 and len(modulus) == e + 1
    for d1 in range(1, e):
        d2 = e - d1
        for t1 in itertools.product(range(p), repeat=d1):
            for t2 in itertools.product(range(p), repeat=d2):
                g = list(t1) + [1]
                h = list(t2) + [1]
                assert _poly_mul(g, h, p) != modulus


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_prime_field_is_integers_mod_p(p):
    """The polynomial-basis construction at degree 1 is plain mod-p."""
    f = field_create(p, 1)
    assert f.modulus == (0, 1)
    for a in range(p):
        assert f.render(a) == str(a)
        for b in range(p):
            assert f._add[a][b] == (a + b) % p
            assert f._mul[a][b] == (a * b) % p


def test_gf4_modulus_unique():
    # Exhaustive search: x^2 + x + 1 is the only irreducible monic quadratic
    # over GF(2), so the canonical choice is forced.
    irreducibles = []
    for c0, c1 in itertools.product(range(2), repeat=2):
        poly = [c0, c1, 1]
        has_root = any((c0 + c1 * x + x * x) % 2 == 0 for x in range(2))
        if not has_root:
            irreducibles.append(poly)
    assert irreducibles == [[1, 1, 1]]
    assert field_create(2, 2).modulus == (1, 1, 1)


def test_element_order_is_lex_on_coefficients():
    f4 = field_create(2, 2)
    assert [f4.coeffs(x) for x in f4.elements] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [f4.render(x) for x in f4.elements] == ["0", "z", "1", "z+1"]
    f3 = field_create(3, 1)
    assert f3.elements == (0, 1, 2)


def test_field_create_errors():
    with pytest.raises(NonPrime):
        field_create(4, 1)
    with pytest.raises(NonPrime):
        field_create(1, 1)
    with pytest.raises(DegreeOutOfRange):
        field_create(2, 5)
    with pytest.raises(DegreeOutOfRange):
        field_create(2, 0)


def test_field_from_order():
    f9 = field_from_order(9)
    assert (f9.p, f9.e) == (3, 2)
    assert field_from_order(8).e == 3
    with pytest.raises(NotPrimePower):
        field_from_order(12)
    with pytest.raises(NotPrimePower):
        field_from_order(1)
    # shared instance with field_create
    assert field_from_order(4) is field_create(2, 2)


def _form_values(f, alpha, d):
    out = []
    for a in range(f.q):
        for b in range(f.q):
            if a == 0 and b == 0:
                continue
            v = f.add(f.mul(a, a), f.add(f.mul(alpha, f.mul(a, b)), f.mul(d, f.mul(b, b))))
            out.append(v)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_binary_constants_anisotropic(q):
    f = field_from_order(q)
    alpha, d = irreducible_binary_constants(f)
    if f.p == 2:
        assert alpha == 1 and f.trace_to_prime(d) == 1
    else:
        assert alpha == 0
    assert 0 not in _form_values(f, alpha, d)
    # minimality of d in the canonical element order
    for smaller in f.elements:
        if smaller == d:
            break
        assert 0 in _form_values(f, alpha, smaller) or smaller == 0


def test_binary_constants_examples():
    assert irreducible_binary_constants(field_create(2, 1)) == (1, 1)
    f4 = field_create(2, 2)
    z = f4.from_coeffs((0, 1))
    assert irreducible_binary_constants(f4) == (1, z)
    # Over GF(3) the least workable d is 1: X0^2 + X1^2 is anisotropic since
    # -1 is a non-square, while X0^2 + 2*X1^2 vanishes at (1, 1).
    assert irreducible_binary_constants(field_create(3, 1)) == (0, 1)
    assert irreducible_binary_constants(field_create(5, 1)) == (0, 2)


def test_render_roundtrip_coeffs():
    f = field_create(3, 2)
    for x in f.elements:
        assert f.from_coeffs(f.coeffs(x)) == x


def test_field_value_equality():
    from prmquadrics.gf import Field

    a = field_create(2, 2)
    b = Field(2, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Field(2, 3)


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_lane_code_sums_and_tables(p, e):
    """Sums of up to three normalization periods of scaled lanes decode to
    the field sums; the zero table marks exactly the zero values."""
    f = field_create(p, e)
    code = f.lane_code
    q = f.q
    assert bytes(range(q)).translate(code.encode).translate(code.decode) == bytes(range(q))
    rng = random.Random(p * 100 + e)
    width = 64
    for count in (1, code.terms, code.terms + 1, 3 * code.terms + 2):
        values = [[rng.randrange(q) for _ in range(width)] for _ in range(count)]
        coeffs = [rng.randrange(q) for _ in range(count)]
        lanes = [bytes(v).translate(code.encode) for v in values]
        raw = code.combine(zip(coeffs, lanes), width)
        expected = [0] * width
        for c, v in zip(coeffs, values):
            expected = [f.add(x, f.mul(c, y)) for x, y in zip(expected, v)]
        assert list(raw.translate(code.decode)) == expected
        assert raw.translate(code.normal) == bytes(expected).translate(code.encode)
        zeros = sum(1 << i for i, x in enumerate(expected) if x == 0)
        assert code.zero_mask(raw) == zeros


@pytest.mark.parametrize("p,e", ALL_ORDERS)
def test_lane_code_tables_equal_the_digit_formulas(p, e):
    """Every byte of ``encode``, ``normal``, ``decode`` and ``zero``, and
    ``scale[c]`` on every code byte, against the tables written out digit
    by digit: byte v's base-B digits, each reduced mod p, are the
    coefficients of its value."""
    f = field_create(p, e)
    code = f.lane_code
    base = 2
    while (base + 1) ** e <= 256:
        base += 1

    def digits(v):
        return [v // base**i % base % p for i in range(e)]

    def encode(coeffs):
        return sum(d * base**i for i, d in enumerate(coeffs))

    assert code.encode[: f.q] == bytes(encode(f.coeffs(x)) for x in range(f.q))
    assert code.normal == bytes(encode(digits(v)) for v in range(256))
    assert code.decode == bytes(f.from_coeffs(digits(v)) for v in range(256))
    assert code.zero == bytes(ord("0" if any(digits(v)) else "1") for v in range(256))
    for c in range(f.q):
        for x in range(f.q):
            assert code.scale[c][encode(f.coeffs(x))] == encode(f.coeffs(f.mul(c, x))), (c, x)
