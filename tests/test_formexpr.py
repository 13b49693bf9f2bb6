"""The expression grammar: examples, error positions, round trips."""

import random

import pytest

from conftest import GRID, random_form

from prmquadrics.formexpr import (
    FieldLiteralInvalid,
    FormSyntaxError,
    NonHomogeneous,
    UnknownVariable,
    parse_form,
    render_form,
)
from prmquadrics.gf import field_create, field_from_order
from prmquadrics.quadric import QuadricClass, classify, form_from_terms

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)


def test_parse_hyperbolic_canonical():
    f = parse_form("X0*X1 + X2*X3", F2, 3)
    assert f.coeffs == form_from_terms(F2, 3, {(0, 1): 1, (2, 3): 1}).coeffs
    assert classify(f).quadric_class is QuadricClass.HYPERBOLIC


def test_parse_binary_with_integer_coefficient():
    f = parse_form("X0^2 + 2*X1^2", F3, 1)
    assert f.coeffs == form_from_terms(F3, 1, {(0, 0): 1, (1, 1): 2}).coeffs
    # over GF(3) this particular form factors: (X0+X1)(X0-X1) up to sign
    assert classify(f).quadric_class is QuadricClass.HYPERPLANE_PAIR


def test_parse_whitespace_and_order_insensitive():
    a = parse_form("X1*X0+X2^2", F3, 2)
    b = parse_form("  X0 * X1 + X2 ^ 2 ", F3, 2)
    assert a.coeffs == b.coeffs


def test_parse_minus_and_reduction():
    f = parse_form("X0^2 - X1*X2", F3, 2)
    assert f.coeff(1, 2) == 2
    g = parse_form("-X0^2 + 5*X1^2", F3, 1)
    assert g.coeff(0, 0) == 2 and g.coeff(1, 1) == 2
    h = parse_form("7*X0*X1", F2, 1)
    assert h.coeff(0, 1) == 1


def test_parse_accumulates_repeated_monomials():
    f = parse_form("X0*X1 + X1*X0", F2, 1)
    assert f.is_zero
    g = parse_form("X0*X1 + X1*X0", F3, 1)
    assert g.coeff(0, 1) == 2


def test_parse_extension_field_literals():
    z = F4.from_coeffs((0, 1))
    f = parse_form("(z+1)*X0*X1 + X2^2", F4, 2)
    assert f.coeff(0, 1) == F4.add(z, 1)
    g = parse_form("(z^2)*X0^2", F4, 1)
    assert g.coeff(0, 0) == F4.mul(z, z)
    f9 = field_from_order(9)
    z9 = f9.from_coeffs((0, 1))
    h = parse_form("(2*z+1)*X0^2", f9, 1)
    assert h.coeff(0, 0) == f9.add(f9.mul(2, z9), 1)
    k = parse_form("(z - 1)*X0^2", f9, 1)
    assert k.coeff(0, 0) == f9.add(z9, f9.neg(1))
    assert parse_form("(-z)*X0^2", f9, 2).coeff(0, 0) == 6  # a leading sign


def test_parse_zero_form():
    f = parse_form("0", F2, 2)
    assert f.is_zero
    g = parse_form("0*X0^2", F3, 2)
    assert g.is_zero


def test_parse_errors_and_positions():
    with pytest.raises(NonHomogeneous):
        parse_form("X0 + X1", F2, 3)
    with pytest.raises(NonHomogeneous):
        parse_form("X0^3", F2, 3)
    with pytest.raises(NonHomogeneous):
        parse_form("X0*X1*X2", F2, 3)
    with pytest.raises(NonHomogeneous):
        parse_form("3", F2, 2)
    with pytest.raises(UnknownVariable) as exc:
        parse_form("X0*X9", F2, 3)
    assert exc.value.position == 3
    with pytest.raises(UnknownVariable):
        parse_form("Y0^2", F2, 3)
    with pytest.raises(FormSyntaxError):
        parse_form("X0^2 + + X1^2", F2, 3)
    with pytest.raises(FormSyntaxError):
        parse_form("2*3*X0^2", F2, 3)
    with pytest.raises(FormSyntaxError):
        parse_form("X0^2 $", F2, 3)
    with pytest.raises(FormSyntaxError):
        parse_form("2X0^2", F3, 2)
    with pytest.raises(FieldLiteralInvalid):
        parse_form("(z)*X0^2", F3, 2)  # no z in a prime field
    with pytest.raises(FieldLiteralInvalid):
        parse_form("(w+1)*X0^2", F4, 2)
    with pytest.raises(FieldLiteralInvalid):
        parse_form("(z", F4, 2)


@pytest.mark.parametrize(
    "text, q, error, position, message",
    [
        ("(2*w)*X0^2", 9, FieldLiteralInvalid, 3, "expected z in field literal"),
        ("(z^)*X0^2", 4, FieldLiteralInvalid, 3, "expected an exponent after '^'"),
        ("(z X0^2", 4, FieldLiteralInvalid, 3, "expected '+', '-' or ')' in field literal"),
        ("X0^2 X1^2", 2, FormSyntaxError, 5, "expected '+', '-' or end of input"),
        ("(z)X0^2", 4, FormSyntaxError, 3, "expected '*' after a coefficient"),
        ("X0^y", 2, FormSyntaxError, 3, "expected an exponent"),
    ],
)
def test_parse_error_after_each_kind_of_item(text, q, error, position, message):
    """The signed-sum rule and the field-literal terms, each failing past
    its first item, and a term missing its '*' or its exponent: class,
    position and message."""
    with pytest.raises(error) as exc:
        parse_form(text, field_from_order(q), 2)
    assert type(exc.value) is error
    assert exc.value.position == position
    assert str(exc.value).startswith(message)


def test_roundtrip_canonical_examples():
    z = F4.from_coeffs((0, 1))
    f = form_from_terms(F4, 2, {(0, 0): z, (0, 1): 1, (2, 2): F4.add(z, 1)})
    assert parse_form(render_form(f), F4, 2).coeffs == f.coeffs
    assert render_form(form_from_terms(F2, 2, {})) == "0"
    assert parse_form("0", F2, 2).coeffs == (0,) * 6


def test_roundtrip_random_forms_full_grid():
    """10^4 render/parse round trips at every grid point."""
    rng = random.Random(101)
    for q, n in GRID:
        field = field_from_order(q)
        for _ in range(10_000):
            f = random_form(field, n, rng, nonzero=False)
            assert parse_form(render_form(f), field, n).coeffs == f.coeffs
