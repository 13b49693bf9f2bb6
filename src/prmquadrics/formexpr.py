"""Parsing and rendering of quadratic-form expressions.

Grammar (whitespace insignificant, LL(1) recursive descent):

    form        :=  [sign] term (sign term)*
    term        :=  [coefficient '*'] variable ( '^' '2' | '*' variable )
    coefficient :=  INT | '(' zpoly ')'
    zpoly       :=  [sign] zterm (sign zterm)*
    zterm       :=  INT ['*' zpow] | zpow
    zpow        :=  'z' ['^' INT]

Variables are X0..XN.  Integer coefficients reduce mod p; parenthesized
polynomials in z denote extension-field elements.  Repeated monomials
accumulate.  The bare expression "0" is accepted as the zero form (it is
what the renderer emits for it); every other term must have degree exactly
2.
"""

from __future__ import annotations

import re
import string

from .gf import Field
from .quadric import QuadraticForm, _monomial_index, monomials


class FormParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FormSyntaxError(FormParseError):
    pass


class UnknownVariable(FormParseError):
    pass


class NonHomogeneous(FormParseError):
    pass


class FieldLiteralInvalid(FormParseError):
    pass


# ASCII only: a Unicode digit, letter or space is an unexpected character.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|[-+*^()]|\S", re.ASCII)
_KINDS = {
    **dict.fromkeys(string.digits, "INT"),
    **dict.fromkeys(string.ascii_letters, "NAME"),
    "+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET", "(": "LPAREN", ")": "RPAREN",
}


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        value, at = match.group(), match.start()
        kind = _KINDS.get(value[0])
        if kind is None:
            raise FormSyntaxError(f"unexpected character {value!r}", at)
        tokens.append((kind, value, at))
    tokens.append(("END", "", len(text)))
    return tokens


def _integer(digits: str, position: int) -> int:
    """The value of an ASCII digit string, or FormSyntaxError where ``int``
    refuses it (more digits than the interpreter converts)."""
    try:
        return int(digits)
    except ValueError:
        raise FormSyntaxError(
            f"integer literal of {len(digits)} digits is too long", position
        ) from None


class _Parser:
    def __init__(self, text: str, field: Field, n: int):
        self.field = field
        self.n = n
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.advance()
        if tok[0] != kind:
            raise FormSyntaxError(f"expected {what}, found {tok[1]!r}", tok[2])
        return tok

    # -- whole forms ---------------------------------------------------

    def parse_form(self) -> QuadraticForm:
        # Lone "0" renders the zero form; accept it back.
        if (
            self.tokens[0][0] == "INT"
            and _integer(self.tokens[0][1], self.tokens[0][2]) == 0
            and self.tokens[1][0] == "END"
        ):
            return QuadraticForm(
                self.field, self.n, (0,) * len(monomials(self.n))
            )
        field = self.field
        coeffs = [0] * len(monomials(self.n))
        idx = _monomial_index(self.n)
        for negated, (c, (i, j)) in self.parse_signed(
            self.parse_term, "END", FormSyntaxError, "end of input"
        ):
            k = idx[(i, j) if i <= j else (j, i)]
            coeffs[k] = field.add(coeffs[k], field.neg(c) if negated else c)
        return QuadraticForm(self.field, self.n, tuple(coeffs))

    def parse_signed(self, parse_item, close: str, error, where: str) -> list:
        """``[sign] item (sign item)*`` up to the ``close`` token, as
        (negated, item) pairs."""
        pairs = []
        tok = self.peek()
        negated = tok[0] == "MINUS"
        if tok[0] in ("PLUS", "MINUS"):
            self.advance()
        while True:
            pairs.append((negated, parse_item()))
            tok = self.advance()
            if tok[0] == close:
                return pairs
            if tok[0] not in ("PLUS", "MINUS"):
                raise error(f"expected '+', '-' or {where}, found {tok[1]!r}", tok[2])
            negated = tok[0] == "MINUS"

    def parse_term(self) -> tuple[int, tuple[int, int]]:
        tok = self.peek()
        coeff = 1
        if tok[0] == "INT":
            self.advance()
            coeff = self.field.from_int(_integer(tok[1], tok[2]))
            nxt = self.peek()
            if nxt[0] == "NAME":
                raise FormSyntaxError(
                    "expected '*' between coefficient and variable", nxt[2]
                )
            if nxt[0] != "STAR":
                raise NonHomogeneous(
                    "constant term: every term must have degree 2", tok[2]
                )
            self.advance()
        elif tok[0] == "LPAREN":
            coeff = self.parse_field_literal()
            self.expect("STAR", "'*' after a coefficient")
        i = self.parse_variable()
        tok = self.peek()
        if tok[0] == "CARET":
            self.advance()
            exp = self.expect("INT", "an exponent")
            if _integer(exp[1], exp[2]) != 2:
                raise NonHomogeneous(
                    f"exponent {exp[1]}: every term must have degree 2", exp[2]
                )
            j = i
        elif tok[0] == "STAR":
            self.advance()
            j = self.parse_variable()
        else:
            raise NonHomogeneous(
                "degree-1 term: every term must have degree 2", tok[2]
            )
        tok = self.peek()
        if tok[0] in ("STAR", "CARET"):
            raise NonHomogeneous(
                "degree exceeds 2 in this term", tok[2]
            )
        return coeff, (i, j)

    def parse_variable(self) -> int:
        tok = self.advance()
        if tok[0] != "NAME":
            raise FormSyntaxError(f"expected a variable, found {tok[1]!r}", tok[2])
        name = tok[1]
        if not (name.startswith("X") and name[1:].isdigit()):
            raise UnknownVariable(f"unknown variable {name!r}", tok[2])
        k = _integer(name[1:], tok[2] + 1)
        if k > self.n:
            raise UnknownVariable(
                f"variable {name} exceeds the ambient X0..X{self.n}", tok[2]
            )
        return k

    # -- extension-field literals ----------------------------------------

    def parse_field_literal(self) -> int:
        lp = self.expect("LPAREN", "'('")
        field = self.field
        if field.e == 1:
            raise FieldLiteralInvalid(
                "parenthesized literals need an extension field", lp[2]
            )
        value = 0
        for negated, v in self.parse_signed(
            self.parse_zterm, "RPAREN", FieldLiteralInvalid, "')' in field literal"
        ):
            value = field.add(value, field.neg(v) if negated else v)
        return value

    def parse_zterm(self) -> int:
        field = self.field
        tok = self.advance()
        c, what = 1, "an integer or z"
        if tok[0] == "INT":
            c = field.from_int(_integer(tok[1], tok[2]))
            if self.peek()[0] != "STAR":
                return c
            self.advance()
            tok, what = self.advance(), "z"
        if tok[0] != "NAME" or tok[1] != "z":
            raise FieldLiteralInvalid(
                f"expected {what} in field literal, found {tok[1]!r}", tok[2]
            )
        z = field.p  # the polynomial-basis generator encodes as p
        if self.peek()[0] == "CARET":
            self.advance()
            exp = self.advance()
            if exp[0] != "INT":
                raise FieldLiteralInvalid("expected an exponent after '^'", exp[2])
            z = field.pow(z, _integer(exp[1], exp[2]))
        return field.mul(c, z)


def parse_form(text: str, field: Field, n: int) -> QuadraticForm:
    """Parse an expression into a form on P^n over the given field."""
    return _Parser(text, field, n).parse_form()


def render_form(form: QuadraticForm) -> str:
    """Canonical rendering; parse_form(render_form(F)) reproduces F."""
    field = form.field
    parts = []
    for (i, j), c in zip(monomials(form.ambient), form.coeffs):
        if not c:
            continue
        mono = f"X{i}^2" if i == j else f"X{i}*X{j}"
        if c == 1:
            parts.append(mono)
        elif field.e == 1:
            parts.append(f"{c}*{mono}")
        else:
            parts.append(f"({field.render(c)})*{mono}")
    return " + ".join(parts) if parts else "0"
