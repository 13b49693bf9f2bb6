"""Exact arithmetic in GF(p**e) for small prime powers.

Elements are plain Python ints in ``range(q)``: the base-p digits of the
integer are the coefficients of the polynomial-basis representation, digit
``i`` being the coefficient of ``z**i`` where ``z`` is a root of the field
modulus.  All arithmetic goes through precomputed q-by-q tables, which keeps
the exhaustive census loops fast and allocation-free.

The modulus is the lexicographically least monic irreducible polynomial of
the requested degree (coefficient lists compared constant term first), found
by exhaustive trial division.  Elements carry a canonical total order:
lexicographic on the coefficient vector, again constant term first.  Every
enumeration in the package (points, forms, codewords) derives from this
order, so all outputs are bit-for-bit reproducible.

For evaluation at many points at once, :class:`LaneCode` packs one element
per byte; a row of such bytes, one per point, is a lane.  Its tables are the
field's own: one digit map, ``normal``, and the rest read off it and the
``_mul`` table by ``bytes.maketrans``.  ``Field.lane_code`` is built on first
use, because a field of more than 256 elements has no byte code and must
still construct.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache


class GFError(Exception):
    """Base class for field construction errors."""


class NonPrime(GFError):
    """Requested characteristic is not a prime number."""


class DegreeOutOfRange(GFError):
    """Requested extension degree is outside the supported range."""


class NotPrimePower(GFError):
    """Requested field order is not a prime power."""


MAX_DEGREE = 4


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of polynomial division over GF(p); coefficients ascending."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = (c * inv_lead) % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    return num[:dd] if dd > 0 else []


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            rem = _poly_mod(poly, den, p)
            if not any(rem):
                return False
    return True


def _canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Least monic irreducible of degree e, lex on ascending coefficients;
    (0, 1), that is x, for a prime field."""
    for tail in itertools.product(range(p), repeat=e):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise GFError(f"no irreducible polynomial of degree {e} over GF({p})")


class Field:
    """GF(p**e) with table-based arithmetic and a canonical element order.

    Use :func:`field_create` (cached) rather than constructing directly, so
    equal parameters share one instance and downstream caches stay warm.
    """

    def __init__(self, p: int, e: int):
        if not _is_prime(p):
            raise NonPrime(f"characteristic {p} is not prime")
        if not 1 <= e <= MAX_DEGREE:
            raise DegreeOutOfRange(f"extension degree {e} not in 1..{MAX_DEGREE}")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = _canonical_modulus(p, e)
        # Fields key lru_caches; hash once, not on every lookup.
        self._hash = hash((p, e, self.modulus))
        self._build_tables()
        # Canonical order: lex on the coefficient vector, constant term first.
        self.elements: tuple[int, ...] = tuple(
            sorted(range(self.q), key=self.coeffs)
        )
        self._order_index = [0] * self.q
        for rank, x in enumerate(self.elements):
            self._order_index[x] = rank

    # -- representation ------------------------------------------------

    def coeffs(self, x: int) -> tuple[int, ...]:
        """Polynomial-basis coefficient vector of x, constant term first."""
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        x = 0
        for c in reversed(list(coeffs)):
            x = x * self.p + c % self.p
        return x

    def order_index(self, x: int) -> int:
        """Rank of x in the canonical element order."""
        return self._order_index[x]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return self._hash

    def render(self, x: int) -> str:
        """Render as a polynomial in z; prime-field elements as integers."""
        cs = self.coeffs(x)
        terms = []
        for k in range(self.e - 1, -1, -1):
            c = cs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                zpow = "z" if k == 1 else f"z^{k}"
                terms.append(zpow if c == 1 else f"{c}*{zpow}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):  # pragma: no cover
        return f"Field(p={self.p}, e={self.e})"

    @cached_property
    def lane_code(self) -> "LaneCode":
        """The byte code of this field's elements, built on first use."""
        return LaneCode(self)

    # -- arithmetic ------------------------------------------------------

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        red = list(self.modulus)

        def mul_poly(a: int, b: int) -> int:
            ca, cb = self.coeffs(a), self.coeffs(b)
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(ca):
                if x:
                    for j, y in enumerate(cb):
                        prod[i + j] = (prod[i + j] + x * y) % p
            rem = _poly_mod(prod, red, p)
            rem += [0] * (e - len(rem))
            return self.from_coeffs(rem)

        self._add = [
            [
                self.from_coeffs(
                    (x + y) % p for x, y in zip(self.coeffs(a), self.coeffs(b))
                )
                for b in range(q)
            ]
            for a in range(q)
        ]
        self._mul = [[mul_poly(a, b) for b in range(q)] for a in range(q)]
        self._neg = [row.index(0) for row in self._add]
        self._inv = [0] + [row.index(1) for row in self._mul[1:]]

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        result, base = 1, a
        while n:
            if n & 1:
                result = self._mul[result][base]
            base = self._mul[base][base]
            n >>= 1
        return result

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def from_int(self, n: int) -> int:
        """Embed an integer via repeated addition of 1 (reduces mod p)."""
        return n % self.p

    # -- derived operations ----------------------------------------------

    def trace_to_prime(self, x: int) -> int:
        """Tr(x) = x + x**p + ... + x**(p**(e-1)), an element of GF(p)."""
        acc, cur = 0, x
        for _ in range(self.e):
            acc = self._add[acc][cur]
            cur = self.frobenius(cur)
        return acc

    def is_square(self, x: int) -> bool:
        """True iff x is a square; in characteristic 2 every element is."""
        if self.p == 2:
            return True
        return x == 0 or self.pow(x, (self.q - 1) // 2) == 1


class LaneCode:
    """One byte per element, so that adding lanes as integers adds values.

    Element x, with coefficients d_i, is the byte sum(d_i * B**i), where B
    is the largest base with B**e <= 256.  Each base-B digit slot of a byte
    holds at most B - 1, so ``terms`` = (B-1)//(p-1) encoded values add as
    plain integers, lane against lane, before a slot can overflow into the
    next byte.  ``normal``, the one digit map, reduces every digit mod p
    again and so sends any byte to the code of its value.  The other maps
    are 256-byte ``bytes.translate`` tables built from it and from the
    codes: ``decode`` is ``normal`` followed by code -> element, and
    ``zero`` is ``normal`` followed by 0 -> ``b"1"``, all else -> ``b"0"``,
    so both accept any byte a sum of ``terms`` normal bytes can be.
    ``scale[c]`` sends the code of x to the code of c*x, read off row c of
    the field's ``_mul``, and leaves every other byte as it is; so it
    multiplies only normal lanes, which is all its callers pass it
    (:meth:`combine`, ``quadric.evaluation_lane`` and
    ``ProjectiveSpace.monomial_rows``).
    """

    def __init__(self, field: Field):
        p, e, q = field.p, field.e, field.q
        base = 2
        while (base + 1) ** e <= 256:
            base += 1
        self.terms = (base - 1) // (p - 1)

        def code(coeffs) -> int:
            return sum(d * base**i for i, d in enumerate(coeffs))

        codes = bytes(code(field.coeffs(x)) for x in range(q))
        self.encode = codes + bytes(256 - q)
        self.normal = bytes(code(v // base**i % base % p for i in range(e)) for v in range(256))
        self.decode = self.normal.translate(bytes.maketrans(codes, bytes(range(q))))
        self.zero = self.normal.translate(b"1" + b"0" * 255)
        self.scale = [bytes.maketrans(codes, bytes(codes[y] for y in row)) for row in field._mul]

    def combine(self, pairs, width: int) -> bytes:
        """The lane sum(c * lane) over (c, lane) pairs of normal lanes of
        ``width`` bytes, not yet normalized; zero coefficients are skipped."""
        acc = pending = 0
        for c, lane in pairs:
            if not c:
                continue
            if pending == self.terms:
                acc = int.from_bytes(
                    acc.to_bytes(width, "little").translate(self.normal), "little"
                )
                pending = 1
            if c != 1:
                lane = lane.translate(self.scale[c])
            acc += int.from_bytes(lane, "little")
            pending += 1
        return acc.to_bytes(width, "little")

    def zero_mask(self, lane: bytes) -> int:
        """Bit i set where byte i of the lane is the value 0."""
        return int(lane.translate(self.zero)[::-1], 2)


@lru_cache(maxsize=None)
def field_create(p: int, e: int) -> Field:
    """Construct (and cache) GF(p**e) with the canonical modulus."""
    return Field(p, e)


def field_from_order(q: int) -> Field:
    """Resolve a prime-power order q = p**e to the shared field instance."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = next((d for d in range(2, q + 1) if q % d == 0), q)
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return field_create(p, e)


@lru_cache(maxsize=None)
def irreducible_binary_constants(field: Field) -> tuple[int, int]:
    """Constants (alpha, d) of the anisotropic binary form.

    The form ``X0^2 + alpha*X0*X1 + d*X1^2`` has no nonzero rational zero.
    In odd characteristic alpha = 0 and d is the least element (canonical
    order) making the form anisotropic; in characteristic 2 alpha = 1 and d
    is the least element of trace 1.  Anisotropy is re-checked by exhaustive
    enumeration before returning, once per field.
    """
    if field.p == 2:
        alpha = 1
        d = next(x for x in field.elements if field.trace_to_prime(x) == 1)
    else:
        alpha = 0
        d = next(
            x
            for x in field.elements
            if x != 0 and not field.is_square(field.neg(x))
        )
    for a in range(field.q):
        for b in range(field.q):
            if a == 0 and b == 0:
                continue
            v = field.add(
                field.mul(a, a),
                field.add(
                    field.mul(alpha, field.mul(a, b)), field.mul(d, field.mul(b, b))
                ),
            )
            if v == 0:
                raise GFError("binary constants failed the anisotropy check")
    return alpha, d
