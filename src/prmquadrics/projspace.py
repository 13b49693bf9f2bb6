"""Rational points of P^N(F_q), linear subspaces, and q-binomial counts.

Point representatives follow the usual normalization: the last nonzero
coordinate equals 1.  The canonical point list is sorted lexicographically
on coordinate vectors under the field's element order, and every bit-indexed
point set in the package is keyed by position in that list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .gf import Field
from .linalg import rref, vec_add, vec_scale


class ProjSpaceError(Exception):
    pass


class OutOfRange(ProjSpaceError):
    """Binomial arguments outside 0 <= k <= n."""


class EqualPoints(ProjSpaceError):
    """A line needs two distinct points."""


def projective_size(q: int, n: int) -> int:
    """Number of rational points of P^n: q**n + ... + q + 1, with p_(-1) = 0."""
    if n < -1:
        raise OutOfRange(f"no projective space of dimension {n}")
    return sum(q**i for i in range(n + 1))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q**n, as an exact integer."""
    if not 0 <= k <= n:
        raise OutOfRange(f"gaussian binomial needs 0 <= k <= n, got ({n}, {k})")
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def normalize(field: Field, vec) -> tuple[int, ...]:
    """Scale so the last nonzero coordinate is 1."""
    vec = list(vec)
    last = next((i for i in range(len(vec) - 1, -1, -1) if vec[i] != 0), None)
    if last is None:
        raise ValueError("cannot normalize the zero vector")
    c = vec[last]
    if c != 1:
        vec = vec_scale(field, field.inv(c), vec)
    return tuple(vec)


class ProjectiveSpace:
    """P^N(F_q) with its canonical ordered point list and its flats."""

    def __init__(self, field: Field, n: int):
        if n < 0:
            raise OutOfRange(f"ambient dimension must be >= 0, got {n}")
        self.field = field
        self.n = n
        # P^k in canonical order is, for each a in element order, (1, 0..0)
        # when a == 1 (the zero tail sorts first) and then (a,) + p for
        # every p of P^(k-1) in its canonical order.
        pts = [(1,)]
        for k in range(1, n + 1):
            lower, pts = pts, []
            for a in field.elements:
                if a == 1:
                    pts.append((1,) + (0,) * k)
                pts += [(a,) + p for p in lower]
        self.points: tuple[tuple[int, ...], ...] = tuple(pts)
        self._index = {pt: i for i, pt in enumerate(pts)}
        self.full_mask = (1 << len(pts)) - 1
        self._monomial_rows: tuple[bytes, ...] | None = None
        self._flats: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self.points)

    def render_point(self, point) -> str:
        return "(" + ":".join(self.field.render(c) for c in point) + ")"

    def monomial_rows(self) -> tuple[bytes, ...]:
        """The generator's rows: one lane per monomial X_i X_j of
        ``quadric.monomials(N)``, byte p holding its value at point p in the
        field's lane code.  Built on first use from the coordinate columns,
        with products taken through the multiplication table."""
        if self._monomial_rows is None:
            field = self.field
            q, mul, encode = field.q, field._mul, field.lane_code.encode
            # products[a*q + b]: the lane byte of a*b.
            products = bytes(encode[mul[a][b]] for a in range(q) for b in range(q))
            squares = bytes(products[a * q + a] for a in range(q)) + bytes(256 - q)
            columns = [bytes(col) for col in zip(*self.points)]
            rows = []
            for i, col in enumerate(columns):
                rows.append(col.translate(squares))
                scaled = [a * q for a in col]
                for other in columns[i + 1 :]:
                    rows.append(bytes(map(products.__getitem__, map(add, scaled, other))))
            self._monomial_rows = tuple(rows)
        return self._monomial_rows

    def flats(self, k: int) -> tuple[int, ...]:
        """Point masks of all k-dimensional linear subspaces (cached).

        The 0-flats are the points.  A k-flat is the join of a (k-1)-flat F
        with a point p off it: F together with the lines through p and each
        point of F.  Every point off F lies in exactly one such join, so each
        join is built once.
        """
        if k < 0:
            raise OutOfRange(f"flats need dimension k >= 0, got {k}")
        if not self._flats:
            self._flats.append(tuple(1 << i for i in range(len(self.points))))
        while len(self._flats) <= k:
            joins = set()
            for flat in self._flats[-1]:
                members = [self.points[i] for i in bits_to_indices(flat)]
                rest = self.full_mask ^ flat
                while rest:
                    p = self.points[(rest & -rest).bit_length() - 1]
                    join = flat
                    for x in members:
                        for y in line_through(self.field, x, p):
                            join |= 1 << self._index[y]
                    joins.add(join)
                    rest &= ~join
            self._flats.append(tuple(sorted(joins)))
        return self._flats[k]


@lru_cache(maxsize=None)
def projective_space(field: Field, n: int) -> ProjectiveSpace:
    return ProjectiveSpace(field, n)


def line_through(field: Field, p, q) -> list[tuple[int, ...]]:
    """All q+1 rational points of the line spanned by two distinct points."""
    p = normalize(field, p)
    q = normalize(field, q)
    if p == q:
        raise EqualPoints("line_through requires two distinct points")
    pts = {p}
    for lam in field.elements:
        pts.add(normalize(field, vec_add(field, vec_scale(field, lam, p), q)))
    key = field.order_index
    return sorted(pts, key=lambda pt: tuple(key(c) for c in pt))


@dataclass(frozen=True)
class LinearSubspace:
    """Projective linear subspace stored by independent spanning points.

    The spanning list is canonical: normalized rref rows of any generating
    set, so equal subspaces compare equal.  An empty spanning list encodes
    the empty subspace of dimension -1.
    """

    field: Field
    ambient: int
    spanning: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.spanning) - 1

    def to_json(self) -> dict:
        space = projective_space(self.field, self.ambient)
        return {
            "dimension": self.dimension,
            "spanning_points": [space.render_point(p) for p in self.spanning],
        }


def subspace_from_vectors(field: Field, ambient: int, vectors) -> LinearSubspace:
    """Subspace spanned by arbitrary vectors (dependencies are dropped)."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return LinearSubspace(field, ambient, ())
    red, pivots = rref(field, rows)
    spanning = tuple(normalize(field, red[i]) for i in range(len(pivots)))
    return LinearSubspace(field, ambient, spanning)


_PEEL_BITS = 64


def bits_to_indices(mask: int) -> list[int]:
    """Ascending positions of the set bits.

    The top bit is peeled off with ``bit_length``, so the integer shrinks
    at each step and a sparse mask costs about its set bits times its
    width in words.  Once ``_PEEL_BITS`` bits are peeled, the rest is read
    by one scan of its binary numeral, so a dense mask stays linear in its
    width.
    """
    out = []  # descending
    while mask and len(out) < _PEEL_BITS:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    if mask:
        numeral = format(mask, "b")
        top = len(numeral) - 1
        find = numeral.find
        i = find("1")
        while i >= 0:
            out.append(top - i)
            i = find("1", i + 1)
    out.reverse()
    return out
