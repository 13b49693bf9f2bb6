"""Rational points of P^N(F_q), linear subspaces, and q-binomial counts.

Point representatives follow the usual normalization: the last nonzero
coordinate equals 1.  The canonical point order is lexicographic on
coordinate vectors under the field's element order, and every bit-indexed
point set in the package is keyed by position in that order.  P^N splits
into q blocks, one per first coordinate, each a copy of P^(N-1), so
positions are ranked by arithmetic and lanes built by concatenation; no
per-point tuple is stored.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

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


class PointList(Sequence):
    """The points of P^N in canonical order, none of them stored.

    P^k lists, for each a in element order, first (1, 0, ..., 0) when a = 1
    and then (a,) + p for every p of P^(k-1) (Hirschfeld & Thas, *General
    Galois Geometries*).  So ``index`` ranks by arithmetic on the block
    sizes p_(k-1), while ``[i]`` and iteration read byte i of each of the
    ``columns``, which the lanes are built from anyway.
    """

    def __init__(self, field: Field, n: int):
        self.field, self.n, self._one = field, n, field.order_index(1)
        # p_(k-1) for k = N, ..., 0; P^0 is (1,) before q empty blocks.
        self._blocks = [projective_size(field.q, k) for k in range(n - 1, -2, -1)]
        self._len = projective_size(field.q, n)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return tuple(column[i] for column in self.columns)

    def index(self, point) -> int:
        """The position of a normalized point; ValueError for anything else."""
        head = bytes(point).rstrip(b"\0")
        if len(point) != self.n + 1 or not head or head[-1] != 1 or max(head) >= self.field.q:
            raise ValueError(f"{tuple(point)!r} is not a normalized point of P^{self.n}")
        i, rank, one = 0, self.field._order_index, self._one
        for size, c in zip(self._blocks, head[:-1]):
            a = rank[c]
            i += a * size + (a >= one)
        return i + one * self._blocks[len(head) - 1]

    def __contains__(self, point) -> bool:
        try:
            self.index(point)
        except (TypeError, ValueError):
            return False
        return True

    def __iter__(self):
        return zip(*self.columns)

    @cached_property
    def columns(self) -> list[bytes]:
        """Per coordinate, its element at every point, one byte each."""
        if not self.n:
            return [b"\1"]
        field, lower = self.field, projective_space(self.field, self.n - 1).points
        first = _stack(field, [bytes((a,)) * len(lower) for a in field.elements], b"\1")
        return [first] + [_stack(field, [column] * field.q, b"\0") for column in lower.columns]


def _stack(field: Field, blocks: list[bytes], special: bytes) -> bytes:
    """A lane of P^k from its q blocks, block a read at (a,) + P^(k-1), with
    the byte ``special`` of (1, 0, ..., 0) before the block of a = 1."""
    blocks.insert(field.order_index(1), special)
    return b"".join(blocks)


class ProjectiveSpace:
    """P^N(F_q): its points as a :class:`PointList`, its monomial lanes
    and its flats, with no per-point object."""

    def __init__(self, field: Field, n: int):
        if n < 0:
            raise OutOfRange(f"ambient dimension must be >= 0, got {n}")
        self.field = field
        self.n = n
        self.points = PointList(field, n)
        self.full_mask = (1 << len(self.points)) - 1
        self._monomial_rows: tuple[bytes, ...] | None = None
        self._flats: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self.points)

    def render_point(self, point) -> str:
        return "(" + ":".join(self.field.render(c) for c in point) + ")"

    def monomial_rows(self) -> tuple[bytes, ...]:
        """The generator's rows: one lane per monomial X_i X_j of
        ``quadric.monomials(N)``, byte p holding its value at point p in the
        field's lane code.  Built on first use from P^(N-1)'s columns and
        lanes, block a being P^(N-1) prefixed by a: X_0^2 is a run of a^2,
        X_0 X_j is P^(N-1)'s column j-1 times a, and X_i X_j with i >= 1 is
        P^(N-1)'s lane of X_(i-1) X_(j-1).  At (1, 0, ..., 0) only X_0^2 is
        nonzero.  The monomials with i = 0 come first, then P^(N-1)'s in
        its order, which is the order of ``monomials(N)``."""
        if self._monomial_rows is None:
            field, code = self.field, self.field.lane_code
            if not self.n:
                rows = [code.encode[1:2]]  # X_0^2 at (1,)
            else:
                lower = projective_space(field, self.n - 1)
                size, mul = len(lower), field._mul
                squares = [bytes((code.encode[mul[a][a]],)) * size for a in field.elements]
                rows = [_stack(field, squares, code.encode[1:2])]
                for column in lower.points.columns:
                    coded = column.translate(code.encode)
                    rows.append(_stack(field, [coded.translate(code.scale[a]) for a in field.elements], b"\0"))
                rows += [_stack(field, [lane] * field.q, b"\0") for lane in lower.monomial_rows()]
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
                            join |= 1 << self.points.index(y)
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
