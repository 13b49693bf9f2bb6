"""Order-2 projective Reed-Muller codes and minimal-codeword testers.

The code of length p_N is the image of the evaluation map sending a
quadratic form to its value vector over the canonical point list; its
generator's rows, one lane per monomial, are
``ProjectiveSpace.monomial_rows()``.  For degree 2 the map is injective for
every q: values at e_i and e_i + e_j recover all coefficients, and
``PrmCode`` checks exactly that m x m system.  So codewords correspond to
forms and codewords up to scalar to quadrics.  ``PrmCode.encode`` reads a
form's value vector off its evaluation lane (``quadric.evaluation_lane``),
the same one ``point_set`` reads the zero set from.

``survey(q, n)`` classifies every form up to scalar once, bit-sliced over
its rows in ``iter_monic_coeffs`` order: for each point, integers whose
bit i stands for row i give the rows where the form takes each value
there (sums of fixed coefficient planes, in the bit-sliced arithmetic of
``_sliced`` that ``minimal_rows`` shares), and the zero buckets are the
point index.  Polarization and Euler's identity give the singular
points, and bit-sliced counters the zero and singular counts, so each
(class, rank, zero count) is one row mask and the census reductions are
popcounts.  The point index is ordered by zero count, most zeros first,
so the rows that can strictly contain a zero set of size c are a prefix.
``Survey.supersets`` answers a range of rows at once, one C-level AND
``reduce`` per row and no bytecode; ``Survey.strictly_through`` one point
set.  A row's class and rank are one byte, its coefficients its row
number.  The scans the CLI runs and the exhaustive tester pass
``check_budget`` before they build a survey: its row count,
(q**dim - 1)/(q - 1), may not exceed the budget.  ``build_code`` shares
one immutable code per (field, N).

A nonzero codeword is minimal when no other nonzero codeword has support
strictly inside its own; equivalently, the zero set of its form is maximal
under inclusion among quadric point sets.  Three independent testers are
provided: a classification-based characterization, an interpolation search
through the linear system of forms vanishing on the zero set, and an
exhaustive search of the survey's point index for a strictly larger zero
set.  The interpolation kernel (``interpolation_kernel``) is one column
elimination: monomial lanes gathered at the points, or over GF(2) each
monomial's mask of value-1 points ANDed with the zero set.  The census asks
only whether that kernel has dimension 1, and ``minimal_rows`` answers it
for a range of rows at once, eliminating their evaluation matrices
bit-sliced over the rows, over any field.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import compress, repeat
from operator import and_, itemgetter, or_

from .formexpr import render_form
from .gf import Field, field_from_order
from .linalg import matrix_rank
from .projspace import bits_to_indices, projective_space
from .quadric import (
    WITT_SIGN,
    DimensionMismatch,
    InternalInconsistency,
    QuadraticForm,
    QuadricClass,
    ZeroForm,
    classify,
    discriminate,
    evaluation_lane,
    monomials,
    point_set,
    subspace_dimension,
)


class PrmError(Exception):
    pass


class ZeroCodeword(PrmError):
    pass


class BudgetExceeded(PrmError):
    pass


DEFAULT_FORM_BUDGET = 60_000


def require_code(n: int) -> None:
    """Refuse N < 1: P^0 carries no code, so no tester answers there."""
    if n < 1:
        raise PrmError("code needs ambient dimension N >= 1")


@dataclass(frozen=True)
class Codeword:
    values: tuple[int, ...]
    support: int
    weight: int


class PrmCode:
    """The order-2 code on P^N(F_q); immutable, shared by :func:`build_code`."""

    def __init__(self, field: Field, n: int):
        require_code(n)
        self.field = field
        self.n = n
        self.space = projective_space(field, n)
        self.monomials = monomials(n)
        self.length = len(self.space)
        self.dimension = len(self.monomials)
        # The monomials' values at the m points e_i and e_i + e_j: a full-rank
        # m x m subsystem makes the whole evaluation map injective.
        mul = field._mul
        points = [[int(t in (i, j)) for t in range(n + 1)] for i, j in self.monomials]
        system = [[mul[v[i]][v[j]] for i, j in self.monomials] for v in points]
        if matrix_rank(field, system) != self.dimension:
            raise PrmError("evaluation map is not injective; generator is rank-deficient")

    @cached_property
    def one_masks(self) -> tuple[int, ...]:
        """Per monomial, the mask of the points where it is nonzero, read off
        its lane's zero mask.  Its one reader, ``interpolation_kernel``,
        reads it over GF(2), where nonzero is the value 1."""
        code, full = self.field.lane_code, self.space.full_mask
        return tuple(full ^ code.zero_mask(lane) for lane in self.space.monomial_rows())

    def encode(self, form: QuadraticForm) -> Codeword:
        if form.field != self.field or form.ambient != self.n:
            raise DimensionMismatch("form does not match the code parameters")
        lane = evaluation_lane(form)
        lane_code = self.field.lane_code
        support = self.space.full_mask ^ lane_code.zero_mask(lane)
        values = tuple(lane.translate(lane_code.decode))
        return Codeword(values=values, support=support, weight=support.bit_count())

    def minimum_distance(self) -> int:
        """q**N - q**(N-1): the complement of the two-hyperplane maximum."""
        q, n = self.field.q, self.n
        return q**n - q ** (n - 1)

    def to_json(self) -> dict:
        return {
            "q": self.field.q,
            "N": self.n,
            "length": self.length,
            "dimension": self.dimension,
            "min_distance": self.minimum_distance(),
        }


@lru_cache(maxsize=None)
def build_code(field: Field, n: int) -> PrmCode:
    return PrmCode(field, n)


def iter_monic_coeffs(field: Field, length: int):
    """All nonzero coefficient tuples up to scalar, leading coefficient 1.

    Enumeration is canonical: leading index ascending, then the tail in
    lexicographic order under the field element order.
    """
    elems = field.elements
    for lead in range(length):
        head = (0,) * lead + (1,)
        for tail in itertools.product(elems, repeat=length - lead - 1):
            yield head + tail


def monic_coeffs_at(field: Field, length: int, index: int) -> tuple[int, ...]:
    """The ``index``-th tuple of :func:`iter_monic_coeffs`, by the row rule
    that the survey's coefficient planes and columns apply in bulk.  The
    block of lead L, the tuples whose first nonzero coefficient is at L,
    holds q**(length-1-L) rows.  Coefficient k of row i is 0 for k < L and
    1 for k = L.  For k > L it is the element of order index
    i // q**(length-1-k) mod q: the tail counts in base q, last digit
    fastest, and every block of lead below k starts at a multiple of
    q**(length-k), that digit's period."""
    q = field.q
    if not 0 <= index < (q**length - 1) // (q - 1):
        raise IndexError("monic coefficient index out of range")
    # Row i is in the first block that ends past it.
    lead = next(L for L in range(length) if index * (q - 1) < q**length - q ** (length - 1 - L))
    elements = field.elements
    return tuple(
        elements[index // q ** (length - 1 - k) % q] if k > lead else int(k == lead)
        for k in range(length)
    )


class Survey:
    """The forms up to scalar of :func:`survey`: class masks over the rows
    and one point index, ordered by zero count on the first query.

    ``classes`` maps each (class, rank, zero count) to the mask of its
    rows, in order of each key's first row.  ``columns[p]``, held only
    until ``point_index`` is built from it, has bit i set when row i's zero
    set contains point p.  ``supersets`` and ``strictly_through`` answer in
    index order, most zeros first; ``row_numbers`` maps an answer to survey
    rows.  The containment search alone builds ``class_ranks``, each row's
    key in ``classes``, and its ``supports`` and ``coefficient_columns``,
    the row rule of :func:`monic_coeffs_at` applied to every row at once.
    """

    def __init__(self, q: int, n: int, columns: tuple[int, ...], classes: dict):
        self.q = q
        self.n = n
        self.columns = columns
        self.classes = classes

    def __len__(self) -> int:
        return _row_count(self.q, self.n)

    def _by_count(self) -> dict[int, int]:
        """{zero count: the mask of its rows}, most zeros first."""
        exact: dict[int, int] = {}
        for (_, _, c), rows in self.classes.items():
            exact[c] = exact.get(c, 0) | rows
        return dict(sorted(exact.items(), reverse=True))

    @cached_property
    def class_ranks(self) -> bytes:
        """Byte i is the position of row i's key in ``classes`` (two keys at
        most per rank): each class mask's numeral with that position for the
        digit 1, summed without carries since the masks are disjoint."""
        width = len(self)
        digits, total = f"0{width}b", 0
        for code, rows in enumerate(self.classes.values()):
            spread = bytes.maketrans(b"01", bytes((0, code)))
            total += int.from_bytes(format(rows, digits).encode().translate(spread), "big")
        return total.to_bytes(width, "little")

    @cached_property
    def point_index(self) -> tuple[array, tuple[int, ...], list[int]]:
        """The point index ordered by zero count: ``(order, columns,
        at_least)``.  ``order`` lists the survey rows by zero count, most
        zeros first and in survey order within one count; bit k of
        ``columns[p]`` stands for row ``order[k]``; ``at_least[c]``, for c
        from 0 to the point count plus 1, is the prefix mask of the rows
        with at least c zeros.  The rows that can contain a zero set are
        thus a prefix, and ``&`` on two non-negative ints is only as wide as
        the narrower one.  Built from the class masks and ``columns``,
        which it consumes."""
        exact = self._by_count()
        width = len(self)
        digits, bits = f"0{width}b", bytes.maketrans(b"01", b"\0\1")
        order = array("H" if width <= 1 << 16 else "I")
        at_least = [0] * (len(self.columns) + 2)
        code = 0
        for g, (c, rows) in enumerate(exact.items()):
            # Byte j of the numeral is 1 when row width-1-j has c zeros.
            numeral = format(rows, digits).encode().translate(bits)
            order.extend(itertools.compress(range(width), numeral[::-1]))
            at_least[c] = (1 << len(order)) - 1
            code += 2 * g * int.from_bytes(numeral, "big")
        for c in range(len(at_least) - 2, -1, -1):
            at_least[c] = at_least[c] or at_least[c + 1]
        # A column's numeral plus `code` has byte 0x30 + 2g + bit at row
        # width-1-j, g the index of the row's zero count, most zeros first; a
        # zero count is p_(N-1) + sign q**(N - r/2), so there are at most
        # N + 2 of them, and the byte fits.  Keeping one g's bytes at a time,
        # fewest zeros first, picks the column's bits in reversed `order`.
        lanes = range(0x30, 0x30 + 2 * len(exact))
        picks = [
            (bytes.maketrans(bytes((b, b + 1)), b"01"), bytes(x for x in lanes if x >> 1 != b >> 1))
            for b in reversed(lanes[::2])
        ]
        # Each survey-order column is dropped as its reordered copy is made.
        columns = list(self.columns)
        del self.columns
        for p, col in enumerate(columns):
            coded = (int.from_bytes(format(col, digits).encode(), "big") + code).to_bytes(width, "big")
            columns[p] = int(b"".join(coded.translate(*pick) for pick in picks), 2)
        return order, tuple(columns), at_least

    @cached_property
    def supports(self) -> array:
        """Row j's support, bit m - 1 - k set when coefficient k is nonzero
        (over GF(2) the row itself), by the row rule of :func:`monic_coeffs_at`:
        the tails of k + 1 coefficients are those of k, then q - 1 times the
        rows of lead m - 1 - k, bit k set."""
        tails, blocks = array(self.point_index[0].typecode, [0]), []
        for k in range(len(monomials(self.n))):
            blocks.append(array(tails.typecode, map((1 << k).__or__, tails)))
            tails += blocks[-1] * (self.q - 1)
        return reduce(array.__iadd__, reversed(blocks))

    @cached_property
    def coefficient_columns(self) -> list[bytes]:
        """Byte j of column k is row j's coefficient k, by the row rule of
        :func:`monic_coeffs_at`: the digit's period repeated over the blocks
        of lead below k, then 1 on block k and 0 past it."""
        q, m, out = self.q, len(monomials(self.n)), []
        for k in range(m):
            size = q ** (m - 1 - k)
            run = b"".join(bytes((e,)) * size for e in field_from_order(q).elements)
            out.append(run * ((q**k - 1) // (q - 1)) + b"\1" * size + bytes((size - 1) // (q - 1)))
        return out

    def supersets(self, start: int, stop: int):
        """``(c, rows, selectors, hits)`` per zero count c of rows ``start``
        to ``stop - 1``: iterators of the rows of count c and of their
        ``strictly_through``, and a list of their zero sets as bytes (byte j
        for point P - 1 - j).  The rows are one run of index bits, so one
        table of the run's bits per point gives each selector as a slice, and
        a C-level ``reduce`` ANDs what it picks."""
        _, columns, at_least = self.point_index
        backwards = columns[::-1]
        bits = bytes.maketrans(b"01", b"\0\1")
        size = max(0, min(stop, len(self)) - start)
        for c, rows in self._by_count().items():
            run = format(rows >> start & (1 << size) - 1, f"0{size}b").encode().translate(bits)
            k = run.count(1)
            if k:
                first = at_least[c].bit_length() - (rows >> start).bit_count()
                # A column per k bytes, highest point and last row first.
                table = b"".join(
                    format(col >> first & (1 << k) - 1, f"0{k}b").encode() for col in backwards
                ).translate(bits)
                cuts = map(slice, range(k - 1, -1, -1), repeat(None), repeat(k))
                selectors = list(map(table.__getitem__, cuts))
                picked = map(compress, repeat(backwards), selectors)
                hits = map(reduce, repeat(and_), picked, repeat(at_least[c + 1]))
                yield c, compress(range(start, start + size), run[::-1]), selectors, hits

    def strictly_through(self, zeros: int) -> int:
        """The mask, in index order, of the rows with more zeros whose zero
        set contains ``zeros``: one ``reduce`` of ANDs, as in ``supersets``."""
        _, columns, at_least = self.point_index
        picked = map(columns.__getitem__, bits_to_indices(zeros))
        return reduce(and_, picked, at_least[zeros.bit_count() + 1])

    def row_numbers(self, mask: int) -> list[int]:
        """The survey rows of a mask in index order."""
        order = self.point_index[0]
        return [order[k] for k in bits_to_indices(mask)]


def _row_count(q: int, n: int) -> int:
    """Forms up to scalar on P^n over GF(q): (q**dim - 1)/(q - 1)."""
    return (q ** len(monomials(n)) - 1) // (q - 1)


def check_budget(q: int, n: int, budget: int | None = None) -> None:
    """Refuse a q that is no field order, N < 1 (:func:`require_code`), and
    a survey with more rows, (q**dim - 1)/(q - 1) forms up to scalar, than
    the budget (``DEFAULT_FORM_BUDGET`` when None), before any survey is built."""
    field_from_order(q)
    require_code(n)
    budget = DEFAULT_FORM_BUDGET if budget is None else budget
    rows = _row_count(q, n)
    if rows > budget:
        raise BudgetExceeded(
            f"survey of {rows} forms up to scalar exceeds the enumeration budget {budget}"
        )


def _split_by_count(columns, full: int) -> dict[int, int]:
    """{c: the rows set in exactly c of the columns}, the empty groups
    left out: the columns are added into a vertical binary counter, one
    integer per bit plane, and the full mask is split plane by plane."""
    planes: list[int] = []
    for carry in columns:
        for j, plane in enumerate(planes):
            if not carry:
                break
            planes[j], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    groups = {0: full}
    for j, plane in enumerate(planes):
        split = {}
        for count, rows in groups.items():
            high = rows & plane
            if high:
                split[count + (1 << j)] = high
            if rows ^ high:
                split[count] = rows ^ high
        groups = split
    return groups


def _coefficient_planes(field: Field, m: int):
    """(k, planes) for each coefficient k, from m - 1 down: its bit-sliced
    planes (:func:`_sliced`) by the row rule of :func:`monic_coeffs_at`,
    one pattern of a digit's period, doubled and cut at block k.  The
    widest planes come first, so sums of them are allocated at full width
    once and not regrown (which left 2 MB of freed heap at (2,5))."""
    q = field.q
    for k in range(m - 1, -1, -1):
        size = q ** (m - 1 - k)
        ones, start = (1 << size) - 1, (q**m - q * size) // (q - 1)
        planes = []
        for e in range(1, q):
            pattern, period = ones << field.order_index(e) * size, q * size
            while period < start:
                pattern |= pattern << period
                period *= 2
            pattern &= (1 << start) - 1
            planes.append(pattern | ones << start if e == 1 else pattern)
        yield k, planes


@lru_cache(maxsize=8)
def _polarization(q: int, n: int) -> list[list[tuple[int, int]]]:
    """The point pairs ``survey(q, n)`` reads its polarization from, read off
    the point sequence once per (q, n): ``serves[r]``, the (p, t) with
    r = p + e_t and t not p's last nonzero coordinate, which is 1, so r is
    normalized as it stands."""
    field = field_from_order(q)
    points = projective_space(field, n).points
    add = field._add
    serves: list[list[tuple[int, int]]] = [[] for _ in points]
    for p, point in enumerate(points):
        last = len(bytes(point).rstrip(b"\0")) - 1
        for t in range(n + 1):
            if t != last:
                v = list(point)
                v[t] = add[v[t]][1]
                serves[points.index(v)].append((p, t))
    return serves


@lru_cache(maxsize=8)
def survey(q: int, n: int) -> Survey:
    """Classify every form up to scalar: its zero set and (class, rank).

    Rows follow ``iter_monic_coeffs`` order.  For each point p the rows
    where F(p) = a, for every a, are the buckets at p.  F(p) is the
    bit-sliced sum, with the add of :func:`_sliced`, over k of coefficient
    k's planes (:func:`_coefficient_planes`) times v_k, the value of
    monomial k at p: a permutation of the planes, plane c taken from
    plane c/v_k.  Bucket 0 is the rows in no plane of the sum,
    ``columns[p]``.  All m*(q-1) coefficient planes are built once, before
    the first point.  Past GF(3) an add costs (q-1)**2 plane ANDs; the
    ROADMAP's digit-plane item holds the numbers.  The singular points,
    where F and every polar partial B(e_t, .) vanish, follow by
    polarization: on Z[p], with r = p + e_t, B(e_t, p) = F(r) - F(e_t),
    and F(e_t) is the coefficient of X_t**2, whose planes give its
    buckets.  By Euler's identity,
    sum_t p_t B(e_t, p) = B(p, p) = 2F(p), which is 0 on Z[p], so the
    partial at p's last nonzero coordinate, which is 1, follows from the
    others.  So p is singular on the rows of Z[p] that, for every other t,
    take the same value at r as their coefficient of X_t**2.  Which (p, t)
    each r serves depends on (q, N) only, so :func:`_polarization` finds
    it once.  The buckets at r are dropped once every (p, t) it serves has
    read them.  Zero and singular counts are bit-sliced over the rows; the
    singular points are the quadratic radical's, so their count gives the
    rank, and the zero count then the class.

    The cache holds up to eight surveys.  At (5,3), 2,441,406 rows and
    the largest budget a test passes, one survey's columns and class masks
    take about 53 MB, and building it peaks at 138 MB ((2,5): 60 MB).  The
    ordered point index replaces the columns on the first query, plus 4
    bytes a row (146 MB peak); a containment search adds a class-rank byte
    and a support a row, and past GF(2) a byte per row and coefficient.
    """
    field = field_from_order(q)
    space = projective_space(field, n)
    mono = monomials(n)
    mul, inv = field._mul, field._inv
    decode = field.lane_code.decode
    values = list(zip(*(lane.translate(decode) for lane in space.monomial_rows())))
    full = (1 << _row_count(q, n)) - 1
    add_planes = _sliced(field)[0]
    nonzero = range(1, q)
    # terms[k][v]: coefficient k's planes times v, plane c taken from plane c/v.
    terms = {
        k: {v: [planes[mul[inv[v]][c] - 1] for c in nonzero] for v in nonzero}
        for k, planes in _coefficient_planes(field, len(mono))
    }

    def buckets(r: int) -> list[int]:
        """``out[a]``: the rows whose form takes the value a at point r."""
        v = values[r]
        total = reduce(add_planes, [times[v[k]] for k, times in terms.items() if v[k]])
        return [full ^ reduce(or_, total), *total]

    # diagonal[t][a]: the rows whose coefficient of X_t**2, F(e_t), is a.
    squares = [terms[mono.index((t, t))][1] for t in range(n + 1)]
    diagonal = [[full ^ reduce(or_, planes), *planes] for planes in squares]
    columns = [0] * len(values)
    singular = [full] * len(values)
    for r, served in enumerate(_polarization(q, n)):
        at_r = buckets(r)
        columns[r] = at_r[0]
        singular[r] &= at_r[0]
        for p, t in served:
            meet = 0
            for x, y in zip(at_r, diagonal[t]):
                meet |= x & y
            singular[p] &= meet
    # The coefficient planes go before the counts are split (3 MB of peak at (2,5)).
    del terms, squares, diagonal
    singular = _split_by_count(singular, full)
    found = []
    for zero_count, zero_rows in _split_by_count(columns, full).items():
        for singular_count, singular_rows in singular.items():
            both = zero_rows & singular_rows
            if both:
                rk = n + 1 - subspace_dimension(singular_count, q)
                found.append(((discriminate(rk, zero_count, n, q), rk, zero_count), both))
    found.sort(key=lambda item: (item[1] & -item[1]).bit_length())
    return Survey(q, n, tuple(columns), dict(found))


def interpolation_kernel(code: PrmCode, zero_mask: int) -> list[tuple[int, ...]]:
    """The free-column kernel basis of the evaluation constraints at the
    points of a bitmask, as ``linalg.kernel_basis`` gives it: for each
    monomial k that is a combination of the monomials before it on the
    points, X_k minus that combination (with no points, the unit basis).

    Columns are eliminated left to right, each with a tail that starts as
    e_k; one that reduces to zero gives its tail, which touches only pivot
    columns and k, so echelon form is enough: each column is reduced by the
    pivots in creation order.  Over GF(2) column k is monomial k's value-1
    mask ANDed with the zero mask; otherwise it is the monomial lane
    gathered at the points."""
    m = code.dimension
    if code.field.q == 2:
        # Column k as one integer: its points above bit m, its tail below.
        keep = zero_mask << m | (1 << m) - 1
        bits, digits = bytes.maketrans(b"01", b"\0\1"), f"0{m}b"
        echelon: list[tuple[int, int]] = []  # (pivot bit, column)
        kernel = []
        for k, mask in enumerate(code.one_masks):
            column = (mask << m | 1 << k) & keep
            for bit, pivot in echelon:
                if column & bit:
                    column ^= pivot
            points = column >> m
            if points:
                echelon.append(((points & -points) << m, column))
            else:
                kernel.append(tuple(format(column, digits)[::-1].encode().translate(bits)))
        return kernel
    indices = bits_to_indices(zero_mask)
    height = len(indices)
    # itemgetter needs an index, and returns a bare item for one.
    gather = itemgetter(*indices) if height > 1 else lambda lane: [lane[i] for i in indices]
    field = code.field
    neg, inv, mul = field._neg, field.inv, field._mul
    combine, normal, decode = field.lane_code.combine, field.lane_code.normal, field.lane_code.decode
    width = height + m
    # (point, -1/value there, lane) per pivot, in creation order.
    pivots: list[tuple[int, int, bytes]] = []
    basis = []
    for k, lane in enumerate(code.space.monomial_rows()):
        # The element 1 is byte 1.
        x = bytes(gather(lane)) + bytes(k) + b"\1" + bytes(m - 1 - k)
        for s, c, pivot in pivots:
            if x[s]:
                x = combine([(1, x), (mul[c][decode[x[s]]], pivot)], width).translate(normal)
        s = height - len(x[:height].lstrip(b"\0"))
        if s == height:
            basis.append(tuple(x[height:].translate(decode)))
        else:
            pivots.append((s, neg[inv(decode[x[s]])], x))
    return basis


def _add_gf2(a, b):
    return (a[0] ^ b[0],)


def _add_gf3(a, b):
    # Where both entries are nonzero, flipping the planes' ORs gives
    # 1 + 2 = 0, 1 + 1 = 2 and 2 + 2 = 1.
    (a1, a2), (b1, b2) = a, b
    both = (a1 | a2) & (b1 | b2)
    return (a1 | b1) ^ both, (a2 | b2) ^ both


@lru_cache(maxsize=None)
def _sliced(field: Field):
    """(add, scale) on bit-sliced vectors over ``field``: plane s, one
    integer, has the bits where an entry is the element s + 1.  Plane c of
    a sum is the OR of ``a[x] & b[y]`` over x + y = c, plus a's plane c
    where b is 0 and b's where a is 0; plane c of a product the OR of
    ``a[x] & f[y]`` over x * y = c.  Each takes (q-1)**2 plane ANDs at
    most, so over GF(2) and GF(3) the add is ``_add_gf2`` or ``_add_gf3``,
    one and seven plane operations; ``survey`` and :func:`minimal_rows`
    both take it from here."""
    nonzero = range(1, field.q)
    sums, products = (
        [[(x - 1, y - 1) for x in nonzero for y in nonzero if table[x][y] == c] for c in nonzero]
        for table in (field._add, field._mul)
    )

    def add(a, b):
        zero_a, zero_b = ~reduce(or_, a), ~reduce(or_, b)
        return [
            reduce(or_, (a[x] & b[y] for x, y in pairs), a[c] & zero_b | b[c] & zero_a)
            for c, pairs in enumerate(sums)
        ]

    def scale(a, f):
        return [reduce(or_, (a[x] & f[y] for x, y in pairs), 0) for pairs in products]

    return {2: _add_gf2, 3: _add_gf3}.get(field.q, add), scale


def minimal_rows(code: PrmCode, points: list[int]) -> int:
    """The mask of the rows whose interpolation kernel has dimension 1, for
    rows given by their point masks: bit i of ``points[p]`` is set when row
    i vanishes at point p.

    Row i's evaluation matrix at its zero set has a line per point p,
    holding monomial k's value at p in column k if row i vanishes at p and
    0 otherwise; its kernel has one vector per column without a pivot.
    All rows are eliminated at once.  A line holds one integer per plane
    (:func:`_sliced`), column k in bits k*w to k*w + w - 1, w the row
    count, bit i of a column standing for row i.  The columns are taken
    lowest first and shifted off.  A row's pivot in a column is its first
    line with a nonzero entry e there, scaled by 1/e, e's planes permuted
    through the field's inverses, so the pivot has entry 1 there.  Every
    line with entry e then adds -e times the pivot, e's planes permuted
    through negation, which clears the pivot line on the rows it serves,
    so a row's unused lines are those still nonzero on it; the lines
    before a row's pivot have entry 0 on it and need nothing.  A two-bit
    saturating counter counts the columns where a row found no pivot, and
    a row is minimal when its count is 1."""
    field, m = code.field, code.dimension
    add, scale = _sliced(field)
    nonzero = range(1, field.q)
    invert = [field._inv[e] - 1 for e in nonzero]
    negate = [field._neg[e] - 1 for e in nonzero]
    width = max(map(int.bit_length, points), default=0)
    full = (1 << width) - 1
    # ones[c]: bit 0 of each of c columns, to spread a per-row element.
    ones = [0]
    for _ in range(m):
        ones.append(ones[-1] << width | 1)
    decode = field.lane_code.decode
    at_points = zip(*(row.translate(decode) for row in code.space.monomial_rows()))
    lines = []
    for zeros, values in zip(points, at_points):
        if zeros:
            lines.append(
                [zeros * sum(1 << k * width for k, v in enumerate(values) if v == a) for a in nonzero]
            )
    free = twice = 0
    for left in range(m - 1, -1, -1):
        found = 0
        pivot = [0] * len(nonzero)
        kept = []
        for line in lines:
            head = [x & full for x in line]
            line = [x >> width for x in line]
            nonzero_rows = reduce(or_, head)
            if not nonzero_rows:
                kept.append(line)
                continue
            hit = nonzero_rows & ~found
            if hit:
                found |= hit
                pivot = add(pivot, scale(line, [(head[s] & hit) * ones[left] for s in invert]))
            line = add(line, scale(pivot, [head[s] * ones[left] for s in negate]))
            if any(line):
                kept.append(line)
        lines = kept
        missed = full & ~found
        twice |= free & missed
        free |= missed
    return free & ~twice


def interpolation_space(code: PrmCode, zero_mask: int) -> list[QuadraticForm]:
    """Basis of the space of forms vanishing at the points of a bitmask:
    the vectors of :func:`interpolation_kernel` as forms."""
    return [QuadraticForm(code.field, code.n, v) for v in interpolation_kernel(code, zero_mask)]


def iter_span_monic(field: Field, basis: list[QuadraticForm]):
    """Nonzero forms in the span of a basis, one per scalar class."""
    if not basis:
        return
    n = basis[0].ambient
    add, mul = field._add, field._mul
    m = len(basis[0].coeffs)
    for combo in iter_monic_coeffs(field, len(basis)):
        acc = [0] * m
        for c, b in zip(combo, basis):
            if c:
                bc = b.coeffs
                acc = [add[x][mul[c][y]] for x, y in zip(acc, bc)]
        yield QuadraticForm(field, n, tuple(acc))


@dataclass(frozen=True)
class MinimalityVerdict:
    minimal: bool
    method: str
    witness: QuadraticForm | None = None

    def to_json(self) -> dict:
        witness = None if self.witness is None else render_form(self.witness)
        return {"minimal": self.minimal, "method": self.method, "witness": witness}


def least_minimal_rank(sign: int, q: int) -> int:
    """The least rank from which the classes of Witt sign ``sign`` are
    minimal: 2 for +1, 3 + delta for 0 and 4 + epsilon for -1, where
    delta = 2 when q <= 3 and epsilon = 2 when q = 2.  The double
    hyperplane (rank 1) and the conjugate pair (rank 2) lie below these."""
    return {1: 2, 0: 3 + 2 * (q <= 3), -1: 4 + 2 * (q == 2)}[sign]


def characterization_minimal(cls: QuadricClass, rk: int, q: int) -> bool:
    """Hyperplane pairs and absolutely irreducible quadrics are minimal,
    except rank 3 when q <= 3 and elliptic rank 4 when q = 2."""
    return rk >= least_minimal_rank(WITT_SIGN[cls], q)


def is_minimal_characterization(form: QuadraticForm) -> MinimalityVerdict:
    """Class-based verdict by :func:`characterization_minimal`.  Produces
    no witness; like the other testers it needs a code (:func:`require_code`)."""
    require_code(form.ambient)
    if form.is_zero:
        raise ZeroForm("minimality of the zero form is undefined")
    report = classify(form)
    minimal = characterization_minimal(report.quadric_class, report.rank, form.field.q)
    return MinimalityVerdict(minimal=minimal, method="characterization")


@lru_cache(maxsize=None)
def _sample_mask(length: int, halvings: int) -> int:
    """A fixed mask of ``length`` bits, each set with probability
    2**-halvings, from a seeded generator, so every run samples alike."""
    rng = random.Random(halvings)
    return reduce(and_, (rng.getrandbits(length) for _ in range(halvings)))


def is_minimal_interpolation(code: PrmCode, form: QuadraticForm) -> MinimalityVerdict:
    """Verdict by the dimension of the linear system I(Z) of forms
    vanishing on the zero set Z of F: minimal iff dim I(Z) = 1 (Ashikhmin
    and Barg, IEEE Trans. IT 44, 1998).  F is nonzero and evaluation is
    injective, so F(p) != 0 at some point p.  If dim I(Z) >= 2, the members
    vanishing at p form a nonzero subspace, and any nonzero G in it has
    Z(G) strictly containing Z.  The witness is the first strictly larger
    member of the span in :func:`iter_span_monic` order.

    A sample S of Z, about 2m to 4m of its points, certifies most minimal
    forms first: S in Z gives I(Z) in I(S), and F is in I(Z), so
    dim I(S) = 1 means I(Z) = <F>.  Otherwise, for a non-minimal F or an
    unlucky sample, the full kernel decides as before.  Over GF(2) the
    kernel costs the same for any point set, so there is no sample."""
    if form.is_zero:
        raise ZeroForm("minimality of the zero form is undefined")
    zeros = point_set(form)
    count = zeros.bit_count()
    halvings = (count // (2 * code.dimension)).bit_length() - 1
    if code.field.q > 2 and halvings > 0:
        if len(interpolation_kernel(code, zeros & _sample_mask(code.length, halvings))) == 1:
            return MinimalityVerdict(minimal=True, method="interpolation")
    basis = interpolation_space(code, zeros)
    if len(basis) == 1:
        return MinimalityVerdict(minimal=True, method="interpolation")
    for candidate in iter_span_monic(code.field, basis):
        if point_set(candidate).bit_count() > count:
            return MinimalityVerdict(minimal=False, method="interpolation", witness=candidate)
    raise InternalInconsistency(f"a span of dimension {len(basis)} holds no larger zero set")


def is_minimal_exhaustive(code: PrmCode, codeword: Codeword) -> MinimalityVerdict:
    """Verdict by the survey's point index: of the forms whose zero set
    strictly contains ``full_mask ^ support``, the first in survey order is
    the witness, its coefficients decoded from its row index."""
    if codeword.weight == 0:
        raise ZeroCodeword("minimality of the zero codeword is undefined")
    field = code.field
    check_budget(field.q, code.n)
    index = survey(field.q, code.n)
    hits = index.strictly_through(code.space.full_mask ^ codeword.support)
    if not hits:
        return MinimalityVerdict(minimal=True, method="exhaustive")
    coeffs = monic_coeffs_at(field, code.dimension, min(index.row_numbers(hits)))
    return MinimalityVerdict(
        minimal=False, method="exhaustive", witness=QuadraticForm(field, code.n, coeffs)
    )
