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

``survey(q, n)`` classifies every form up to scalar once, in
``iter_monic_coeffs`` order, by one depth-first walk over the coefficients
that carries the zero sets of the form and of its polar partials as
bitmasks: each zero mask is read off the walk, and each rank from the
number of singular points, with no per-form evaluation or elimination.
Its point index, built on first use, gives the rows whose zero set
contains a given set of points by ANDing one bitset per point.  The
scans the CLI runs and the exhaustive tester pass ``check_budget`` before
they build a survey: its row count, the (q**dim - 1)/(q - 1) forms up to
scalar, may not exceed the budget.
``build_code`` shares one immutable code per (field, N).

A nonzero codeword is minimal when no other nonzero codeword has support
strictly inside its own; equivalently, the zero set of its form is maximal
under inclusion among quadric point sets.  Three independent testers are
provided: a classification-based characterization, an interpolation search
through the linear system of forms vanishing on the zero set, and an
exhaustive search of the survey's point index for a strictly larger zero
set.  The interpolation span (``interpolation_space``) is eliminated on
packed values: monomial lanes gathered at the points, or over GF(2) the
per-point bitmask rows packed from those lanes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .gf import Field, field_from_order
from .linalg import kernel_basis_gf2, matrix_rank
from .projspace import bits_to_indices, projective_size, projective_space
from .quadric import (
    ABSOLUTELY_IRREDUCIBLE,
    DimensionMismatch,
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


@dataclass(frozen=True)
class Codeword:
    values: tuple[int, ...]
    support: int
    weight: int


class PrmCode:
    """The order-2 code on P^N(F_q); immutable, shared by :func:`build_code`."""

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise PrmError("code needs ambient dimension N >= 1")
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
    def gf2_point_rows(self) -> tuple[int, ...]:
        """GF(2) only: the monomials' values at each point packed into a
        bitmask, bit k for monomial k (element 1 is lane byte 1)."""
        assert self.field.q == 2
        lanes = self.space.monomial_rows()
        return tuple(sum(v << k for k, v in enumerate(col)) for col in zip(*lanes))

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


class Survey(tuple):
    """The rows of :func:`survey`, with the point index over them."""

    def __new__(cls, rows, points: int):
        self = super().__new__(cls, rows)
        self.points = points
        return self

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """The point index: bit i of ``columns[p]`` is set when row i's
        zero set contains point p."""
        width = self.points
        # One row per `width` characters, highest row first and each row's
        # highest point first, so every column is a binary numeral.
        table = "".join(format(mask, f"0{width}b") for *_, mask in reversed(self))
        return tuple(int(table[width - 1 - p :: width], 2) for p in range(width))

    def containing(self, zeros: int) -> list[int]:
        """Ascending indices of the rows whose zero set contains ``zeros``."""
        columns = self.columns
        through = (1 << len(self)) - 1
        for p in bits_to_indices(zeros):
            through &= columns[p]
        return bits_to_indices(through)


def _value_masks(columns, q: int) -> list[list[int]]:
    """``out[k][a]``: the points p where ``columns[k][p] == a``, for columns
    of field elements, one byte per point."""
    onehot = [bytes(b"01"[v == a] for v in range(256)) for a in range(q)]
    return [[int(col.translate(t)[::-1], 2) for t in onehot] for col in columns]


def check_budget(q: int, n: int, budget: int | None = None) -> None:
    """Refuse N < 1, and a survey with more rows, (q**dim - 1)/(q - 1)
    forms up to scalar, than the budget (``DEFAULT_FORM_BUDGET`` when
    None), before any survey is built."""
    if n < 1:
        raise PrmError(f"scan needs N >= 1, got N = {n}")
    budget = DEFAULT_FORM_BUDGET if budget is None else budget
    rows = (q ** len(monomials(n)) - 1) // (q - 1)
    if rows > budget:
        raise BudgetExceeded(
            f"survey of {rows} forms up to scalar exceeds the enumeration budget {budget}"
        )


@lru_cache(maxsize=8)
def survey(q: int, n: int) -> Survey:
    """Classify every monic form: (coeffs, class, rank, zero-set mask).

    One depth-first walk in ``iter_monic_coeffs`` order carries, per field
    value a, the points where F = a and where each polar partial
    L_i = B(e_i, .) = a; setting coefficient k to c adds c times monomial
    k's values to F, and c times a coordinate to at most two partials.  A
    form's zero mask is F's bucket 0.  Its singular points, where F and
    every L_i vanish, are the rational points of the quadratic radical, a
    subspace whose dimension their count gives, and with it the rank.
    """
    field = field_from_order(q)
    space = projective_space(field, n)
    monos = monomials(n)
    m = len(monos)
    add, mul, neg, elems = field._add, field._mul, field._neg, field.elements
    decode = field.lane_code.decode
    mono_masks = _value_masks([lane.translate(decode) for lane in space.monomial_rows()], q)
    coord_masks = _value_masks([bytes(col) for col in zip(*space.points)], q)
    # touched[k]: (t, s, e) for each partial L_t that gains e*c * x_s as
    # coefficient k becomes c; e = 2 on the diagonal, 0 in characteristic 2.
    two = add[1][1]
    touched = [[(i, i, two)] if i == j else [(i, j, 1), (j, i, 1)] for i, j in monos]

    def moved(buckets, c, masks):
        """Buckets of G + c*H, from G's buckets and H's value masks."""
        if not c:
            return buckets
        out = [0] * q
        for b, col in enumerate(masks):
            to = add[mul[c][b]]
            for v, mask in enumerate(buckets):
                hit = mask & col
                if hit:
                    out[to[v]] |= hit
        return out

    def vanishing(buckets, c, masks):
        """Points where G + c*H = 0."""
        if not c:
            return buckets[0]
        out = 0
        for b, col in enumerate(masks):
            out |= buckets[neg[mul[c][b]]] & col
        return out

    classes: dict[tuple[int, int], tuple[QuadricClass, int]] = {}
    rows = []
    coeffs = [0] * m

    def walk(k, choices, f, partials):
        """Append the rows of every form that has ``coeffs`` before
        position k, a value from ``choices`` at k, and any values after."""
        if k == m - 1:
            moving = {t for t, _, _ in touched[k]}
            rest = space.full_mask
            for t, part in enumerate(partials):
                if t not in moving:
                    rest &= part[0]
            for c in choices:
                coeffs[k] = c
                zeros = vanishing(f, c, mono_masks[k])
                singular = zeros & rest
                for t, s, e in touched[k]:
                    singular &= vanishing(partials[t], mul[e][c], coord_masks[s])
                key = (singular.bit_count(), zeros.bit_count())
                found = classes.get(key)
                if found is None:
                    rk = n + 1 - subspace_dimension(key[0], q)
                    found = classes[key] = (discriminate(rk, key[1], n, q), rk)
                rows.append((tuple(coeffs), *found, zeros))
            coeffs[k] = 0
            return
        for c in choices:
            coeffs[k] = c
            after = partials[:]
            for t, s, e in touched[k]:
                after[t] = moved(partials[t], mul[e][c], coord_masks[s])
            walk(k + 1, elems, moved(f, c, mono_masks[k]), after)
        coeffs[k] = 0

    nothing = [space.full_mask] + [0] * (q - 1)
    for lead in range(m):
        walk(lead, (1,), nothing, [nothing] * (n + 1))
    return Survey(rows, projective_size(q, n))


def interpolation_space(code: PrmCode, zero_mask: int) -> list[QuadraticForm]:
    """Basis of the space of forms vanishing at the points of a bitmask.

    The basis is the free-column kernel basis of the evaluation constraints,
    the one ``linalg.kernel_basis`` gives: for each monomial k that is a
    combination of the monomials before it on the points, the form
    X_k minus that combination.  With no points it is the unit basis.

    Over GF(2) the constraint rows are bitmasks.  Otherwise the columns are
    the monomial lanes at the points, each followed by the unit vector e_k,
    and Gauss-Jordan elimination runs on them left to right: a column that
    reduces to zero on the points carries its kernel vector in the tail; one
    that does not becomes a pivot at its first nonzero point.
    """
    indices = bits_to_indices(zero_mask)
    field = code.field
    m = code.dimension
    if field.q == 2:
        packed = code.gf2_point_rows
        basis_masks = kernel_basis_gf2([packed[i] for i in indices], m)
        return [
            QuadraticForm(field, code.n, tuple(b >> k & 1 for k in range(m)))
            for b in basis_masks
        ]
    lane_code = field.lane_code
    neg, inv, decode = field._neg, field.inv, lane_code.decode
    height = len(indices)
    width = height + m

    def reduced(pairs) -> bytes:
        return lane_code.combine(pairs, width).translate(lane_code.normal)

    # (point, lane): each pivot lane is 1 at its point and 0 at the others'.
    pivots: list[tuple[int, bytes]] = []
    basis = []
    for k, lane in enumerate(code.space.monomial_rows()):
        unit = bytes(k) + b"\1" + bytes(m - 1 - k)  # the element 1 is byte 1
        column = bytes(map(lane.__getitem__, indices)) + unit
        x = reduced([(1, column)] + [(neg[decode[column[s]]], r) for s, r in pivots])
        s = height - len(x[:height].lstrip(b"\0"))
        if s == height:
            basis.append(QuadraticForm(field, code.n, tuple(x[height:].translate(decode))))
            continue
        x = x.translate(lane_code.scale[inv(decode[x[s]])])
        pivots = [(t, reduced([(1, r), (neg[decode[r[s]]], x)]) if r[s] else r) for t, r in pivots]
        pivots.append((s, x))
    return basis


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

    def to_json(self, renderer=None) -> dict:
        witness = None
        if self.witness is not None and renderer is not None:
            witness = renderer(self.witness)
        return {"minimal": self.minimal, "method": self.method, "witness": witness}


def characterization_minimal(cls: QuadricClass, rk: int, q: int) -> bool:
    """Hyperplane pairs and absolutely irreducible quadrics are minimal,
    except rank 3 when q <= 3 and elliptic rank 4 when q = 2."""
    return cls is QuadricClass.HYPERPLANE_PAIR or (
        cls in ABSOLUTELY_IRREDUCIBLE
        and not (rk == 3 and q <= 3)
        and not (cls is QuadricClass.ELLIPTIC and rk == 4 and q == 2)
    )


def is_minimal_characterization(form: QuadraticForm) -> MinimalityVerdict:
    """Class-based verdict by :func:`characterization_minimal`.  Produces
    no witness."""
    if form.is_zero:
        raise ZeroForm("minimality of the zero form is undefined")
    report = classify(form)
    minimal = characterization_minimal(report.quadric_class, report.rank, form.field.q)
    return MinimalityVerdict(minimal=minimal, method="characterization")


def is_minimal_interpolation(code: PrmCode, form: QuadraticForm) -> MinimalityVerdict:
    """Verdict by searching the linear system of forms through the zero set.

    Minimal iff every form vanishing on the zero set has exactly that zero
    set; the first strictly larger one in enumeration order is the witness.
    """
    if form.is_zero:
        raise ZeroForm("minimality of the zero form is undefined")
    zeros = point_set(form)
    count = zeros.bit_count()
    for candidate in iter_span_monic(code.field, interpolation_space(code, zeros)):
        if point_set(candidate).bit_count() > count:
            return MinimalityVerdict(
                minimal=False, method="interpolation", witness=candidate
            )
    return MinimalityVerdict(minimal=True, method="interpolation")


def is_minimal_exhaustive(
    code: PrmCode, codeword: Codeword, budget: int | None = None
) -> MinimalityVerdict:
    """Verdict by the survey's point index: the forms whose zero set
    contains ``full_mask ^ support``; the first, in survey order, whose
    zero set is strictly larger is the witness."""
    if codeword.weight == 0:
        raise ZeroCodeword("minimality of the zero codeword is undefined")
    check_budget(code.field.q, code.n, budget)
    rows = survey(code.field.q, code.n)
    zeros = code.space.full_mask ^ codeword.support
    for i in rows.containing(zeros):
        coeffs, _, _, mask = rows[i]
        if mask != zeros:
            return MinimalityVerdict(
                minimal=False,
                method="exhaustive",
                witness=QuadraticForm(code.field, code.n, coeffs),
            )
    return MinimalityVerdict(minimal=True, method="exhaustive")
