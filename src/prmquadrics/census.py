"""Closed-form counting of quadrics and exhaustive cross-verification.

Two independent routes to the same numbers: product formulas, and a
brute-force scan that enumerates every form up to scalar, classifies it,
and applies a selected minimality tester.  The scan also searches, through
the survey's point index, for pairs of quadrics whose rational point sets
are strictly nested, asserting that every such pair has one of the
admissible shapes (the q = 2 elliptic/hyperbolic rank-4 pair, or low-rank
cones inside hyperplane pairs).

The product formulas read each class's Witt sign (``quadric.WITT_SIGN``):
the quadrics of one class and rank r in P^N number
``gaussian_binomial(N+1, r, q)`` vertices times ``orbit_count``, the smooth
quadrics of that class in P^(r-1), by one product formula for sign 0 and
one for +-1 over all six classes.  Summed over the minimal classes they
give the minimal codewords per weight.

Every scan reads ``prm.survey(q, n)``: its class masks, one row mask per
(class, rank, zero count), its point index, read a range at a time
(``Survey.supersets``), and, in the containment search only, the
class-rank bytes and the rows' supports.  The
class-rank census, the Serre scan and the characterization census are
popcounts of the class masks and run in process.  The scans the CLI
runs pass ``prm.check_budget`` first.  The interpolation and exhaustive
censuses and the containment search are reductions over one chunk
function each, run by ``_scan`` over blocks of 4,096 survey rows,
in-process or in a worker pool, with the same result either way.  An
interpolation chunk is bit-sliced over its block's rows
(``prm.minimal_rows``).  A containment chunk returns its pairs as four
flat columns (form rows, witness rows, scalars, shape codes), and
``verify_containment`` concatenates them into a ``ContainmentTable``,
which builds a pair's ``ContainmentViolation`` only when it is read.
"""

from __future__ import annotations

import multiprocessing
import os
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from heapq import merge
from itertools import repeat
from operator import and_, countOf, itemgetter, neg, or_

from .formexpr import render_form
from .gf import field_from_order
from .prm import (
    _TRANSPOSE_ROWS,
    build_code,
    characterization_minimal,
    check_budget,
    least_minimal_rank,
    minimal_rows,
    monic_coeffs_at,
    survey,
)
from .projspace import bits_to_indices, gaussian_binomial, projective_size
from .quadric import (
    WITT_SIGN,
    InternalInconsistency,
    QuadraticForm,
    QuadricClass,
    _check_class_rank,
    classify,
    expected_point_count,
    form_from_terms,
    monomials,
    point_set,
    witt_class,
)


class CensusError(Exception):
    pass


class InadmissibleViolation(CensusError):
    """A containment pair outside the admissible shapes: theorem failure."""


TESTERS = ("characterization", "interpolation", "exhaustive")


def orbit_count(cls: QuadricClass, r: int, q: int) -> int:
    """Number of smooth quadrics of the given class in P^(r-1).

    Sign 0 (r odd): q**((r-1)(r+1)/4) * prod(q**(2i+1) - 1, i = 1..(r-1)/2).
    Sign +-1 (r even): q**(r^2/4) * (q**(r/2) +- 1)/2 * the same product
    taken to (r-2)/2.  Rank 1 gives 1 and rank 2 gives q(q +- 1)/2.
    A rank the class cannot have raises ``InconsistentClassRank``.
    """
    _check_class_rank(cls, r, r - 1)
    sign = WITT_SIGN[cls]
    value = q ** (r * r // 4)
    if sign:
        value *= q ** (r // 2) + sign
        assert value % 2 == 0
        value //= 2
    for i in range(1, (r - 1) // 2 + 1):
        value *= q ** (2 * i + 1) - 1
    return value


@dataclass(frozen=True)
class MinimalCountTable:
    q: int
    n: int
    delta: int
    epsilon: int
    rows: tuple[tuple[int, int, int | None], ...]  # (weight, closed, brute)

    def closed_dict(self) -> dict[int, int]:
        return {w: c for w, c, _ in self.rows if c}

    def matches(self) -> bool:
        """Whether every weight's brute-force count equals its closed
        form; a missing (None) count equals no int."""
        return all(c == b for _, c, b in self.rows)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "N": self.n,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "rows": [
                {"weight": w, "closed": c, "brute": b} for w, c, b in self.rows
            ],
        }

    def to_csv(self) -> str:
        lines = ["weight,closed,brute"]
        for w, c, b in self.rows:
            lines.append(f"{w},{c},{'' if b is None else b}")
        return "\n".join(lines) + "\n"


def minimal_count_closed_form(q: int, n: int) -> MinimalCountTable:
    """Per-weight counts of minimal codewords from the product formulas.

    The minimal quadrics are those of each Witt sign from its
    ``prm.least_minimal_rank`` on, in steps of 2.  Each (class, rank)
    contributes q - 1 scalars times ``gaussian_binomial(N+1, r, q)``
    singular loci times ``orbit_count`` smooth parts, at weight |P^N|
    minus ``expected_point_count``; empty ranges contribute no rows.
    """
    if n < 1:
        raise CensusError("census needs N >= 1")
    length = projective_size(q, n)
    counts: dict[int, int] = {}
    for sign in (1, 0, -1):
        for r in range(least_minimal_rank(sign, q), n + 2, 2):
            cls = witt_class(r, sign)
            w = length - expected_point_count(cls, r, n, q)
            size = gaussian_binomial(n + 1, r, q) * orbit_count(cls, r, q)
            counts[w] = counts.get(w, 0) + (q - 1) * size
    rows = tuple((w, counts[w], None) for w in sorted(counts))
    delta, epsilon = least_minimal_rank(0, q) - 3, least_minimal_rank(-1, q) - 4
    return MinimalCountTable(q=q, n=n, delta=delta, epsilon=epsilon, rows=rows)


def class_rank_census(q: int, n: int) -> dict[tuple[QuadricClass, int], int]:
    """Monic form counts per (class, rank), from the survey's class masks."""
    out: dict[tuple[QuadricClass, int], int] = {}
    for (cls, rk, _), rows in survey(q, n).classes.items():
        out[(cls, rk)] = out.get((cls, rk), 0) + rows.bit_count()
    return out


def serre_scan(q: int, n: int, budget: int | None = None) -> tuple[int, int, bool]:
    """(closed-form bound, max observed zeros, attained only by pairs)."""
    check_budget(q, n, budget)
    bound = expected_point_count(QuadricClass.HYPERPLANE_PAIR, 2, n, q)
    keys = survey(q, n).classes
    max_seen = max(count for _, _, count in keys)
    only_pairs = all(
        cls is QuadricClass.HYPERPLANE_PAIR for cls, _, count in keys if count == bound
    )
    return bound, max_seen, only_pairs and max_seen == bound


def _scan(chunk_fn, args, q: int, n: int, workers: int):
    """Yield ``chunk_fn((*args, start, stop))`` over the blocks of
    ``_TRANSPOSE_ROWS`` rows of ``survey(q, n)``, in order, the last one
    shorter.

    A chunk transposes only its own block of the point index, once, and one
    block's results, not the whole scan's, are in memory at a time
    (containments cluster among the low-lead forms); a bit-sliced
    interpolation chunk gets wide enough to pay for its plane operations.
    The split is the same serial or parallel.
    """
    index = survey(q, n)
    # Every chunk reads the point index: built before any fork, so workers
    # share it.
    index.point_index
    starts = range(0, len(index), _TRANSPOSE_ROWS)
    ranges = [(*args, lo, min(lo + _TRANSPOSE_ROWS, len(index))) for lo in starts]
    # A pool of one worker only adds its start-up: such a scan runs in process.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    size = min(workers, len(ranges), len(cpus) or os.cpu_count() or 1)
    if size <= 1:
        yield from map(chunk_fn, ranges)
        return
    # Forked workers inherit the survey computed above; under other start
    # methods each worker rebuilds it, which is correct but slower.  Where
    # the OS allows it, each worker keeps a CPU of its own: left alone, the
    # scheduler may start two forked workers on one CPU and leave the other
    # idle for a second, which at (3,3) is most of the scan.
    slots = multiprocessing.SimpleQueue()
    for cpu in cpus[:size]:
        slots.put(cpu)
    with multiprocessing.Pool(size, _own_cpu if cpus else None, (slots,)) as pool:
        yield from pool.imap(chunk_fn, ranges)


def _own_cpu(slots) -> None:
    """Pool initializer: pin this worker to the next CPU in ``slots``."""
    os.sched_setaffinity(0, {slots.get()})


def _census_chunk(args) -> dict[int, int]:
    """Minimal codewords per weight among the chunk's forms: by the
    interpolation kernel's dimension or the bulk query ``Survey.supersets``.

    The interpolation tester takes its range in point-index order: bits
    ``start`` to ``stop - 1`` of each point's index column are that point's
    mask of the range's rows, ``minimal_rows`` eliminates every row's
    evaluation matrix from those at once, and ``at_least``, the prefix
    masks of the rows with at least c zeros, gives each row's weight."""
    q, n, tester, start, stop = args
    code = build_code(field_from_order(q), n)
    index = survey(q, n)
    if tester == "interpolation":
        _, columns, at_least = index.point_index
        full = (1 << stop - start) - 1
        minimal = minimal_rows(code, [col >> start & full for col in columns]) << start
        at = [(minimal & rows).bit_count() for rows in at_least]
        weights = zip(range(code.length, -2, -1), at, at[1:])
        return {w: (q - 1) * (k - fewer) for w, k, fewer in weights if k > fewer}
    tally: Counter[int] = Counter()
    for c, _, _, hits in index.supersets(start, stop):
        tally[code.length - c] += (q - 1) * countOf(hits, 0)
    return +tally  # without the weights that no minimal row has


def brute_force_census(
    q: int,
    n: int,
    tester: str = "characterization",
    workers: int = 1,
    budget: int | None = None,
) -> MinimalCountTable:
    """Scan all forms up to scalar and tally minimal codewords per weight.

    Each minimal monic form accounts for q-1 codewords (its scalar orbit).
    The result carries both the brute-force and the closed-form columns.
    The characterization census is read off the survey's class masks, in
    process whatever ``workers`` is; the other testers run through
    ``_scan``: the exhaustive one per form, the interpolation one per
    block of rows.
    """
    if tester not in TESTERS:
        raise CensusError(f"unknown tester {tester!r}; expected one of {TESTERS}")
    check_budget(q, n, budget)
    tally: dict[int, int] = {}
    if tester == "characterization":
        length = projective_size(q, n)
        for (cls, rk, count), rows in survey(q, n).classes.items():
            if characterization_minimal(cls, rk, q):
                weight = length - count
                tally[weight] = tally.get(weight, 0) + (q - 1) * rows.bit_count()
    else:
        for part in _scan(_census_chunk, (q, n, tester), q, n, workers):
            for w, c in part.items():
                tally[w] = tally.get(w, 0) + c
    closed = minimal_count_closed_form(q, n)
    closed_map = closed.closed_dict()
    weights = sorted(set(closed_map) | set(tally))
    rows = tuple(
        (w, closed_map.get(w, 0), tally.get(w, 0)) for w in weights
    )
    return MinimalCountTable(
        q=q, n=n, delta=closed.delta, epsilon=closed.epsilon, rows=rows
    )


@dataclass(slots=True)
class ContainmentViolation:
    """One strict nesting: the zero set of ``form`` lies strictly inside
    that of ``witness``.  Two survey rows at (q, n), ``row`` the form's
    and ``witness_row`` the witness's, with the witness ``scalar`` times
    its row; the forms are decoded from the row numbers on each read,
    and classified only in ``to_json``."""

    q: int
    n: int
    row: int
    witness_row: int
    scalar: int
    shape: str

    def _decode(self, row: int) -> QuadraticForm:
        field = field_from_order(self.q)
        return QuadraticForm(field, self.n, monic_coeffs_at(field, len(monomials(self.n)), row))

    @property
    def form(self) -> QuadraticForm:
        return self._decode(self.row)

    @property
    def witness(self) -> QuadraticForm:
        return self._decode(self.witness_row).scale(self.scalar)

    def to_json(self) -> dict:
        form, witness = self.form, self.witness
        return {
            "form": render_form(form),
            "form_report": classify(form).to_json(),
            "witness": render_form(witness),
            "witness_report": classify(witness).to_json(),
            "shape": self.shape,
        }


# The admissible shapes; a pair table's shape column holds indices here.
SHAPES = (
    "elliptic4_in_hyperbolic4",
    "rank3_in_hyperplane_pair",
    "elliptic4_in_hyperplane_pair",
)
_INADMISSIBLE = len(SHAPES)


def _admissible_shape(
    q: int, cls: QuadricClass, rk: int, wcls: QuadricClass, wrk: int
) -> str | None:
    if rk == 3 and q <= 3 and wcls is QuadricClass.HYPERPLANE_PAIR:
        return "rank3_in_hyperplane_pair"
    if q == 2 and cls is QuadricClass.ELLIPTIC and rk == 4:
        if wcls is QuadricClass.HYPERBOLIC and wrk == 4:
            return "elliptic4_in_hyperbolic4"
        if wcls is QuadricClass.HYPERPLANE_PAIR:
            return "elliptic4_in_hyperplane_pair"
    return None


@lru_cache(maxsize=None)
def _span_order(free: int) -> itemgetter:
    """A getter of the nonzero patterns of ``free``'s bits in span order:
    by highest bit, the first coordinate, descending, then ascending."""
    patterns, x = [], free
    while x:
        patterns.append(x)
        x = x - 1 & free
    return itemgetter(*sorted(patterns, key=lambda x: (-x.bit_length(), x)))


def _containment_chunk(args) -> tuple[array, array, bytes, bytes]:
    """The strict containments of the chunk's forms as four columns: form
    rows, witness rows, scalars and shape codes (indices into ``SHAPES``);
    the witness is the scalar times its survey row.  Only the rows that
    ``Survey.supersets`` gives a strict witness are visited, in row order.

    Witnesses come in the order and with the scalars of
    ``iter_span_monic(interpolation_space(...))``, whose kernel basis has
    vector i equal to 1 at free column f_i, 0 at the other free columns and
    0 right of f_i: the free columns are the members' last nonzero
    positions, the lowest bits of their ``Survey.supports``, and a member's
    span coordinates are its coefficients there, listed once, scaled to a
    first nonzero coordinate 1, by lead and then by the order indices of
    the scaled coordinates.  Over GF(2) support v has coordinates v & free,
    and a dict by pattern is read in :func:`_span_order`; past GF(2) they
    come off ``Survey.coefficient_columns`` and are sorted.  A shape is the
    witness's class-rank byte translated by its form's table.

    The members vanishing at a point off Z are strict witnesses, at least
    (q**(d-1) - 1)/(q - 1) of them, d = dim I(Z); so F is the only form
    with zero set Z iff the witnesses and F are all (q**d - 1)/(q - 1) monic
    members.  A form failing that count, and a pair of no admissible shape,
    raise ``InadmissibleViolation``, and two members with one pattern
    ``InternalInconsistency``, at the first such form or pair.
    """
    q, n, start, stop = args
    index = survey(q, n)
    # labels[b]: the survey key, (class, rank, zero count), of class-rank byte b
    codes, labels, supports = index.class_ranks, tuple(index.classes), index.supports
    typecode = index.point_index[0].typecode
    field = field_from_order(q)
    inv, mul, rank = field._inv, field._mul, field._order_index
    # ranked[s]: the byte translation c -> order index of s*c.
    ranked = [bytes(rank[mul[s][c]] for c in range(q)) + bytes(256 - q) for s in range(q)]
    # tables[b]: per witness class-rank byte, its shape code under a form's
    # byte b, _INADMISSIBLE (the index of None) for no admissible shape
    tables: dict[int, bytes] = {}
    form_rows, witness_rows = array(typecode), array(typecode)
    scalars, shape_codes = bytearray(), bytearray()
    # The runs, merged by row, hold one wide mask of witnesses each at a time.
    runs = list(index.supersets(start, stop))
    for i, hits in merge(*(filter(itemgetter(1), zip(rows, hits)) for _, rows, _, hits in runs)):
        cls, rk, _ = labels[codes[i]]
        if cls in (QuadricClass.DOUBLE_HYPERPLANE, QuadricClass.CONJUGATE_PAIR):
            continue
        strict = index.row_numbers(hits)
        members = (i, *strict)
        held = itemgetter(*members)(supports)
        free = reduce(or_, map(and_, held, map(neg, held)))
        d = free.bit_count()
        if len(members) != (q**d - 1) // (q - 1):
            raise InadmissibleViolation(
                f"equal zero sets: another form vanishes exactly where {cls.value} rank {rk} does"
            )
        # The count holds, so d >= 2: two witnesses or more, and tuple getters.
        if q == 2:
            by_pattern = dict(zip(map(and_, held, repeat(free)), members))
            if len(by_pattern) != len(members):
                raise InternalInconsistency(f"span members share a pattern: {cls.value} rank {rk}")
            witnesses = list(_span_order(free)(by_pattern))
            witnesses.remove(i)
            found_scalars = b"\1" * len(strict)
        else:
            at, keyed = itemgetter(*strict), []
            # The free columns left to right are free's bits top down.
            columns = [at(index.coefficient_columns[-1 - b]) for b in bits_to_indices(free)]
            for j, coords in zip(strict, zip(*reversed(columns))):
                tail = bytes(coords).lstrip(b"\0")
                scalar = inv[tail[0]]
                keyed.append(((d - len(tail), tail.translate(ranked[scalar])), j, scalar))
            _, witnesses, found_scalars = zip(*sorted(keyed))
        table = tables.get(codes[i])
        if table is None:
            table = tables[codes[i]] = bytes(
                (*SHAPES, None).index(_admissible_shape(q, cls, rk, *label[:2])) for label in labels
            ).ljust(256, bytes((_INADMISSIBLE,)))
        found_shapes = bytes(itemgetter(*witnesses)(codes)).translate(table)
        if _INADMISSIBLE in found_shapes:
            wcls, wrk, _ = labels[codes[witnesses[found_shapes.index(_INADMISSIBLE)]]]
            raise InadmissibleViolation(
                f"inadmissible containment: {cls.value} rank "
                f"{rk} inside {wcls.value} rank {wrk}"
            )
        form_rows.extend(repeat(i, len(strict)))
        witness_rows.extend(witnesses)
        scalars.extend(found_scalars)
        shape_codes.extend(found_shapes)
    return form_rows, witness_rows, bytes(scalars), bytes(shape_codes)


@dataclass(eq=False)
class ContainmentTable(Sequence):
    """The pairs of ``verify_containment`` at (q, n) as four flat columns:
    form rows, witness rows (arrays of survey row numbers), scalars and
    shape codes (bytes, each code an index into ``SHAPES``).  Reading a
    pair, by index, slice or iteration, builds its ``ContainmentViolation``;
    the table equals any sequence of equal records."""

    q: int
    n: int
    form_rows: array
    witness_rows: array
    scalars: bytes
    shapes: bytes

    def __len__(self) -> int:
        return len(self.scalars)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        row, witness, scalar = self.form_rows[k], self.witness_rows[k], self.scalars[k]
        return ContainmentViolation(self.q, self.n, row, witness, scalar, SHAPES[self.shapes[k]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def shape_counts(self) -> dict[str, int]:
        """Pairs per shape, the shapes with no pair left out."""
        counts = {name: self.shapes.count(k) for k, name in enumerate(SHAPES)}
        return {name: c for name, c in counts.items() if c}


def verify_containment(
    q: int, n: int, workers: int = 1, budget: int | None = None
) -> ContainmentTable:
    """Collect all strict point-set containments with a non-degenerate form
    on the small side, asserting each matches an admissible shape.

    Double hyperplanes and conjugate pairs are excluded on the small side:
    their point sets sit inside hyperplanes, so containments are expected
    and carry no information.  Raises InadmissibleViolation when a pair
    outside the admissible shapes appears (a theorem failure).  The pairs
    come as a ``ContainmentTable`` of the chunks' columns, in chunk order.
    """
    check_budget(q, n, budget)
    index = survey(q, n)
    # Built before any fork, so that workers share them.
    index.class_ranks, index.supports
    typecode = index.point_index[0].typecode
    form_rows, witness_rows = array(typecode), array(typecode)
    scalars, shapes = [], []
    for forms, witnesses, part_scalars, part_shapes in _scan(
        _containment_chunk, (q, n), q, n, workers
    ):
        form_rows += forms
        witness_rows += witnesses
        scalars.append(part_scalars)
        shapes.append(part_shapes)
    return ContainmentTable(q, n, form_rows, witness_rows, b"".join(scalars), b"".join(shapes))


def verify_exception_example() -> bool:
    """The explicit q = 2 nesting: an elliptic rank-4 quadric with 5 points
    strictly inside a hyperbolic rank-4 quadric with 9 points in P^3."""
    field = field_from_order(2)
    inner = form_from_terms(field, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 3): 1})
    outer = form_from_terms(field, 3, {(0, 0): 1, (0, 3): 1, (1, 1): 1, (1, 2): 1})
    ri, ro = classify(inner), classify(outer)
    mi, mo = point_set(inner), point_set(outer)
    return (
        ri.quadric_class is QuadricClass.ELLIPTIC
        and ri.rank == 4
        and ro.quadric_class is QuadricClass.HYPERBOLIC
        and ro.rank == 4
        and ri.point_count == 5
        and ro.point_count == 9
        and mi != mo
        and mi | mo == mo
    )


@dataclass(frozen=True)
class PencilProfile:
    members: int
    reducible: int
    irreducible: int


def conic_interpolation_profile(q: int, budget: int | None = None) -> PencilProfile:
    """Common profile of the linear system through a smooth conic's points.

    Every other member of the system has more points than the conic or the
    same ones.  The containment scan at N = 2 admits the first kind only as
    pairs of lines, and its member count rules out the second; so a conic
    with w pairs in ``verify_containment(q, 2)`` (w = 0 for a conic with
    none) has the profile (members w + 1, reducible pairs of lines w,
    irreducible conics 1).  The profile must be identical across conics,
    or ``InternalInconsistency``, a failed check, is raised.
    """
    pairs = Counter(verify_containment(q, 2, budget=budget).form_rows)
    conics = class_rank_census(q, 2)[QuadricClass.PARABOLIC, 3]
    counts = set(pairs.values()) | ({0} if len(pairs) < conics else set())
    profiles = {PencilProfile(w + 1, w, 1) for w in counts}
    if len(profiles) != 1:
        raise InternalInconsistency(
            f"conic interpolation profile is not uniform: {sorted(profiles, key=repr)}"
        )
    return profiles.pop()
