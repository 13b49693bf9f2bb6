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
(class, rank, zero count), its point index, or its per-row view
``(coeffs, class, rank, zero-set mask)``.  The class-rank census, the Serre
scan and the characterization census are popcounts of the class masks and
run in process.  The scans the CLI runs pass ``prm.check_budget`` first.
The interpolation and exhaustive censuses and the containment search are
reductions over one chunk function each, run by ``_scan`` over balanced
index ranges of the per-row view, in-process or in a worker pool, with
the same result either way.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from operator import itemgetter

from .formexpr import render_form
from .gf import field_from_order
from .prm import (
    Survey,
    build_code,
    characterization_minimal,
    check_budget,
    interpolation_kernel,
    least_minimal_rank,
    survey,
)
from .projspace import gaussian_binomial, projective_size
from .quadric import (
    WITT_SIGN,
    ClassificationReport,
    QuadraticForm,
    QuadricClass,
    _check_class_rank,
    classify,
    expected_point_count,
    form_from_terms,
    point_set,
    witt_class,
)


class CensusError(Exception):
    pass


class InadmissibleViolation(CensusError):
    """A containment pair outside the admissible shapes: theorem failure."""


TESTERS = ("characterization", "interpolation", "exhaustive")
_RANGE_FORMS = 256


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
        if any(b is None for _, _, b in self.rows):
            return False
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
    """Yield ``chunk_fn((*args, start, stop))`` over balanced index ranges of
    ``survey(q, n)`` of at most ``_RANGE_FORMS`` forms each, in index order.

    Small ranges keep one range's results, not the whole scan's, in memory
    at a time (containments cluster among the low-lead forms), and keep the
    workers evenly loaded; the split is the same serial or parallel.
    """
    index = survey(q, n)
    # Every chunk reads the per-row view and the point index: built before
    # any fork.
    index.rows, index.point_index
    total = len(index)
    parts = -(-total // _RANGE_FORMS)
    bounds = [total * k // parts for k in range(parts + 1)]
    ranges = [(*args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers <= 1:
        yield from map(chunk_fn, ranges)
        return
    # Forked workers inherit the survey computed above; under other start
    # methods each worker rebuilds it, which is correct but slower.  Where
    # the OS allows it, each worker keeps a CPU of its own: left alone, the
    # scheduler may start two forked workers on one CPU and leave the other
    # idle for a second, which at (3,3) is most of the scan.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    size = min(workers, parts, len(cpus) or os.cpu_count() or 1)
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
    interpolation kernel's dimension or the strict-containment query."""
    q, n, tester, start, stop = args
    code = build_code(field_from_order(q), n)
    index = survey(q, n)
    tally: dict[int, int] = {}
    for _, _, _, mask in index.rows[start:stop]:
        if tester == "interpolation":
            minimal = len(interpolation_kernel(code, mask)) == 1
        else:
            minimal = not index.strictly_through(mask)
        if minimal:
            weight = code.length - mask.bit_count()
            tally[weight] = tally.get(weight, 0) + (q - 1)
    return tally


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
    process whatever ``workers`` is; the other testers run per form
    through ``_scan``.
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
    that of ``witness``.  A view over two rows of ``survey``'s per-row
    view, ``row`` the form's and ``witness_row`` the witness's, with the
    witness ``scalar`` times its row; the forms are built and the reports
    classified on each read."""

    survey: Survey
    row: tuple
    witness_row: tuple
    scalar: int
    shape: str

    @property
    def form(self) -> QuadraticForm:
        s = self.survey
        return QuadraticForm(field_from_order(s.q), s.n, self.row[0])

    @property
    def witness(self) -> QuadraticForm:
        s = self.survey
        return QuadraticForm(field_from_order(s.q), s.n, self.witness_row[0]).scale(self.scalar)

    @property
    def form_report(self) -> ClassificationReport:
        return classify(self.form)

    @property
    def witness_report(self) -> ClassificationReport:
        return classify(self.witness)

    def to_json(self) -> dict:
        return {
            "form": render_form(self.form),
            "form_report": self.form_report.to_json(),
            "witness": render_form(self.witness),
            "witness_report": self.witness_report.to_json(),
            "shape": self.shape,
        }


def _admissible_shape(
    q: int, cls: QuadricClass, rk: int, wcls: QuadricClass, wrk: int
) -> str | None:
    if (
        q == 2
        and cls is QuadricClass.ELLIPTIC
        and rk == 4
        and wcls is QuadricClass.HYPERBOLIC
        and wrk == 4
    ):
        return "elliptic4_in_hyperbolic4"
    if rk == 3 and q <= 3 and wcls is QuadricClass.HYPERPLANE_PAIR:
        return "rank3_in_hyperplane_pair"
    if (
        q == 2
        and cls is QuadricClass.ELLIPTIC
        and rk == 4
        and wcls is QuadricClass.HYPERPLANE_PAIR
    ):
        return "elliptic4_in_hyperplane_pair"
    return None


def _containment_chunk(args) -> list[tuple[int, int, int, str]]:
    """(form row i, witness row j, scalar, shape) for the strict
    containments of the chunk's forms: the witness is ``scalar`` times
    survey row j, and row i is the form itself.

    The forms vanishing on a zero set are the survey rows the point index
    gives.  The strict witnesses are asked for first, and a form with none
    is skipped.  Witnesses come in the order and with the scalars of
    ``iter_span_monic(interpolation_space(...))``.  That kernel basis has
    vector i equal to 1 at free column f_i, 0 at the other free columns and
    0 right of f_i, so the free columns are the members' last nonzero
    positions, a member's span coordinates are its coefficients there, and
    the span lists each member scaled to monic coordinates, in
    ``iter_monic_coeffs`` order of those coordinates.  Each row's last
    nonzero position and each (class, rank, witness class, witness rank)
    shape are worked out once per chunk.
    """
    q, n, start, stop = args
    index = survey(q, n)
    rows = index.rows
    field = field_from_order(q)
    inv, mul, order = field._inv, field._mul, field._order_index
    # ranked[s]: the byte translation c -> order index of s*c.
    ranked = [bytes(order[mul[s][c]] for c in range(q)) + bytes(256 - q) for s in range(q)]
    last: dict[int, int] = {}
    shapes: dict[tuple, str | None] = {}
    out = []
    for i in range(start, stop):
        _, cls, rk, mask = rows[i]
        if cls in (QuadricClass.DOUBLE_HYPERPLANE, QuadricClass.CONJUGATE_PAIR):
            continue
        hits = index.strictly_through(mask)
        if not hits:
            continue
        # Index order puts the strict witnesses first, then the members with
        # as many zeros as the form, itself included.
        members = index.row_numbers(index.through(mask))
        strict = members[: hits.bit_count()]
        for j in members:
            if j not in last:
                last[j] = len(bytes(rows[j][0]).rstrip(b"\0")) - 1
        free = sorted({last[j] for j in members})
        # At least two free columns: the form and a strict witness are
        # independent members, so the getter returns a tuple.
        coordinates = itemgetter(*free)
        found = []
        for j in strict:
            wc, wcls, wrk, _ = rows[j]
            key = (cls, rk, wcls, wrk)
            if key not in shapes:
                shapes[key] = _admissible_shape(q, *key)
            tail = bytes(coordinates(wc)).lstrip(b"\0")
            scalar = inv[tail[0]]
            lead = len(free) - len(tail)
            found.append((lead, tail[1:].translate(ranked[scalar]), j, scalar, shapes[key]))
        found.sort()
        for _, _, j, scalar, shape in found:
            if shape is None:
                _, wcls, wrk, _ = rows[j]
                raise InadmissibleViolation(
                    f"inadmissible containment: {cls.value} rank "
                    f"{rk} inside {wcls.value} rank {wrk}"
                )
            out.append((i, j, scalar, shape))
    return out


def verify_containment(
    q: int, n: int, workers: int = 1, budget: int | None = None
) -> list[ContainmentViolation]:
    """Collect all strict point-set containments with a non-degenerate form
    on the small side, asserting each matches an admissible shape.

    Double hyperplanes and conjugate pairs are excluded on the small side:
    their point sets sit inside hyperplanes, so containments are expected
    and carry no information.  Raises InadmissibleViolation when a pair
    outside the admissible shapes appears (a theorem failure).
    """
    check_budget(q, n, budget)
    index = survey(q, n)
    rows = index.rows
    return [
        ContainmentViolation(index, rows[i], rows[j], scalar, shape)
        for part in _scan(_containment_chunk, (q, n), q, n, workers)
        for i, j, scalar, shape in part
    ]


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

    For every smooth conic in P^2 the forms vanishing on its rational
    points are read from the survey's point index; the profile (members,
    reducible pairs of lines, irreducible conics) must be identical across
    conics.
    """
    check_budget(q, 2, budget)
    index = survey(q, 2)
    rows = index.rows
    profile = None
    for _, _, rk, mask in rows:
        if rk != 3:
            continue
        classes = [rows[i][1] for i in index.row_numbers(index.through(mask))]
        found = PencilProfile(
            len(classes),
            classes.count(QuadricClass.HYPERPLANE_PAIR),
            classes.count(QuadricClass.PARABOLIC),
        )
        if profile is None:
            profile = found
        elif profile != found:
            raise CensusError(
                f"conic interpolation profile is not uniform: {profile} vs {found}"
            )
    if profile is None:
        raise CensusError("no smooth conics found")
    return profile
