"""Closed-form counting of quadrics and exhaustive cross-verification.

Two independent routes to the same numbers: product formulas for the count
of smooth quadrics per class and for minimal codewords per weight, and a
brute-force scan that enumerates every form up to scalar, classifies it,
and applies a selected minimality tester.  The scan also searches, through
the survey's point index, for pairs of quadrics whose rational point sets
are strictly nested, asserting that every such pair has one of the
admissible shapes (the q = 2 elliptic/hyperbolic rank-4 pair, or low-rank
cones inside hyperplane pairs).

Every scan reads ``prm.survey(q, n)``, the one per-form record ``(coeffs,
class, rank, zero-set mask)``, or its point index; the scans the CLI runs
pass ``prm.check_budget`` first, and the census hands its budget on to the
exhaustive tester.  The census and the containment search are reductions
over one chunk function each, run by ``_scan`` over balanced index ranges
of the survey, in-process or in a worker pool, with the same result either
way.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from operator import itemgetter

from .gf import field_from_order
from .prm import (
    DEFAULT_FORM_BUDGET,
    BudgetExceeded,
    PrmCode,
    build_code,
    characterization_minimal,
    check_budget,
    is_minimal_exhaustive,
    is_minimal_interpolation,
    survey,
)
from .projspace import gaussian_binomial, projective_size
from .quadric import (
    ClassificationReport,
    QuadraticForm,
    QuadricClass,
    classify,
    form_from_terms,
    point_set,
)


class CensusError(Exception):
    pass


class ParityMismatch(CensusError):
    pass


class InadmissibleViolation(CensusError):
    """A containment pair outside the admissible shapes: theorem failure."""


TESTERS = ("characterization", "interpolation", "exhaustive")
_RANGE_FORMS = 256


def orbit_count(cls: QuadricClass, r: int, q: int) -> int:
    """Number of smooth quadrics of the given class in P^(r-1).

    Parabolic: q**((r-1)(r+1)/4) * prod(q**(2i+1) - 1, i = 1..(r-1)/2).
    Hyperbolic/elliptic: q**(r^2/4) * (q**(r/2) +- 1)/2 * the same product
    taken to (r-2)/2.
    """
    if cls is QuadricClass.PARABOLIC:
        if r < 3 or r % 2 == 0:
            raise ParityMismatch(f"parabolic rank must be odd >= 3, got {r}")
        value = q ** ((r - 1) * (r + 1) // 4)
        for i in range(1, (r - 1) // 2 + 1):
            value *= q ** (2 * i + 1) - 1
        return value
    if cls in (QuadricClass.HYPERBOLIC, QuadricClass.ELLIPTIC):
        if r < 4 or r % 2 == 1:
            raise ParityMismatch(f"{cls.value} rank must be even >= 4, got {r}")
        sign = 1 if cls is QuadricClass.HYPERBOLIC else -1
        value = q ** (r * r // 4) * (q ** (r // 2) + sign)
        assert value % 2 == 0
        value //= 2
        for i in range(1, (r - 2) // 2 + 1):
            value *= q ** (2 * i + 1) - 1
        return value
    raise ParityMismatch(f"orbit counts apply to absolutely irreducible classes, not {cls.value}")


def smooth_quadric_count(r: int, q: int) -> int:
    """Smooth quadrics of rank r in P^(r-1), all classes combined."""
    if r == 1:
        return 1
    if r == 2:
        return (q * (q + 1)) // 2 + (q * (q - 1)) // 2
    if r % 2:
        return orbit_count(QuadricClass.PARABOLIC, r, q)
    return orbit_count(QuadricClass.HYPERBOLIC, r, q) + orbit_count(
        QuadricClass.ELLIPTIC, r, q
    )


def total_quadric_count(q: int, n: int) -> int:
    """Sum over ranks of (singular-locus choices) * (smooth counts)."""
    return sum(
        gaussian_binomial(n + 1, r, q) * smooth_quadric_count(r, q)
        for r in range(1, n + 2)
    )


@dataclass(frozen=True)
class MinimalCountTable:
    q: int
    n: int
    delta: int
    epsilon: int
    rows: tuple[tuple[int, int, int | None], ...]  # (weight, closed, brute)

    def closed_dict(self) -> dict[int, int]:
        return {w: c for w, c, _ in self.rows if c}

    def brute_dict(self) -> dict[int, int]:
        return {w: b for w, _, b in self.rows if b}

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


def _delta_epsilon(q: int) -> tuple[int, int]:
    return (2 if q <= 3 else 0), (2 if q == 2 else 0)


def minimal_count_closed_form(q: int, n: int) -> MinimalCountTable:
    """Per-weight counts of minimal codewords from the product formulas.

    Hyperplane pairs sit at weight q**N - q**(N-1); parabolic quadrics of
    every admissible odd rank share weight q**N; hyperbolic rank r lands at
    q**N - q**(N-r/2) and elliptic rank r at q**N + q**(N-r/2).  Ranks are
    clipped by delta (no rank 3 when q <= 3) and epsilon (no elliptic rank
    4 when q = 2); empty ranges contribute no rows.
    """
    if n < 1:
        raise CensusError("census needs N >= 1")
    delta, epsilon = _delta_epsilon(q)
    counts: dict[int, int] = {}
    scalars = q - 1

    w_pairs = q**n - q ** (n - 1)
    counts[w_pairs] = (
        scalars * gaussian_binomial(n + 1, 2, q) * (q + 1) * q // 2
    )

    parabolic_total = sum(
        gaussian_binomial(n + 1, r, q) * orbit_count(QuadricClass.PARABOLIC, r, q)
        for r in range(3 + delta, n + 2, 2)
        if r % 2 == 1
    )
    if parabolic_total:
        counts[q**n] = scalars * parabolic_total

    for r in range(4, n + 2, 2):
        w = q**n - q ** (n - r // 2)
        counts[w] = counts.get(w, 0) + scalars * gaussian_binomial(
            n + 1, r, q
        ) * orbit_count(QuadricClass.HYPERBOLIC, r, q)
    for r in range(4 + epsilon, n + 2, 2):
        w = q**n + q ** (n - r // 2)
        counts[w] = counts.get(w, 0) + scalars * gaussian_binomial(
            n + 1, r, q
        ) * orbit_count(QuadricClass.ELLIPTIC, r, q)

    rows = tuple((w, counts[w], None) for w in sorted(counts))
    return MinimalCountTable(q=q, n=n, delta=delta, epsilon=epsilon, rows=rows)


def class_rank_census(q: int, n: int) -> dict[tuple[QuadricClass, int], int]:
    """Monic form counts per (class, rank), from the exhaustive survey."""
    out: dict[tuple[QuadricClass, int], int] = {}
    for _, cls, rk, _ in survey(q, n):
        key = (cls, rk)
        out[key] = out.get(key, 0) + 1
    return out


def serre_scan(q: int, n: int, budget: int | None = None) -> tuple[int, int, bool]:
    """(closed-form bound, max observed zeros, attained only by pairs)."""
    check_budget(q, n, budget)
    bound = 2 * q ** (n - 1) + projective_size(q, n - 2)
    max_seen = 0
    only_pairs = True
    for _, cls, _, mask in survey(q, n):
        c = mask.bit_count()
        if c > max_seen:
            max_seen = c
        if c == bound and cls is not QuadricClass.HYPERPLANE_PAIR:
            only_pairs = False
    return bound, max_seen, only_pairs and max_seen == bound


def _scan(chunk_fn, args, q: int, n: int, workers: int):
    """Yield ``chunk_fn((*args, start, stop))`` over balanced index ranges of
    ``survey(q, n)`` of at most ``_RANGE_FORMS`` forms each, in index order.

    Small ranges keep one range's results, not the whole scan's, in memory
    at a time (containments cluster among the low-lead forms), and keep the
    workers evenly loaded; the split is the same serial or parallel.
    """
    total = len(survey(q, n))
    parts = -(-total // _RANGE_FORMS)
    bounds = [total * k // parts for k in range(parts + 1)]
    ranges = [(*args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers <= 1:
        yield from map(chunk_fn, ranges)
        return
    # Forked workers inherit the survey computed above; under other start
    # methods each worker rebuilds it, which is correct but slower.
    with multiprocessing.Pool(min(workers, parts, os.cpu_count() or 1)) as pool:
        yield from pool.imap(chunk_fn, ranges)


def _minimal_by_tester(tester: str, code: PrmCode, coeffs, cls, rk, budget) -> bool:
    if tester == "characterization":
        return characterization_minimal(cls, rk, code.field.q)
    form = QuadraticForm(code.field, code.n, coeffs)
    if tester == "interpolation":
        return is_minimal_interpolation(code, form).minimal
    return is_minimal_exhaustive(code, code.encode(form), budget).minimal


def _census_chunk(args) -> dict[int, int]:
    q, n, tester, budget, start, stop = args
    code = build_code(field_from_order(q), n)
    tally: dict[int, int] = {}
    for coeffs, cls, rk, mask in survey(q, n)[start:stop]:
        if _minimal_by_tester(tester, code, coeffs, cls, rk, budget):
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
    """
    if tester not in TESTERS:
        raise CensusError(f"unknown tester {tester!r}; expected one of {TESTERS}")
    check_budget(q, n, budget)
    tally: dict[int, int] = {}
    for part in _scan(_census_chunk, (q, n, tester, budget), q, n, workers):
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


@dataclass(frozen=True, slots=True)
class ContainmentViolation:
    """One strict nesting: the zero set of ``form`` lies strictly inside
    that of ``witness``.  The reports classify on each read."""

    form: QuadraticForm
    witness: QuadraticForm
    shape: str

    @property
    def form_report(self) -> ClassificationReport:
        return classify(self.form)

    @property
    def witness_report(self) -> ClassificationReport:
        return classify(self.witness)

    def to_json(self, renderer) -> dict:
        return {
            "form": renderer(self.form),
            "form_report": self.form_report.to_json(),
            "witness": renderer(self.witness),
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
    gives.  Witnesses come in the order and with the scalars of
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
    rows = survey(q, n)
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
        members = rows.containing(mask)
        count = mask.bit_count()
        strict = [j for j in members if rows[j][3].bit_count() > count]
        if not strict:
            continue
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
    rows = survey(q, n)
    rows.columns  # built here, so forked workers inherit it
    field = field_from_order(q)
    mul = field._mul
    forms: dict[int, QuadraticForm] = {}

    def shared(i: int, scalar: int) -> QuadraticForm:
        """``scalar`` times row i, one object per (row, scalar)."""
        key = i * q + scalar
        form = forms.get(key)
        if form is None:
            coeffs = rows[i][0]
            if scalar != 1:
                coeffs = tuple(mul[scalar][c] for c in coeffs)
            form = forms[key] = QuadraticForm(field, n, coeffs)
        return form

    return [
        ContainmentViolation(shared(i, 1), shared(j, scalar), shape)
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
    rows = survey(q, 2)
    profile = None
    for _, _, rk, mask in rows:
        if rk != 3:
            continue
        classes = [rows[i][1] for i in rows.containing(mask)]
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
