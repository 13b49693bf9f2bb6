"""Counting formulas against exhaustive enumeration."""

import hashlib
import multiprocessing
import os
from collections import Counter
from math import perm

import pytest

from conftest import FIELD_ORDERS, GRID, TWO_CPUS, brute_dict, survey_rows

from prmquadrics import census
from prmquadrics.census import (
    SHAPES,
    InadmissibleViolation,
    PencilProfile,
    _admissible_shape,
    _scan,
    brute_force_census,
    class_rank_census,
    conic_interpolation_profile,
    minimal_count_closed_form,
    orbit_count,
    serre_scan,
    survey,
    verify_containment,
    verify_exception_example,
)
from prmquadrics.gf import field_from_order
from prmquadrics.prm import (
    BudgetExceeded,
    build_code,
    characterization_minimal,
    interpolation_kernel,
    interpolation_space,
    is_minimal_interpolation,
    iter_monic_coeffs,
    iter_span_monic,
    minimal_rows,
    monic_coeffs_at,
)
from prmquadrics.projspace import bits_to_indices, gaussian_binomial, projective_size
from prmquadrics.quadric import (
    WITT_SIGN,
    InconsistentClassRank,
    QuadraticForm,
    QuadricClass,
    classify,
    expected_point_count,
    monomials,
    point_set,
    witt_class,
)

P = QuadricClass.PARABOLIC
H = QuadricClass.HYPERBOLIC
E = QuadricClass.ELLIPTIC


def test_orbit_count_values():
    assert orbit_count(P, 3, 2) == 28
    assert orbit_count(H, 4, 2) == 280
    assert orbit_count(E, 4, 2) == 168
    assert orbit_count(P, 3, 3) == 234
    assert orbit_count(H, 4, 3) == 10530
    assert orbit_count(E, 4, 3) == 8424
    assert orbit_count(P, 3, 4) == 1008
    assert orbit_count(P, 5, 2) == 13888


def test_orbit_count_parity_errors():
    with pytest.raises(InconsistentClassRank):
        orbit_count(P, 4, 2)
    with pytest.raises(InconsistentClassRank):
        orbit_count(H, 5, 2)
    with pytest.raises(InconsistentClassRank):
        orbit_count(E, 2, 2)


# Stirling numbers of the second kind, STIRLING[k][j] for k <= 4.
STIRLING = ((1,), (0, 1), (0, 1, 1), (0, 1, 3, 1), (0, 1, 7, 6, 1))
MOMENT_GRID = [
    (q, n) for q in FIELD_ORDERS for n in range(1, 12) if projective_size(q, n) <= 10**12
]


@pytest.mark.parametrize("q,n", MOMENT_GRID)
def test_orbit_closure_identity(q, n):
    """Power moments of the zero counts over all quadrics up to scalar,
    M_k = sum of size * expected_point_count**k over (class, rank) with
    size = gaussian_binomial(N+1, r, q) * orbit_count, for k = 0..4.

    Counted the other way, M_k sums over ordered k-tuples of points the
    forms vanishing at all of them: S(k, j) times the ordered tuples of j
    distinct points times (q**(m-c) - 1)/(q - 1), m = dim of the forms and
    c the conditions the points impose.  Up to three distinct points impose
    c = j, four impose 4 unless they are collinear, and collinear 4-tuples,
    L(q+1)q(q-1)(q-2) of them over L lines, impose 3.  M_0 is the number
    of quadrics.
    """
    m = len(monomials(n))
    points = projective_size(q, n)

    def forms_through(c):
        # c > m only at N = 1 with c = 4, where no 4-tuple is non-collinear
        return (q ** max(m - c, 0) - 1) // (q - 1)

    tuples = [1]
    for j in range(4):
        tuples.append(tuples[-1] * (points - j))
    collinear = gaussian_binomial(n + 1, 2, q) * (q + 1) * q * (q - 1) * (q - 2)
    through = [forms_through(j) * tuples[j] for j in range(4)]
    through.append(forms_through(4) * (tuples[4] - collinear) + forms_through(3) * collinear)
    sizes = [
        (gaussian_binomial(n + 1, r, q) * orbit_count(cls, r, q), expected_point_count(cls, r, n, q))
        for r in range(1, n + 2)
        for cls in QuadricClass
        if witt_class(r, WITT_SIGN[cls]) is cls
    ]
    for k, stirling in enumerate(STIRLING):
        moment = sum(size * count**k for size, count in sizes)
        assert moment == sum(s * t for s, t in zip(stirling, through)), (q, n, k)


def _zero_count_distribution(q, n):
    """{z: codewords of the order-2 code with z zeros}: the zero codeword at
    z = |P^N|, and per (class, rank) q - 1 scalars times
    gaussian_binomial(N+1, r, q) singular loci times ``orbit_count`` smooth
    parts at z = ``expected_point_count``."""
    dist = Counter({projective_size(q, n): 1})
    for r in range(1, n + 2):
        for sign in (0,) if r % 2 else (1, -1):
            cls = witt_class(r, sign)
            size = gaussian_binomial(n + 1, r, q) * orbit_count(cls, r, q)
            dist[expected_point_count(cls, r, n, q)] += (q - 1) * size
    return dist


def test_zero_counts_have_the_codes_power_moments():
    """The closed forms against the Pless power moments of the code, at
    every field order and N = 1..40, with no point set.  Any t <= 3
    distinct points impose independent conditions on the m quadratic
    monomials, so sum over codewords of z(z-1)...(z-t+1) is
    P(P-1)...(P-t+1) q**(m-t).  Four distinct points do too unless they
    are collinear: the gaussian_binomial(N+1, 2, q) (q+1)q(q-1)(q-2)
    ordered collinear quadruples count q**(m-3) each, the rest q**(m-4).
    The moments are compared times q**t (MacWilliams & Sloane, ch. 5
    par. 6)."""
    for q in FIELD_ORDERS:
        for n in range(1, 41):
            m, points = len(monomials(n)), projective_size(q, n)
            dist = _zero_count_distribution(q, n)
            moments = [sum(c * perm(z, t) for z, c in dist.items()) for t in range(5)]
            for t in range(4):
                assert moments[t] * q**t == perm(points, t) * q**m, (q, n, t)
            collinear = gaussian_binomial(n + 1, 2, q) * (q + 1) * q * (q - 1) * (q - 2)
            assert moments[4] * q**4 == (perm(points, 4) + (q - 1) * collinear) * q**m, (q, n)


@pytest.mark.parametrize("q,n", GRID)
def test_zero_count_distribution_equals_the_survey(q, n):
    """Off the zero codeword, the closed-form distribution is q - 1 scalars
    times the survey's rows per zero count."""
    rows = Counter()
    for (_, _, count), mask in survey(q, n).classes.items():
        rows[count] += (q - 1) * mask.bit_count()
    rows[projective_size(q, n)] += 1
    assert rows == _zero_count_distribution(q, n)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_class_rank_census_matches_cone_times_orbit(q, n):
    got = class_rank_census(q, n)
    # double hyperplanes: one per hyperplane
    assert got[(QuadricClass.DOUBLE_HYPERPLANE, 1)] == projective_size(q, n)
    assert got[(QuadricClass.HYPERPLANE_PAIR, 2)] == gaussian_binomial(
        n + 1, 2, q
    ) * ((q + 1) * q // 2)
    assert got[(QuadricClass.CONJUGATE_PAIR, 2)] == gaussian_binomial(
        n + 1, 2, q
    ) * ((q * q - q) // 2)
    for rk in range(3, n + 2):
        if rk % 2:
            assert got[(P, rk)] == gaussian_binomial(n + 1, rk, q) * orbit_count(P, rk, q)
        else:
            assert got[(H, rk)] == gaussian_binomial(n + 1, rk, q) * orbit_count(H, rk, q)
            assert got[(E, rk)] == gaussian_binomial(n + 1, rk, q) * orbit_count(E, rk, q)


def test_smooth_quadric_count_low_ranks():
    # rank 1: the double point in P^0; rank 2: point pairs in P^1
    assert orbit_count(QuadricClass.DOUBLE_HYPERPLANE, 1, 3) == 1
    assert orbit_count(QuadricClass.HYPERPLANE_PAIR, 2, 3) == 6  # C(4,2) rational
    assert orbit_count(QuadricClass.CONJUGATE_PAIR, 2, 3) == 3


def test_closed_form_tables():
    assert minimal_count_closed_form(2, 3).closed_dict() == {4: 105, 6: 280}
    assert minimal_count_closed_form(3, 2).closed_dict() == {6: 156}
    assert minimal_count_closed_form(4, 2).closed_dict() == {12: 630, 16: 3024}
    assert minimal_count_closed_form(2, 2).closed_dict() == {2: 21}
    t = minimal_count_closed_form(2, 3)
    assert (t.delta, t.epsilon) == (2, 2)
    t5 = minimal_count_closed_form(5, 2)
    assert (t5.delta, t5.epsilon) == (0, 0)


def test_closed_form_delta_epsilon_ranges():
    # q=4: delta = 0 brings rank 3 in at weight q**N; epsilon = 0 keeps the
    # elliptic rank 4 row once N is large enough.
    t42 = minimal_count_closed_form(4, 2).closed_dict()
    assert 16 in t42  # parabolic rank 3 allowed at q = 4
    t23 = minimal_count_closed_form(2, 3).closed_dict()
    assert 8 not in t23  # parabolic rank 3 excluded at q = 2
    assert 10 not in t23  # elliptic rank 4 excluded at q = 2
    t33 = minimal_count_closed_form(3, 3).closed_dict()
    assert 30 in t33  # elliptic rank 4 allowed at q = 3 (weight 27 + 3)


def test_brute_census_small_grids():
    tab = brute_force_census(2, 2, "exhaustive")
    assert brute_dict(tab) == {2: 21} and tab.matches()
    tab = brute_force_census(3, 2, "interpolation")
    assert brute_dict(tab) == {6: 156} and tab.matches()
    tab = brute_force_census(4, 2, "characterization")
    assert brute_dict(tab) == {12: 630, 16: 3024} and tab.matches()


def test_brute_census_remaining_grid_points():
    # (3,3) exercises the elliptic rank-4 row admitted at q = 3 and (5,2)
    # the parabolic rank-3 row admitted at q = 5; together with the other
    # tests every grid table is checked row-exactly against brute force.
    tab = brute_force_census(3, 3, "characterization")
    assert brute_dict(tab) == {18: 1560, 24: 21060, 30: 16848} and tab.matches()
    tab = brute_force_census(5, 2, "characterization")
    assert brute_dict(tab) == {20: 1860, 25: 12400} and tab.matches()


def test_census_tester_independence_small():
    for q, n, expected in (
        (2, 2, {2: 21}),
        (3, 2, {6: 156}),
        (4, 2, {12: 630, 16: 3024}),
        (5, 2, {20: 1860, 25: 12400}),
        (7, 2, {42: 9576, 49: 100548}),
        (8, 2, {56: 18396, 64: 228928}),
    ):
        tables = [
            brute_dict(brute_force_census(q, n, tester))
            for tester in ("characterization", "interpolation", "exhaustive")
        ]
        assert tables[0] == tables[1] == tables[2] == expected, (q, n)


@pytest.mark.parametrize("q,n", GRID + ((7, 2), (8, 2), (2, 1), (3, 1)))
def test_census_testers_agree_row_by_row(q, n):
    """The interpolation verdict, dim I(Z) = 1, equals the strict-containment
    query and the characterization on every row, and the bit-sliced
    ``minimal_rows`` over every row's point masks equals it row by row."""
    code = build_code(field_from_order(q), n)
    index = survey(q, n)
    rows = survey_rows(q, n)
    verdicts = []
    for _, cls, rk, mask in rows:
        minimal = len(interpolation_kernel(code, mask)) == 1
        assert minimal == (not index.strictly_through(mask)), (q, n, mask)
        assert minimal == characterization_minimal(cls, rk, q), (q, n, cls, rk)
        verdicts.append(minimal)
    points = [0] * code.length
    for i, (*_, mask) in enumerate(rows):
        for p in bits_to_indices(mask):
            points[p] |= 1 << i
    sliced = minimal_rows(code, points)
    for i, minimal in enumerate(verdicts):
        assert (sliced >> i & 1) == minimal, (q, n, i)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_interpolation_walk_matches_the_census(q, n):
    """The single-form tester still walks the span for its witness: its
    verdict equals the census's, and each witness's zero set strictly
    contains the form's."""
    code = build_code(field_from_order(q), n)
    for coeffs, _, _, mask in survey_rows(q, n):
        verdict = is_minimal_interpolation(code, QuadraticForm(code.field, n, coeffs))
        assert verdict.minimal == (len(interpolation_kernel(code, mask)) == 1), coeffs
        if verdict.witness is not None:
            witness = point_set(verdict.witness)
            assert witness & mask == mask and witness != mask, coeffs


def test_census_workers_deterministic(pools):
    a = brute_force_census(2, 2, "characterization", workers=1)
    b = brute_force_census(2, 2, "characterization", workers=2)
    assert a == b
    c = brute_force_census(2, 2, "interpolation", workers=2)
    assert brute_dict(c) == brute_dict(a)
    assert not pools
    # (2,4) and (3,3) are 8 blocks each, so workers=2 starts a pool.
    for q, n in [(2, 4), (3, 3)]:
        table = brute_force_census(q, n, "interpolation", workers=1)
        assert brute_force_census(q, n, "interpolation", workers=2) == table
    serial, parallel = (verify_containment(3, 3, workers=w) for w in (1, 2))
    assert serial and parallel == serial
    assert len(pools) == 3 * TWO_CPUS


def _worker_cpus(args):
    return os.getpid(), frozenset(os.sched_getaffinity(0))


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and two CPUs",
)
def test_scan_workers_keep_a_cpu_each(pools):
    """Every pool worker runs on one CPU of the parent's, no two workers on
    the same one, and the parent's own affinity is left as it was."""
    before = os.sched_getaffinity(0)
    seen = dict(_scan(_worker_cpus, (), 3, 3, workers=2))
    assert len(pools) == 1
    assert os.sched_getaffinity(0) == before
    assert all(len(cpus) == 1 and cpus <= before for cpus in seen.values())
    assert len(set(seen.values())) == len(seen)


def test_a_pool_of_one_is_no_pool(monkeypatch):
    """A scan of one range, or on one usable CPU, runs in process whatever
    ``workers`` is, with the serial result."""
    serial = (
        verify_containment(2, 2),
        brute_force_census(2, 2, "interpolation"),
        verify_containment(2, 3),
    )

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert verify_containment(2, 2, workers=2) == serial[0]
    assert brute_force_census(2, 2, "interpolation", workers=2) == serial[1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert verify_containment(2, 3, workers=2) == serial[2]


def test_gf2_scan_decodes_no_row(monkeypatch, pools):
    """Over GF(2) the containment scan reads each row's coefficients off its
    row number: with the decoder gone it returns the same 182,280 pairs at
    (2,4), in process and from two workers."""
    serial = verify_containment(2, 4)
    assert len(serial) == 182280

    def no_decode(*args):
        raise AssertionError("a row was decoded")

    monkeypatch.setattr(census, "monic_coeffs_at", no_decode)
    columns = ("form_rows", "witness_rows", "scalars", "shapes")
    for workers in (1, 2):
        table = verify_containment(2, 4, workers=workers)
        for name in columns:
            assert getattr(table, name) == getattr(serial, name), (workers, name)
    assert len(pools) == TWO_CPUS


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        brute_force_census(2, 5)
    with pytest.raises(BudgetExceeded):
        verify_containment(3, 4)
    # explicit budgets override
    with pytest.raises(BudgetExceeded):
        brute_force_census(2, 2, budget=10)


def test_table_serialization():
    tab = brute_force_census(2, 2, "characterization")
    payload = tab.to_json()
    assert set(payload) == {"q", "N", "delta", "epsilon", "rows"}
    assert payload["rows"] == [{"weight": 2, "closed": 21, "brute": 21}]
    csv_text = tab.to_csv()
    assert csv_text.splitlines()[0] == "weight,closed,brute"
    assert csv_text.splitlines()[1] == "2,21,21"
    closed_only = minimal_count_closed_form(2, 2)
    assert closed_only.to_csv().splitlines()[1] == "2,21,"
    assert not closed_only.matches()


def test_exception_example():
    assert verify_exception_example()


def test_containment_shapes_p2():
    violations = verify_containment(2, 2)
    assert violations
    assert {v.shape for v in violations} == {"rank3_in_hyperplane_pair"}
    # q=3 in the plane: every smooth conic sits inside the 3 reducible
    # members of its pencil, and nothing else nests
    v32 = verify_containment(3, 2)
    assert {v.shape for v in v32} == {"rank3_in_hyperplane_pair"}
    assert len(v32) == 234 * 3
    for v in violations:
        assert classify(v.form).rank == 3
        assert classify(v.witness).quadric_class is QuadricClass.HYPERPLANE_PAIR
    payload = violations[0].to_json()
    assert set(payload) == {"form", "form_report", "witness", "witness_report", "shape"}


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2)])
def test_containment_records_outlive_the_survey_cache(q, n):
    """A record reads its forms from the rows it holds, so clearing the
    survey cache and building a new survey changes nothing it gives."""
    violations = verify_containment(q, n)
    assert violations

    def read():
        return [
            (v.form.coeffs, v.witness.coeffs, v.shape, v.to_json())
            for v in violations
        ]

    before = read()
    survey.cache_clear()
    survey(q, n)
    assert read() == before
    for v in violations:
        inner, outer = point_set(v.form), point_set(v.witness)
        assert inner != outer and inner | outer == outer


_PINNED_24 = "dade2b70ac7797313ad577da36e6a473"
_PINNED_33 = "dc0cbdeb6d71266e575a5c5f05fb12d9"


@pytest.mark.parametrize(
    "q, n, digest, workers",
    [
        pytest.param(2, 4, _PINNED_24, 1, id=f"2-4-{_PINNED_24}"),
        pytest.param(3, 3, _PINNED_33, 1, id=f"3-3-{_PINNED_33}"),
        pytest.param(3, 3, _PINNED_33, 2, id=f"3-3-{_PINNED_33}-workers2"),
        pytest.param(2, 4, _PINNED_24, 2, id=f"2-4-{_PINNED_24}-workers2"),
    ],
)
def test_containment_pair_lists_are_pinned(q, n, digest, workers):
    """The whole pair list, in order: form row, witness row, scalar and
    shape of each of the 182,280 pairs at (2,4) and 28,080 at (3,3), the
    same from one process and from two workers."""
    field, m = field_from_order(q), len(monomials(n))
    h = hashlib.md5()
    for v in verify_containment(q, n, workers=workers):
        coeffs = (monic_coeffs_at(field, m, v.row), monic_coeffs_at(field, m, v.witness_row))
        h.update(repr((*coeffs, v.scalar, v.shape)).encode())
    assert h.hexdigest() == digest


def test_containment_empty_for_large_q():
    assert verify_containment(4, 2) == []
    assert verify_containment(5, 2) == []


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2)])
def test_containment_table_reads_like_a_list(pools, q, n):
    """The pair table indexes, slices, iterates and compares like the list
    of its records, and its columns are flat: row numbers of at most 4
    bytes, scalars and shape codes as bytes, the same serial or parallel
    at N + 1, whose 8 blocks start a pool."""
    table = verify_containment(q, n)
    records = list(table)
    size = len(table)
    assert table and size == len(records) > 2
    assert table == records and records == table and table != records[:-1]
    assert table[0] == records[0] and table[-1] == records[-1]
    assert table[-size] == records[0] and table[size - 1] == records[-1]
    for bad in (size, -size - 1):
        with pytest.raises(IndexError):
            table[bad]
    for part in (slice(None, 5), slice(-3, None), slice(None, None, -7), slice(3, 1)):
        assert table[part] == records[part], part
    for k, v in enumerate(records):
        assert (v.q, v.n, v.row, v.witness_row) == (q, n, table.form_rows[k], table.witness_rows[k])
        assert (v.scalar, v.shape) == (table.scalars[k], SHAPES[table.shapes[k]])
    shapes = {}
    for v in records:
        shapes[v.shape] = shapes.get(v.shape, 0) + 1
    assert table.shape_counts() == shapes
    for column in (table.form_rows, table.witness_rows):
        assert column.itemsize <= 4 and len(column) == size
    assert type(table.scalars) is bytes and type(table.shapes) is bytes
    serial, parallel = (verify_containment(q, n + 1, workers=w) for w in (1, 2))
    assert len(pools) == TWO_CPUS
    columns = ("form_rows", "witness_rows", "scalars", "shapes")
    for name in columns:
        a, b = getattr(serial, name), getattr(parallel, name)
        assert type(a) is type(b) and a == b, name
    assert serial.form_rows.typecode == parallel.form_rows.typecode
    empty = verify_containment(4, 2)
    assert not empty and len(empty) == 0 and list(empty) == [] and empty[:3] == []


@pytest.mark.parametrize("workers", [1, 2])
def test_inadmissible_pair_fails_the_scan(no_elliptic_in_hyperbolic, pools, workers):
    """In process at (2,3), and from a pool at (2,4), whose 8 blocks start one."""
    message = "inadmissible containment: elliptic rank 4 inside hyperbolic rank 4"
    with pytest.raises(InadmissibleViolation) as caught:
        verify_containment(2, {1: 3, 2: 4}[workers], workers=workers)
    assert str(caught.value) == message
    assert len(pools) == (workers > 1 and TWO_CPUS)


@pytest.mark.parametrize("workers", [1, 2])
def test_equal_zero_set_fails_the_scan(hidden_strict_witness, pools, workers):
    """A form whose strict witnesses and itself do not fill the span of
    forms through its zero set shares that zero set with another form:
    with one witness hidden from every answer, the first form with a
    witness fails the member count, over GF(2) and over GF(3), in process
    at N = 3 and 2 and from a pool at N = 4 and 3, 8 blocks each."""
    message = "equal zero sets: another form vanishes exactly where parabolic rank 3 does"
    for q, n in {1: ((2, 3), (3, 2)), 2: ((2, 4), (3, 3))}[workers]:
        with pytest.raises(InadmissibleViolation) as caught:
            verify_containment(q, n, workers=workers)
        assert str(caught.value) == message, (q, n)
    assert len(pools) == (workers > 1 and 2 * TWO_CPUS)


def test_scans_leave_one_copy_of_each_survey_fact():
    """After a containment scan the survey holds its class masks, the
    ordered point index, one class-rank byte and one support per row, and,
    past GF(2), one byte per row and coefficient: no per-row view, no zero
    masks, no survey-order columns."""
    verify_containment(3, 3)
    index = survey(3, 3)
    facts = {"q", "n", "classes", "point_index", "class_ranks", "supports"}
    assert set(vars(index)) == facts | {"coefficient_columns"}
    assert len(index.class_ranks) == len(index.supports) == len(index)
    verify_containment(2, 3)
    assert set(vars(survey(2, 3))) == facts


@pytest.mark.parametrize("tester", ["interpolation", "exhaustive"])
def test_census_scans_build_no_class_rank_bytes(tester):
    """Only the containment chunks read the class-rank bytes, so a census
    scan on a fresh survey builds the point index and not them."""
    survey.cache_clear()
    brute_force_census(2, 3, tester)
    assert "class_ranks" not in vars(survey(2, 3))
    assert "point_index" in vars(survey(2, 3))


@pytest.mark.parametrize("q, n", GRID + ((7, 2), (8, 2)))
def test_class_masks_equal_the_per_row_view(q, n):
    """The class masks partition the rows, each row's (class, rank, zero
    count) is the key whose mask holds it, its coefficients decode from its
    index, and the census reductions read off the masks equal the same
    reductions over the rows."""
    index = survey(q, n)
    key_of = [None] * len(index)
    for key, mask in index.classes.items():
        for i in bits_to_indices(mask):
            assert key_of[i] is None, (q, n, i)
            key_of[i] = key
    field = field_from_order(q)
    m = len(monomials(n))
    length = projective_size(q, n)
    bound = 2 * q ** (n - 1) + projective_size(q, n - 2)
    census, tally, counts, at_bound = {}, {}, set(), set()
    rows = survey_rows(q, n)
    assert [row[0] for row in rows] == list(iter_monic_coeffs(field, m)), (q, n)
    for i, (coeffs, cls, rk, mask) in enumerate(rows):
        count = mask.bit_count()
        assert key_of[i] == (cls, rk, count), (q, n, i)
        census[(cls, rk)] = census.get((cls, rk), 0) + 1
        counts.add(count)
        if count == bound:
            at_bound.add(cls)
        if characterization_minimal(cls, rk, q):
            tally[length - count] = tally.get(length - count, 0) + q - 1
    assert list(class_rank_census(q, n).items()) == list(census.items())
    only_pairs = at_bound == {QuadricClass.HYPERPLANE_PAIR} and max(counts) == bound
    assert serre_scan(q, n) == (bound, max(counts), only_pairs)
    assert brute_dict(brute_force_census(q, n)) == tally


@pytest.mark.slow
@pytest.mark.parametrize("q, n", [(16, 2), (2, 5), (5, 3)])
def test_census_beyond_the_grid(q, n):
    """The characterization census and the Serre scan past the default
    budget, read off the class masks: 1,118,481 rows at (16,2), 2,097,151
    at (2,5) and 2,441,406 at (5,3)."""
    budget = (q ** len(monomials(n)) - 1) // (q - 1)
    assert brute_force_census(q, n, budget=budget).matches()
    bound, max_seen, attained = serre_scan(q, n, budget=budget)
    assert max_seen == bound and attained


@pytest.mark.slow
def test_interpolation_census_at_q4_in_p3():
    """The bit-sliced interpolation census of all 349,525 survey rows at
    (4,3) equals the closed form."""
    assert brute_force_census(4, 3, "interpolation", budget=349_525).matches()


@pytest.mark.slow
def test_containment_empty_at_q4_in_p3():
    """No nesting at q = 4 in P^3: a scan of all 349,525 survey rows."""
    assert verify_containment(4, 3, budget=400_000) == []


SKIP_SMALL_SIDE = (QuadricClass.DOUBLE_HYPERPLANE, QuadricClass.CONJUGATE_PAIR)


def containment_pairs_allpairs(q, n):
    """Every (form, monic witness) with nested zero sets, by comparing all
    pairs of survey rows (quadratic cost)."""
    rows = survey_rows(q, n)
    return {
        (coeffs_a, coeffs_b)
        for coeffs_a, cls_a, _, mask_a in rows
        if cls_a not in SKIP_SMALL_SIDE
        for coeffs_b, _, _, mask_b in rows
        if mask_a != mask_b and mask_a | mask_b == mask_b
    }


def _monic(field, coeffs):
    """The scalar multiple of a nonzero form with leading coefficient 1."""
    inv_lead = field.inv(next(c for c in coeffs if c))
    return tuple(field.mul(inv_lead, c) for c in coeffs)


def containment_by_interpolation(q, n):
    """The containment search by linear algebra: every member of the span
    of forms vanishing on a zero set, in ``iter_span_monic`` order and with
    its scalars."""
    field = field_from_order(q)
    code = build_code(field, n)
    rows = survey_rows(q, n)
    by_coeffs = {row[0]: row for row in rows}
    out = []
    for coeffs, cls, rk, mask in rows:
        if cls in SKIP_SMALL_SIDE:
            continue
        count = mask.bit_count()
        for member in iter_span_monic(field, interpolation_space(code, mask)):
            _, wcls, wrk, wmask = by_coeffs[_monic(field, member.coeffs)]
            if wmask.bit_count() > count:
                out.append((coeffs, member.coeffs, _admissible_shape(q, cls, rk, wcls, wrk)))
    return out


def test_containment_allpairs_crosscheck_matches():
    for q, n in [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)]:
        field = field_from_order(q)
        found = [(v.form.coeffs, v.witness.coeffs, v.shape) for v in verify_containment(q, n)]
        assert found == containment_by_interpolation(q, n), (q, n)
        monic = {(fc, _monic(field, wc)) for fc, wc, _ in found}
        assert monic == containment_pairs_allpairs(q, n), (q, n)


def test_serre_scan_small():
    bound, max_seen, attained = serre_scan(2, 2)
    assert bound == 5 and max_seen == 5 and attained
    bound3, max3, att3 = serre_scan(3, 2)
    assert bound3 == 2 * 3 + 1 and max3 == bound3 and att3


def test_unmet_serre_bound_is_not_attained(no_form_at_the_serre_bound):
    bound, max_seen, attained = serre_scan(2, 2)
    assert (bound, attained) == (5, False) and max_seen < bound


def test_no_cone_in_a_hyperplane_pair_past_q_3():
    """The rank-3 shape needs q <= 3: from q = 4 on it is no shape."""
    for q in FIELD_ORDERS:
        shape = _admissible_shape(q, P, 3, QuadricClass.HYPERPLANE_PAIR, 2)
        assert shape == ("rank3_in_hyperplane_pair" if q <= 3 else None), q


def test_pencil_profiles():
    p3 = conic_interpolation_profile(3)
    assert (p3.members, p3.reducible, p3.irreducible) == (4, 3, 1)
    p2 = conic_interpolation_profile(2)
    assert (p2.members, p2.reducible, p2.irreducible) == (7, 6, 1)
    p4 = conic_interpolation_profile(4)
    assert (p4.members, p4.reducible, p4.irreducible) == (1, 0, 1)


def test_pencil_profiles_equal_the_naive_count():
    """Criterion 7 by a route that shares no code with the containment
    scan: for every smooth conic, the rows whose zero mask contains its
    mask, counted in all, as line pairs and as smooth conics."""
    for q in (2, 3, 4, 5):
        rows = survey_rows(q, 2)
        profiles = set()
        for _, _, rk, mask in rows:
            if rk != 3:
                continue
            classes = [cls for _, cls, _, other in rows if other & mask == mask]
            profiles.add(
                PencilProfile(
                    len(classes),
                    classes.count(QuadricClass.HYPERPLANE_PAIR),
                    classes.count(QuadricClass.PARABOLIC),
                )
            )
        assert profiles == {conic_interpolation_profile(q)}, q


def test_survey_counts_forms_up_to_scalar():
    rows = survey(3, 2)
    assert len(rows) == (3 ** len(monomials(2)) - 1) // 2


@pytest.mark.parametrize(
    "q, n, shared",
    [(q, n, 0) for q, n in GRID if q == 2]
    + [(3, 2, 39), (3, 3, 390), (4, 2, 126), (5, 2, 310), (7, 2, 1197), (8, 2, 2044)],
)
def test_equal_zero_sets_are_conjugate_pairs(q, n, shared):
    """Forms up to scalar with the same zero set are conjugate hyperplane
    pairs through one codimension-2 subspace; every other zero set belongs
    to one form up to scalar."""
    by_mask: dict[int, list] = {}
    for _, cls, _, mask in survey_rows(q, n):
        by_mask.setdefault(mask, []).append(cls)
    groups = [classes for classes in by_mask.values() if len(classes) > 1]
    assert all(set(classes) == {QuadricClass.CONJUGATE_PAIR} for classes in groups)
    assert sum(map(len, groups)) == shared


@pytest.mark.parametrize("q, n", GRID + ((7, 2), (8, 2)))
def test_strict_query_on_every_zero_mask(q, n):
    """For every distinct zero mask, the strict query mapped to survey rows
    is the naive strict filter over the rows read by the block reader, in
    index order: most zeros first, then survey order.  The filter ANDs, in
    survey order, one bitset per point of the mask with the rows of more
    zeros, none of it read off the point index."""
    index = survey(q, n)
    masks = [mask for *_, mask in survey_rows(q, n)]
    counts = [mask.bit_count() for mask in masks]

    def bitset(flags) -> int:
        """The int whose bit i is flag i, read as a binary numeral."""
        return int(bytes(0x30 + flag for flag in reversed(flags)), 2)

    by_point = [bitset([mask >> p & 1 for mask in masks]) for p in range(projective_size(q, n))]
    more = {c: bitset([k > c for k in counts]) for c in set(counts)}
    for mask in set(masks):
        strict = more[mask.bit_count()]
        for p in bits_to_indices(mask):
            strict &= by_point[p]
        naive = sorted(bits_to_indices(strict), key=lambda i: (-counts[i], i))
        assert index.row_numbers(index.strictly_through(mask)) == naive, (q, n, mask)
