"""Counting formulas against exhaustive enumeration."""

import pytest

from prmquadrics.census import (
    BudgetExceeded,
    ParityMismatch,
    _admissible_shape,
    brute_force_census,
    class_rank_census,
    conic_interpolation_profile,
    minimal_count_closed_form,
    orbit_count,
    serre_scan,
    smooth_quadric_count,
    survey,
    total_quadric_count,
    verify_containment,
    verify_exception_example,
)
from prmquadrics.formexpr import render_form
from prmquadrics.gf import field_from_order
from prmquadrics.prm import build_code, interpolation_space, iter_span_monic
from prmquadrics.projspace import gaussian_binomial, projective_size
from prmquadrics.quadric import QuadricClass, monomials

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
    with pytest.raises(ParityMismatch):
        orbit_count(P, 4, 2)
    with pytest.raises(ParityMismatch):
        orbit_count(H, 5, 2)
    with pytest.raises(ParityMismatch):
        orbit_count(E, 2, 2)
    with pytest.raises(ParityMismatch):
        orbit_count(QuadricClass.HYPERPLANE_PAIR, 2, 2)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_orbit_closure_identity(q, n):
    """Summing singular-locus choices times smooth counts over all ranks must
    reproduce the total number of quadrics, (q**dim - 1)/(q - 1)."""
    total = total_quadric_count(q, n)
    expected = (q ** len(monomials(n)) - 1) // (q - 1)
    assert total == expected


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
    assert smooth_quadric_count(1, 3) == 1
    assert smooth_quadric_count(2, 3) == 6 + 3  # C(4,2) rational + conjugate


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
    assert tab.brute_dict() == {2: 21} and tab.matches()
    tab = brute_force_census(3, 2, "interpolation")
    assert tab.brute_dict() == {6: 156} and tab.matches()
    tab = brute_force_census(4, 2, "characterization")
    assert tab.brute_dict() == {12: 630, 16: 3024} and tab.matches()


def test_brute_census_remaining_grid_points():
    # (3,3) exercises the elliptic rank-4 row admitted at q = 3 and (5,2)
    # the parabolic rank-3 row admitted at q = 5; together with the other
    # tests every grid table is checked row-exactly against brute force.
    tab = brute_force_census(3, 3, "characterization")
    assert tab.brute_dict() == {18: 1560, 24: 21060, 30: 16848} and tab.matches()
    tab = brute_force_census(5, 2, "characterization")
    assert tab.brute_dict() == {20: 1860, 25: 12400} and tab.matches()


def test_census_tester_independence_small():
    for q, n, expected in ((2, 2, {2: 21}), (3, 2, {6: 156})):
        tables = [
            brute_force_census(q, n, tester).brute_dict()
            for tester in ("characterization", "interpolation", "exhaustive")
        ]
        assert tables[0] == tables[1] == tables[2] == expected


def test_census_workers_deterministic():
    a = brute_force_census(2, 2, "characterization", workers=1)
    b = brute_force_census(2, 2, "characterization", workers=2)
    assert a == b
    c = brute_force_census(2, 2, "interpolation", workers=2)
    assert c.brute_dict() == a.brute_dict()
    for q, n in [(2, 3), (3, 2)]:
        serial, parallel = (
            [(v.form.coeffs, v.witness.coeffs, v.shape) for v in verify_containment(q, n, workers=w)]
            for w in (1, 2)
        )
        assert serial and parallel == serial


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
        assert v.form_report.rank == 3
        assert v.witness_report.quadric_class is QuadricClass.HYPERPLANE_PAIR
    payload = violations[0].to_json(render_form)
    assert set(payload) == {"form", "form_report", "witness", "witness_report", "shape"}


def test_containment_empty_for_large_q():
    assert verify_containment(4, 2) == []
    assert verify_containment(5, 2) == []


@pytest.mark.slow
def test_containment_empty_at_q4_in_p3():
    """No nesting at q = 4 in P^3: a scan of all 349,525 survey rows."""
    assert verify_containment(4, 3, budget=400_000) == []


SKIP_SMALL_SIDE = (QuadricClass.DOUBLE_HYPERPLANE, QuadricClass.CONJUGATE_PAIR)


def containment_pairs_allpairs(q, n):
    """Every (form, monic witness) with nested zero sets, by comparing all
    pairs of survey rows (quadratic cost)."""
    rows = survey(q, n)
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
    rows = survey(q, n)
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


def test_pencil_profiles():
    p3 = conic_interpolation_profile(3)
    assert (p3.members, p3.reducible, p3.irreducible) == (4, 3, 1)
    p2 = conic_interpolation_profile(2)
    assert (p2.members, p2.reducible, p2.irreducible) == (7, 6, 1)
    p4 = conic_interpolation_profile(4)
    assert (p4.members, p4.reducible, p4.irreducible) == (1, 0, 1)


def test_survey_counts_forms_up_to_scalar():
    rows = survey(3, 2)
    assert len(rows) == (3 ** len(monomials(2)) - 1) // 2
