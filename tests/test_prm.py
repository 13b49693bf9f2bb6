"""Code construction, encoding, interpolation, and the three testers."""

import itertools
import random
from collections import Counter
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIELD_ORDERS,
    GRID,
    mat_vec,
    random_form,
    random_invertible,
    survey_rows,
)

from prmquadrics import prm
from prmquadrics.census import brute_force_census
from prmquadrics.gf import field_create, field_from_order
from prmquadrics.linalg import kernel_basis, kernel_basis_gf2
from prmquadrics.prm import (
    BudgetExceeded,
    Codeword,
    ZeroCodeword,
    _coefficient_planes,
    _polarization,
    build_code,
    characterization_minimal,
    check_budget,
    interpolation_kernel,
    interpolation_space,
    is_minimal_characterization,
    is_minimal_exhaustive,
    is_minimal_interpolation,
    iter_monic_coeffs,
    iter_span_monic,
    monic_coeffs_at,
    survey,
)
from prmquadrics.projspace import (
    bits_to_indices,
    normalize,
    projective_size,
    projective_space,
    subspace_from_vectors,
)
from prmquadrics.quadric import (
    InconsistentClassRank,
    QuadraticForm,
    QuadricClass,
    ZeroForm,
    canonical_form,
    classify,
    discriminate,
    form_from_terms,
    monomials,
    point_set,
    radical_quadratic,
    substitute,
    witt_class,
)

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)


def test_build_code_parameters():
    code = build_code(F2, 3)
    assert (code.length, code.dimension) == (15, 10)
    code3 = build_code(F3, 2)
    assert (code3.length, code3.dimension) == (13, 6)
    code4 = build_code(F4, 2)
    assert (code4.length, code4.dimension) == (21, 6)
    assert code4.minimum_distance() == 12
    assert build_code(F2, 3) is build_code(F2, 3)


def test_encode_examples():
    code = build_code(F2, 3)
    f = form_from_terms(F2, 3, {(0, 1): 1, (2, 3): 1})
    c = code.encode(f)
    assert c.weight == 15 - 9 == 6 == c.support.bit_count()
    pair = form_from_terms(F2, 3, {(0, 1): 1})
    assert code.encode(pair).weight == 2**3 - 2**2
    zero = QuadraticForm(F2, 3, (0,) * 10)
    assert code.encode(zero).weight == 0
    # support is the complement of the zero set
    assert set(bits_to_indices(c.support)) == (
        set(range(15)) - set(bits_to_indices(point_set(f)))
    )


def test_encode_linearity():
    rng = random.Random(5)
    for field, n in [(F2, 3), (F3, 2), (F4, 2)]:
        code = build_code(field, n)
        for _ in range(25):
            f = random_form(field, n, rng, nonzero=False)
            g = random_form(field, n, rng, nonzero=False)
            s = QuadraticForm(
                field, n, tuple(field.add(a, b) for a, b in zip(f.coeffs, g.coeffs))
            )
            assert code.encode(s).values == tuple(
                field.add(a, b)
                for a, b in zip(code.encode(f).values, code.encode(g).values)
            )
            lam = rng.randrange(1, field.q)
            assert code.encode(f.scale(lam)).values == tuple(
                field.mul(lam, v) for v in code.encode(f).values
            )


def test_encode_values_match_evaluation_at_every_point():
    """The value tuple read off the evaluation lane equals per-point
    ``evaluate`` for every field order up to 25 at N = 1 and 2, on dense and
    random forms, and on sampled forms at (16,3) and (25,3).  The single
    monomials X_i X_j check each row of ``monomial_rows`` on its own."""
    rng = random.Random(17)
    cells = [(q, n, 10) for q in FIELD_ORDERS for n in (1, 2)] + [(16, 3, 3), (25, 3, 2)]
    for q, n, count in cells:
        field = field_from_order(q)
        code = build_code(field, n)
        m = len(monomials(n))
        forms = [random_form(field, n, rng) for _ in range(count)] + [
            QuadraticForm(field, n, tuple(rng.randrange(1, q) for _ in range(m)))
            for _ in range(count)
        ] + [QuadraticForm(field, n, tuple(int(k == j) for j in range(m))) for k in range(m)]
        for f in forms:
            word = code.encode(f)
            assert word.values == tuple(f.evaluate(pt) for pt in code.space.points), (q, f)
            assert word.support == sum(1 << i for i, v in enumerate(word.values) if v)


def test_injectivity_no_nonzero_form_has_empty_support():
    for field, n in [(F2, 2), (F2, 3), (F3, 2)]:
        code = build_code(field, n)
        for coeffs in iter_monic_coeffs(field, code.dimension):
            form = QuadraticForm(field, n, coeffs)
            assert point_set(form) != code.space.full_mask


def test_point_index_is_the_transpose_of_the_survey():
    """Bit k of the index's column p is set when the zero set of row
    ``order[k]``, from its decoded coefficients, contains point p; a new
    survey after the cache is cleared builds an equal index afresh."""
    for field, n in [(F2, 3), (F3, 2), (F4, 2)]:
        m = len(monomials(n))
        order, columns, _ = survey(field.q, n).point_index
        assert len(columns) == build_code(field, n).length
        for k, i in enumerate(order):
            mask = point_set(QuadraticForm(field, n, monic_coeffs_at(field, m, i)))
            for p, column in enumerate(columns):
                assert column >> k & 1 == mask >> p & 1, (field.q, n, p, i)
    before = survey(2, 3).point_index
    survey.cache_clear()
    after = survey(2, 3)
    assert "point_index" not in vars(after)
    assert after.point_index == before and after.point_index[1] is not before[1]


def _supersets_by_row(index, start: int, stop: int) -> dict[int, tuple]:
    """{row: (zero count, selector, strict supersets)} over one range."""
    out = {}
    for c, rows, selectors, hits in index.supersets(start, stop):
        rows, hits = list(rows), list(hits)
        assert len(rows) == len(selectors) == len(hits) > 0
        out.update(zip(rows, zip(repeat(c), selectors, hits)))
    return out


@pytest.mark.parametrize("q, n", GRID + ((7, 2), (8, 2)))
def test_block_masks_equal_point_set(q, n):
    """Each row's selector from the bulk query is ``point_set`` of its
    decoded coefficients, byte j standing for point P - 1 - j, and its
    hits are ``strictly_through`` of that zero set, over any range of rows,
    across block edges, and again from a new survey after the cache is
    cleared."""
    field = field_from_order(q)
    m = len(monomials(n))
    index = survey(q, n)
    points = projective_size(q, n)
    whole = _supersets_by_row(index, 0, len(index))
    assert sorted(whole) == list(range(len(index)))
    for i, (c, selector, hits) in whole.items():
        zeros = point_set(QuadraticForm(field, n, monic_coeffs_at(field, m, i)))
        assert selector == bytes(zeros >> p & 1 for p in reversed(range(points))), (q, n, i)
        assert c == zeros.bit_count() and hits == index.strictly_through(zeros), (q, n, i)
    edge = min(4096, len(index))
    for start, stop in [(edge - 3, edge + 5), (0, 1), (len(index) - 2, len(index)), (7, 7)]:
        part = _supersets_by_row(index, start, stop)
        assert part == {i: whole[i] for i in range(start, min(stop, len(index)))}, (q, n, start)
    survey.cache_clear()
    after = survey(q, n)
    assert "point_index" not in vars(after) and after is not index
    assert _supersets_by_row(after, 0, len(after)) == whole
    assert "columns" not in vars(after)


@pytest.mark.parametrize("q, n", GRID + ((7, 2),))
def test_supports_and_coefficient_columns_decode_every_row(q, n):
    """Row j's support has bit m - 1 - k set when its coefficient k is
    nonzero, and byte j of coefficient column k is that coefficient."""
    field = field_from_order(q)
    m = len(monomials(n))
    index = survey(q, n)
    rows = list(iter_monic_coeffs(field, m))
    assert list(index.supports) == [
        sum(1 << m - 1 - k for k, a in enumerate(coeffs) if a) for coeffs in rows
    ]
    assert index.coefficient_columns == [bytes(column) for column in zip(*rows)]


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_monic_coeffs_at_is_the_enumeration(q):
    """The row rule decodes every row of :func:`iter_monic_coeffs`, for
    each tuple length while it has at most 5,000 rows."""
    field = field_from_order(q)
    m = 1
    while (q**m - 1) // (q - 1) <= 5_000:
        rows = list(iter_monic_coeffs(field, m))
        assert [monic_coeffs_at(field, m, i) for i in range(len(rows))] == rows, (q, m)
        m += 1


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(q=st.sampled_from(FIELD_ORDERS), m=st.integers(4, 15), index=st.integers(0, 99_999))
def test_monic_coeffs_at_matches_the_enumeration_at_length(q, m, index):
    """At longer tuples, a row below 10**5 decodes to the enumeration's
    tuple at that position."""
    field = field_from_order(q)
    index %= (q**m - 1) // (q - 1)
    expected = next(itertools.islice(iter_monic_coeffs(field, m), index, None))
    assert monic_coeffs_at(field, m, index) == expected


def test_monic_coeffs_at_refuses_both_ends():
    """Row numbers outside 0 .. rows - 1 raise ``IndexError`` at either
    end; the two ends themselves decode to the first and last tuple."""
    for q, m in [(2, 3), (3, 6), (4, 1), (5, 10)]:
        field = field_from_order(q)
        rows = (q**m - 1) // (q - 1)
        assert monic_coeffs_at(field, m, 0) == (1,) + (0,) * (m - 1)
        assert monic_coeffs_at(field, m, rows - 1) == (0,) * (m - 1) + (1,)
        for bad in (-1, -rows, rows, rows + 1):
            with pytest.raises(IndexError):
                monic_coeffs_at(field, m, bad)


@pytest.mark.parametrize(
    "q, m",
    [(q, m) for q in (2, 3) for m in range(1, 7)]
    + [(q, m) for q in (4, 5, 7, 8, 9) for m in range(1, 5)]
    + [(16, 3), (25, 3)],
)
def test_coefficient_planes_hold_the_decoded_coefficients(q, m):
    """Plane s of coefficient k has bit i set exactly when row i's
    coefficient k is the element s + 1, for every k, s and row."""
    field = field_from_order(q)
    rows = (q**m - 1) // (q - 1)
    planes = dict(_coefficient_planes(field, m))
    assert sorted(planes) == list(range(m))
    for i in range(rows):
        coeffs = monic_coeffs_at(field, m, i)
        for k, by_value in planes.items():
            assert [plane >> i & 1 for plane in by_value] == [int(coeffs[k] == e) for e in range(1, q)]
    assert all(plane >> rows == 0 for by_value in planes.values() for plane in by_value)


@pytest.mark.parametrize("q, n", GRID + tuple((q, 1) for q in (2, 3, 7, 8, 9, 16, 25)))
def test_survey_equals_the_single_form_path(q, n):
    """Each row as the single-form path computes it: the zero set by
    evaluation at every point, the rank by linear algebra on the radical."""
    field = field_from_order(q)
    m = len(monomials(n))
    rows = survey_rows(q, n)
    assert len(rows) == (q**m - 1) // (q - 1)
    for row, coeffs in zip(rows, iter_monic_coeffs(field, m)):
        form = QuadraticForm(field, n, coeffs)
        zeros = point_set(form)
        rk = n + 1 - len(radical_quadratic(form))
        cls = discriminate(rk, zeros.bit_count(), n, q)
        assert row == (coeffs, cls, rk, zeros), (q, n)


@pytest.mark.parametrize("q", FIELD_ORDERS)
def test_polarization_pairs_every_point_with_its_other_coordinates(q):
    """``_polarization(q, N)`` lists each (p, t), t not p's last nonzero
    coordinate, exactly once, at the normalized point p + e_t, and no other
    pair: over every field order, N = 1 to 3 while P^N has at most 20,000
    points."""
    field = field_from_order(q)
    for n in range(1, 4):
        points = projective_space(field, n).points
        if len(points) > 20_000:
            break
        serves = _polarization(q, n)
        assert len(serves) == len(points), (q, n)
        listed = sorted((p, t, r) for r, served in enumerate(serves) for p, t in served)
        expected = []
        for p, point in enumerate(points):
            last = max(i for i, c in enumerate(point) if c)
            for t in range(n + 1):
                if t != last:
                    v = list(point)
                    v[t] = field.add(v[t], 1)
                    expected.append((p, t, points.index(normalize(field, v))))
        assert listed == expected, (q, n)


def test_minimum_distance_bruteforce():
    for field, n in [(F2, 2), (F3, 2)]:
        code = build_code(field, n)
        min_weight = min(
            code.space.full_mask.bit_count() - point_set(QuadraticForm(field, n, c)).bit_count()
            for c in iter_monic_coeffs(field, code.dimension)
        )
        assert min_weight == code.minimum_distance()


def test_interpolation_space_dimensions():
    code3 = build_code(F3, 2)
    assert len(interpolation_space(code3, 0)) == 6  # empty constraint set
    conic = form_from_terms(F3, 2, {(0, 0): 1, (1, 2): 1})
    assert classify(conic).quadric_class is QuadricClass.PARABOLIC
    basis = interpolation_space(code3, point_set(conic))
    assert len(basis) == 2  # a projective pencil
    members = list(iter_span_monic(F3, basis))
    assert len(members) == (3**2 - 1) // 2  # 4 conics through the 4 points

    code2 = build_code(F2, 2)
    conic2 = form_from_terms(F2, 2, {(0, 0): 1, (1, 2): 1})
    z = point_set(conic2)
    assert z.bit_count() == 3
    basis2 = interpolation_space(code2, z)
    assert len(basis2) == 3
    assert len(list(iter_span_monic(F2, basis2))) == 7


def test_interpolation_space_members_vanish():
    rng = random.Random(9)
    for field, n in [(F2, 3), (F3, 2), (F4, 2)]:
        code = build_code(field, n)
        for _ in range(15):
            f = random_form(field, n, rng)
            z = point_set(f)
            for cand in iter_span_monic(field, interpolation_space(code, z)):
                assert point_set(cand) & z == z


def _kernel_basis_path(code, zero_mask):
    """The single-form interpolation span as computed by ``kernel_basis``
    on the evaluation rows at the points (rref, then one vector per free
    column)."""
    mul = code.field._mul
    points = code.space.points
    rows = [
        [mul[points[p][i]][points[p][j]] for i, j in code.monomials]
        for p in bits_to_indices(zero_mask)
    ]
    vectors = kernel_basis(code.field, rows, code.dimension)
    return [tuple(v) for v in vectors]


def test_interpolation_space_equals_the_kernel_basis_path():
    """Same basis, same order: every zero mask of the (2,2), (2,3), (3,2),
    (4,2) and (5,2) surveys, the empty mask, and canonical and random forms
    at q in {7, 9, 16, 25}, N in {2, 3}."""
    for q, n in [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)]:
        code = build_code(field_from_order(q), n)
        for mask in {0} | {row[3] for row in survey_rows(q, n)}:
            got = [b.coeffs for b in interpolation_space(code, mask)]
            assert got == _kernel_basis_path(code, mask), (q, n, mask)
    rng = random.Random(23)
    for q in (7, 9, 16, 25):
        field = field_from_order(q)
        for n in (2, 3):
            code = build_code(field, n)
            forms = [random_form(field, n, rng) for _ in range(3)]
            for cls in QuadricClass:
                for rk in range(1, n + 2):
                    try:
                        forms.append(canonical_form(field, n, cls, rk))
                    except InconsistentClassRank:
                        pass
            for mask in [0] + [point_set(f) for f in forms]:
                got = [b.coeffs for b in interpolation_space(code, mask)]
                assert got == _kernel_basis_path(code, mask), (q, n, mask)


def test_gf2_interpolation_kernel_equals_the_row_elimination():
    """The GF(2) column elimination against ``kernel_basis_gf2`` on packed
    point rows, bit k for monomial k: every zero mask of the (2,4) survey,
    the empty mask, and random forms at N = 6 and 8."""
    rng = random.Random(29)
    cases = [(4, {0} | {row[3] for row in survey_rows(2, 4)})]
    for n, count in [(6, 12), (8, 6)]:
        cases.append((n, [0] + [point_set(random_form(F2, n, rng)) for _ in range(count)]))
    for n, masks in cases:
        code = build_code(F2, n)
        rows = [
            sum((p[i] & p[j]) << k for k, (i, j) in enumerate(code.monomials))
            for p in code.space.points
        ]
        for mask in masks:
            packed = kernel_basis_gf2([rows[p] for p in bits_to_indices(mask)], code.dimension)
            expected = [tuple(b >> k & 1 for k in range(code.dimension)) for b in packed]
            assert interpolation_kernel(code, mask) == expected, (n, mask)


@pytest.mark.parametrize("n", range(1, 7))
def test_one_masks_are_the_value_1_points(n):
    """Over GF(2), monomial k's mask holds the points where the form X_i X_j
    evaluates to 1, point by point."""
    code = build_code(F2, n)
    m = code.dimension
    for k, mask in enumerate(code.one_masks):
        form = QuadraticForm(F2, n, tuple(int(j == k) for j in range(m)))
        assert mask == sum(1 << i for i, pt in enumerate(code.space.points) if form.evaluate(pt) == 1)


def test_characterization_examples():
    pair = form_from_terms(F2, 3, {(0, 1): 1})
    assert is_minimal_characterization(pair).minimal
    conic3 = form_from_terms(F3, 2, {(0, 0): 1, (1, 2): 1})
    assert not is_minimal_characterization(conic3).minimal  # rank 3, q <= 3
    elliptic = form_from_terms(F2, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 3): 1})
    assert not is_minimal_characterization(elliptic).minimal  # elliptic rank 4, q = 2
    f5 = field_create(5, 1)
    conic5 = form_from_terms(f5, 2, {(0, 0): 1, (1, 2): 1})
    assert is_minimal_characterization(conic5).minimal
    with pytest.raises(ZeroForm):
        is_minimal_characterization(QuadraticForm(F2, 2, (0,) * 6))


def test_interpolation_tester_exception_pair():
    code = build_code(F2, 3)
    elliptic = form_from_terms(F2, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 3): 1})
    verdict = is_minimal_interpolation(code, elliptic)
    assert not verdict.minimal
    assert verdict.witness is not None
    wz = point_set(verdict.witness)
    ez = point_set(elliptic)
    assert ez.bit_count() == 5
    assert wz.bit_count() > 5
    assert ez & wz == ez and ez != wz
    # The rank-4 hyperbolic witness with 9 points lives in the candidate
    # space too: the interpolating system contains X0*(X0+X3) + X1*(X1+X2).
    hyperbolic = form_from_terms(F2, 3, {(0, 0): 1, (0, 3): 1, (1, 1): 1, (1, 2): 1})
    candidates = {
        cand.coeffs
        for cand in iter_span_monic(F2, interpolation_space(code, ez))
    }
    assert hyperbolic.coeffs in candidates
    assert point_set(hyperbolic).bit_count() == 9


def test_interpolation_tester_conics():
    code3 = build_code(F3, 2)
    conic = form_from_terms(F3, 2, {(0, 0): 1, (1, 2): 1})
    verdict = is_minimal_interpolation(code3, conic)
    assert not verdict.minimal
    assert classify(verdict.witness).quadric_class is QuadricClass.HYPERPLANE_PAIR
    code4 = build_code(F4, 2)
    conic4 = form_from_terms(F4, 2, {(0, 0): 1, (1, 2): 1})
    assert is_minimal_interpolation(code4, conic4).minimal


def _class_ranks(n: int) -> list[tuple[QuadricClass, int]]:
    """Every (class, rank) a form on P^n can have."""
    return [(witt_class(r, s), r) for r in range(1, n + 2) for s in (0, 1, -1) if witt_class(r, s)]


def _full_kernel_verdict(code, form) -> tuple[bool, tuple | None]:
    """(minimal, witness coefficients) from the whole of I(Z): minimal iff
    its dimension is 1, else the first strictly larger span member."""
    zeros = point_set(form)
    basis = interpolation_space(code, zeros)
    if len(basis) == 1:
        return True, None
    count = zeros.bit_count()
    witness = next(g for g in iter_span_monic(code.field, basis) if point_set(g).bit_count() > count)
    return False, witness.coeffs


@pytest.fixture
def kernel_calls(monkeypatch):
    """(point mask, kernel dimension) per ``interpolation_kernel`` call made
    through the ``prm`` module, in call order."""
    calls = []
    kernel = prm.interpolation_kernel

    def spy(code, mask):
        basis = kernel(code, mask)
        calls.append((mask, len(basis)))
        return basis

    monkeypatch.setattr(prm, "interpolation_kernel", spy)
    return calls


@pytest.mark.parametrize("q,n", [(7, 3), (8, 3), (9, 3), (16, 3), (25, 3)])
def test_sample_certificate_keeps_verdicts_and_witnesses(q, n, kernel_calls):
    """Canonical forms of every (class, rank) and two random substitutions
    of each (the double hyperplane is a non-minimal F with |Z| > 4m):
    verdict and witness equal the full kernel's; the first kernel is on a
    sample inside Z, a proper one when |Z| >= 4m; and the tester stops
    there exactly when that sample's kernel has dimension 1."""
    field, rng = field_from_order(q), random.Random(q * 10 + n)
    code = build_code(field, n)
    forms = []
    for cls, rk in _class_ranks(n):
        base = canonical_form(field, n, cls, rk)
        forms += [base] + [
            substitute(base, random_invertible(field, n + 1, rng)).scale(rng.randrange(1, q))
            for _ in range(2)
        ]
    sampled = 0
    for form in forms:
        expected = _full_kernel_verdict(code, form)
        zeros = point_set(form)
        kernel_calls.clear()
        verdict = is_minimal_interpolation(code, form)
        assert (verdict.minimal, verdict.witness and verdict.witness.coeffs) == expected
        sample, dim = kernel_calls[0]
        assert sample & zeros == sample, form.coeffs
        if zeros.bit_count() >= 4 * code.dimension:
            assert sample != zeros
            assert (len(kernel_calls) == 1) == (dim == 1), form.coeffs
            sampled += 1
    assert sampled


@pytest.mark.parametrize("q,n", [(25, 2), (9, 3)])
def test_degenerate_sample_falls_back_to_the_full_kernel(q, n, kernel_calls):
    """The hyperplane pairs X_0 L are minimal.  For some of them the sample
    of Z lies in a larger linear system than Z (dim I(S) > 1); the full
    kernel then runs and still answers minimal."""
    field = field_from_order(q)
    code = build_code(field, n)
    fallbacks = 0
    for v in projective_space(field, n).points:
        if not any(v[1:]):  # L = X_0, a double hyperplane
            continue
        form = form_from_terms(field, n, {(0, j): c for j, c in enumerate(v) if c})
        kernel_calls.clear()
        verdict = is_minimal_interpolation(code, form)
        assert verdict.minimal and verdict.witness is None, v
        if kernel_calls[0][1] > 1:
            assert kernel_calls[1:] == [(point_set(form), 1)], v
            fallbacks += 1
    assert fallbacks


@pytest.mark.parametrize("q,n", [(25, 4), (4, 8), (7, 6), (3, 10)])
def test_interpolation_equals_the_characterization_at_the_frontier(q, n):
    """At the largest spaces orbit mode reaches, the interpolation verdict
    on each (class, rank)'s canonical form equals the characterization."""
    field = field_from_order(q)
    code = build_code(field, n)
    for cls, rk in _class_ranks(n):
        verdict = is_minimal_interpolation(code, canonical_form(field, n, cls, rk))
        assert verdict.minimal == characterization_minimal(cls, rk, q), (cls, rk)


def test_exhaustive_tester():
    code = build_code(F2, 3)
    pair = form_from_terms(F2, 3, {(0, 1): 1})
    assert is_minimal_exhaustive(code, code.encode(pair)).minimal
    elliptic = form_from_terms(F2, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 3): 1})
    verdict = is_minimal_exhaustive(code, code.encode(elliptic))
    assert not verdict.minimal
    assert verdict.witness is not None
    ws = code.encode(verdict.witness).support
    cs = code.encode(elliptic).support
    assert ws | cs == cs and ws != cs
    with pytest.raises(ZeroCodeword):
        is_minimal_exhaustive(code, code.encode(QuadraticForm(F2, 3, (0,) * 10)))


def test_exhaustive_budget_guard():
    f5 = field_create(5, 1)
    big = build_code(f5, 4)  # 5**15 forms
    c = big.encode(form_from_terms(f5, 4, {(0, 1): 1}))
    with pytest.raises(BudgetExceeded):
        is_minimal_exhaustive(big, c)
    wide = build_code(F2, 5)  # 2**21 forms
    cw = wide.encode(form_from_terms(F2, 5, {(0, 1): 1}))
    with pytest.raises(BudgetExceeded):
        is_minimal_exhaustive(wide, cw)
    # refused before any survey is built
    f9 = field_from_order(9)
    plane = build_code(f9, 2)  # (9**6 - 1)/8 = 66,430 survey rows
    misses = survey.cache_info().misses
    with pytest.raises(BudgetExceeded):
        is_minimal_exhaustive(plane, plane.encode(form_from_terms(f9, 2, {(0, 1): 1})))
    assert survey.cache_info().misses == misses
    # the census checks its own budget before it scans
    assert brute_force_census(2, 3, "exhaustive", budget=2**10).matches()


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (7, 2)])
def test_budget_admits_exactly_the_row_count(q, n):
    """A survey may have as many rows as the budget, and not one more."""
    rows = len(survey(q, n))
    check_budget(q, n, budget=rows)
    with pytest.raises(BudgetExceeded):
        check_budget(q, n, budget=rows - 1)


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_exhaustive_tester_equals_a_linear_scan(q, n):
    """The point-index tester against the scan it replaced: the first
    survey row, in order, whose zero set strictly contains the form's."""
    field = field_from_order(q)
    code = build_code(field, n)
    rows = survey_rows(q, n)
    for coeffs in itertools.product(range(q), repeat=code.dimension):
        if not any(coeffs):
            continue
        codeword = code.encode(QuadraticForm(field, n, coeffs))
        zeros = code.space.full_mask ^ codeword.support
        witness = next(
            (wc for wc, _, _, mask in rows if mask != zeros and mask & zeros == zeros),
            None,
        )
        verdict = is_minimal_exhaustive(code, codeword)
        assert verdict.minimal is (witness is None), coeffs
        if witness is not None:
            assert verdict.witness.coeffs == witness, coeffs


_QUERY_SPACES = ((2, 3), (3, 2), (4, 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    at=st.sampled_from(_QUERY_SPACES),
    positions=st.sets(st.integers(0, 20)),
    row=st.none() | st.integers(0, 2_000),
)
@example(at=(2, 3), positions=set(), row=None)
@example(at=(3, 2), positions=set(), row=None)
@example(at=(4, 2), positions=set(), row=None)
@example(at=(2, 3), positions=set(range(21)), row=None)
@example(at=(3, 2), positions=set(range(21)), row=None)
@example(at=(4, 2), positions=set(range(21)), row=None)
def test_point_index_queries_equal_the_naive_filters(at, positions, row):
    """On a random point set Z, or a row's zero set: ``strictly_through``
    mapped to survey rows is the naive filter over the rows, listed by zero
    count, most zeros first, then in survey order; the exhaustive tester's
    witness is the first naive strict row."""
    q, n = at
    field = field_from_order(q)
    code = build_code(field, n)
    full = code.space.full_mask
    index = survey(q, n)
    rows = survey_rows(q, n)
    if row is None:
        zeros = sum(1 << p for p in positions) & full
    else:
        zeros = rows[row % len(rows)][3]
    through = sorted(
        (i for i, (*_, mask) in enumerate(rows) if mask & zeros == zeros),
        key=lambda i: (-rows[i][3].bit_count(), i),
    )
    strict = [i for i in through if rows[i][3].bit_count() > zeros.bit_count()]
    assert index.row_numbers(index.strictly_through(zeros)) == strict
    # The tester reads only the codeword's support.
    support = full ^ zeros
    codeword = Codeword(values=(), support=support, weight=support.bit_count())
    if zeros == full:
        with pytest.raises(ZeroCodeword):
            is_minimal_exhaustive(code, codeword)
        return
    verdict = is_minimal_exhaustive(code, codeword)
    assert verdict.minimal == (not strict)
    if strict:
        assert verdict.witness.coeffs == rows[min(strict)][0]


def test_verdict_scalar_invariance():
    rng = random.Random(13)
    code = build_code(F3, 2)
    for _ in range(20):
        f = random_form(F3, 2, rng)
        base_char = is_minimal_characterization(f).minimal
        base_interp = is_minimal_interpolation(code, f).minimal
        base_exh = is_minimal_exhaustive(code, code.encode(f)).minimal
        for lam in (2,):
            g = f.scale(lam)
            assert is_minimal_characterization(g).minimal == base_char
            assert is_minimal_interpolation(code, g).minimal == base_interp
            assert is_minimal_exhaustive(code, code.encode(g)).minimal == base_exh


# The classes up to rank 5: every non-minimal shape among them.
_LOW_SHAPES = (
    (QuadricClass.DOUBLE_HYPERPLANE, 1),
    (QuadricClass.HYPERPLANE_PAIR, 2),
    (QuadricClass.CONJUGATE_PAIR, 2),
    (QuadricClass.PARABOLIC, 3),
    (QuadricClass.HYPERBOLIC, 4),
    (QuadricClass.ELLIPTIC, 4),
    (QuadricClass.PARABOLIC, 5),
)


def _moved_case(q, n, shape, seed):
    """(F, T) on P^n over GF(q): F a random form when ``shape`` is None,
    else the canonical form of that (class, rank) under a random change of
    variables, and T a random invertible matrix."""
    field, rng = field_from_order(q), random.Random(seed)
    if shape is None:
        form = random_form(field, n, rng)
    else:
        form = substitute(canonical_form(field, n, *shape), random_invertible(field, n + 1, rng))
    return form, random_invertible(field, n + 1, rng)


@st.composite
def _form_and_substitution(draw):
    """A ``_moved_case`` on a P^N of at most 2,000 points over any
    supported field."""
    q = draw(st.sampled_from(FIELD_ORDERS))
    top = max(k for k in range(1, 11) if projective_size(q, k) <= 2_000)
    n = min(draw(st.integers(1, 10)), top)
    shapes = [shape for shape in _LOW_SHAPES if shape[1] <= n + 1]
    shape = draw(st.none() | st.sampled_from(shapes))
    return _moved_case(q, n, shape, draw(st.integers(0, 2**32)))


# Non-minimal forms with a non-degenerate small side, and the largest spaces.
_MOVED_EXAMPLES = (
    _moved_case(2, 3, (QuadricClass.ELLIPTIC, 4), 1),
    _moved_case(3, 2, (QuadricClass.PARABOLIC, 3), 2),
    _moved_case(2, 10, (QuadricClass.PARABOLIC, 3), 3),
    _moved_case(25, 2, None, 4),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_form_and_substitution())
@example(case=_MOVED_EXAMPLES[0])
@example(case=_MOVED_EXAMPLES[1])
@example(case=_MOVED_EXAMPLES[2])
@example(case=_MOVED_EXAMPLES[3])
def test_substitution_moves_the_point_set_and_keeps_the_report(case):
    """G = F(T y): y is a zero of G iff T y is one of F, the two reports
    agree but for the singular locus, and T maps G's onto F's."""
    form, t = case
    field, n = form.field, form.ambient
    moved = substitute(form, t)
    space = projective_space(field, n)
    where = {pt: i for i, pt in enumerate(space.points)}
    zeros = point_set(form)
    pulled = sum(
        1 << i
        for i, y in enumerate(space.points)
        if zeros >> where[normalize(field, mat_vec(field, t, y))] & 1
    )
    assert point_set(moved) == pulled
    a, b = classify(form), classify(moved)
    assert (a.quadric_class, a.rank, a.point_count, a.projective_index) == (
        b.quadric_class, b.rank, b.point_count, b.projective_index,
    )
    image = [mat_vec(field, t, p) for p in b.singular_locus.spanning]
    assert a.singular_locus == subspace_from_vectors(field, n, image)


def _larger_members(code, form) -> Counter:
    """(class, rank) per monic member of I(Z) with more zeros than Z."""
    zeros = point_set(form)
    reports = (
        classify(member)
        for member in iter_span_monic(code.field, interpolation_space(code, zeros))
        if point_set(member).bit_count() > zeros.bit_count()
    )
    return Counter((r.quadric_class, r.rank) for r in reports)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=_form_and_substitution())
@example(case=_MOVED_EXAMPLES[0])
@example(case=_MOVED_EXAMPLES[1])
@example(case=_MOVED_EXAMPLES[2])
@example(case=_MOVED_EXAMPLES[3])
def test_substitution_keeps_minimality(case):
    """F and G = F(T y) have interpolation spans of equal dimension, the same
    verdict from each tester (the exhaustive one within the default
    budget) and, for a non-minimal F with a non-degenerate small side, the
    same (class, rank) multiset of strictly larger span members."""
    form, t = case
    field, n = form.field, form.ambient
    moved = substitute(form, t)
    code = build_code(field, n)
    dims = [len(interpolation_kernel(code, point_set(f))) for f in (form, moved)]
    assert dims[0] == dims[1]
    verdicts = [
        (is_minimal_characterization(f).minimal, is_minimal_interpolation(code, f).minimal)
        for f in (form, moved)
    ]
    assert verdicts[0] == verdicts[1]
    try:
        check_budget(field.q, n)
    except BudgetExceeded:
        pass
    else:
        exhaustive = [is_minimal_exhaustive(code, code.encode(f)).minimal for f in (form, moved)]
        assert exhaustive[0] == exhaustive[1] == verdicts[0][0]
    degenerate = (QuadricClass.DOUBLE_HYPERPLANE, QuadricClass.CONJUGATE_PAIR)
    if dims[0] > 1 and classify(form).quadric_class not in degenerate:
        assert _larger_members(code, form) == _larger_members(code, moved)
