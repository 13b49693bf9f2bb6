"""Code construction, encoding, interpolation, and the three testers."""

import itertools
import random

import pytest

from conftest import FIELD_ORDERS, GRID, random_form

from prmquadrics.census import brute_force_census
from prmquadrics.gf import field_create, field_from_order
from prmquadrics.linalg import kernel_basis
from prmquadrics.prm import (
    BudgetExceeded,
    ZeroCodeword,
    build_code,
    interpolation_space,
    is_minimal_characterization,
    is_minimal_exhaustive,
    is_minimal_interpolation,
    iter_monic_coeffs,
    iter_span_monic,
    survey,
)
from prmquadrics.projspace import bits_to_indices
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
    for field, n in [(F2, 3), (F3, 2), (F4, 2)]:
        rows = survey(field.q, n)
        assert len(rows.columns) == build_code(field, n).length
        for p, column in enumerate(rows.columns):
            for i, (*_, mask) in enumerate(rows):
                assert column >> i & 1 == mask >> p & 1, (field.q, n, p, i)
    before = survey(2, 3)
    columns = before.columns
    survey.cache_clear()
    after = survey(2, 3)
    assert after is not before and after == before
    assert "columns" not in vars(after)
    assert after.columns == columns and after.columns is not columns


@pytest.mark.parametrize("q, n", GRID + tuple((q, 1) for q in (7, 8, 9, 16, 25)))
def test_survey_equals_the_single_form_path(q, n):
    """Each row as the single-form path computes it: the zero set by
    evaluation at every point, the rank by linear algebra on the radical."""
    field = field_from_order(q)
    m = len(monomials(n))
    rows = survey(q, n)
    assert len(rows) == (q**m - 1) // (q - 1)
    for row, coeffs in zip(rows, iter_monic_coeffs(field, m)):
        form = QuadraticForm(field, n, coeffs)
        zeros = point_set(form)
        rk = n + 1 - len(radical_quadratic(form))
        cls = discriminate(rk, zeros.bit_count(), n, q)
        assert row == (coeffs, cls, rk, zeros), (q, n)


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
    """Same basis, same order: every zero mask of the (3,2), (4,2) and (5,2)
    surveys, the empty mask, and canonical and random forms at q in
    {7, 9, 16, 25}, N in {2, 3}."""
    for q, n in [(3, 2), (4, 2), (5, 2)]:
        code = build_code(field_from_order(q), n)
        for mask in {0} | {row[3] for row in survey(q, n)}:
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
    small = build_code(F2, 3)  # 2**10 forms
    pair = small.encode(form_from_terms(F2, 3, {(0, 1): 1}))
    with pytest.raises(BudgetExceeded):
        is_minimal_exhaustive(small, pair, budget=100)
    # the census hands its budget to the tester
    assert brute_force_census(2, 3, "exhaustive", budget=2**10).matches()


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_exhaustive_tester_equals_a_linear_scan(q, n):
    """The point-index tester against the scan it replaced: the first
    survey row, in order, whose zero set strictly contains the form's."""
    field = field_from_order(q)
    code = build_code(field, n)
    rows = survey(q, n)
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
