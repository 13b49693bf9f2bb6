"""Quadric analysis: classification, sections, tangency, canonicalization."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIELD_ORDERS,
    mat_vec,
    points,
    random_form,
    random_invertible,
    random_nonzero_vector,
)

from prmquadrics.gf import field_create, field_from_order
from prmquadrics.linalg import kernel_basis, matrix_rank, transpose
from prmquadrics.prm import build_code
from prmquadrics.projspace import (
    bits_to_indices,
    line_through,
    normalize,
    projective_space,
    subspace_from_vectors,
)
from prmquadrics.quadric import (
    CanonicalizationResult,
    DimensionMismatch,
    InconsistentClassRank,
    InternalInconsistency,
    QuadraticForm,
    QuadricClass,
    ZeroForm,
    ZeroLinearForm,
    canonical_form,
    canonicalize,
    classify,
    discriminate,
    evaluation_lane,
    expected_point_count,
    form_from_terms,
    monomials,
    point_set,
    polarize,
    projective_index_bruteforce,
    radical_quadratic,
    restrict_to_hyperplane,
    substitute,
    subspace_dimension,
)

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)


def T(field, n, terms):
    return form_from_terms(field, n, terms)


# -- evaluation and polarization ------------------------------------------


def test_evaluate_examples():
    f = T(F2, 3, {(0, 1): 1, (2, 3): 1})
    assert f.evaluate((1, 1, 0, 0)) == 1
    g = T(F2, 3, {(0, 0): 1})
    assert g.evaluate((0, 0, 0, 1)) == 0
    z = F4.from_coeffs((0, 1))
    h = T(F4, 1, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    # 1 + z + z^2 = 1 + z + (z+1) = 0: the conjugate-pair binary form picks
    # up a GF(4)-rational zero even though it has no GF(2) one.
    assert h.evaluate((1, z)) == 0
    assert all(h.evaluate(pt) != 0 for pt in projective_space(F2, 1).points)


def test_evaluate_scaling_quadratic():
    rng = random.Random(17)
    for field in (F3, F4, F5):
        for _ in range(30):
            f = random_form(field, 2, rng)
            v = random_nonzero_vector(field, 3, rng)
            for lam in field.elements:
                lv = [field.mul(lam, x) for x in v]
                assert f.evaluate(lv) == field.mul(field.mul(lam, lam), f.evaluate(v))


def test_polarize_examples():
    g = polarize(T(F2, 1, {(0, 1): 1}))
    assert g[0][1] == 1 and g[0][0] == 0
    g3 = polarize(T(F3, 0, {(0, 0): 1}))
    assert g3[0][0] == 2
    g2 = polarize(T(F2, 0, {(0, 0): 1}))
    assert g2[0][0] == 0  # characteristic-2 diagonal vanishing


def test_polarize_is_the_polar_form():
    rng = random.Random(23)
    for field in (F2, F3, F4):
        for _ in range(40):
            f = random_form(field, 3, rng)
            g = polarize(f)
            u = [rng.randrange(field.q) for _ in range(4)]
            v = [rng.randrange(field.q) for _ in range(4)]
            uv = [field.add(a, b) for a, b in zip(u, v)]
            lhs = field.add(f.evaluate(uv), field.neg(field.add(f.evaluate(u), f.evaluate(v))))
            assert lhs == _dot(field, mat_vec(field, g, u), v)


def _dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


# -- radicals and rank ------------------------------------------------------


def _radical_bilinear(f):
    """Basis of the kernel of the polar form, as ``radical_quadratic``
    computes it."""
    return kernel_basis(f.field, polarize(f), f.ambient + 1)


def test_radical_bilinear_examples():
    assert _radical_bilinear(T(F2, 3, {(0, 1): 1, (2, 3): 1})) == []
    rad = _radical_bilinear(T(F2, 4, {(0, 1): 1, (2, 3): 1}))
    assert rad == [[0, 0, 0, 0, 1]]
    assert len(_radical_bilinear(T(F2, 1, {(0, 0): 1}))) == 2


def test_radical_quadratic_examples():
    rad = radical_quadratic(T(F2, 1, {(0, 0): 1}))
    assert rad == [[0, 1]]
    assert classify(T(F2, 1, {(0, 0): 1})).rank == 1
    exception = T(F2, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 3): 1})
    assert radical_quadratic(exception) == []
    assert classify(exception).rank == 4


def test_radical_quadratic_equals_bilinear_in_odd_characteristic():
    rng = random.Random(29)
    for field in (F3, F5):
        for _ in range(50):
            f = random_form(field, 3, rng)
            assert radical_quadratic(f) == _radical_bilinear(f)


def test_radical_quadratic_is_radical_subspace_in_char2():
    # Every vector of the computed radical kills both the form and the polar
    # form; and it is exactly the zero set of F inside Rad B.
    rng = random.Random(31)
    for field in (F2, F4):
        for _ in range(60):
            f = random_form(field, 3, rng)
            radb = _radical_bilinear(f)
            radq = radical_quadratic(f)
            g = polarize(f)
            for v in radq:
                assert f.evaluate(v) == 0
                assert not any(mat_vec(field, g, v))
            # brute count: members of span(Rad B) with F = 0
            brute = 0
            for combo in itertools.product(field.elements, repeat=len(radb)):
                vec = [0] * 4
                for c, w in zip(combo, radb):
                    vec = [field.add(x, field.mul(c, y)) for x, y in zip(vec, w)]
                if f.evaluate(vec) == 0:
                    brute += 1
            assert brute == field.q ** len(radq)


def test_rank_examples_and_zero_form():
    assert classify(T(F3, 2, {(0, 0): 1})).rank == 1
    assert classify(T(F3, 2, {(0, 1): 1})).rank == 2
    assert classify(T(F3, 2, {(0, 0): 1, (1, 2): 1})).rank == 3
    with pytest.raises(ZeroForm):
        classify(QuadraticForm(F3, 2, (0,) * 6))


def test_singular_locus_examples():
    smooth = T(F2, 3, {(0, 1): 1, (2, 3): 1})
    assert classify(smooth).singular_locus.dimension == -1
    cone = T(F3, 3, {(0, 0): 1, (1, 2): 1})
    locus = classify(cone).singular_locus
    assert locus.dimension == 0 and locus.spanning == ((0, 0, 0, 1),)
    pair = T(F3, 2, {(0, 1): 1})
    assert classify(pair).singular_locus.spanning == ((0, 0, 1),)


def test_singular_locus_matches_vanishing_gradient():
    rng = random.Random(37)
    for field in (F2, F3, F4):
        space = projective_space(field, 3)
        for _ in range(25):
            f = random_form(field, 3, rng)
            locus = classify(f).singular_locus
            g = polarize(f)
            expected = {
                pt
                for pt in space.points
                if f.evaluate(pt) == 0 and not any(mat_vec(field, g, pt))
            }
            got = set(points(locus))
            assert got == expected


def test_subspace_dimension_from_point_count():
    for q in (2, 3, 4, 25):
        for d in range(5):
            assert subspace_dimension((q**d - 1) // (q - 1), q) == d
    for count, q in ((5, 2), (2, 2), (2, 3), (14, 3), (6, 4)):
        with pytest.raises(InternalInconsistency):
            subspace_dimension(count, q)


# -- point sets and counts ---------------------------------------------------


def test_point_set_examples():
    zero = QuadraticForm(F2, 3, (0,) * 10)
    assert point_set(zero).bit_count() == 15
    assert point_set(T(F2, 3, {(0, 1): 1, (2, 3): 1})).bit_count() == 9
    exception = T(F2, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 3): 1})
    assert point_set(exception).bit_count() == 5


def _zeros_by_evaluation(form):
    space = projective_space(form.field, form.ambient)
    return [i for i, pt in enumerate(space.points) if form.evaluate(pt) == 0]


def test_point_set_matches_naive_evaluation():
    """Every field order up to 25 at N = 1 and 2, with dense forms (every
    coefficient nonzero: the longest lane sums) and random ones, and
    sampled forms at (16,3) and (25,3)."""
    rng = random.Random(41)
    for q in FIELD_ORDERS:
        field = field_from_order(q)
        for n in (1, 2):
            m = (n + 1) * (n + 2) // 2
            dense = [
                QuadraticForm(field, n, tuple(rng.randrange(1, q) for _ in range(m)))
                for _ in range(8)
            ]
            dense.append(QuadraticForm(field, n, (q - 1,) * m))
            for f in dense + [random_form(field, n, rng) for _ in range(12)]:
                assert bits_to_indices(point_set(f)) == _zeros_by_evaluation(f), (q, f)
    for q, count in ((16, 4), (25, 2)):
        field = field_from_order(q)
        for _ in range(count):
            f = random_form(field, 3, rng)
            assert bits_to_indices(point_set(f)) == _zeros_by_evaluation(f), (q, f)


def _lane_by_monomial_sum(form) -> bytes:
    """F's values as the sum of c_k times monomial k's lane, decoded."""
    space, code = projective_space(form.field, form.ambient), form.field.lane_code
    lane = code.combine(zip(form.coeffs, space.monomial_rows()), len(space))
    return lane.translate(code.decode)


# Every field order at N = 0-3, and larger N at small q.
_LANE_SPACES = [(q, n) for q in FIELD_ORDERS for n in range(4)]
_LANE_SPACES += [(2, 6), (2, 9), (3, 5), (4, 4), (5, 4)]


@st.composite
def _block_shaped_forms(draw, q, n):
    """A form on P^n that is random, or has c_00 = 0, no X_0 X_j part
    (j >= 1), no part in X_1..X_N, or a single term."""
    m, field = len(monomials(n)), field_from_order(q)
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    shape = draw(st.sampled_from(["random", "no c00", "no linear", "no rest", "one term"]))
    if shape == "no c00":
        coeffs[0] = 0
    elif shape == "no linear":
        coeffs[1:n + 1] = [0] * n
    elif shape == "no rest":
        coeffs[n + 1:] = [0] * (m - n - 1)
    elif shape == "one term":
        k = draw(st.integers(0, m - 1))
        coeffs = [0] * m
        coeffs[k] = draw(st.integers(1, q - 1))
    return QuadraticForm(field, n, tuple(coeffs))


@pytest.mark.parametrize("q,n", _LANE_SPACES)
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(data=st.data())
def test_evaluation_lane_equals_the_monomial_sum(q, n, data):
    """The block-built lane decodes to the m-lane sum's values, so
    ``point_set`` reads the same zeros; ``PrmCode.encode``'s values equal
    ``evaluate`` at each point where P^N has at most 2,000 points."""
    form = data.draw(_block_shaped_forms(q, n))
    values = _lane_by_monomial_sum(form)
    lane_code = form.field.lane_code
    assert evaluation_lane(form).translate(lane_code.decode) == values, form.coeffs
    assert point_set(form) == lane_code.zero_mask(values.translate(lane_code.encode))
    space = projective_space(form.field, n)
    if n and len(space) <= 2_000:
        codeword = build_code(form.field, n).encode(form)
        assert codeword.values == tuple(values)
        assert list(codeword.values) == [form.evaluate(pt) for pt in space.points]


def test_expected_point_count_examples():
    assert expected_point_count(QuadricClass.HYPERBOLIC, 4, 3, 2) == 9
    assert expected_point_count(QuadricClass.ELLIPTIC, 4, 3, 3) == 10
    assert expected_point_count(QuadricClass.HYPERPLANE_PAIR, 2, 2, 2) == 5
    assert expected_point_count(QuadricClass.PARABOLIC, 5, 4, 3) == 40
    with pytest.raises(InconsistentClassRank):
        expected_point_count(QuadricClass.HYPERBOLIC, 3, 3, 2)
    with pytest.raises(InconsistentClassRank):
        expected_point_count(QuadricClass.DOUBLE_HYPERPLANE, 2, 3, 2)
    with pytest.raises(InconsistentClassRank):
        expected_point_count(QuadricClass.ELLIPTIC, 6, 3, 2)  # rank > N+1


def test_discriminate_rejects_impossible_counts():
    """In P^3 over GF(3), p_2 = 13: rank 1 and odd ranks have 13 points,
    rank 2 has 13 +- 9 and rank 4 has 13 +- 3.  Any other count raises,
    whether its sign or its size is wrong."""
    assert discriminate(1, 13, 3, 3) is QuadricClass.DOUBLE_HYPERPLANE
    assert discriminate(2, 4, 3, 3) is QuadricClass.CONJUGATE_PAIR
    assert discriminate(3, 13, 3, 3) is QuadricClass.PARABOLIC
    assert discriminate(4, 16, 3, 3) is QuadricClass.HYPERBOLIC
    for rk, count in [(1, 12), (2, 11), (3, 22), (4, 13), (4, 17)]:
        with pytest.raises(InternalInconsistency):
            discriminate(rk, count, 3, 3)


def test_classify_examples():
    r = classify(T(F2, 2, {(0, 1): 1, (0, 2): 1}))  # X0*(X1+X2)
    assert (r.quadric_class, r.rank, r.point_count) == (QuadricClass.HYPERPLANE_PAIR, 2, 5)
    r = classify(T(F2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1}))
    assert (r.quadric_class, r.rank, r.point_count) == (QuadricClass.CONJUGATE_PAIR, 2, 1)
    r = classify(T(F3, 4, {(0, 0): 1, (1, 2): 1, (3, 4): 1}))
    assert (r.quadric_class, r.rank, r.point_count) == (QuadricClass.PARABOLIC, 5, 40)
    with pytest.raises(ZeroForm):
        classify(QuadraticForm(F2, 2, (0,) * 6))


def test_classification_report_json_shape():
    r = classify(T(F3, 3, {(0, 0): 1, (1, 2): 1}))
    payload = r.to_json()
    assert set(payload) == {"class", "rank", "singular_locus", "point_count", "projective_index"}
    assert payload["class"] == "parabolic"
    assert payload["singular_locus"]["dimension"] == 0


# -- hyperplane sections -----------------------------------------------------


def test_restriction_examples():
    f = T(F2, 3, {(0, 1): 1, (2, 3): 1})
    sec = restrict_to_hyperplane(f, (1, 0, 0, 0))
    assert classify(sec).quadric_class is QuadricClass.HYPERPLANE_PAIR
    g = T(F2, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 3): 1})
    sec2 = restrict_to_hyperplane(g, (1, 0, 0, 0))
    r2 = classify(sec2)
    assert (r2.quadric_class, r2.rank) == (QuadricClass.PARABOLIC, 3)
    # last-coordinate hyperplane is plain truncation
    h = T(F3, 2, {(0, 0): 1, (0, 2): 2, (1, 1): 1})
    sec3 = restrict_to_hyperplane(h, (0, 0, 1))
    assert sec3.coeffs == T(F3, 1, {(0, 0): 1, (1, 1): 1}).coeffs
    with pytest.raises(ZeroLinearForm):
        restrict_to_hyperplane(h, (0, 0, 0))


def test_restriction_zero_sets_correspond():
    rng = random.Random(43)
    for field in (F2, F3, F4):
        space = projective_space(field, 3)
        for _ in range(25):
            f = random_form(field, 3, rng)
            lvec = random_nonzero_vector(field, 4, rng)
            sec = restrict_to_hyperplane(f, lvec)
            emb = transpose(kernel_basis(field, [lvec]))
            on_plane = {
                pt
                for pt in space.points
                if f.evaluate(pt) == 0 and _dot(field, lvec, pt) == 0
            }
            sec_space = projective_space(field, 2)
            mapped = set()
            for i, spt in enumerate(sec_space.points):
                if sec.evaluate(spt) == 0:
                    img = mat_vec(field, emb, spt)
                    mapped.add(normalize(field, img))
            assert mapped == on_plane


def test_section_rank_sandwich_and_preservation_samples():
    rng = random.Random(47)
    for field in (F2, F3, F4, F5):
        for _ in range(60):
            f = random_form(field, 3, rng)
            lvec = random_nonzero_vector(field, 4, rng)
            sec = restrict_to_hyperplane(f, lvec)
            report = classify(f)
            r = report.rank
            r_sec = 0 if sec.is_zero else classify(sec).rank
            assert r - 2 <= r_sec <= r
            locus = report.singular_locus
            if locus.dimension >= 0 and any(
                _dot(field, lvec, v) != 0 for v in locus.spanning
            ):
                assert r_sec == r


def _embedding(small, big):
    """Field embedding via the least root of the small modulus in the big
    field; verified to be a ring homomorphism on all pairs."""
    mod = small.modulus
    root = next(
        w
        for w in big.elements
        if not any(
            _poly_eval_differs(big, mod, w)
        )
    )
    def phi(x):
        acc = 0
        wp = 1
        for c in small.coeffs(x):
            acc = big.add(acc, big.mul(c, wp))
            wp = big.mul(wp, root)
        return acc
    for a in range(small.q):
        for b in range(small.q):
            assert phi(small.add(a, b)) == big.add(phi(a), phi(b))
            assert phi(small.mul(a, b)) == big.mul(phi(a), phi(b))
    return phi


def _poly_eval_differs(big, coeffs, w):
    acc = 0
    wp = 1
    for c in coeffs:
        acc = big.add(acc, big.mul(c % big.p, wp))
        wp = big.mul(wp, w)
    return [acc] if acc != 0 else []


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_tangency_dichotomy_over_quadratic_extension(q):
    """A line through a smooth rational point either meets the quadric in a
    second point over GF(q^2) or is tangent; tangency coincides with the
    restricted binary form having a double root."""
    small = field_from_order(q)
    big = field_from_order(q * q)
    phi = _embedding(small, big)
    big_line = projective_space(big, 1)
    rng = random.Random(59 + q)
    space = projective_space(small, 3)
    checked = 0
    for _ in range(40):
        f = random_form(small, 3, rng)
        pts = [space.points[i] for i in bits_to_indices(point_set(f))]
        if not pts:
            continue
        p = rng.choice(pts)
        r = rng.choice(space.points)
        if r == p:
            continue
        grad = mat_vec(small, polarize(f), p)
        b_pr = _dot(small, grad, r)
        f_r = f.evaluate(r)
        if b_pr == 0 and f_r == 0:
            continue  # line inside the quadric
        # restricted binary form a*b*B + b^2*F(r), over the extension
        bb, fr = phi(b_pr), phi(f_r)
        roots = sum(
            1
            for (a, b) in big_line.points
            if big.add(big.mul(big.mul(a, b), bb), big.mul(big.mul(b, b), fr)) == 0
        )
        line = line_through(small, p, r)
        # The tangent space at p: the hyperplane B(p, .) = 0, or all of
        # P^3 where p is singular.
        on_tangent = {x for x in space.points if _dot(small, grad, x) == 0}
        tangent = all(x in on_tangent for x in line)
        assert tangent == (b_pr == 0)
        assert (roots == 1) == tangent
        if not tangent:
            assert roots == 2
        checked += 1
    assert checked > 10


def test_subspace_in_quadric_iff_restriction_vanishes():
    rng = random.Random(61)
    for field in (F2, F3):
        space = projective_space(field, 3)
        for _ in range(150):
            f = random_form(field, 3, rng)
            pts = rng.sample(space.points, 2)
            sub = subspace_from_vectors(field, 3, pts)
            gram = polarize(f)
            vs = sub.spanning
            restriction_zero = all(f.evaluate(v) == 0 for v in vs) and all(
                _dot(field, mat_vec(field, gram, u), v) == 0
                for i, u in enumerate(vs)
                for v in vs[i + 1 :]
            )
            all_points_in = all(f.evaluate(x) == 0 for x in points(sub))
            assert restriction_zero == all_points_in


# -- projective index --------------------------------------------------------


def test_projective_index_examples():
    elliptic = T(F2, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 3): 1})
    assert projective_index_bruteforce(elliptic) == 0
    hyperbolic = T(F2, 3, {(0, 1): 1, (2, 3): 1})
    assert projective_index_bruteforce(hyperbolic) == 1
    pair = T(F3, 2, {(0, 1): 1})
    assert projective_index_bruteforce(pair) == 1
    conj_p1 = T(F2, 1, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert projective_index_bruteforce(conj_p1) == -1  # no rational point
    assert projective_index_bruteforce(T(F2, 4, {(0, 1): 1})) == 3


def test_projective_index_gf4_three_dims():
    # exercises the non-prime path including the plane search
    z = F4.from_coeffs((0, 1))
    hyper = T(F4, 3, {(0, 1): 1, (2, 3): 1})
    assert projective_index_bruteforce(hyper) == 1
    pair = T(F4, 3, {(0, 1): 1})
    assert projective_index_bruteforce(pair) == 2
    dh = T(F4, 3, {(0, 0): z})
    assert projective_index_bruteforce(dh) == 2
    elliptic = T(F4, 3, {(0, 0): 1, (0, 1): 1, (1, 1): z, (2, 3): 1})
    assert classify(elliptic).quadric_class is QuadricClass.ELLIPTIC
    assert projective_index_bruteforce(elliptic) == 0


# -- canonicalization --------------------------------------------------------


def _assert_canonical_identity(form, result: CanonicalizationResult):
    target = canonical_form(form.field, form.ambient, result.quadric_class, result.rank)
    lam = result.scalar
    scaled = target.scale(lam)
    moved = substitute(form, [list(r) for r in result.transform])
    assert moved.coeffs == scaled.coeffs
    assert matrix_rank(form.field, [list(r) for r in result.transform]) == form.ambient + 1


# Fields no exhaustive scan reaches: GF(7), the odd non-prime GF(9) and
# GF(25), and GF(16) in characteristic 2.
EXTRA_FIELDS = [(field_from_order(q), n) for q in (7, 9, 16, 25) for n in (2, 3)]


def test_canonicalize_canonical_forms_fixed_classes():
    for field, n in [(F, 3) for F in (F2, F3, F4, F5)] + EXTRA_FIELDS:
        for cls, rk in [
            (QuadricClass.DOUBLE_HYPERPLANE, 1),
            (QuadricClass.HYPERPLANE_PAIR, 2),
            (QuadricClass.CONJUGATE_PAIR, 2),
            (QuadricClass.PARABOLIC, 3),
            (QuadricClass.HYPERBOLIC, 4),
            (QuadricClass.ELLIPTIC, 4),
        ]:
            if rk > n + 1:
                continue
            f = canonical_form(field, n, cls, rk)
            res = canonicalize(f)
            assert (res.quadric_class, res.rank) == (cls, rk)
            assert res.scalar == 1
            _assert_canonical_identity(f, res)


def test_canonicalize_named_examples():
    seg = T(F3, 3, {(0, 3): 1, (1, 2): 2})  # X0*X3 - X1*X2
    res = canonicalize(seg)
    assert (res.quadric_class, res.rank) == (QuadricClass.HYPERBOLIC, 4)
    _assert_canonical_identity(seg, res)
    par = T(F2, 3, {(0, 0): 1, (1, 1): 1, (2, 3): 1})  # (X0+X1)^2 + X2*X3
    res2 = canonicalize(par)
    assert (res2.quadric_class, res2.rank) == (QuadricClass.PARABOLIC, 3)
    _assert_canonical_identity(par, res2)
    with pytest.raises(ZeroForm):
        canonicalize(QuadraticForm(F2, 2, (0,) * 6))


def test_canonicalize_random_forms_all_fields():
    rng = random.Random(67)
    for field, n in [(F, n) for F in (F2, F3, F4, F5) for n in (0, 1, 2, 3)] + EXTRA_FIELDS:
        for _ in range(40):
            f = random_form(field, n, rng)
            res = canonicalize(f)
            _assert_canonical_identity(f, res)
            rep = classify(f)
            assert (res.quadric_class, res.rank) == (rep.quadric_class, rep.rank)


# Every admissible (class, rank) up to rank 9, that is, on P^N for N <= 8.
SHAPES = [
    (QuadricClass.DOUBLE_HYPERPLANE, 1),
    (QuadricClass.HYPERPLANE_PAIR, 2),
    (QuadricClass.CONJUGATE_PAIR, 2),
] + [
    (cls, rk)
    for rk in range(3, 10)
    for cls in (
        (QuadricClass.PARABOLIC,) if rk % 2 else (QuadricClass.HYPERBOLIC, QuadricClass.ELLIPTIC)
    )
]


def _drawn_invertible(field, size, rng):
    """Rows of L U shuffled, with L unit lower triangular and U upper
    triangular with a nonzero diagonal: invertible whatever rng returns."""
    q = field.q
    lower = [[rng.randrange(q) if j < i else int(i == j) for j in range(size)] for i in range(size)]
    upper = [
        [rng.randrange(1, q) if i == j else rng.randrange(q) if j > i else 0 for j in range(size)]
        for i in range(size)
    ]
    t = transpose([mat_vec(field, lower, col) for col in transpose(upper)])
    rng.shuffle(t)
    return t


@pytest.mark.parametrize("q", FIELD_ORDERS)
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(n=st.integers(1, 8), rng=st.randoms(use_true_random=False))
@example(n=8, rng=random.Random(0))
def test_canonicalize_moved_and_dense_forms_property(q, n, rng):
    # Canonicalize never enumerates past P^2, so P^8 over GF(25), with
    # about 1.6e11 points, is as cheap as the plane.
    field = field_from_order(q)
    cls, rk = rng.choice([shape for shape in SHAPES if shape[1] <= n + 1])
    t = _drawn_invertible(field, n + 1, rng)
    lam = rng.randrange(1, q)
    moved = substitute(canonical_form(field, n, cls, rk), t).scale(lam)
    res = canonicalize(moved)
    assert (res.quadric_class, res.rank) == (cls, rk)
    _assert_canonical_identity(moved, res)
    coeffs = [rng.randrange(q) for _ in moved.coeffs]
    coeffs[rng.randrange(len(coeffs))] = rng.randrange(1, q)
    dense = QuadraticForm(field, n, tuple(coeffs))
    _assert_canonical_identity(dense, canonicalize(dense))


def test_rank_and_class_invariance_samples():
    rng = random.Random(71)
    for field in (F2, F3, F4):
        for _ in range(40):
            f = random_form(field, 3, rng)
            t = random_invertible(field, 4, rng)
            g = substitute(f, t)
            rf, rg = classify(f), classify(g)
            assert rf.quadric_class is rg.quadric_class
            assert rf.rank == rg.rank
            assert rf.point_count == rg.point_count


def test_classify_scalar_invariance():
    rng = random.Random(73)
    for field in (F3, F4, F5):
        for _ in range(30):
            f = random_form(field, 2, rng)
            rf = classify(f)
            for lam in field.elements[1:]:
                if lam == 0:
                    continue
                g = f.scale(lam)
                rg = classify(g)
                assert (rf.quadric_class, rf.rank) == (rg.quadric_class, rg.rank)
                assert point_set(f) == point_set(g)


def test_hyperplane_confinement_full_grid():
    """Zero set inside a hyperplane iff double hyperplane or conjugate pair."""
    from conftest import GRID, survey_rows

    for q, n in GRID:
        hyperplanes = projective_space(field_from_order(q), n).flats(n - 1)
        for coeffs, cls, _, mask in survey_rows(q, n):
            confined = any(mask & ~h == 0 for h in hyperplanes)
            expected = cls in (
                QuadricClass.DOUBLE_HYPERPLANE,
                QuadricClass.CONJUGATE_PAIR,
            )
            assert confined == expected, (q, n, coeffs, cls)


def test_dimension_mismatch_errors():
    f = T(F2, 2, {(0, 1): 1})
    with pytest.raises(DimensionMismatch):
        f.evaluate((1, 0))
    with pytest.raises(DimensionMismatch):
        restrict_to_hyperplane(f, (1, 0))
    with pytest.raises(DimensionMismatch):
        QuadraticForm(F2, 2, (1, 0, 0))
