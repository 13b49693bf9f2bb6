"""Point enumeration, subspaces, flats, and q-binomials against brute oracles."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIELD_ORDERS, GRID, random_nonzero_vector

from prmquadrics.gf import field_create, field_from_order
from prmquadrics.linalg import rref, vec_scale
from prmquadrics.projspace import (
    _PEEL_BITS,
    EqualPoints,
    OutOfRange,
    bits_to_indices,
    gaussian_binomial,
    hyperplane,
    line_through,
    normalize,
    projective_size,
    projective_space,
    subspace_from_vectors,
    subspace_points,
)


def test_projective_size_values():
    assert projective_size(2, 1) == 3
    assert projective_size(2, 2) == 7
    assert projective_size(2, 3) == 15
    assert projective_size(3, 2) == 13
    assert projective_size(3, 3) == 40
    assert projective_size(7, -1) == 0
    with pytest.raises(OutOfRange):
        projective_size(2, -2)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 1)])
def test_enumerate_points_count_and_normalization(q, n):
    field = field_from_order(q)
    pts = projective_space(field, n).points
    assert len(pts) == projective_size(q, n)
    assert len(set(pts)) == len(pts)
    for pt in pts:
        last = max(i for i, c in enumerate(pt) if c)
        assert pt[last] == 1
        assert normalize(field, pt) == pt  # idempotent


@pytest.mark.parametrize(
    "q,n", [(q, n) for q in FIELD_ORDERS for n in (1, 2)] + [(4, 3), (9, 3), (2, 6)]
)
def test_points_in_canonical_order(q, n):
    # Every bitmask in the package is keyed by this order.
    field = field_from_order(q)
    vectors = {normalize(field, v) for v in itertools.product(range(q), repeat=n + 1) if any(v)}
    key = field.order_index
    expected = sorted(vectors, key=lambda pt: [key(c) for c in pt])
    assert list(projective_space(field, n).points) == expected


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 1)])
def test_every_nonzero_vector_normalizes_into_list(q, n):
    field = field_from_order(q)
    pts = set(projective_space(field, n).points)
    for vec in itertools.product(range(q), repeat=n + 1):
        if not any(vec):
            continue
        assert normalize(field, vec) in pts


def test_scaling_invariance_of_normalization():
    rng = random.Random(3)
    for q in (3, 4, 5):
        field = field_from_order(q)
        for _ in range(100):
            v = random_nonzero_vector(field, 4, rng)
            for lam in range(1, q):
                assert normalize(field, vec_scale(field, lam, v)) == normalize(field, v)


def _subspace_count_bruteforce(n, k, q):
    """Oracle: count k-dim subspaces of F_q**n by canonical rref forms."""
    field = field_from_order(q)
    seen = set()
    for vecs in itertools.combinations(itertools.product(range(q), repeat=n), k):
        red, pivots = rref(field, [list(v) for v in vecs])
        if len(pivots) != k:
            continue
        seen.add(tuple(tuple(r) for r in red[:k]))
    return len(seen)


def test_gaussian_binomial_against_bruteforce():
    assert _subspace_count_bruteforce(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 2) == 35
    assert _subspace_count_bruteforce(3, 2, 3) == 13
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(3, 1, 2) == _subspace_count_bruteforce(3, 1, 2) == 7


def test_gaussian_binomial_identities():
    for n in range(6):
        for q in (2, 3, 4, 5):
            assert gaussian_binomial(n, 0, q) == 1
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
    with pytest.raises(OutOfRange):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(OutOfRange):
        gaussian_binomial(3, -1, 2)


def test_line_through_examples():
    f2 = field_create(2, 1)
    pts = line_through(f2, (1, 0, 0, 1), (0, 1, 0, 1))
    assert len(pts) == 3
    assert (1, 1, 0, 0) in pts
    f3 = field_create(3, 1)
    pts3 = line_through(f3, (1, 0, 1), (0, 1, 1))
    assert len(pts3) == 4  # q + 1 rational points
    with pytest.raises(EqualPoints):
        line_through(f2, (1, 0, 0, 1), (1, 0, 0, 1))


def test_line_points_lie_on_line():
    rng = random.Random(5)
    f4 = field_from_order(4)
    space = projective_space(f4, 2)
    for _ in range(20):
        p, q = rng.sample(space.points, 2)
        pts = line_through(f4, p, q)
        assert len(pts) == 5
        sub = subspace_from_vectors(f4, 2, [p, q])
        assert set(pts) <= set(subspace_points(sub))


def test_subspace_points_sizes():
    f2 = field_create(2, 1)
    pt = subspace_from_vectors(f2, 3, [(1, 0, 0, 1)])
    assert pt.dimension == 0 and len(subspace_points(pt)) == 1
    plane = subspace_from_vectors(f2, 3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert plane.dimension == 2 and len(subspace_points(plane)) == 7
    f3 = field_create(3, 1)
    line = subspace_from_vectors(f3, 2, [(1, 0, 0), (0, 1, 0)])
    assert line.dimension == 1 and len(subspace_points(line)) == 4
    empty = subspace_from_vectors(f3, 2, [])
    assert empty.dimension == -1
    with pytest.raises(ValueError):
        subspace_points(empty)


def test_subspace_canonical_and_dependent_input():
    f3 = field_create(3, 1)
    a = subspace_from_vectors(f3, 2, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    b = subspace_from_vectors(f3, 2, [(1, 2, 0), (2, 0, 0)])
    assert a.dimension == 1
    assert a == b  # canonical spanning set


@pytest.mark.parametrize("q,n", GRID)
def test_flats_counts_sizes_distinct(q, n):
    space = projective_space(field_from_order(q), n)
    for k in range(n + 1):
        flats = space.flats(k)
        assert len(flats) == gaussian_binomial(n + 1, k + 1, q), (q, n, k)
        assert all(m.bit_count() == projective_size(q, k) for m in flats), (q, n, k)
        assert len(set(flats)) == len(flats), (q, n, k)


def test_flats_lines_of_fano_plane():
    f2 = field_create(2, 1)
    space = projective_space(f2, 2)
    lines = {
        frozenset(line_through(f2, p, q))
        for p, q in itertools.combinations(space.points, 2)
    }
    assert len(lines) == 7
    as_masks = {sum(1 << space.points.index(x) for x in line) for line in lines}
    assert set(space.flats(1)) == as_masks
    assert space.flats(0) == tuple(1 << i for i in range(7))
    assert space.flats(2) == (space.full_mask,)
    with pytest.raises(OutOfRange):
        space.flats(-1)


def test_hyperplane():
    f3 = field_create(3, 1)
    h = hyperplane(f3, (1, 0, 0, 0))
    assert h.dimension == 2
    assert all(pt[0] == 0 for pt in subspace_points(h))
    assert len(subspace_points(h)) == projective_size(3, 2)
    with pytest.raises(ValueError):
        hyperplane(f3, (0, 0, 0, 0))


def test_point_rendering():
    f4 = field_from_order(4)
    space = projective_space(f4, 2)
    z = f4.from_coeffs((0, 1))
    assert space.render_point((1, z, 0)) == "(1:z:0)"


def _naive_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# Exactly 63, 64 and 65 set bits straddle the switch from peeling to scanning.
_AT_SWITCH = st.sampled_from((_PEEL_BITS - 1, _PEEL_BITS, _PEEL_BITS + 1)).flatmap(
    lambda k: st.sets(st.integers(0, 4 * k), min_size=k, max_size=k)
    | st.sets(st.integers(0, 400_000), min_size=k, max_size=k)
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(positions=st.sets(st.integers(0, 400_000), max_size=40) | _AT_SWITCH)
@example(positions=set())
@example(positions={0})
@example(positions={399_999})
@example(positions=set(range(_PEEL_BITS)))
@example(positions=set(range(1, _PEEL_BITS + 2)))
def test_bits_to_indices_sparse_property(positions):
    """Single bits, sparse masks up to 400k bits wide, and masks at the
    peel/scan switch: the ascending positions that built the mask, and the
    naive per-position test wherever it is cheap."""
    mask = sum(1 << i for i in positions)
    got = bits_to_indices(mask)
    assert got == sorted(positions)
    if mask.bit_length() <= 10_000:
        assert got == _naive_indices(mask)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.binary(max_size=1024))
@example(data=b"\xff" * 1024)
@example(data=b"\x55" * 1024)
@example(data=b"\xff" * 8)
@example(data=b"\xff" * 8 + b"\x01")
def test_bits_to_indices_dense_property(data):
    """Dense masks up to 8,192 bits wide against the naive per-position test."""
    mask = int.from_bytes(data, "little")
    assert bits_to_indices(mask) == _naive_indices(mask)
