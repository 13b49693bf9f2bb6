"""Row reduction and kernels over GF(q), cross-checked definitionally."""

import random

from conftest import mat_vec

from prmquadrics.gf import field_create
from prmquadrics.linalg import (
    identity,
    kernel_basis,
    kernel_basis_gf2,
    matrix_rank,
    rref,
)


def test_rref_pivots_and_shape():
    f = field_create(3, 1)
    m = [[1, 2, 0], [2, 2, 1], [0, 0, 1]]  # det = -2 = 1 mod 3
    red, pivots = rref(f, m)
    assert pivots == [0, 1, 2]
    assert red == identity(3)


def test_kernel_annihilates():
    rng = random.Random(7)
    for q, e in [(3, 1), (2, 2), (5, 1)]:
        f = field_create(q, e)
        for _ in range(50):
            rows = [[rng.randrange(f.q) for _ in range(5)] for _ in range(3)]
            basis = kernel_basis(f, rows, 5)
            assert len(basis) == 5 - matrix_rank(f, rows)
            for v in basis:
                assert mat_vec(f, rows, v) == [0, 0, 0]


def test_kernel_of_empty_matrix_is_full_space():
    f = field_create(2, 1)
    assert kernel_basis(f, [], 3) == identity(3)


def test_gf2_bitpacked_kernel_matches_generic():
    rng = random.Random(13)
    f2 = field_create(2, 1)
    for _ in range(100):
        ncols = rng.randrange(3, 9)
        rows = [[rng.randrange(2) for _ in range(ncols)] for _ in range(rng.randrange(1, 6))]
        generic = kernel_basis(f2, rows, ncols)
        masks = [sum(v << k for k, v in enumerate(r)) for r in rows]
        packed = kernel_basis_gf2(masks, ncols)
        unpacked = [[b >> k & 1 for k in range(ncols)] for b in packed]
        assert unpacked == generic
