"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from prmquadrics.gf import Field
from prmquadrics.linalg import matrix_rank
from prmquadrics.quadric import QuadraticForm, monomials

# Every exhaustively checkable (q, N) this artifact is required to cover.
GRID = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2))

# Every supported field order.
FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25)


def random_form(field: Field, n: int, rng: random.Random, nonzero: bool = True) -> QuadraticForm:
    m = len(monomials(n))
    while True:
        coeffs = tuple(rng.randrange(field.q) for _ in range(m))
        if any(coeffs) or not nonzero:
            return QuadraticForm(field, n, coeffs)


def random_invertible(field: Field, size: int, rng: random.Random):
    while True:
        mat = [[rng.randrange(field.q) for _ in range(size)] for _ in range(size)]
        if matrix_rank(field, mat) == size:
            return mat


def random_nonzero_vector(field: Field, size: int, rng: random.Random):
    while True:
        v = [rng.randrange(field.q) for _ in range(size)]
        if any(v):
            return v


def pytest_collection_modifyitems(config, items):
    """Skip tests marked ``slow`` unless PRMQUADRICS_SLOW=1."""
    if os.environ.get("PRMQUADRICS_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow: set PRMQUADRICS_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
