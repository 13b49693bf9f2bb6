"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
from operator import add
from types import SimpleNamespace

import pytest

from prmquadrics import census
from prmquadrics.gf import Field, field_from_order
from prmquadrics.linalg import matrix_rank, vec_add, vec_scale
from prmquadrics.prm import Survey, monic_coeffs_at, survey
from prmquadrics.projspace import LinearSubspace, normalize
from prmquadrics.quadric import QuadraticForm, QuadricClass, expected_point_count, monomials

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


def brute_dict(table) -> dict[int, int]:
    """{weight: brute-force count} of a census table, zero counts left out."""
    return {w: b for w, _, b in table.rows if b}


def survey_rows(q: int, n: int) -> list[tuple]:
    """``(coeffs, class, rank, zero mask)`` per row of ``survey(q, n)``, in
    survey order, read through its accessors: the coefficients decoded from
    the row number, class and rank from the class-rank byte, the mask from
    the row's selector in ``Survey.supersets``."""
    index = survey(q, n)
    field, m, keys = field_from_order(q), len(monomials(n)), tuple(index.classes)
    masks = [0] * len(index)
    numeral = bytes.maketrans(b"\0\1", b"01")
    for _, rows, selectors, _ in index.supersets(0, len(index)):
        for i, selector in zip(rows, selectors):
            masks[i] = int(selector.translate(numeral), 2)
    return [
        (monic_coeffs_at(field, m, i), *keys[code][:2], mask)
        for i, (code, mask) in enumerate(zip(index.class_ranks, masks))
    ]


def mat_vec(field: Field, rows, v) -> list[int]:
    """The matrix-vector product A v over GF(q)."""
    add, mul = field._add, field._mul
    out = []
    for row in rows:
        acc = 0
        for a, y in zip(row, v):
            acc = add[acc][mul[a][y]]
        out.append(acc)
    return out


def points(subspace: LinearSubspace) -> list[tuple[int, ...]]:
    """All rational points of a subspace, normalized and canonically
    ordered, by enumerating the combinations of its spanning points; none
    for the empty subspace."""
    field = subspace.field
    out = set()
    for combo in itertools.product(field.elements, repeat=len(subspace.spanning)):
        if not any(combo):
            continue
        vec = [0] * (subspace.ambient + 1)
        for c, s in zip(combo, subspace.spanning):
            if c:
                vec = vec_add(field, vec, vec_scale(field, c, s))
        out.add(normalize(field, vec))
    key = field.order_index
    return sorted(out, key=lambda pt: tuple(key(c) for c in pt))


def tuple_space(field: Field, n: int) -> tuple[list[tuple[int, ...]], tuple[bytes, ...]]:
    """Oracle: P^n's points as one tuple each, built by the canonical
    recursion, and its monomial lanes as coordinate products taken one byte
    at a time through the multiplication table, pair (i, j > i) after
    square i."""
    pts = [(1,)]
    for k in range(1, n + 1):
        lower, pts = pts, []
        for a in field.elements:
            if a == 1:
                pts.append((1,) + (0,) * k)
            pts += [(a,) + p for p in lower]
    q, mul, encode = field.q, field._mul, field.lane_code.encode
    products = bytes(encode[mul[a][b]] for a in range(q) for b in range(q))
    squares = bytes(products[a * q + a] for a in range(q)) + bytes(256 - q)
    columns = [bytes(col) for col in zip(*pts)]
    rows = []
    for i, col in enumerate(columns):
        rows.append(col.translate(squares))
        scaled = [a * q for a in col]
        for other in columns[i + 1 :]:
            rows.append(bytes(map(products.__getitem__, map(add, scaled, other))))
    return pts, tuple(rows)


# Whether a scan of more than one block with workers=2 starts a pool: it
# does wherever two CPUs are usable.
if hasattr(os, "sched_getaffinity"):
    TWO_CPUS = len(os.sched_getaffinity(0)) > 1
else:
    TWO_CPUS = (os.cpu_count() or 1) > 1


@pytest.fixture
def pools(monkeypatch):
    """The list of the worker pools a test starts, one entry per
    ``multiprocessing.Pool`` call."""
    started = []
    pool = multiprocessing.Pool

    def counted(*args, **kwargs):
        started.append(args)
        return pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counted)
    return started


@pytest.fixture
def no_elliptic_in_hyperbolic(monkeypatch):
    """Make the q = 2 elliptic-in-hyperbolic shape inadmissible, as if the
    theorem had no exception; forked scan workers inherit the patch."""
    admissible = census._admissible_shape

    def patched(q, cls, rk, wcls, wrk):
        shape = admissible(q, cls, rk, wcls, wrk)
        return None if shape == "elliptic4_in_hyperbolic4" else shape

    monkeypatch.setattr(census, "_admissible_shape", patched)


@pytest.fixture
def hidden_strict_witness(monkeypatch):
    """Drop the last row of every point-index answer, as if the index lost
    one strict witness of each form; forked scan workers inherit the
    patch."""
    row_numbers = Survey.row_numbers
    monkeypatch.setattr(Survey, "row_numbers", lambda self, mask: row_numbers(self, mask)[:-1])


@pytest.fixture
def no_form_at_the_serre_bound(monkeypatch):
    """Give ``serre_scan`` a survey whose class keys at the Serre bound are
    gone, as if no form attained it."""
    real = census.survey

    def patched(q, n):
        bound = expected_point_count(QuadricClass.HYPERPLANE_PAIR, 2, n, q)
        classes = {key: rows for key, rows in real(q, n).classes.items() if key[2] != bound}
        return SimpleNamespace(classes=classes)

    monkeypatch.setattr(census, "survey", patched)


def pytest_collection_modifyitems(config, items):
    """Skip tests marked ``slow`` unless PRMQUADRICS_SLOW=1."""
    if os.environ.get("PRMQUADRICS_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow: set PRMQUADRICS_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
