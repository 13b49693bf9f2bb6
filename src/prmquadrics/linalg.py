"""Exact dense linear algebra over GF(q) on small matrices.

Matrices are lists of row lists of field elements (ints).  Everything is
deterministic: pivots are chosen left to right, kernel bases come out in
free-column order, so downstream enumerations are reproducible.
"""

from __future__ import annotations

from .gf import Field


def rref(field: Field, rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    add, mul, neg, inv = field._add, field._mul, field._neg, field.inv
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        f = inv(m[r][c])
        if f != 1:
            m[r] = [mul[f][x] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                g = neg[m[i][c]]
                row_r = m[r]
                m[i] = [add[x][mul[g][y]] for x, y in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrix_rank(field: Field, rows) -> int:
    return len(rref(field, rows)[1])


def kernel_basis(field: Field, rows, ncols: int | None = None) -> list[list[int]]:
    """Basis of {x : A x = 0}, one vector per free column, in column order."""
    rows = [list(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    neg = field._neg
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = neg[red[r][fc]]
        basis.append(v)
    return basis


def kernel_basis_gf2(row_masks, ncols: int) -> list[int]:
    """GF(2) kernel with rows packed as bitmasks; returns basis bitmasks.
    The tests' reference for ``prm.interpolation_kernel`` over GF(2)."""
    rows = [r for r in row_masks if r]
    pivots: list[int] = []
    reduced: list[int] = []
    for row in rows:
        for pc, pr in zip(pivots, reduced):
            if row >> pc & 1:
                row ^= pr
        if row:
            pc = (row & -row).bit_length() - 1
            for i, pr in enumerate(reduced):
                if pr >> pc & 1:
                    reduced[i] = pr ^ row
            pivots.append(pc)
            reduced.append(row)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = 1 << fc
        for pc, pr in zip(pivots, reduced):
            if pr >> fc & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


def transpose(rows) -> list[list[int]]:
    return [list(c) for c in zip(*rows)]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def vec_add(field: Field, u, v) -> list[int]:
    add = field._add
    return [add[x][y] for x, y in zip(u, v)]


def vec_scale(field: Field, c: int, v) -> list[int]:
    mul = field._mul
    return [mul[c][x] for x in v]
