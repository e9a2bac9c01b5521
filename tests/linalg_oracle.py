"""Dense Gauss-Jordan over Fraction: the reference for `wrat._linalg`.

`rref` reduces a copy of the matrix to reduced row echelon form, dividing
every pivot row by its pivot, so it shares nothing with the fraction-free
sparse elimination of the package.  `solve` and `nullspace` read their
answers straight off the RREF, with the free variables 0 and one unit
vector per free column; `_linalg.solve` and `_linalg.nullspace` must return
exactly these lists.  Also here: `mat`, the fresh Fraction copy `rref`
works on, the dense matrix product and the ad(x) matrix and centralizer of
a Chevalley element, which only tests use.
"""
from __future__ import annotations

from fractions import Fraction

from wrat import _linalg

Matrix = _linalg.Matrix


def mat(rows) -> Matrix:
    """A fresh Fraction matrix; Fraction entries are kept, others converted."""
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]


def rref(a) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column indices)."""
    m = mat(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a, ncols: int | None = None) -> Matrix:
    """Canonical nullspace basis (one vector per free column of the RREF)."""
    n = len(a[0]) if a else ncols or 0
    red, pivots = rref(a)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a, b) -> list[Fraction] | None:
    """One solution of a x = b, or None if inconsistent (free vars set to 0)."""
    if not a:
        return [] if not any(b) else None
    n = len(a[0])
    red, pivots = rref([[*row, bi] for row, bi in zip(a, b)])
    if n in pivots:  # pivot in the constant column: inconsistent
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = _linalg.zeros(n, m)
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c:
                for j in range(m):
                    if b[t][j]:
                        out[i][j] += c * b[t][j]
    return out


def ad_matrix(table, x: dict[int, Fraction]):
    """Matrix of ad(x) over the basis: column j holds the coords of [x, b_j]."""
    basis = range(table.dimension)
    return _linalg.block(lambda j: table.ad_column(x, j), basis, basis)


def centralizer(table, x: dict[int, Fraction]) -> list[dict[int, Fraction]]:
    """Basis of ker ad(x), as elements."""
    null = nullspace(ad_matrix(table, x), table.dimension)
    return [{i: c for i, c in enumerate(v) if c} for v in null]
