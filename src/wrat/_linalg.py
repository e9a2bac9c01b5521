"""Exact linear algebra over Fraction, on lists of rows.

`rank` is the kernel primitive: fraction-free elimination on sparse integer
rows.  `rref`, `nullspace` and `solve` are dense Gauss-Jordan, for small
systems; they turn int entries into Fraction on the way in, so they stay
exact on int input.  `block` places sparse columns into a dense matrix.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]


def mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
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


def rank(a: Matrix) -> int:
    """Exact rank of a list of equal-length Fraction or int rows.

    Each row is scaled by the lcm of its denominators to a sparse {column: int}
    dict, reduced against the pivot rows (keyed by leading column c) with
    p[c] * r - r[c] * p, and divided by its gcd content after each step.
    The rank is the number of pivot rows; no entry is ever divided.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in a:
        nz = [(c, x) for c, x in enumerate(row) if x]
        den = lcm(*(x.denominator for _, x in nz))
        r = {c: x.numerator * (den // x.denominator) for c, x in nz}
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            pc, rc = p[c], r[c]
            r = {k: pc * x for k, x in r.items()}
            for k, x in p.items():
                y = r.get(k, 0) - rc * x
                if y:
                    r[k] = y
                else:
                    del r[k]
            g = gcd(*r.values())
            if g > 1:
                r = {k: x // g for k, x in r.items()}
    return len(pivots)


def block(column, src, dst) -> list[list]:
    """Matrix from the span of src to the span of dst of the linear map whose
    image of basis vector j is column(j), as sparse {index: value}.

    dst must contain the image; components outside it are dropped.  The
    zeros are int, which `rank` skips faster.
    """
    row_of = {k: r for r, k in enumerate(dst)}
    m = [[0] * len(src) for _ in dst]
    for c, j in enumerate(src):
        for k, x in column(j).items():
            r = row_of.get(k)
            if r is not None:
                m[r][c] = x
    return m


def nullspace(a: Matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Canonical nullspace basis (one vector per free column of the RREF)."""
    if not a:
        n = ncols or 0
        return [[Fraction(i == j) for j in range(n)] for i in range(n)]
    n = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of a x = b, or None if inconsistent (free vars set to 0)."""
    if not a:
        return [] if not any(b) else None
    n = len(a[0])
    aug = [row + [bi] for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the constant column: inconsistent
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


def solve_unique(a: Matrix, b: list[Fraction]) -> list[Fraction]:
    """Solution of a square nonsingular system (raises on anything else)."""
    x = solve(a, b)
    if x is None:
        raise ArithmeticError("inconsistent linear system")
    if rank(a) != len(a[0]):
        raise ArithmeticError("singular linear system")
    return x
