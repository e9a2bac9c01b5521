"""Exact linear algebra over Fraction, on lists of rows.

There is one elimination, `_pivot_rows`: fraction-free on sparse integer
rows.  It returns the pivot rows in echelon form, keyed by leading column;
their leading columns are the pivot columns of the reduced row echelon
form.  `rank` counts them.  `solve` eliminates the augmented rows a | b and
`nullspace` the rows of a, and each back-substitutes once per vector in
Fraction with the free variables fixed (to 0 for `solve`, to a unit vector
per free column for `nullspace`).  Fixed free variables leave the pivot
variables unique, so both return the vectors Gauss-Jordan would.  All of
them take int or Fraction entries and return Fraction entries; `integral`
turns an integral one back into an int, and `over_common` puts rationals
over their least common denominator.  `block` places sparse columns into
a dense matrix.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]
# echelon rows {leading column: sparse integer row {column: entry}}
Pivots = dict[int, dict[int, int]]


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


def over_common(xs) -> tuple[list[int], int]:
    """(ints, den): the rationals xs times den, their least common
    denominator."""
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def integral(x):
    """x as an int when it is integral, else x itself; `rank` and the
    Chevalley brackets are faster on ints."""
    return x.numerator if x.denominator == 1 else x


def _pivot_rows(a) -> Pivots:
    """Echelon form of a list of equal-length Fraction or int rows, as
    {leading column: sparse integer row}.

    Each row is scaled by the lcm of its denominators to a sparse {column: int}
    dict, reduced against the pivot rows (keyed by leading column c) with
    p[c] * r - r[c] * p, and divided by its gcd content after each step.  A
    row left nonzero becomes the pivot row of its leading column; no entry is
    ever divided.
    """
    pivots: Pivots = {}
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
    return pivots


def rank(a: Matrix) -> int:
    """Exact rank of a list of equal-length Fraction or int rows: the number
    of pivot rows of `_pivot_rows`."""
    return len(_pivot_rows(a))


def _back_substitute(pivots: Pivots, x: list[Fraction], n: int) -> list[Fraction]:
    """Fill in the pivot entries of x, whose other entries are fixed, so that
    each pivot row p holds as sum_{k < n} p[k] x[k] = p.get(n, 0).

    Rows are taken by decreasing leading column, so every later entry of a
    row is known when the row is reached.
    """
    for c in sorted(pivots, reverse=True):
        p = pivots[c]
        s = p.get(n, 0)
        for k, y in p.items():
            if k != c and k != n:
                xk = x[k]
                if xk:
                    s -= y * xk
        x[c] = Fraction(s, p[c])
    return x


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
    """Canonical nullspace basis: one vector per free column, in column
    order, with 1 there and 0 in every other free column.  ncols gives the
    width when a has no rows."""
    n = len(a[0]) if a else ncols or 0
    pivots = _pivot_rows(a)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            x = [Fraction(0)] * n
            x[fc] = Fraction(1)
            basis.append(_back_substitute(pivots, x, n))
    return basis


def _solve(a: Matrix, b: list[Fraction]) -> tuple[Pivots, list[Fraction] | None]:
    """Pivot rows of the augmented rows a | b, and one solution of a x = b
    with the free variables 0 (None when a pivot lands in the constant column)."""
    if not a:
        return {}, (None if any(b) else [])
    n = len(a[0])
    pivots = _pivot_rows([[*row, bi] for row, bi in zip(a, b)])
    if n in pivots:
        return pivots, None
    return pivots, _back_substitute(pivots, [Fraction(0)] * n, n)


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of a x = b, or None if inconsistent (free vars set to 0)."""
    return _solve(a, b)[1]


def solve_unique(a: Matrix, b: list[Fraction]) -> list[Fraction]:
    """Solution of a square nonsingular system (raises on anything else)."""
    pivots, x = _solve(a, b)
    if x is None:
        raise ArithmeticError("inconsistent linear system")
    if len(pivots) != len(x):
        raise ArithmeticError("singular linear system")
    return x
