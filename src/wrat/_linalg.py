"""Exact linear algebra over Fraction, on lists of rows.

There is one elimination step, `_clear`: p[c] * r - r[c] * p over its gcd
content, on sparse integer rows.  `_pivot_rows` runs it forward to the
echelon rows, keyed by leading column, and `rank` counts them.  `_reduce`
runs it back, clearing each pivot row at every later pivot column, to the
reduced echelon form in integers.  `solve` (on the augmented rows a | b)
and `nullspace` read each answer entry off one reduced row p with pivot
column c as Fraction(num, p[c]): num is p[b] with the free variables 0, and
-p[fc] in the kernel vector of free column fc.  So they return the vectors
Gauss-Jordan would, and no Fraction arithmetic runs.  All of them take int
or Fraction entries and return Fraction entries; `integral` turns an
integral one back into an int, `over_common` puts rationals over their
least common denominator and `block` places sparse columns into a matrix.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]
# echelon rows {leading column: sparse integer row {column: entry}}
Pivots = dict[int, dict[int, int]]


def over_common(xs) -> tuple[list[int], int]:
    """(ints, den): the rationals xs times den, their least common
    denominator."""
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def integral(x):
    """x as an int when it is integral, else x itself; `rank` and the
    Chevalley brackets are faster on ints."""
    return x.numerator if x.denominator == 1 else x


def _clear(r: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """p[c] * r - r[c] * p divided by its gcd content: row r with column c
    cleared by row p, which is nonzero there."""
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
    return r


def _pivot_rows(a) -> Pivots:
    """Echelon form of a list of equal-length Fraction or int rows, as
    {leading column: sparse integer row}: each row is scaled by the lcm of
    its denominators to a sparse {column: int} dict and `_clear`ed by the
    pivot row of its leading column while there is one; a row left nonzero
    becomes the pivot row there."""
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
            r = _clear(r, p, c)
    return pivots


def _reduce(pivots: Pivots) -> Pivots:
    """The echelon rows in reduced form, in place: each pivot row `_clear`ed
    at every later pivot column, whose rows are reduced first."""
    cols = sorted(pivots)
    for i, c in reversed(list(enumerate(cols))):
        for d in cols[i + 1:]:
            if d in pivots[c]:
                pivots[c] = _clear(pivots[c], pivots[d], d)
    return pivots


def rank(a: Matrix) -> int:
    """Exact rank of a list of equal-length Fraction or int rows: the number
    of pivot rows of `_pivot_rows`."""
    return len(_pivot_rows(a))


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
    pivots = _reduce(_pivot_rows(a))
    basis = []
    for fc in range(n):
        if fc not in pivots:
            x = [Fraction(0)] * n
            x[fc] = Fraction(1)
            for c, p in pivots.items():
                x[c] = Fraction(-p.get(fc, 0), p[c])
            basis.append(x)
    return basis


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of a x = b with the free variables 0, or None if
    inconsistent (a pivot lands in the constant column of a | b)."""
    if not a:
        return None if any(b) else []
    n = len(a[0])
    pivots = _pivot_rows([[*row, bi] for row, bi in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for c, p in _reduce(pivots).items():
        x[c] = Fraction(p.get(n, 0), p[c])
    return x
