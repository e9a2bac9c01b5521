"""`_linalg.rank` (fraction-free, sparse integer rows) against two
independent ranks: sympy's `Matrix.rank` and the pivot count of the
Gauss-Jordan `_linalg.rref`."""
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wrat import _linalg

ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-(10**30), 10**30),
).map(Fraction)


@st.composite
def matrices(draw):
    """Fraction matrices with zero rows, repeated rows and combinations of rows."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rows = [draw(st.lists(ENTRIES, min_size=n, max_size=n)) for _ in range(m)]
    for r in range(m):
        kind = draw(st.sampled_from(["keep", "zero", "copy", "combine"]))
        if kind == "zero":
            rows[r] = [Fraction(0)] * n
        elif kind in ("copy", "combine") and r:
            a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            s = draw(ENTRIES)
            t = draw(ENTRIES) if kind == "combine" else Fraction(0)
            rows[r] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


def sympy_rank(a) -> int:
    if not a or not a[0]:
        return 0
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in a]).rank()


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_sympy_and_rref(a):
    got = _linalg.rank(a)
    assert got == sympy_rank(a)
    assert got == len(_linalg.rref(a)[1])


def test_rank_edge_shapes():
    assert _linalg.rank([]) == 0
    assert _linalg.rank([[], [], []]) == 0
    assert _linalg.rank([[Fraction(0)] * 4] * 3) == 0
    assert _linalg.rank([[1, 2], [2, 4], [0, 0]]) == 1
    assert _linalg.rank([[Fraction(1, 3), Fraction(-2, 5)], [5, -6]]) == 1
    big = 10**40 + 1
    assert _linalg.rank([[big, 1], [big - 1, 1]]) == 2
    assert _linalg.rank([[big, big + 1], [big * 3, 3 * big + 3]]) == 1


def test_rank_does_not_modify_its_input():
    a = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]]
    before = [row[:] for row in a]
    assert _linalg.rank(a) == 1
    assert a == before
