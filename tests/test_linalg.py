"""`_linalg.rank` (fraction-free, sparse integer rows) against two
independent ranks: sympy's `Matrix.rank` and the pivot count of the
Gauss-Jordan `_linalg.rref`; and the dense routines exact on raw int input."""
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


# raw ints next to Fractions, as the int-zero blocks of `_linalg.block` hold
MIXED = st.one_of(
    ENTRIES,
    st.integers(-3, 3),
    st.sampled_from([10**30, -(10**30)]),
    st.integers(-(10**30), 10**30),
)


@st.composite
def matrices(draw, entries=ENTRIES):
    """Matrices with zero rows, repeated rows and combinations of rows."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for r in range(m):
        kind = draw(st.sampled_from(["keep", "zero", "copy", "combine"]))
        if kind == "zero":
            rows[r] = [0] * n
        elif kind in ("copy", "combine") and r:
            a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            s = draw(entries)
            t = draw(entries) if kind == "combine" else 0
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


def _all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=200, deadline=None)
@given(matrices(MIXED), st.data())
def test_dense_routines_are_exact_on_int_input(a, data):
    n = len(a[0]) if a else 0
    r = _linalg.rank(a)
    red, pivots = _linalg.rref(a)
    assert _all_fractions(red) and len(pivots) == r
    null = _linalg.nullspace(a, n)
    assert _all_fractions(null) and len(null) == n - r
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a for v in null)
    b = data.draw(st.lists(MIXED, min_size=len(a), max_size=len(a)))
    x = _linalg.solve(a, b)
    if x is not None:
        assert _all_fractions([x])
        assert [sum(p * q for p, q in zip(row, x)) for row in a] == b


def test_dense_routines_on_small_int_systems():
    assert _linalg.solve([[2]], [1]) == [Fraction(1, 2)]
    assert type(_linalg.solve([[2]], [1])[0]) is Fraction
    red, pivots = _linalg.rref([[3, 1], [1, 2]])
    assert red == [[1, 0], [0, 1]] and pivots == [0, 1] and _all_fractions(red)
    assert _linalg.solve_unique([[3, 1], [1, 2]], [1, 0]) == [Fraction(2, 5), Fraction(-1, 5)]
    assert _linalg.nullspace([[2, 4]]) == [[-2, 1]] and _all_fractions(_linalg.nullspace([[2, 4]]))


def test_block_places_sparse_columns():
    cols = {5: {7: 2, 9: Fraction(1, 3)}, 6: {}, 8: {7: -1}}
    m = _linalg.block(cols.get, [5, 6, 8], [9, 7])
    assert m == [[Fraction(1, 3), 0, 0], [2, 0, -1]]
    assert type(m[0][1]) is int
    assert _linalg.block(cols.get, [5], [3]) == [[0]]
    assert _linalg.block(cols.get, [], [7]) == [[]]


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


def test_mat_keeps_fractions_and_copies_rows():
    third = Fraction(1, 3)
    a = [[third, 2], [True, Fraction(4)]]
    m = _linalg.mat(a)
    assert m == [[third, 2], [1, 4]] and _all_fractions(m)
    assert m[0][0] is third
    red, _ = _linalg.rref(a)
    assert red == [[1, 0], [0, 1]]
    assert a == [[third, 2], [True, Fraction(4)]]
