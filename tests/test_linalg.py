"""`_linalg` (one fraction-free elimination on sparse integer rows) against
two independent references: sympy's `Matrix.rank`, and the dense
Gauss-Jordan of `linalg_oracle`, whose `solve` and `nullspace` lists
`_linalg.solve` and `_linalg.nullspace` must equal exactly."""
from contextlib import contextmanager
from fractions import Fraction

import sympy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from wrat import _linalg
from wrat.rootsys import SimpleType, _cartan_matrix

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
    assert got == len(oracle.rref(a)[1])


def _all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=200, deadline=None)
@given(matrices(MIXED), st.data())
def test_dense_routines_are_exact_on_int_input(a, data):
    n = len(a[0]) if a else 0
    r = _linalg.rank(a)
    null = _linalg.nullspace(a, n)
    assert _all_fractions(null) and len(null) == n - r
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a for v in null)
    b = data.draw(st.lists(MIXED, min_size=len(a), max_size=len(a)))
    x = _linalg.solve(a, b)
    if x is not None:
        assert _all_fractions([x])
        assert [sum(p * q for p, q in zip(row, x)) for row in a] == b


@st.composite
def shaped_systems(draw):
    """(a, ncols, b) over mixed int and Fraction entries: any shape, tall,
    wide, all-zero, or no rows at all (ncols is then the width)."""
    shape = draw(st.sampled_from(["any", "tall", "wide", "zero", "empty"]))
    if shape == "empty":
        return [], draw(st.integers(0, 4)), draw(st.lists(MIXED, max_size=2))
    a = draw(matrices(MIXED))
    m, n = len(a), len(a[0]) if a else 0
    if shape == "tall":
        a = a + draw(st.lists(st.lists(MIXED, min_size=n, max_size=n), min_size=1, max_size=4))
    elif shape == "wide":
        k = draw(st.integers(1, 4))
        a = [row + draw(st.lists(MIXED, min_size=k, max_size=k)) for row in a]
    elif shape == "zero":
        a = [[draw(st.sampled_from([0, Fraction(0)]))] * n for _ in range(m)]
    n = len(a[0]) if a else 0
    b = draw(st.one_of(
        st.lists(MIXED, min_size=len(a), max_size=len(a)),
        st.just([0] * len(a)),
    ))
    return a, n, b


@settings(max_examples=400, deadline=None)
@given(shaped_systems())
def test_solve_and_nullspace_equal_the_oracle(system):
    """The reduced integer rows give Gauss-Jordan's exact lists:
    the same solution (free variables 0), the same canonical kernel basis in
    the same order, all Fraction."""
    a, n, b = system
    x = _linalg.solve(a, b)
    assert x == oracle.solve(a, b)
    if x is not None:
        assert _all_fractions([x])
    null = _linalg.nullspace(a, n)
    assert null == oracle.nullspace(a, n)
    assert _all_fractions(null)


ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
)


class FractionArithmetic(Exception):
    """Raised by a Fraction operator inside `no_fraction_arithmetic`."""


@contextmanager
def no_fraction_arithmetic():
    """Every arithmetic operator of Fraction raises while the block runs."""
    saved = {name: Fraction.__dict__[name] for name in ARITHMETIC}

    def refuse(*args):
        raise FractionArithmetic

    try:
        for name in ARITHMETIC:
            setattr(Fraction, name, refuse)
        yield
    finally:
        for name, op in saved.items():
            setattr(Fraction, name, op)


def _answers(a, n, b):
    return _linalg.rank(a), _linalg.solve(a, b), _linalg.nullspace(a, n)


@settings(max_examples=200, deadline=None)
@given(shaped_systems())
def test_elimination_runs_no_fraction_arithmetic(system):
    """rank, solve and nullspace scale each row to integers,
    eliminate in integers and make each answer entry as one Fraction(num,
    den): with every Fraction operator raising they give the same answers."""
    a, n, b = system
    with no_fraction_arithmetic():
        got = _answers(a, n, b)
    assert got == _answers(a, n, b)


def test_dense_routines_on_small_int_systems():
    assert _linalg.solve([[2]], [1]) == [Fraction(1, 2)]
    assert type(_linalg.solve([[2]], [1])[0]) is Fraction
    red, pivots = oracle.rref([[3, 1], [1, 2]])
    assert red == [[1, 0], [0, 1]] and pivots == [0, 1] and _all_fractions(red)
    assert _linalg.solve([[3, 1], [1, 2]], [1, 0]) == [Fraction(2, 5), Fraction(-1, 5)]
    assert _linalg.nullspace([[2, 4]]) == [[-2, 1]] and _all_fractions(_linalg.nullspace([[2, 4]]))


CARTAN_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"{x}{n}" for x in "BC" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", CARTAN_TYPES)
def test_solve_on_every_cartan_matrix_is_the_unique_solution(name):
    """The Cartan matrix of a simple type is nonsingular, so `solve` gives
    its one solution, as `rootsys.cartan_solve` reads it: A x = b at each
    unit vector and at a rational b, and rank A = n."""
    a = _cartan_matrix(SimpleType.parse(name))
    n = len(a)
    assert _linalg.rank(a) == n
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    for b in units + [[Fraction(k - 2, k + 3) for k in range(n)]]:
        x = _linalg.solve(a, b)
        assert [sum(r * y for r, y in zip(row, x)) for row in a] == b
        assert _all_fractions([x])


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
    m = oracle.mat(a)
    assert m == [[third, 2], [1, 4]] and _all_fractions(m)
    assert m[0][0] is third
    assert _linalg.solve(a, [1, 1]) == [-3, 1]
    assert _linalg.nullspace(a) == []
    assert a == [[third, 2], [True, Fraction(4)]]
