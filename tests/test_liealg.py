import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import euclid_model as em
from chevalley_oracle import ReferenceConstants, coroot_pairing
from linalg_oracle import ad_matrix, centralizer, mat_mul
from wrat.liealg import E, F, H, build_chevalley, cartan_lie_element
from wrat.rootsys import CartanElement, SimpleType, build

EXHAUSTIVE = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]
SAMPLED = ["E6", "E7", "E8"]
N_SAMPLES = 100_000


def table_for(name):
    return build_chevalley(build(SimpleType.parse(name)))


def jacobi_defect(t, i, j, k):
    """[[i,j],k] + [[j,k],i] + [[k,i],j] as an indexed coefficient dict."""
    tot = {}
    for d, other in (
        (t.basis_bracket(i, j), k),
        (t.basis_bracket(j, k), i),
        (t.basis_bracket(k, i), j),
    ):
        for m, c in d.items():
            for n, c2 in t.basis_bracket(m, other).items():
                tot[n] = tot.get(n, Fraction(0)) + c * c2
    return {n: c for n, c in tot.items() if c}


@pytest.mark.parametrize("name", EXHAUSTIVE)
def test_jacobi_exhaustive(name):
    t = table_for(name)
    for i, j, k in itertools.combinations(range(t.dimension), 3):
        assert not jacobi_defect(t, i, j, k), (name, t.basis[i], t.basis[j], t.basis[k])


@pytest.mark.parametrize("name", SAMPLED)
def test_jacobi_sampled(name, seed):
    t = table_for(name)
    rng = random.Random(f"{name}:{seed}")
    dim = t.dimension
    checked = 0
    while checked < N_SAMPLES:
        i, j, k = rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)
        if i == j or j == k or i == k:
            continue
        assert not jacobi_defect(t, i, j, k), (name, t.basis[i], t.basis[j], t.basis[k])
        checked += 1


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4"])
def test_antisymmetry(name):
    t = table_for(name)
    for i in range(t.dimension):
        for j in range(i, t.dimension):
            left = t.basis_bracket(i, j)
            right = t.basis_bracket(j, i)
            assert left == {n: -c for n, c in right.items()}


def _string_down_length_euclidean(family, rank, a_coeffs, b_coeffs):
    """Steps p with b - a, b - 2a, ... staying roots, in the Euclidean model."""
    simples = em.simple_roots(family, rank)
    root_set = set(em.all_roots(family, rank))

    def vec(coeffs):
        v = tuple(Fraction(0) for _ in simples[0])
        for c, s in zip(coeffs, simples):
            v = tuple(x + c * y for x, y in zip(v, s))
        return v

    va, vb = vec(a_coeffs), vec(b_coeffs)
    p = 0
    cur = tuple(x - y for x, y in zip(vb, va))
    while cur in root_set:
        p += 1
        cur = tuple(x - y for x, y in zip(cur, va))
    return p


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2", "F4"])
def test_structure_constant_magnitude_is_string_length(name):
    """|N(a, b)| = p + 1 where p counts the a-string below b, checked
    against a string walk done entirely in the Euclidean model."""
    st = SimpleType.parse(name)
    t = table_for(name)
    pos = [r.coeffs for r in t.rs.positive_roots]
    pos_set = set(pos)
    for a, b in itertools.combinations(pos, 2):
        s = tuple(x + y for x, y in zip(a, b))
        if s not in pos_set:
            continue
        n_ab = t.n_constant(t.code[a], t.code[b])
        p = _string_down_length_euclidean(st.family, st.rank, a, b)
        assert abs(n_ab) == p + 1, (a, b, n_ab, p)


def test_g2_known_constants():
    t = table_for("G2")

    def n(a, b):
        return t.n_constant(t.code[a], t.code[b])

    # extraspecial base pair gets the +1; the reversed order flips the sign
    assert n((0, 1), (1, 0)) == 1
    assert n((1, 0), (0, 1)) == -1
    # the magnitude-3 constant of the short-root string
    assert abs(n((1, 1), (1, 2))) == 3


CLASSICAL_TO_RANK_8 = [
    f"{family}{rank}" for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for rank in range(low, 9)
]


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8", *CLASSICAL_TO_RANK_8])
def test_integer_brackets_match_the_fraction_formulas(name):
    """Every basis bracket, computed in integers over the integer root norms
    and on integer root codes, equals the Fraction formulas of
    `chevalley_oracle`, whose root-string combinatorics run on coefficient
    tuples, and is an int."""
    t = table_for(name)
    ref = ReferenceConstants(t)
    for i in range(t.dimension):
        for j in range(t.dimension):
            got = t.basis_bracket(i, j)
            assert got == ref.bracket(i, j), (name, t.basis[i], t.basis[j])
            assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8", "A8", "B8", "C8", "D8"])
def test_root_codes_decide_root_membership(name):
    """Every code the table looks up is a + b or a - b for positive roots
    a, b, or a string probe b - k a below a root b - (k - 1) a.  Each
    lookup finds a root exactly when the coefficient vector is one, and
    then the basis index of its e or f.  The table's codes are the ones
    `rootsys` gives each root, sum c_i 13^i."""
    t = table_for(name)
    n = t.rs.rank
    for r in t.rs.positive_roots:
        assert t.code[r.coeffs] == r.code == sum(c * 13**i for i, c in enumerate(r.coeffs))
    simple = [t.code[tuple(int(i == k) for i in range(n))] for k in range(n)]
    signed = {c: t.index[E(c)] for c in t.positive}
    signed.update({tuple(-x for x in c): t.index[F(c)] for c in t.positive})
    for a in t.positive:
        for b in t.positive:
            probes = [tuple(x + y for x, y in zip(a, b))]
            v = b
            while v in signed:
                v = tuple(y - x for x, y in zip(a, v))
                probes.append(v)
            for v in probes:
                code = sum(c * s for c, s in zip(v, simple))
                assert t._at.get(code) == signed.get(v), (name, a, b, v)


def unit(t, label, c=1):
    """The element c * label, with no stored zero."""
    return {t.index[label]: Fraction(c)} if c else {}


def test_e_f_bracket_lands_in_cartan_with_integer_coroot():
    for name in ("G2", "F4", "E6"):
        t = table_for(name)
        for r in t.rs.positive_roots:
            x = t.bracket(unit(t, E(r.coeffs)), unit(t, F(r.coeffs)))
            assert x
            for i, c in x.items():
                assert t.basis[i].kind == "h"
                assert type(c) is Fraction and c.denominator == 1 and c


def test_h_acts_diagonally():
    t = table_for("F4")
    rs = t.rs
    for i in range(rs.rank):
        for r in rs.positive_roots:
            out = t.bracket(unit(t, H(i)), unit(t, E(r.coeffs)))
            assert out == unit(t, E(r.coeffs), coroot_pairing(rs.cartan_matrix, r.coeffs, i))


def test_sl2_inside_each_row():
    # e_a, f_a, [e_a, f_a] close into an sl2: [h_a, e_a] = 2 e_a
    t = table_for("E7")
    for r in t.rs.positive_roots[:20]:
        e, f = unit(t, E(r.coeffs)), unit(t, F(r.coeffs))
        h = t.bracket(e, f)
        assert t.bracket(h, e) == unit(t, E(r.coeffs), 2)
        assert t.bracket(h, f) == unit(t, F(r.coeffs), -2)


def test_cartan_lie_element_pairings():
    t = table_for("G2")
    h = cartan_lie_element(t, CartanElement.of((2, 0)))
    assert all(t.basis[i].kind == "h" and c for i, c in h.items())
    for i, r in enumerate(((1, 0), (0, 1))):
        assert t.bracket(h, unit(t, E(r))) == unit(t, E(r), (2, 0)[i])


def test_centralizer_of_regular_semisimple_is_cartan():
    t = table_for("A2")
    h = cartan_lie_element(t, CartanElement.of((2, 2)))
    cent = centralizer(t, h)
    assert len(cent) == 2
    for x in cent:
        assert x and all(t.basis[i].kind == "h" and c for i, c in x.items())


def test_ad_matrix_shape_and_nilpotency():
    t = table_for("A2")
    e = {t.index[E((1, 0))]: Fraction(1), t.index[E((0, 1))]: Fraction(1)}
    m = ad_matrix(t, e)
    assert len(m) == t.dimension and len(m[0]) == t.dimension
    # principal nilpotent: ad(e)^k = 0 for k > 2*height of highest root
    power = m
    for _ in range(4):
        power = mat_mul(power, m)
    assert all(all(x == 0 for x in row) for row in power)


def test_table_is_cached():
    assert table_for("E6") is table_for("E6")


def _dense(t, coords):
    out = [Fraction(0)] * t.dimension
    for k, c in coords.items():
        out[k] += c
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["G2", "F4", "E6"]), st.data())
def test_ad_column_is_the_hand_summed_bracket(name, data):
    t = table_for(name)
    ix = st.integers(0, t.dimension - 1)
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    x = data.draw(st.dictionaries(ix, coef, min_size=1, max_size=4))
    j, cj = data.draw(ix), data.draw(coef)
    expect = [Fraction(0)] * t.dimension
    for i, c in x.items():
        for k, v in enumerate(_dense(t, t.basis_bracket(i, j))):
            expect[k] += c * v
    col = t.ad_column(x, j)
    assert all(col.values())
    assert _dense(t, col) == expect
    assert t.bracket(x, {j: cj}) == {k: cj * c for k, c in col.items()}


def elements(t):
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    return st.dictionaries(st.integers(0, t.dimension - 1), coef, max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["G2", "F4", "E6"]), st.data())
def test_bracket_is_sparse_antisymmetric_and_the_basis_sum(name, data):
    """Equality of elements is dict equality, so `bracket` must store no
    zero.  y = c x + z makes every term of [x, c x] cancel, and z = 0 or
    c = 0 reach the plain pairs."""
    t = table_for(name)
    x, z = data.draw(elements(t)), data.draw(elements(t))
    c = data.draw(st.sampled_from([0, 1, -2, Fraction(1, 3)]))
    y = {k: v for k in {*x, *z} if (v := c * x.get(k, 0) + z.get(k, 0))}
    got = t.bracket(x, y)
    assert all(got.values())
    assert t.bracket(y, x) == {k: -v for k, v in got.items()}
    expect = [Fraction(0)] * t.dimension
    for i, ci in x.items():
        for j, cj in y.items():
            for k, v in t.basis_bracket(i, j).items():
                expect[k] += ci * cj * v
    assert _dense(t, got) == expect


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_ad_column_drops_cancelled_terms(name):
    # x = <a, h_2> h_1 - <a, h_1> h_2 acts by zero on e_a, for every root a
    t = table_for(name)
    for a in t.positive:
        ea = t.index[E(a)]
        p1, p2 = (t.basis_bracket(t.index[H(k)], ea).get(ea, 0) for k in (0, 1))
        x = {t.index[H(0)]: Fraction(p2), t.index[H(1)]: Fraction(-p1)}
        x = {k: c for k, c in x.items() if c}
        assert t.ad_column(x, ea) == {}
        assert t.bracket(x, {ea: Fraction(1)}) == {} == t.bracket({ea: Fraction(1)}, x)
