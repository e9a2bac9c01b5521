from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from contragredient_oracle import ad_block as bracket_block, degrees
from good_grading import verify_good_grading
from wrat._linalg import rank as mat_rank, solve
from wrat.grading import (
    NoSl2Completion,
    NotDegreeMinusOne,
    ad_block,
    complete_sl2,
    grade,
    is_even_grading,
)
from wrat.liealg import F, build_chevalley, cartan_lie_element
from wrat.orbits import load_records
from wrat.ratcheck import h0f_space
from wrat.rootsys import CartanElement, DimensionMismatch, SimpleType, build, pairing


def table_for(name):
    return build_chevalley(build(SimpleType.parse(name)))


def test_grade_halves_the_characteristic_values():
    t = table_for("A2")
    g = grade(t, CartanElement.of((2, 2)))
    # simple root vectors sit in degree 1, the highest root in degree 2
    degs = {str(b): d for b, d in zip(t.basis, degrees(g))}
    assert degs["e(1,0)"] == 1 and degs["e(0,1)"] == 1
    assert degs["e(1,1)"] == 2
    assert degs["f(1,1)"] == -2
    assert degs["h1"] == 0
    assert is_even_grading(g)


def block_dims(g) -> dict[Fraction, int]:
    """The dimension of each degree's block of the grading g, by degree."""
    return {j: len(g.block(j)) for j in sorted(set(degrees(g)))}


def test_block_dims_sum_to_dimension():
    for rec in load_records():
        t = table_for(str(rec.algebra))
        g = grade(t, rec.h)
        assert sum(len(g.block(j)) for j in block_dims(g)) == t.dimension


def test_record_gradings_are_good():
    for rec in load_records():
        t = table_for(str(rec.algebra))
        g = grade(t, rec.h)
        triple = complete_sl2(t, g, list(rec.f_roots))
        assert verify_good_grading(t, g, triple.f)


def test_kernel_dimension_identity():
    """dim ker ad(f) = dim g_0 + dim g_{1/2}, the fingerprint of a good
    grading; computed blockwise since f is homogeneous of degree -1."""
    for rec in load_records():
        t = table_for(str(rec.algebra))
        g = grade(t, rec.h)
        triple = complete_sl2(t, g, list(rec.f_roots))
        kernel_dim = 0
        for j in block_dims(g):
            src = g.block(j)
            dst = g.block(j - 1)
            m = ad_block(t, triple.f, src, dst)
            kernel_dim += len(src) - mat_rank(m)
        expect = len(g.block(0)) + len(g.block(Fraction(1, 2)))
        assert kernel_dim == expect, rec.label


def test_complete_sl2_success_and_bracket_relations():
    t = table_for("A2")
    g = grade(t, CartanElement.of((2, 2)))
    triple = complete_sl2(t, g, [(1, 0), (0, 1)])
    assert triple.f == {t.index[F((1, 0))]: 1, t.index[F((0, 1))]: 1}
    assert triple.h == cartan_lie_element(t, g.characteristic)
    for x in triple:
        assert x and all(type(c) in (int, Fraction) and c for c in x.values())
    assert t.bracket(triple.e, triple.f) == triple.h
    assert t.bracket(triple.h, triple.e) == {k: 2 * c for k, c in triple.e.items()}
    assert t.bracket(triple.h, triple.f) == {k: -2 * c for k, c in triple.f.items()}


def test_complete_sl2_rejects_wrong_degree():
    t = table_for("A2")
    g = grade(t, CartanElement.of((2, 2)))
    with pytest.raises(NotDegreeMinusOne):
        complete_sl2(t, g, [(1, 1)])  # characteristic value 4, not 2


def test_complete_sl2_unreachable_h():
    # f = f_alpha1 alone cannot complete against the principal characteristic
    t = table_for("A2")
    g = grade(t, CartanElement.of((2, 2)))
    with pytest.raises(NoSl2Completion):
        complete_sl2(t, g, [(1, 0)])


def test_even_grading_detection_on_records():
    evens = set()
    for rec in load_records():
        t = table_for(str(rec.algebra))
        g = grade(t, rec.h)
        if is_even_grading(g):
            evens.add((str(rec.algebra), rec.label))
    # every bundled record has a nonempty half-integer block
    assert evens == set()


def test_ad_block_respects_grading():
    rec = next(r for r in load_records() if str(r.algebra) == "G2" and r.label == "A1")
    t = table_for("G2")
    g = grade(t, rec.h)
    triple = complete_sl2(t, g, list(rec.f_roots))
    half = Fraction(1, 2)
    src = g.block(-half)
    dst = g.block(-half - 1)
    m = ad_block(t, triple.f, src, dst)
    assert len(m) == len(dst) and (not m or len(m[0]) == len(src))


def full_system_e(t, g, f_roots):
    """e from [e, f] = h over all dim(g) rows, summed from `basis_bracket`;
    also checks that the rows outside g_0 are all zero."""
    fi = {t.index[F(c)]: Fraction(1) for c in f_roots}
    src, dim = g.block(1), t.dimension
    m = [[Fraction(0)] * len(src) for _ in range(dim)]
    for c, j in enumerate(src):
        for i, ci in fi.items():
            # [b_j, f_i] = -[f_i, b_j]
            for k, coef in t.basis_bracket(i, j).items():
                m[k][c] -= ci * coef
    g0 = set(g.block(0))
    assert all(not any(row) for k, row in enumerate(m) if k not in g0)
    rhs = [Fraction(0)] * dim
    for k, ck in cartan_lie_element(t, g.characteristic).items():
        rhs[k] = ck
    sol = solve(m, rhs)
    return {j: sol[c] for c, j in enumerate(src) if sol[c]}


@pytest.mark.parametrize(
    "name,h,f_roots",
    [(str(r.algebra), r.h, list(r.f_roots)) for r in load_records()]
    + [("A2", CartanElement.of((2, 2)), [(1, 0), (0, 1)])],
    ids=[f"{r.algebra}-{r.label}" for r in load_records()] + ["A2-principal"],
)
def test_complete_sl2_g0_rows_match_full_system(name, h, f_roots):
    t = table_for(name)
    g = grade(t, h)
    assert complete_sl2(t, g, f_roots).e == full_system_e(t, g, f_roots)


@pytest.mark.parametrize("rec", load_records(), ids=lambda r: f"{r.algebra}-{r.label}")
def test_sl2_completion_and_hf_basis_match_gauss_jordan(rec):
    """complete_sl2 gives the triple that [f, e] = -h solves to with the
    Gauss-Jordan oracle on the g_1 -> g_0 block (summed from `basis_bracket`),
    and h0f_space the oracle's canonical kernel basis of the support roots of
    f, which fixes the candidate box `search_v` enumerates."""
    t = table_for(str(rec.algebra))
    g = grade(t, rec.h)
    triple = complete_sl2(t, g, list(rec.f_roots))
    f = {t.index[F(c)]: Fraction(1) for c in rec.f_roots}
    h = cartan_lie_element(t, g.characteristic)
    src, g0 = g.block(1), g.block(0)
    x = oracle.solve(bracket_block(t, f, src, g0), [-h.get(k, 0) for k in g0])
    e = {j: x[c] for c, j in enumerate(src) if x[c]}
    assert (triple.e, triple.h, triple.f) == (e, h, f)
    basis = oracle.nullspace([list(c) for c in rec.f_roots], t.rs.rank)
    assert [v.pairings for v in h0f_space(t, triple.f)] == [tuple(v) for v in basis]


def reference_degrees(t, characteristic):
    """Degree of each basis vector from the Fraction pairing: a(h)/2 on e_a."""
    out = []
    for b in t.basis:
        d = Fraction(0) if b.kind == "h" else pairing(t.rs, b.key, characteristic) / 2
        out.append(-d if b.kind == "f" else d)
    return out


def assert_grading_matches_reference(t, g, characteristic):
    ref = reference_degrees(t, characteristic)
    assert list(degrees(g)) == ref
    by_degree = {}
    for i, d in enumerate(ref):
        by_degree.setdefault(d, []).append(i)
    assert {d: g.block(d) for d in by_degree} == {d: tuple(ix) for d, ix in by_degree.items()}


@pytest.mark.parametrize("k", range(len(load_records())))
def test_grade_matches_fraction_pairing_on_records(k):
    rec = load_records()[k]
    t = table_for(str(rec.algebra))
    assert_grading_matches_reference(t, grade(t, rec.h), rec.h)


@settings(max_examples=30, deadline=None, database=None)
@given(
    name=st.sampled_from(["G2", "F4", "E6"]),
    data=st.data(),
)
def test_grade_matches_fraction_pairing_on_rational_characteristics(name, data):
    t = table_for(name)
    values = data.draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            min_size=t.rs.rank,
            max_size=t.rs.rank,
        )
    )
    x = CartanElement.of(values)
    assert_grading_matches_reference(t, grade(t, x), x)


def test_grade_rejects_a_characteristic_of_the_wrong_rank():
    with pytest.raises(DimensionMismatch):
        grade(table_for("A2"), CartanElement.of((1, 1, 1)))
