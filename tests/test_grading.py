from fractions import Fraction

import pytest

from wrat._linalg import rank as mat_rank, solve
from wrat.grading import (
    NoSl2Completion,
    NotDegreeMinusOne,
    ad_block,
    complete_sl2,
    grade,
    grade_by_weights,
    is_even_grading,
    verify_good_grading,
)
from wrat.liealg import F, LieElement, build_chevalley, cartan_lie_element
from wrat.orbits import load_records
from wrat.rootsys import CartanElement, SimpleType, build


def table_for(name):
    return build_chevalley(build(SimpleType.parse(name)))


def test_grade_halves_the_characteristic_values():
    t = table_for("A2")
    g = grade(t, CartanElement.of((2, 2)))
    # simple root vectors sit in degree 1, the highest root in degree 2
    degs = {str(b): d for b, d in zip(t.basis, g.degrees)}
    assert degs["e(1,0)"] == 1 and degs["e(0,1)"] == 1
    assert degs["e(1,1)"] == 2
    assert degs["f(1,1)"] == -2
    assert degs["h1"] == 0
    assert is_even_grading(g)


def test_grade_by_weights_does_not_halve():
    t = table_for("A2")
    g = grade_by_weights(t, CartanElement.of((1, 1)))
    degs = {str(b): d for b, d in zip(t.basis, g.degrees)}
    assert degs["e(1,0)"] == 1 and degs["e(1,1)"] == 2
    # the grading is `grade` at 2 * x0, so that is the characteristic it keeps
    assert g.characteristic == CartanElement.of((2, 2))
    gh = grade(t, CartanElement.of((1, 1)))
    degs_h = {str(b): d for b, d in zip(t.basis, gh.degrees)}
    assert degs_h["e(1,0)"] == Fraction(1, 2)


def test_block_dims_sum_to_dimension():
    for rec in load_records():
        t = table_for(str(rec.algebra))
        g = grade(t, rec.h)
        assert sum(len(g.block(j)) for j in g.block_dims()) == t.dimension


def test_record_gradings_are_good():
    for rec in load_records():
        t = table_for(str(rec.algebra))
        g = grade(t, rec.h)
        triple = complete_sl2(t, g, list(rec.f_roots))
        assert verify_good_grading(g, triple.f)


def test_kernel_dimension_identity():
    """dim ker ad(f) = dim g_0 + dim g_{1/2}, the fingerprint of a good
    grading; computed blockwise since f is homogeneous of degree -1."""
    for rec in load_records():
        t = table_for(str(rec.algebra))
        g = grade(t, rec.h)
        triple = complete_sl2(t, g, list(rec.f_roots))
        fi = t.to_indexed(triple.f)
        kernel_dim = 0
        for j in g.block_dims():
            src = g.block(j)
            dst = g.block(j - 1)
            m = ad_block(t, fi, src, dst)
            kernel_dim += len(src) - mat_rank(m)
        expect = len(g.block(0)) + len(g.block(Fraction(1, 2)))
        assert kernel_dim == expect, rec.label


def test_complete_sl2_success_and_bracket_relations():
    t = table_for("A2")
    g = grade(t, CartanElement.of((2, 2)))
    triple = complete_sl2(t, g, [(1, 0), (0, 1)])
    from wrat.liealg import bracket

    assert bracket(t, triple.e, triple.f) == triple.h
    assert bracket(t, triple.h, triple.e) == 2 * triple.e
    assert bracket(t, triple.h, triple.f) == -2 * triple.f


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
    fi = t.to_indexed(triple.f)
    half = Fraction(1, 2)
    src = g.block(-half)
    dst = g.block(-half - 1)
    m = ad_block(t, fi, src, dst)
    assert len(m) == len(dst) and (not m or len(m[0]) == len(src))


def full_system_e(t, g, f_roots):
    """e from [e, f] = h over all dim(g) rows, summed from `basis_bracket`;
    also checks that the rows outside g_0 are all zero."""
    fi = t.to_indexed(LieElement({F(c): Fraction(1) for c in f_roots}))
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
    for k, ck in t.to_indexed(cartan_lie_element(t, g.characteristic)).items():
        rhs[k] = ck
    sol = solve(m, rhs)
    return t.from_indexed({j: sol[c] for c, j in enumerate(src) if sol[c]})


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
