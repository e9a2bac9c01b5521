from fractions import Fraction

import pytest

from wrat._linalg import rank as mat_rank
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
from wrat.liealg import build_chevalley
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
