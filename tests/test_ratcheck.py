from fractions import Fraction

import pytest
import sympy

from wrat.liealg import LieElement, bracket, build_chevalley
from wrat.orbits import (
    ClassicalPartition,
    build_classical,
    classical_basis,
    load_records,
    lookup_exceptional,
)
from wrat.ratcheck import (
    NOT_FOUND,
    GradingNotEven,
    GradingNotGood,
    SearchConfig,
    VNotInCentralizer,
    check_classical,
    check_record,
    exact_condition,
    fast_condition,
    h0f_space,
    realize_record,
    search_v,
    verdict_to_json,
    verify_good_even_shortcut,
    verify_self_contragredient,
    verify_self_contragredient_classical,
)
from wrat.rootsys import CartanElement, SimpleType, build

# the four bundled records whose fast route needs explicit injectivity
# witnesses, with the eigenvalue sets they must report
EXPECTED_FALLBACKS = {
    ("F4", "A2+A1~"): {Fraction(-2), Fraction(2)},
    ("E8", "2A2+2A1"): {Fraction(-2), Fraction(2)},
    ("E8", "A4+A3"): {Fraction(-2), Fraction(2), Fraction(-5, 2), Fraction(5, 2)},
    ("E8", "A6+A1"): {Fraction(-2), Fraction(2)},
}


def table_for(name):
    return build_chevalley(build(SimpleType.parse(name)))


def test_all_records_pass_exact():
    for rec in load_records():
        v = check_record(rec, "exact")
        assert v.status == "pass", (str(rec.algebra), rec.label)
        assert v.evidence  # the kernel is never empty (f itself sits in it)
        assert all(e.admissible for e in v.evidence)


def test_fast_agrees_with_exact_everywhere():
    for rec in load_records():
        fast = check_record(rec, "fast")
        exact = check_record(rec, "exact")
        assert fast.status == exact.status == "pass"
        key = (str(rec.algebra), rec.label)
        got = {w.eigenvalue for w in fast.fallbacks}
        assert got == EXPECTED_FALLBACKS.get(key, set()), key


def test_fallback_witnesses_are_genuine():
    """Each reported witness must actually be mapped injectively: bracketing
    with f reproduces exactly the recorded image support."""
    for rec in load_records():
        table, grading, f, _ = realize_record(rec)
        v = fast_condition(table, grading, f, rec.v)
        for w in v.fallbacks:
            img = bracket(table, f, LieElement({w.element: Fraction(1)}))
            assert not img.is_zero()
            assert set(img.support()) == set(w.image_support)


def test_specific_witness_goldens():
    rec = lookup_exceptional("F4", 4)
    table, grading, f, _ = realize_record(rec)
    v = fast_condition(table, grading, f, rec.v)
    by_lam = {w.eigenvalue: w for w in v.fallbacks}
    assert str(by_lam[Fraction(2)].element) == "e(1,1,0,0)"
    assert [str(b) for b in by_lam[Fraction(2)].image_support] == ["f(0,1,2,0)"]
    assert str(by_lam[Fraction(-2)].element) == "f(1,1,0,0)"
    assert [str(b) for b in by_lam[Fraction(-2)].image_support] == ["f(1,2,2,2)"]

    rec = lookup_exceptional("E8", 5)
    table, grading, f, _ = realize_record(rec)
    v = fast_condition(table, grading, f, rec.v)
    rows = {(str(w.eigenvalue), str(w.element)) for w in v.fallbacks}
    assert rows == {
        ("-5/2", "f(1,1,1,1,1,1,0,0)"),
        ("-2", "f(0,0,0,0,1,1,0,0)"),
        ("-2", "f(1,0,1,0,0,0,0,0)"),
        ("2", "e(0,0,0,0,1,1,0,0)"),
        ("2", "e(1,0,1,0,0,0,0,0)"),
        ("5/2", "f(0,0,0,1,0,0,0,0)"),
    }


def test_both_route_merges():
    rec = lookup_exceptional("E8", 5)
    v = check_record(rec, "both")
    assert v.method == "both"
    assert v.status == "pass"
    assert v.fallbacks  # fast contributes the witnesses
    assert v.evidence   # exact contributes the full evidence table


def test_evidence_rows_match_known_g2_spectrum():
    rec = lookup_exceptional("G2", 3)
    v = check_record(rec, "exact")
    rows = {(str(e.j), str(e.eigenvalue)): e.multiplicity for e in v.evidence}
    assert rows[("1/2", "-3/2")] == 1
    assert rows[("1/2", "3/2")] == 1
    assert rows[("1", "0")] == 1
    assert sum(rows.values()) == 8  # dim g_0 + dim g_{1/2} for this grading


def test_v_must_centralize_f():
    rec = lookup_exceptional("G2", 3)
    table, grading, f, _ = realize_record(rec)
    with pytest.raises(VNotInCentralizer):
        exact_condition(table, grading, f, CartanElement.of((1, 0)))


def test_h0f_space_dimensions():
    for alg, q, expect in (("G2", 3, 1), ("E6", 3, 1)):
        rec = lookup_exceptional(alg, q)
        table, grading, f, _ = realize_record(rec)
        assert len(h0f_space(table, f)) == expect


def test_search_finds_g2_direction():
    rec = lookup_exceptional("G2", 3)
    table, grading, f, _ = realize_record(rec)
    v = search_v(table, grading, f)
    assert v is not NOT_FOUND
    # any hit must be a rational multiple of (-3/2, 1)
    a, b = v.pairings
    assert a * Fraction(1) == Fraction(-3, 2) * b and b != 0


def test_search_needs_half_integers_on_e8_a4a3():
    rec = lookup_exceptional("E8", 5)
    table, grading, f, _ = realize_record(rec)
    out = search_v(table, grading, f, SearchConfig(denominator_bound=1, coefficient_bound=4))
    assert out is NOT_FOUND


# search-v outputs pinned at the four benchmark records and at E8 4A1
SEARCH_GOLDENS = [
    ("E6", 2, ("-1", "-1", "0", "1/2", "0", "1")),
    ("F4", 2, ("-3/2", "1", "0", "0")),
    ("E8", 4, ("-1/2", "-1", "1", "0", "-1/2", "1", "0", "-1")),
    ("E7", 3, ("-1", "-1", "-1/2", "1", "1", "-3/2", "1")),
    ("E8", 2, ("-1", "-1/2", "0", "0", "1", "0", "0", "-1")),
]


@pytest.mark.parametrize("alg,q,want", SEARCH_GOLDENS, ids=lambda x: str(x))
def test_search_v_goldens(alg, q, want):
    rec = lookup_exceptional(alg, q)
    table, grading, f, _ = realize_record(rec)
    v = search_v(table, grading, f)
    assert tuple(str(p) for p in v.pairings) == want
    assert exact_condition(table, grading, f, v).status == "pass"


def test_search_even_grading_returns_zero():
    # principal grading of A2 is even: v = 0 is immediate
    t = table_for("A2")
    from wrat.grading import complete_sl2, grade

    g = grade(t, CartanElement.of((2, 2)))
    triple = complete_sl2(t, g, [(1, 0), (0, 1)])
    v = search_v(t, g, triple.f)
    assert v == CartanElement.zero(2)


def test_shortcut_accepts_principal_a2():
    t = table_for("A2")
    verdict = verify_good_even_shortcut(
        t, CartanElement.of((2, 2)), [(1, 0), (0, 1)], CartanElement.of((1, 1))
    )
    assert verdict.status == "pass"


def test_shortcut_rejects_bad_weight():
    t = table_for("A2")
    with pytest.raises(GradingNotGood):
        verify_good_even_shortcut(
            t, CartanElement.of((2, 2)), [(1, 0), (0, 1)], CartanElement.of((1, 0))
        )


def test_shortcut_rejects_odd_auxiliary():
    # x0 with a half-integer level cannot define an even auxiliary grading
    t = table_for("A2")
    with pytest.raises((GradingNotEven, GradingNotGood)):
        verify_good_even_shortcut(
            t,
            CartanElement.of((2, 2)),
            [(1, 0), (0, 1)],
            CartanElement.of((Fraction(1), Fraction(1, 2))),
        )


def test_self_contragredient_all_records():
    for rec in load_records():
        table, grading, f, _ = realize_record(rec)
        assert verify_self_contragredient(table, grading, f), rec.label


def test_classical_checks_pass():
    for fam, parts in (("sp", [3, 3, 2]), ("so", [5, 5, 4, 4])):
        real = build_classical(ClassicalPartition.from_parts(fam, parts))
        v = check_classical(real)
        assert v.status == "pass"
        assert v.evidence
        assert verify_self_contragredient_classical(real)


def test_classical_blocks_against_sympy():
    """Kernel multiplicities recomputed with dense sympy matrices over the
    full N x N coordinates, no representative-position shortcuts."""
    real = build_classical(ClassicalPartition.from_parts("sp", [3, 3, 2]))
    n = real.size
    f = sympy.Matrix([[sympy.Rational(x) for x in row] for row in real.f])
    basis = classical_basis(real)

    def unit(i, j, c=1):
        m = sympy.zeros(n, n)
        m[i, j] = sympy.Rational(c)
        return m

    from collections import defaultdict

    blocks = defaultdict(list)
    for (i, j), partner, c in basis:
        m = unit(i, j)
        if partner is not None:
            m += unit(partner[0], partner[1], c)
        d = Fraction(real.h_diag[i] - real.h_diag[j], 2)
        lam = real.v_diag[i] - real.v_diag[j]
        blocks[(d, lam)].append(m)

    mult = {}
    for (d, lam), elts in blocks.items():
        cols = []
        for m in elts:
            img = f * m - m * f
            cols.append([img[i, j] for i in range(n) for j in range(n)])
        a = sympy.Matrix(cols).T
        k_dim = len(elts) - a.rank()
        if k_dim:
            mult[(-d, lam)] = k_dim

    v = check_classical(real)
    ours = {(e.j, e.eigenvalue): e.multiplicity for e in v.evidence}
    assert ours == mult


def test_verdict_json_shape():
    rec = lookup_exceptional("E8", 5)
    v = check_record(rec, "both")
    d = verdict_to_json("E8", rec.label, v)
    assert d["algebra"] == "E8" and d["label"] == "A4+A3"
    assert d["status"] == "pass"
    assert all(set(r) == {"j", "lambda", "mult", "admissible"} for r in d["evidence"])
    assert all(
        set(w) == {"eigenvalue", "element", "image_support"} for w in d["fallbacks"]
    )
    assert any(w["eigenvalue"] == "-5/2" for w in d["fallbacks"])
