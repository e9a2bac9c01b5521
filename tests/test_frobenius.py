import cmath
import math
from fractions import Fraction as Q

import pytest

from wrat import frobenius as fr


def poly(*cs):
    return fr.p_trim(cs)


DOM = fr.DomainParams(z0=Q(0), epsilon=Q(1, 2), delta=Q(1, 2))


# -- polynomial layer ---------------------------------------------------------


def test_poly_arithmetic():
    a = poly(1, 2)       # 1 + 2z
    b = poly(0, 0, 3)    # 3z^2
    assert fr.p_add(a, b) == (Q(1), Q(2), Q(3))
    assert fr.p_mul(a, a) == (Q(1), Q(4), Q(4))
    assert fr.p_scale(0, a) == ()
    assert fr.p_trim((Q(1), Q(0), Q(0))) == (Q(1),)
    assert fr.p_eval(poly(1, 0, 1), Q(2)) == 5


def test_taylor_shift_exact():
    # (z - 1)^2 expanded at z0 = 1 is w^2
    p = poly(1, -2, 1)
    assert fr.p_shift(p, Q(1)) == (Q(0), Q(0), Q(1))
    # shifting by 0 is the identity
    assert fr.p_shift(p, Q(0)) == p


def test_majorant_values():
    # |1| + |-2| eps + |1| eps^2 at eps = 1/2
    p = poly(1, -2, 1)
    assert fr.p_majorant(p, Q(1, 2), Q(0)) == 1 + 1 + Q(1, 4)
    # after shifting to the double root the majorant collapses
    assert fr.p_majorant(p, Q(1, 2), Q(1)) == Q(1, 4)


def test_majorant_complex_center():
    p = poly(0, 1)  # z
    out = fr.p_majorant(p, Q(1, 2), complex(0, 1))
    assert isinstance(out, float)
    assert math.isclose(out, 1.0 + 0.5)


# -- exact recursion ----------------------------------------------------------


def a_scalar(c):
    return fr.AnalyticMatrixSeries(1, {0: [[poly(c)]]})


def test_recursion_simple_inhomogeneous():
    # q u' = u/2 + q has the unique series solution u = 2q
    a = a_scalar(Q(1, 2))
    sol = fr.recursion_solve(a, {1: [poly(1)]}, [[()], [poly(2)]], 6)
    assert sol.coeffs[1] == [poly(2)]
    assert all(sol.coeffs[n] == [()] for n in (0, 2, 3, 4, 5))


def test_recursion_forced_seed_value():
    # n = 0 equation reads -u_0/2 = 0: a nonzero seed is inconsistent
    a = a_scalar(Q(1, 2))
    with pytest.raises(fr.SeedInconsistent) as exc:
        fr.recursion_solve(a, {}, [[poly(7)]], 4)
    assert exc.value.n == 0


def test_recursion_resonance_regardless_of_seed():
    # A = 3: n = 3 hits the eigenvalue; rhs q^3 makes it unsolvable
    a = a_scalar(Q(3))
    f = {3: [poly(1)]}
    with pytest.raises(fr.Resonance) as exc:
        fr.recursion_solve(a, f, [[()], [()], [()], [()]], 6)
    assert exc.value.n == 3
    with pytest.raises(fr.Resonance):
        fr.recursion_solve(a, f, [[()]], 6)


def test_recursion_resonant_but_consistent_needs_seed():
    # A = 3 homogeneous: n = 3 is resonant; u_3 is free, so the seed decides
    a = a_scalar(Q(3))
    sol = fr.recursion_solve(a, {}, [[()], [()], [()], [poly(5)]], 6)
    assert sol.coeffs[3] == [poly(5)]
    # without a seed covering n = 3 the non-uniqueness is a resonance
    with pytest.raises(fr.Resonance):
        fr.recursion_solve(a, {}, [[()]], 6)


def test_recursion_with_z_dependent_tail():
    # q u' = z q u: u_n = z^n u_0 / n!
    a = fr.AnalyticMatrixSeries(1, {1: [[poly(0, 1)]]})
    sol = fr.recursion_solve(a, {}, [[poly(1)]], 5)
    for n in range(5):
        expect = tuple([Q(0)] * n + [Q(1, math.factorial(n))])
        assert sol.coeffs[n] == [fr.p_trim(expect)]


def test_recursion_z_dependent_a0():
    # [n - z N] with N nilpotent: A_0 = [[0, z], [0, 0]], f = (q, q)
    # n = 1: u - z N u = (1,1) => u = (1 + z, 1)
    a = fr.AnalyticMatrixSeries(2, {0: [[(), poly(0, 1)], [(), ()]]})
    f = {1: [poly(1), poly(1)]}
    sol = fr.recursion_solve(a, f, [[(), ()]], 3)
    assert sol.coeffs[1] == [poly(1, 1), poly(1)]
    assert sol.coeffs[2] == [(), ()]


def test_residual_vanishes_on_recursion_output():
    a = fr.AnalyticMatrixSeries(2, {0: [[(), poly(0, 1)], [(), ()]]})
    f = {1: [poly(1), poly(1)]}
    sol = fr.recursion_solve(a, f, [[(), ()]], 5)
    assert fr.residual_norm(a, f, sol, DOM) == 0


# -- truncation and contraction -----------------------------------------------


def test_truncation_goldens():
    assert fr.choose_truncation(a_scalar(Q(5, 2)), DOM) == 6
    assert fr.choose_truncation(fr.AnalyticMatrixSeries(1, {}), DOM) == 1
    diag = fr.AnalyticMatrixSeries(2, {0: [[poly(1), ()], [(), poly(Q(3, 2))]]})
    assert fr.choose_truncation(diag, DOM) == 6


def test_norm_bound_weighs_by_delta_powers():
    a = fr.AnalyticMatrixSeries(1, {0: [[poly(1)]], 2: [[poly(4)]]})
    # 1 * delta^0 + 4 * delta^2 at delta = 1/2
    assert fr.norm_bound(a, DOM) == 1 + 1


def test_contraction_converges_with_certified_rate():
    a = a_scalar(Q(1, 2))
    f = {3: [poly(1)]}
    seeds = [[()], [()]]
    res = fr.contraction_solve(a, f, seeds, DOM, n_max=8, iterations=12)
    assert res.truncation == 2
    assert res.ratio == Q(1, 4)
    # distances contract at least as fast as the certified ratio, exactly
    nz = [d for d in res.distances if d]
    for prev, cur in zip(nz, nz[1:]):
        assert cur <= res.ratio * prev
    # a-priori bound: (1 - 1/4)^-1 (1/4)^12 * ||T0||, with ||T0|| = 1/24
    assert res.bound == Q(4, 3) * Q(1, 4) ** 12 * Q(1, 24)
    # the iterate approaches the true fixed point u_3 = 2/5
    got = res.series.coeffs[3][0][0]
    assert abs(got - Q(2, 5)) <= res.bound


def test_contraction_matches_recursion_where_both_apply():
    a = a_scalar(Q(1, 2))
    f = {1: [poly(1)]}
    exact = fr.recursion_solve(a, f, [[()], [poly(2)]], 8)
    res = fr.contraction_solve(a, f, [[()], [poly(2)]], DOM, n_max=8, iterations=40)
    # tail coefficients of the fixed point are zero; iterates match exactly
    assert res.series.coeffs == exact.coeffs


def test_contraction_clamps_to_the_recursion_past_the_seeds():
    a = a_scalar(Q(1, 2))
    f = {1: [poly(1)]}
    res = fr.contraction_solve(a, f, [[()]], DOM, n_max=8, truncation=3, iterations=10)
    exact = fr.recursion_solve(a, f, [[()]], 8)
    assert res.series.coeffs == exact.coeffs
    # ||T 0|| counts the filled u_1 = 2 at weight delta: (1 - 1/6)^-1 (1/6)^10 * 1
    assert res.bound == Q(6, 5) * Q(1, 6) ** 10


def test_contraction_fails_when_ratio_too_big():
    with pytest.raises(fr.ContractionFails):
        fr.contraction_solve(a_scalar(Q(10)), {}, [[()]], DOM, n_max=4, truncation=2)


# -- logarithmic layers --------------------------------------------------------


def test_log_layers_manufactured_solution():
    """A = [[0,1],[0,0]] with exponent 0 and one log layer: the general
    solution is (x + c log q, c)."""
    a = fr.AnalyticMatrixSeries(2, {0: [[(), poly(1)], [(), ()]]})
    x0, c = Q(7), Q(3)
    seeds = {(0, 1): [[poly(c), ()]], (0, 0): [[poly(x0), poly(c)]]}
    sol = fr.log_system_solve(a, [Q(0)], 1, seeds, n_max=4, radius=Q(1))
    top = sol.layers[(0, 1)]
    bottom = sol.layers[(0, 0)]
    assert top.coeffs[0] == [poly(c), ()]
    assert bottom.coeffs[0] == [poly(x0), poly(c)]
    # all higher coefficients vanish
    assert all(v == [(), ()] for v in top.coeffs[1:])
    assert all(v == [(), ()] for v in bottom.coeffs[1:])


def test_log_layer_seed_must_match_structure():
    a = fr.AnalyticMatrixSeries(2, {0: [[(), poly(1)], [(), ()]]})
    # bottom layer first entry is forced by the top layer: -(k+1) phi_{0,1}
    # must equal (0 - A_0) phi_{0,0} at n = 0; a wrong second entry breaks it
    seeds = {(0, 1): [[poly(3), ()]], (0, 0): [[poly(7), poly(99)]]}
    with pytest.raises(fr.SeedInconsistent) as exc:
        fr.log_system_solve(a, [Q(0)], 1, seeds, n_max=3, radius=Q(1))
    assert exc.value.layer == (0, 0)


def test_log_exponent_congruence_rejected():
    a = fr.AnalyticMatrixSeries(1, {})
    with pytest.raises(fr.InvalidSystem):
        fr.log_system_solve(a, [Q(1, 2), Q(3, 2)], 0, {}, n_max=2, radius=Q(1))


def test_log_k0_reduces_to_recursion():
    a = a_scalar(Q(1, 2))
    plain = fr.recursion_solve(a, {}, [[()], [()]], 5)
    logged = fr.log_system_solve(
        a, [Q(0)], 0, {(0, 0): [[()], [()]]}, n_max=5, radius=Q(1)
    )
    assert logged.layers[(0, 0)].coeffs == plain.coeffs


def test_evaluate_and_branch_guards():
    a = fr.AnalyticMatrixSeries(2, {0: [[(), poly(1)], [(), ()]]})
    x0, c = Q(7), Q(3)
    seeds = {(0, 1): [[poly(c), ()]], (0, 0): [[poly(x0), poly(c)]]}
    sol = fr.log_system_solve(a, [Q(0)], 1, seeds, n_max=4, radius=Q(1))
    q = 0.25
    L = cmath.log(q)
    val = fr.evaluate(sol, 0, q, L)
    assert math.isclose(val[0].real, float(x0) + float(c) * math.log(q))
    assert math.isclose(val[1].real, float(c))
    # a shifted branch changes the value by 2*pi*i*c in the first entry
    val2 = fr.evaluate(sol, 0, q, L + 2j * cmath.pi)
    assert math.isclose(val2[0].imag, 2 * math.pi * float(c), rel_tol=1e-9)
    with pytest.raises(fr.BranchMismatch):
        fr.evaluate(sol, 0, q, L + 0.1)
    with pytest.raises(fr.OutOfRadius):
        fr.evaluate(sol, 0, 1.5, cmath.log(1.5))
    # q = 0 has no branch at all, so the branch guard fires first
    with pytest.raises(fr.BranchMismatch):
        fr.evaluate(sol, 0, 0.0, L)


def test_fractional_exponent_evaluation():
    # q u' = (1/2) u with exponent 1/2: u = q^(1/2) exactly
    a = a_scalar(Q(1, 2))
    sol = fr.log_system_solve(
        a, [Q(1, 2)], 0, {(0, 0): [[poly(1)]]}, n_max=3, radius=Q(2)
    )
    q = 0.49
    val = fr.evaluate(sol, 0, q, cmath.log(q))
    assert math.isclose(val[0].real, 0.7)


# -- JSON round trip ------------------------------------------------------------


def test_system_from_json_plain():
    obj = {
        "ell": 1,
        "A": [[0, [["1/2"]]]],
        "f": [[1, [[1]]]],
        "seeds": [[[0]], [[2]]],
    }
    sysd = fr.system_from_json(obj)
    assert sysd["a"].a0() == [[(Q(1, 2),)]]
    assert sysd["f"] == {1: [(Q(1),)]}
    assert sysd["seeds"] == [[()], [(Q(2),)]]
    assert sysd["exponents"] == [] and sysd["domain"] is None


def test_system_from_json_log_and_domain():
    obj = {
        "ell": 2,
        "radius": "3/2",
        "A": [[0, [[0, 1], [0, 0]]]],
        "exponents": ["1/2"],
        "K": 1,
        "seeds": {"0:1": [[[3], [0]]], "0:0": [[[7], [3]]]},
        "domain": {"z0": 0, "epsilon": "1/2", "delta": "1/4"},
    }
    sysd = fr.system_from_json(obj)
    assert sysd["radius"] == Q(3, 2)
    assert sysd["exponents"] == [Q(1, 2)]
    assert (0, 1) in sysd["seeds"] and (0, 0) in sysd["seeds"]
    assert sysd["domain"].delta == Q(1, 4)


def test_json_rejects_floats():
    with pytest.raises(ValueError):
        fr.system_from_json({"ell": 1, "A": [[0, [[0.5]]]]})


def test_poly_json_round_trip():
    p = poly(1, "1/3", 0, -2)
    assert fr.poly_from_json(fr.poly_to_json(p)) == p
