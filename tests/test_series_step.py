"""The series step adj(nI - A_0) b / chi(n) against the linearized oracle."""
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from series_oracle import forms
from wrat import _linalg
from wrat import frobenius as fr


def poly(*cs):
    return oracle.p_trim(cs)


def outcome(solve, *args, **kwargs):
    """Coefficients on success, else (exception type, n, layer)."""
    try:
        res = solve(*args, **kwargs)
    except (fr.Resonance, fr.SeedInconsistent) as exc:
        return type(exc), exc.n, exc.layer
    if isinstance(res, dict):
        return {key: series.coeffs for key, series in res.items()}
    return res.coeffs


def assert_same_recursion(a, f, seeds, n_max):
    f, seeds = forms(f), forms(seeds)
    new = outcome(fr.recursion_solve, a, f, seeds, n_max)
    assert new == outcome(oracle.recursion_solve, a, f, seeds, n_max)
    return new


def oracle_log_solve(*args):
    with mock.patch.object(fr, "recursion_solve", oracle.recursion_solve):
        return fr.log_system_solve(*args)


# -- strategies -----------------------------------------------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def polys(max_deg=2):
    return st.lists(small, max_size=max_deg + 1).map(oracle.p_trim)


@st.composite
def systems(draw):
    """A_0 with entries of degree <= 2 and integer eigenvalues planted on its
    diagonal (often triangular, so chi(n) vanishes at those n), plus an A_1
    and an inhomogeneity."""
    ell = draw(st.integers(1, 3))
    a0 = [[draw(polys()) for _ in range(ell)] for _ in range(ell)]
    if draw(st.booleans()):
        for i in range(ell):
            for j in range(i):
                a0[i][j] = ()
            z_part = draw(st.sampled_from([(), poly(0, 1), poly(0, 0, -1)]))
            a0[i][i] = oracle.p_add((Q(draw(st.integers(0, 4))),), z_part)
    terms = {0: a0, 1: [[draw(polys(1)) for _ in range(ell)] for _ in range(ell)]}
    f = {
        n: [draw(polys(1)) for _ in range(ell)]
        for n in draw(st.sets(st.integers(0, 5), max_size=3))
    }
    return fr.AnalyticMatrixSeries(ell, forms(terms)), f


@st.composite
def seed_lists(draw, ell):
    zero = draw(st.booleans())
    return [
        [() if zero else draw(polys(1)) for _ in range(ell)]
        for _ in range(draw(st.integers(0, 4)))
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_recursion_matches_linearized_oracle(data):
    a, f = data.draw(systems())
    seeds = data.draw(seed_lists(a.ell))
    assert_same_recursion(a, f, seeds, data.draw(st.integers(0, 6)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_log_route_matches_linearized_oracle(data):
    a, _ = data.draw(systems())
    exponents = data.draw(
        st.lists(small, min_size=1, max_size=2, unique_by=lambda h: h % 1)
    )
    log_order = data.draw(st.integers(0, 1))
    seeds = {
        (j, k): forms(data.draw(seed_lists(a.ell)))
        for j in range(len(exponents))
        for k in range(log_order + 1)
    }
    args = (a, exponents, log_order, seeds, data.draw(st.integers(1, 4)))
    assert outcome(fr.log_system_solve, *args) == outcome(oracle_log_solve, *args)


# -- pinned cases -----------------------------------------------------------------


def test_chi_depends_on_z_divisible():
    # ell = 1, A_0 = z: chi(n) = n - z; f_0 = z and f_1 = 1 - z divide exactly
    a = fr.AnalyticMatrixSeries(1, forms({0: [[poly(0, 1)]]}))
    got = assert_same_recursion(a, {0: [poly(0, 1)], 1: [poly(1, -1)]}, [], 3)
    assert got == [[poly(-1)], [poly(1)], [()]]
    # ell = 2, A_0 = [[z, 1], [0, 1/2]]: chi(1) = (1 - z)(1/2)
    a = fr.AnalyticMatrixSeries(2, forms({0: [[poly(0, 1), poly(1)], [(), poly(Q(1, 2))]]}))
    got = assert_same_recursion(a, {1: [poly(0, -1), poly(Q(1, 2))]}, [[(), ()]], 2)
    assert got[1] == [poly(1), poly(1)]


def test_chi_depends_on_z_not_divisible():
    # ell = 1, A_0 = z, f_0 = 1: -z u_0 = 1 has no polynomial solution
    a = fr.AnalyticMatrixSeries(1, forms({0: [[poly(0, 1)]]}))
    assert assert_same_recursion(a, {0: [poly(1)]}, [], 2) == (fr.Resonance, 0, None)


@pytest.mark.parametrize(
    "a0,seed,solvable,unsolvable",
    [
        ([[(), ()], [(), poly(1)]], [(), poly(5)], [(), poly(1)], [poly(1), ()]),
        ([[poly(0, 1), ()], [(), ()]], [poly(5), ()], [poly(0, 1), ()], [(), poly(1)]),
        # row 2 of A_0 is 3/2 row 1; the denominators differ within each
        # equation (2, 3 and 4, 2), between the equations, and between A_0
        # and each right-hand side
        (
            [[poly(Q(1, 2)), poly(0, Q(1, 3))], [poly(Q(3, 4)), poly(0, Q(1, 2))]],
            [poly(5), ()],
            [poly(1), poly(Q(3, 2))],
            [poly(Q(1, 7)), poly(0, Q(1, 5))],
        ),
    ],
    ids=["constant", "z-dependent", "mixed-denominators"],
)
def test_chi_zero_at_a_seeded_index(a0, seed, solvable, unsolvable):
    # chi(0) = det(-A_0) = 0 in Q[z], and the seed misses the n = 0 relation
    a = fr.AnalyticMatrixSeries(2, {0: forms(a0)})
    for rhs in ([(), ()], solvable):
        got = assert_same_recursion(a, {0: rhs}, [seed], 2)
        assert got == (fr.SeedInconsistent, 0, None)
    assert assert_same_recursion(a, {0: unsolvable}, [seed], 2) == (fr.Resonance, 0, None)


# -- no linear system per coefficient -------------------------------------------------


def test_series_step_runs_no_linear_solve(monkeypatch):
    calls = {"solve": 0, "nullspace": 0}

    def counted(name):
        original = getattr(_linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(_linalg, name, counted(name))
    rec = fr.system_from_json(oracle.recursion_system())
    sol = fr.recursion_solve(rec["a"], rec["f"], rec["seeds"], 20)
    log = fr.system_from_json(oracle.log_system())
    layers = fr.log_system_solve(log["a"], log["exponents"], log["log_order"], log["seeds"], 20)
    assert calls == {"solve": 0, "nullspace": 0}
    assert len(sol.coeffs) == 20 and len(layers) == 4
