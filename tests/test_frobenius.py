import math
import struct
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from series_oracle import forms
from wrat import frobenius as fr
from wrat._linalg import over_common


def poly(*cs):
    return oracle.p_trim(cs)


def series(ell, terms):
    """The AnalyticMatrixSeries of terms written as Polys."""
    return fr.AnalyticMatrixSeries(ell, forms(terms))


def view(pair):
    """The Fraction view of a (numerators, denominator) pair, as a Poly."""
    nums, den = pair
    return tuple(Q(c, den) for c in nums)


def kernel(*pairs):
    """sum_k a_k b_k over pairs of Polys through the integer kernel
    `_kernel`, each operand over its least common denominator, as a Poly."""
    return view(fr._kernel([(over_common(a), over_common(b)) for a, b in pairs]))


def mul(a, b):
    return kernel((a, b))


def scale(c, a):
    return kernel(((c,), a))


def divide(a, b):
    """`_divmod` on two Polys, with the quotient and remainder as Polys."""
    quot, rem = fr._divmod(over_common(a), over_common(b))
    return view(quot), view(rem)


def majorant(p, z0, eps):
    """`_majorant` of the one polynomial p (a Poly) at z0 with radius eps."""
    return fr._majorant([fr.Form.of(p)], fr.DomainParams(Q(z0), Q(eps), Q(1)))


DOM = fr.DomainParams(z0=Q(0), epsilon=Q(1, 2), delta=Q(1, 2))


def truncation(a, domain):
    """`choose_truncation` given C as `contraction_solve` gives it."""
    return fr.choose_truncation(a, domain, a.majorant_norm(domain))


# -- polynomial layer ---------------------------------------------------------


def test_poly_arithmetic():
    a = poly(1, 2)       # 1 + 2z
    b = poly(0, 0, 3)    # 3z^2
    assert kernel(((1,), a), ((1,), b)) == (Q(1), Q(2), Q(3))
    assert mul(a, a) == (Q(1), Q(4), Q(4))
    assert scale(0, a) == ()
    assert fr.Form.of((Q(1), Q(0), Q(0))) == fr.Form([1], 1)
    assert fr.Form.of((Q(2, 3), Q(0), Q(-4, 9))) == fr.Form([6, 0, -4], 9)
    assert fr.Form.of(()) == fr.Form([], 1)
    assert fr.p_eval(fr.Form([1, 0, 1], 1), 2) == 5


def fraction_horner(p, x):
    """Horner on the Fraction coefficients of a Poly: the float reference
    for `p_eval` on a Form."""
    out = Q(0)
    for c in reversed(p):
        out = out * x + c
    return out


def bits(x):
    x = complex(x)
    return struct.pack("dd", x.real, x.imag)


coordinate = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4, 4))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(-2**80, 2**80), max_size=6), st.integers(1, 2**60), coordinate, coordinate)
def test_p_eval_matches_the_fraction_horner(nums, den, re, im):
    """`p_eval` divides each numerator by the denominator as it enters; at
    a complex point that is the same double pair, signed zeros included,
    as Horner on the Fractions, numerators past 2**53 too."""
    form = fr._reduced(list(nums), den)
    x = complex(re, im)
    assert bits(fr.p_eval(form, x)) == bits(fraction_horner(view(form), x))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-2**60, 2**60), max_size=3), min_size=4, max_size=4),
    st.integers(1, 2**20),
    st.fractions(-3, 3, max_denominator=5),
    st.fractions(-3, 3, max_denominator=5),
)
def test_truncation_samples_evaluate_as_the_fraction_horner(entries, den, re, im):
    """Each of `choose_truncation`'s boundary samples, for a domain read
    with a complex z0 = [re, im], evaluates A_0 bit for bit as the
    Fraction Horner does."""
    rows = [[[f"{c}/{den}" for c in e] for e in entries[i:i + 2]] for i in (0, 2)]
    system = fr.system_from_json({
        "ell": 2, "A": [[0, rows]],
        "domain": {"z0": [str(re), str(im)], "epsilon": "1/2", "delta": "1/2"},
    })
    seen = []
    p_eval = fr.p_eval

    def checked(p, x):
        got = p_eval(p, x)
        assert bits(got) == bits(fraction_horner(view(p), x))
        seen.append(x)
        return got

    with mock.patch.object(fr, "p_eval", checked):
        truncation(system["a"], system["domain"])
    assert len(seen) == 64 * 4 and all(type(x) is complex for x in seen)


# mixed denominators, negative and zero coefficients; a drawn tuple may be
# empty or end in zeros, which every result must drop
kernel_poly = st.lists(
    st.one_of(st.just(Q(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12)),
    max_size=4,
).map(tuple)


def assert_same_poly(got, want):
    assert got == want
    assert not got or got[-1] != 0
    assert all(type(c) is Q for c in got)


@settings(max_examples=300, deadline=None)
@given(kernel_poly, kernel_poly, kernel_poly, st.booleans(), st.fractions(max_denominator=7))
def test_kernel_matches_schoolbook_arithmetic(a, b, low, cancel, c):
    """Sums, differences, scaling and products through `_kernel`, against
    one-Fraction-at-a-time arithmetic; with cancel, b = low - a, so a + b cancels down to low."""
    if cancel:
        b = oracle.p_add(low, oracle.p_scale(-1, a))
    assert_same_poly(kernel(((1,), a), ((1,), b)), oracle.p_add(a, b))
    assert_same_poly(kernel(((1,), a), ((-1,), b)), oracle.p_add(a, oracle.p_scale(-1, b)))
    assert_same_poly(scale(c, a), oracle.p_scale(c, a))
    assert_same_poly(mul(a, b), oracle.p_mul(a, b))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(kernel_poly, min_size=9, max_size=9),
    st.lists(kernel_poly, min_size=3, max_size=3),
    st.booleans(),
)
def test_mat_vec_matches_schoolbook(entries, v, cancel):
    """M v as one `_kernel` call per row of three products; with cancel,
    v = (e, -d, 0) against the row (d, e, f), whose products cancel to zero."""
    m = [entries[:3], entries[3:6], entries[6:]]
    if cancel:
        v = [m[0][1], oracle.p_scale(-1, m[0][0]), ()]
    got = [kernel(*zip(row, v)) for row in m]
    for g, w in zip(got, oracle.mat_vec(m, v)):
        assert_same_poly(g, w)
    if cancel:
        assert got[0] == ()


@settings(max_examples=300, deadline=None)
@given(kernel_poly, kernel_poly.map(oracle.p_trim).filter(bool), kernel_poly, st.booleans())
def test_divmod_matches_schoolbook(a, b, q, exact):
    """Exact division against Fraction long division; with exact, a = q b,
    so the remainder is zero."""
    if exact:
        a = oracle.p_mul(q, b)
    quot, rem = divide(a, b)
    want_quot, want_rem = oracle.p_divmod(a, b)
    assert_same_poly(quot, want_quot)
    assert_same_poly(rem, want_rem)
    if exact:
        assert rem == () and quot == oracle.p_trim(q)


def test_taylor_shift_exact():
    # at eps = 1000 the majorant spells the |Taylor coefficients| as digit
    # groups: (z - 1)^2 expanded at z0 = 1 is w^2
    p = poly(1, -2, 1)
    assert majorant(p, 1, 1000) == 1_000_000
    # shifting by 0 is the identity: 1, 2, 1
    assert majorant(p, 0, 1000) == 1_002_001
    # (z + 1/2)^2 at z0 = -1/2 and at z0 = 3/2 (coefficients 4, 4, 1)
    q = poly(Q(1, 4), 1, 1)
    assert majorant(q, Q(-1, 2), 1000) == 1_000_000
    assert majorant(q, Q(3, 2), 1000) == 1_004_004


def test_majorant_values():
    # |1| + |-2| eps + |1| eps^2 at eps = 1/2
    p = poly(1, -2, 1)
    assert majorant(p, 0, Q(1, 2)) == 1 + 1 + Q(1, 4)
    # after shifting to the double root the majorant collapses
    assert majorant(p, 1, Q(1, 2)) == Q(1, 4)
    # a block sums its polynomials; the zero polynomial adds nothing
    dom = fr.DomainParams(Q(0), Q(1, 2), Q(1))
    block = [fr.Form.of(p), fr.Form([], 1), fr.Form([3], 4)]
    assert fr._majorant(block, dom) == Q(9, 4) + Q(3, 4)
    assert fr._majorant([], dom) == 0


def test_majorant_complex_center():
    # z at the center i has Taylor coefficients i, 1: |i| + 1/2 = 3/2, which
    # the real disc |z| <= 1/2 + |1| bounds exactly here
    out = majorant(poly(0, 1), 0, Q(1, 2) + 1)
    assert isinstance(out, Q) and out == Q(3, 2)
    obj = {"ell": 1, "domain": {"z0": ["1/3", "-1/5"], "epsilon": "1/2", "delta": "1/4"}}
    assert fr.system_from_json(obj)["domain"] == fr.DomainParams(Q(1, 3), Q(7, 10), Q(1, 4))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=5),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
    st.fractions(min_value=Q(1, 8), max_value=2, max_denominator=8),
)
def test_majorant_on_the_containing_real_disc_bounds_a_gaussian_center(cs, a, b, eps):
    """sum_t |c_t(a + ib)| eps^t <= `_majorant` of p at a with radius
    eps + |b|, the right side exact and the left in complex floats, with
    room for their rounding."""
    p = oracle.p_trim(cs)
    bound = majorant(p, a, eps + abs(b))
    assert isinstance(bound, Q)
    want = sum(abs(c) * float(eps) ** t for t, c in enumerate(taylor(p, complex(a, b))))
    assert want <= float(bound) * (1 + 1e-9) + 1e-12


majorant_poly = st.lists(
    st.one_of(st.just(Q(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6)),
    max_size=5,
).map(oracle.p_trim)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(majorant_poly, st.integers(1, 6)), max_size=4),
    st.one_of(st.just(Q(0)), st.fractions(min_value=-3, max_value=3, max_denominator=7)),
    st.fractions(min_value=Q(1, 9), max_value=3, max_denominator=9),
)
def test_integer_majorant_matches_the_fraction_reference(block, z0, eps):
    """`_majorant` of a block, in integers, against the Fraction Taylor shift
    and majorant of `series_oracle`: negative, zero and non-integer z0,
    non-integer eps, constant and zero polynomials, and forms not in lowest
    terms (numerators and denominator scaled by k, as `_kernel` leaves them)."""
    dom = fr.DomainParams(z0, eps, Q(1, 2))
    forms = [([k * x for x in nums], k * den) for (nums, den), k in
             ((over_common(p), k) for p, k in block)]
    got = fr._majorant(forms, dom)
    assert type(got) is Q
    assert got == sum((oracle.p_majorant(p, eps, z0) for p, _ in block), Q(0))


# -- exact recursion ----------------------------------------------------------


def a_scalar(c):
    return series(1, {0: [[poly(c)]]})


def test_recursion_simple_inhomogeneous():
    # q u' = u/2 + q has the unique series solution u = 2q
    a = a_scalar(Q(1, 2))
    sol = fr.recursion_solve(a, forms({1: [poly(1)]}), forms([[()], [poly(2)]]), 6)
    assert sol.coeffs[1] == [poly(2)]
    assert all(sol.coeffs[n] == [()] for n in (0, 2, 3, 4, 5))


def test_recursion_forced_seed_value():
    # n = 0 equation reads -u_0/2 = 0: a nonzero seed is inconsistent
    a = a_scalar(Q(1, 2))
    with pytest.raises(fr.SeedInconsistent) as exc:
        fr.recursion_solve(a, {}, forms([[poly(7)]]), 4)
    assert exc.value.n == 0


def test_recursion_resonance_regardless_of_seed():
    # A = 3: n = 3 hits the eigenvalue; rhs q^3 makes it unsolvable
    a = a_scalar(Q(3))
    f = forms({3: [poly(1)]})
    with pytest.raises(fr.Resonance) as exc:
        fr.recursion_solve(a, f, forms([[()], [()], [()], [()]]), 6)
    assert exc.value.n == 3
    with pytest.raises(fr.Resonance):
        fr.recursion_solve(a, f, forms([[()]]), 6)


def test_recursion_resonant_but_consistent_needs_seed():
    # A = 3 homogeneous: n = 3 is resonant; u_3 is free, so the seed decides
    a = a_scalar(Q(3))
    sol = fr.recursion_solve(a, {}, forms([[()], [()], [()], [poly(5)]]), 6)
    assert sol.coeffs[3] == [poly(5)]
    # without a seed covering n = 3 the non-uniqueness is a resonance
    with pytest.raises(fr.Resonance):
        fr.recursion_solve(a, {}, forms([[()]]), 6)


def test_recursion_with_z_dependent_tail():
    # q u' = z q u: u_n = z^n u_0 / n!
    a = series(1, {1: [[poly(0, 1)]]})
    sol = fr.recursion_solve(a, {}, forms([[poly(1)]]), 5)
    for n in range(5):
        expect = tuple([Q(0)] * n + [Q(1, math.factorial(n))])
        assert sol.coeffs[n] == [oracle.p_trim(expect)]


def test_recursion_z_dependent_a0():
    # [n - z N] with N nilpotent: A_0 = [[0, z], [0, 0]], f = (q, q)
    # n = 1: u - z N u = (1,1) => u = (1 + z, 1)
    a = series(2, {0: [[(), poly(0, 1)], [(), ()]]})
    f = forms({1: [poly(1), poly(1)]})
    sol = fr.recursion_solve(a, f, forms([[(), ()]]), 3)
    assert sol.coeffs[1] == [poly(1, 1), poly(1)]
    assert sol.coeffs[2] == [(), ()]


@pytest.mark.parametrize("route", ["recursion", "log"])
def test_series_steps_make_no_fraction(monkeypatch, route):
    """A solve on Form input makes no Fraction: A's terms, f, the seeds,
    A_0's expansion, the seed checks and every step are integer forms.
    The log route makes only its exponents' Fractions, the same few at
    every order."""
    made = []
    new = Q.__new__

    def counted(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    if route == "recursion":
        s = fr.system_from_json(oracle.recursion_system())

        def solve(order):
            fr.recursion_solve(s["a"], s["f"], s["seeds"], order)
    else:
        s = fr.system_from_json(oracle.log_system())

        def solve(order):
            fr.log_system_solve(s["a"], s["exponents"], s["log_order"], s["seeds"], order)

    monkeypatch.setattr(Q, "__new__", counted)
    counts = []
    for order in (4, 36):
        made.clear()
        solve(order)
        counts.append(len(made))
    monkeypatch.undo()
    if route == "recursion":
        assert counts == [0, 0]
    else:
        assert counts[0] == counts[1] <= 6, counts


def test_residual_vanishes_on_recursion_output():
    a = series(2, {0: [[(), poly(0, 1)], [(), ()]]})
    f = forms({1: [poly(1), poly(1)]})
    sol = fr.recursion_solve(a, f, forms([[(), ()]]), 5)
    assert fr.residual_norm(a, f, sol, DOM) == 0


# -- truncation and contraction -----------------------------------------------


def test_truncation_goldens():
    assert truncation(a_scalar(Q(5, 2)), DOM) == 6
    assert truncation(series(1, {}), DOM) == 1
    diag = series(2, {0: [[poly(1), ()], [(), poly(Q(3, 2))]]})
    assert truncation(diag, DOM) == 6


def test_contraction_takes_the_majorant_norm_once():
    a = a_scalar(Q(5, 2))
    norm = mock.patch.object(
        fr.AnalyticMatrixSeries, "majorant_norm", autospec=True,
        side_effect=fr.AnalyticMatrixSeries.majorant_norm,
    )
    with norm as spy:
        res = fr.contraction_solve(a, {}, forms([[()]]), DOM, 8, 25)
    assert spy.call_count == 1
    assert res.truncation == truncation(a, DOM) == 6
    assert res.ratio == Q(5, 2) / 6


def test_norm_bound_weighs_by_delta_powers():
    a = series(1, {0: [[poly(1)]], 2: [[poly(4)]]})
    # 1 * delta^0 + 4 * delta^2 at delta = 1/2
    assert a.majorant_norm(DOM) == 1 + 1


def test_contraction_converges_with_certified_rate():
    a = a_scalar(Q(1, 2))
    f = forms({3: [poly(1)]})
    seeds = forms([[()], [()]])
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
    f = forms({1: [poly(1)]})
    exact = fr.recursion_solve(a, f, forms([[()], [poly(2)]]), 8)
    res = fr.contraction_solve(a, f, forms([[()], [poly(2)]]), DOM, n_max=8, iterations=40)
    # tail coefficients of the fixed point are zero; iterates match exactly
    assert res.series.coeffs == exact.coeffs


def test_contraction_clamps_to_the_recursion_past_the_seeds(monkeypatch):
    a = a_scalar(Q(1, 2))
    f = forms({1: [poly(1)]})
    monkeypatch.setattr(fr, "choose_truncation", lambda *args: 3)
    res = fr.contraction_solve(a, f, forms([[()]]), DOM, n_max=8, iterations=10)
    exact = fr.recursion_solve(a, f, forms([[()]]), 8)
    assert res.series.coeffs == exact.coeffs
    # ||T 0|| counts the filled u_1 = 2 at weight delta: (1 - 1/6)^-1 (1/6)^10 * 1
    assert res.bound == Q(6, 5) * Q(1, 6) ** 10


def test_contraction_fails_when_ratio_too_big(monkeypatch):
    monkeypatch.setattr(fr, "choose_truncation", lambda *args: 2)
    with pytest.raises(fr.ContractionFails):
        fr.contraction_solve(a_scalar(Q(10)), {}, forms([[()]]), DOM, n_max=4, iterations=25)


# -- residual and contraction bound against sums taken here --------------------


def taylor(p, z0) -> list:
    """Taylor coefficients of p at z0, by repeated synthetic division by z - z0."""
    rest, out = list(p), []
    while rest:
        carry, quot = 0, []
        for c in reversed(rest):
            carry = carry * z0 + c
            quot.append(carry)
        out.append(quot.pop())
        rest = quot[::-1]
    return out


def weighted_majorant(blocks, dom):
    """sum_n (sum_p sum_t |c_t(p)| epsilon^t) delta^n over (n, polynomials) pairs."""
    return sum(
        sum(abs(c) * dom.epsilon**t for p in polys for t, c in enumerate(taylor(p, dom.z0)))
        * dom.delta**n
        for n, polys in blocks
    )


small_rat = st.fractions(min_value=-2, max_value=2, max_denominator=3)
small_poly = st.lists(small_rat, max_size=2).map(oracle.p_trim)
domains = st.builds(
    fr.DomainParams,
    z0=small_rat,
    epsilon=st.sampled_from([Q(1, 3), Q(1, 2), Q(1)]),
    delta=st.sampled_from([Q(1, 8), Q(1, 4), Q(1, 2)]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.fractions(min_value=0, max_value=50)), max_size=8),
    st.sampled_from([Q(0), Q(1, 8), Q(2, 3), Q(1), Q(7, 5)]),
)
def test_weighted_sum_in_integers(blocks, delta):
    """`_weighted` sums over one common denominator and makes one Fraction;
    its value is the Fraction sum of block * delta^n, repeats of n and an
    empty list included."""
    dom = fr.DomainParams(Q(0), Q(1), delta)
    made = []
    new = Q.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    with mock.patch.object(Q, "__new__", counted):
        got = fr._weighted(iter(blocks), dom)
    assert got == sum((b * delta**n for n, b in blocks), Q(0))
    assert type(got) is Q and len(made) == 1


@st.composite
def nonresonant_systems(draw):
    """1x1 or 2x2: A_0 constant upper triangular with non-integer diagonal, so
    det(nI - A_0) never vanishes; A_1, A_2 linear in z; a sparse f."""
    ell = draw(st.integers(1, 2))
    diag = st.sampled_from([Q(1, 2), Q(-1, 3), Q(2, 3), Q(-5, 2)])
    a0 = [[(draw(diag),) if i == j else (draw(small_poly) if i < j else ()) for j in range(ell)]
          for i in range(ell)]
    terms = {0: a0}
    for n in draw(st.sets(st.integers(1, 2), max_size=2)):
        terms[n] = [[draw(small_poly) for _ in range(ell)] for _ in range(ell)]
    f = {n: [draw(small_poly) for _ in range(ell)] for n in draw(st.sets(st.integers(0, 6), max_size=3))}
    return series(ell, terms), f


def residual_blocks(a, f, u):
    """(n, n u_n - f_n - sum_{m <= n} A_{n-m} u_m) with the oracle's arithmetic."""
    for n, un in enumerate(u):
        r = [oracle.p_scale(n, x) for x in un]
        for m in range(n + 1):
            if n - m in a.terms:
                prod = oracle.mat_vec(a.terms[n - m], u[m])
                r = [oracle.p_add(x, oracle.p_scale(-1, y)) for x, y in zip(r, prod)]
        for i, y in enumerate(f.get(n, [])):
            r[i] = oracle.p_add(r[i], oracle.p_scale(-1, y))
        yield n, r


@settings(max_examples=120, deadline=None)
@given(nonresonant_systems(), domains, st.integers(1, 6), st.data())
def test_residual_norm_of_a_perturbed_solution(system, dom, n_max, data):
    a, f = system
    u = [list(vec) for vec in fr.recursion_solve(a, forms(f), [], n_max).coeffs]
    assert fr.residual_norm(a, forms(f), oracle.vector_series(a.ell, u), dom) == 0
    n = data.draw(st.integers(0, n_max - 1))
    i = data.draw(st.integers(0, a.ell - 1))
    bump = data.draw(small_poly.filter(bool))
    u[n][i] = oracle.p_add(u[n][i], bump)
    got = fr.residual_norm(a, forms(f), oracle.vector_series(a.ell, u), dom)
    want = weighted_majorant(residual_blocks(a, f, u), dom)
    assert got == want, (got, want)
    # nI - A_0 is invertible, so the bumped index leaves a residual
    assert want > 0


@settings(max_examples=80, deadline=None)
@given(nonresonant_systems(), domains, st.integers(1, 8), st.integers(0, 6))
def test_contraction_bound_is_the_a_priori_estimate(system, dom, n_max, iterations):
    a, f = system
    res = fr.contraction_solve(a, forms(f), [], dom, n_max, iterations=iterations)
    n_cap = res.truncation
    clamped = oracle.recursion_solve(a, f, [], min(n_cap, n_max)).coeffs
    assert res.series.coeffs[: len(clamped)] == clamped
    c = weighted_majorant(((n, [oracle.as_poly(e) for row in m for e in row]) for n, m in a.terms.items()), dom)
    assert res.ratio == c / n_cap
    # ||T 0||: the clamped block, then each f_n past the clamp divided by n
    t0 = weighted_majorant(enumerate(clamped), dom) + sum(
        weighted_majorant([(n, f[n])], dom) / n for n in f if n_cap <= n < n_max
    )
    want = (1 - res.ratio) ** -1 * res.ratio**iterations * t0
    assert res.bound == want, (res.bound, want)


# -- logarithmic layers --------------------------------------------------------


def test_log_layers_manufactured_solution():
    """A = [[0,1],[0,0]] with exponent 0 and one log layer: the general
    solution is (x + c log q, c)."""
    a = series(2, {0: [[(), poly(1)], [(), ()]]})
    x0, c = Q(7), Q(3)
    seeds = forms({(0, 1): [[poly(c), ()]], (0, 0): [[poly(x0), poly(c)]]})
    layers = fr.log_system_solve(a, [Q(0)], 1, seeds, n_max=4)
    top = layers[(0, 1)]
    bottom = layers[(0, 0)]
    assert top.coeffs[0] == [poly(c), ()]
    assert bottom.coeffs[0] == [poly(x0), poly(c)]
    # all higher coefficients vanish
    assert all(v == [(), ()] for v in top.coeffs[1:])
    assert all(v == [(), ()] for v in bottom.coeffs[1:])


def test_log_layer_seed_must_match_structure():
    a = series(2, {0: [[(), poly(1)], [(), ()]]})
    # bottom layer first entry is forced by the top layer: -(k+1) phi_{0,1}
    # must equal (0 - A_0) phi_{0,0} at n = 0; a wrong second entry breaks it
    seeds = forms({(0, 1): [[poly(3), ()]], (0, 0): [[poly(7), poly(99)]]})
    with pytest.raises(fr.SeedInconsistent) as exc:
        fr.log_system_solve(a, [Q(0)], 1, seeds, n_max=3)
    assert exc.value.layer == (0, 0)


def test_log_exponent_congruence_rejected():
    a = series(1, {})
    with pytest.raises(fr.InvalidSystem):
        fr.log_system_solve(a, [Q(1, 2), Q(3, 2)], 0, {}, n_max=2)


def test_log_k0_reduces_to_recursion():
    a = a_scalar(Q(1, 2))
    plain = fr.recursion_solve(a, {}, forms([[()], [()]]), 5)
    logged = fr.log_system_solve(a, [Q(0)], 0, forms({(0, 0): [[()], [()]]}), n_max=5)
    assert logged[(0, 0)].coeffs == plain.coeffs


# -- JSON round trip ------------------------------------------------------------


def test_system_from_json_plain():
    obj = {
        "ell": 1,
        "A": [[0, [["1/2"]]]],
        "f": [[1, [[1]]]],
        "seeds": [[[0]], [[2]]],
    }
    sysd = fr.system_from_json(obj)
    assert sysd["a"].a0() == [[fr.Form([1], 2)]]
    assert sysd["f"] == {1: [fr.Form([1], 1)]}
    assert sysd["seeds"] == [[fr.Form([], 1)], [fr.Form([2], 1)]]
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


@pytest.mark.parametrize("obj", [
    {"ell": 1, "A": [[0, [["1/2"]]]], "seeds": [[[0]]],
     "domain": {"z0": 0, "epsilon": "1/2", "delta": "1/2"}},
    "not a system",
], ids=["with-domain", "undecodable"])
def test_solve_json_refuses_an_unknown_route(obj):
    """A route name it does not know is a caller's error, raised before
    the system is decoded, and not a bad system (BadInput)."""
    with pytest.raises(ValueError, match="unknown route 'contracton'") as exc:
        fr.solve_json(obj, "contracton", 4, 2)
    assert type(exc.value) is ValueError


def test_json_rejects_floats():
    with pytest.raises(ValueError):
        fr.system_from_json({"ell": 1, "A": [[0, [[0.5]]]]})


def test_poly_json_round_trip():
    p = fr.poly_from_json([1, "1/3", 0, -2, 0])
    assert p == fr.Form([3, 1, 0, -6], 3)
    assert fr.poly_to_json(p) == [1, "1/3", 0, -2]
    assert fr.poly_from_json(fr.poly_to_json(p)) == p
    assert fr.poly_from_json("-5/10") == fr.Form([-1], 2)
