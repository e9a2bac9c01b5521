"""The linearized series step: the reference for `frobenius.recursion_solve`.

Each coefficient u_n solves [n I - A_0(z)] u_n = b_n(z) as one linear system
over the Taylor coefficients of u_n, up to the degree bound
(ell - 1) * deg M + deg b; a nonempty nullspace of that system means the
solution is not unique.  `frobenius.recursion_solve` computes the same step
as adj(nI - A_0) b / det(nI - A_0) and must agree with this one on every
input: the same coefficients, or the same exception type, index and layer.
Its polynomial arithmetic is schoolbook Fraction code of its own, and it
reads A's terms, f and the seeds (Forms or Polys) through `as_poly`, so a
fault in the integer kernel of `frobenius` cannot pass through its own
reference.

Also here: the Fraction Taylor shift and majorant, the reference for
`frobenius._majorant`, and systems shaped like the benchmark's two
`series` inputs.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Mapping

from wrat import _linalg
from wrat.frobenius import (
    AnalyticMatrixSeries,
    Form,
    Poly,
    Resonance,
    SeedInconsistent,
    VectorSeries,
)


# -- schoolbook Fraction arithmetic, independent of `frobenius`'s int kernel --


def p_trim(p) -> Poly:
    out = [Fraction(c) for c in p]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def vector_series(ell: int, coeffs) -> VectorSeries:
    """The series of the Poly vectors coeffs: each entry held as the Form
    of its Fractions over their least common denominator, which is reduced
    as they are."""
    forms = []
    for vec in coeffs:
        row = []
        for p in vec:
            p = p_trim(p)
            den = lcm(1, *[c.denominator for c in p])
            row.append(Form([int(c * den) for c in p], den))
        forms.append(row)
    return VectorSeries(ell, forms)


def as_poly(p) -> Poly:
    """p, or a `frobenius.Form` (numerators, denominator), as a Poly: A's
    terms are Forms, and so are f and the seeds read from JSON and each
    log layer's inhomogeneity."""
    if isinstance(p, Form):
        nums, den = p
        p = [Fraction(c, den) for c in nums]
    return p_trim(p)


def forms(x):
    """x with each Poly in it, inside lists and dict values, made a `Form`
    by `Form.of`: the solver's inputs from the Polys a test writes."""
    if isinstance(x, list):
        return [forms(e) for e in x]
    if isinstance(x, dict):
        return {k: forms(v) for k, v in x.items()}
    return x if isinstance(x, Form) else Form.of(x)


def p_add(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * max(len(a), len(b))
    for p in (a, b):
        for i, c in enumerate(p):
            out[i] += c
    return p_trim(out)


def p_scale(c, a: Poly) -> Poly:
    return p_trim([Fraction(c) * x for x in a])


def p_mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * y
    return p_trim(out)


def p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division by a nonzero b, one Fraction coefficient at a time."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for t in reversed(range(len(quot))):
        quot[t] = rem[t + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            rem[t + i] -= quot[t] * c
    return p_trim(quot), p_trim(rem)


def p_shift(p: Poly, z0: Fraction) -> Poly:
    """Coefficients of p(z0 + w) as a polynomial in w (binomial expansion)."""
    out = [Fraction(0)] * len(p)
    for m, c in enumerate(p):
        zp = Fraction(1)
        for k in range(m + 1):
            out[m - k] += comb(m, k) * c * zp
            zp *= z0
    return tuple(out)


def p_majorant(p: Poly, eps: Fraction, z0: Fraction) -> Fraction:
    """sum_t |c_t| eps^t for the Taylor coefficients of p at z0."""
    return sum((abs(c) * eps**t for t, c in enumerate(p_shift(p, z0))), Fraction(0))


def mat_vec(m: list[list[Poly]], v: list[Poly]) -> list[Poly]:
    """M v, each entry summed one product at a time; entries and v may be
    Forms or Polys."""
    out = []
    for row in m:
        acc: Poly = ()
        for e, x in zip(row, v):
            acc = p_add(acc, p_mul(as_poly(e), as_poly(x)))
        out.append(acc)
    return out


def poly_solve(m: list[list[Poly]], b: list[Poly], ell: int):
    """Polynomial solutions x of M(z) x(z) = b(z): (solution | None, unique)."""
    deg_m = max((len(e) - 1 for row in m for e in row if e), default=0)
    deg_b = max((len(e) - 1 for e in b if e), default=0)

    if deg_m == 0:
        m0 = [[e[0] if e else Fraction(0) for e in row] for row in m]
        r = _linalg.rank([row[:] for row in m0])
        width = deg_b + 1
        cols: list[list[Fraction]] = []
        for t in range(width):
            rhs = [e[t] if t < len(e) else Fraction(0) for e in b]
            sol = _linalg.solve([row[:] for row in m0], rhs)
            if sol is None:
                return None, r == ell
            cols.append(sol)
        x = [p_trim([cols[t][i] for t in range(width)]) for i in range(ell)]
        return x, r == ell

    d_bound = (ell - 1) * deg_m + deg_b
    width = d_bound + 1
    rows_per_eq = d_bound + deg_m + 1
    big = [[Fraction(0)] * (ell * width) for _ in range(ell * rows_per_eq)]
    rhs = [Fraction(0)] * (ell * rows_per_eq)
    for r_i in range(ell):
        for s in range(rows_per_eq):
            row = big[r_i * rows_per_eq + s]
            for c_j in range(ell):
                e = m[r_i][c_j]
                if not e:
                    continue
                for t in range(width):
                    k = s - t
                    if 0 <= k < len(e) and e[k]:
                        row[c_j * width + t] += e[k]
            bb = b[r_i]
            rhs[r_i * rows_per_eq + s] = bb[s] if s < len(bb) else Fraction(0)
    sol = _linalg.solve([row[:] for row in big], rhs)
    if sol is None:
        return None, False
    unique = not _linalg.nullspace(big, ell * width)
    x = [p_trim(sol[i * width : (i + 1) * width]) for i in range(ell)]
    return x, unique


def recursion_solve(
    a: AnalyticMatrixSeries,
    f_terms: Mapping[int, list[Poly]],
    seeds: list[list[Poly]],
    n_max: int,
    layer: tuple[int, int] | None = None,
) -> VectorSeries:
    """The recursion with one linearized solve per coefficient."""
    ell = a.ell
    n_seeds = len(seeds)
    a0 = [[as_poly(e) for e in row] for row in a.a0()]
    u: list[list[Poly]] = []
    for n in range(n_max):
        rhs = [as_poly(e) for e in f_terms.get(n, [()] * ell)]
        for m_idx in range(n):
            an = a.terms.get(n - m_idx)
            if an is not None and any(u[m_idx][j] for j in range(ell)):
                prod = mat_vec(an, u[m_idx])
                rhs = [p_add(rhs[i], prod[i]) for i in range(ell)]
        mm = [
            [
                p_add((Fraction(n),) if i == j else (), p_scale(-1, a0[i][j]))
                for j in range(ell)
            ]
            for i in range(ell)
        ]
        if n < n_seeds:
            cand = [as_poly(c) for c in seeds[n]]
            lhs = mat_vec(mm, cand)
            if lhs == [p_trim(r) for r in rhs]:
                u.append(cand)
                continue
            sol, _unique = poly_solve(mm, rhs, ell)
            if sol is None:
                raise Resonance(n, layer)
            raise SeedInconsistent(n, layer)
        sol, unique = poly_solve(mm, rhs, ell)
        if sol is None or not unique:
            raise Resonance(n, layer)
        u.append(sol)
    return vector_series(ell, u)


# -- systems shaped like the benchmark's `series` inputs -----------------------


def recursion_system(a="1/2", d="-1/3", b=1, e=(1, 1, 1), g=(1, 1)) -> dict:
    """A_0 = [[a, b z], [0, d]] with a, d non-integer, A_1 linear in z, f_1 = (g1, g2 z)."""
    return {
        "ell": 2,
        "A": [
            [0, [[[a], [0, b]], [[], [d]]]],
            [1, [[[e[0]], []], [[0, e[1]], [e[2]]]]],
        ],
        "f": [[1, [[g[0]], [0, g[1]]]]],
        "seeds": [],
    }


def log_system(p=(1, 1), t=(1, 1, 1), h="1/3", c=3, t0=7) -> dict:
    """A_0 = [[0, p(z)], [0, 0]] nilpotent, exponents 0 and h, one log layer
    seeded at the resonant n = 0 of exponent 0."""
    return {
        "ell": 2,
        "A": [
            [0, [[[], [p[0], p[1]]], [[], []]]],
            [1, [[[0, t[0]], []], [[t[1]], [0, t[2]]]]],
        ],
        "exponents": [0, h],
        "K": 1,
        "seeds": {"0:1": [[[c * p[0], c * p[1]], []]], "0:0": [[[t0], [c]]]},
    }
