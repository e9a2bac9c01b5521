"""Power-series solutions of regular-singular systems q (d/dq) u = A(z, q) u + f.

A is an ell x ell matrix whose q-coefficients have polynomial entries in an
auxiliary parameter z; everything is exact.  Each series coefficient is held
once, as a `Form`: integer numerators over one denominator, in lowest terms,
which the integer kernel `_kernel` reads and the CLI prints directly.
`VectorSeries.coeffs` is their Fraction view.  Two independent routes
compute the solution:

* `recursion_solve` peels coefficients off the defining relation
  [n I - A_0(z)] u_n = f_n + sum_{m<n} A_{n-m} u_m, validating the supplied
  seed coefficients at the resonant indices n < N and solving exactly above.
  chi(lam) = det(lam I - A_0) and adj(lam I - A_0) are expanded once per call
  (Faddeev-LeVerrier), and u_n = adj(nI - A_0) b_n / chi(n) by exact division
  in Q[z].  This agrees with solving for u_n as a linear system over its
  coefficients: if chi(n) != 0, nI - A_0 is invertible over Q(z), so
  adj b_n / chi(n) is the only candidate; if chi(n) = 0, a kernel vector of
  minors makes no solution unique.  Either failure raises Resonance.

* `contraction_solve` runs the Picard iteration of the clamped operator
  [T u]_n = seed_n (n < N) and (1/n)(f_n + sum_{m<=n} A_{n-m} u_m) (n >= N),
  which is a contraction on the weighted-majorant ball once C/N < 1, where C
  is the majorant norm of A over the working polydisc.  It returns certified
  a-priori error bounds along with the iterates' distances.

Logarithmic solutions (nilpotent monodromy) are layered: the coefficient of
(log q)^k satisfies the same recursion with A_0 shifted by the exponent and
an inhomogeneity fed by layer k+1, solved from the top layer down.

Majorant convention: a polynomial p contributes sum_m |c_m| eps^m where the
c_m are its Taylor coefficients at the rational expansion center z0, and a
q-series weighs coefficient n by delta^n, so every bound is a Fraction.  A
complex center a + ib is certified on the real disc |z - a| <= eps + |b|,
which contains its disc: the Taylor coefficients c_t at a + ib satisfy
sum_t |c_t| eps^t <= sum_m |q_m| (eps + |b|)^m for q(w) = p(a + w), so
`system_from_json` folds [a, b] into z0 = a and epsilon + |b|.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, floor, gcd, lcm
from typing import Mapping, NamedTuple

from . import _linalg
from ._serde import rat_from_json, rat_to_json

Poly = tuple[Fraction, ...]  # coefficients, constant term first, no trailing zeros


class Form(NamedTuple):
    """A polynomial as integer numerators, constant term first, over one
    denominator: den > 0, no factor common to den and every numerator, no
    trailing zero.  So it is canonical: `_linalg.over_common` of the Poly."""

    nums: list[int]
    den: int


class Resonance(ValueError):
    """[n I - A_0] is singular at an index the seeds do not cover."""

    def __init__(self, n: int, layer: tuple[int, int] | None = None):
        self.n = n
        self.layer = layer
        msg = f"resonant index n = {n}"
        if layer is not None:
            msg += f" in layer (exponent {layer[0]}, log power {layer[1]})"
        super().__init__(msg)


class SeedInconsistent(ValueError):
    """A seed coefficient fails its defining relation although solutions exist."""

    def __init__(self, n: int, layer: tuple[int, int] | None = None):
        self.n = n
        self.layer = layer
        msg = f"seed at n = {n} does not satisfy the recursion"
        if layer is not None:
            msg += f" in layer (exponent {layer[0]}, log power {layer[1]})"
        super().__init__(msg)


class ContractionFails(ValueError):
    """C/N >= 1: the clamped operator is not certified to contract."""


class BranchMismatch(ValueError):
    """The supplied log branch L does not satisfy exp(L) = q."""


class InvalidSystem(ValueError):
    """A series-system file does not describe a system (bad shape or value)."""


class OutOfRadius(ValueError):
    """Evaluation point outside 0 < |q| < radius."""


# -- polynomial helpers ------------------------------------------------------


def p_trim(p) -> Poly:
    """p as a Poly: where input enters, each coefficient made a Fraction."""
    return _dot([(([1], 1), _ints([Fraction(c) for c in p]))])


# p as integer numerators over the least common denominator
_ints = _linalg.over_common
_ONE = ([1], 1)


def _reduced(nums: list[int], den: int) -> Form:
    """nums / den as a Form: trailing zeros dropped, then one gcd."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    return Form(nums, den) if g == 1 else Form([x // g for x in nums], den // g)


def _form(p) -> Form:
    """A Poly (or int coefficients) as a Form; a Form is returned as it is."""
    return p if type(p) is Form else _reduced(*_ints(p))


def _poly(form) -> Poly:
    """The Fraction view of (numerators, denominator)."""
    nums, den = form
    return tuple(Fraction(c, den) for c in nums)


def _dot(pairs) -> Poly:
    """`_kernel` as a Poly: each output coefficient becomes one Fraction."""
    return _poly(_kernel(pairs))


def _kernel(pairs) -> tuple[list[int], int]:
    """sum_k a_k b_k over (numerators, denominator) pairs: every product is
    convolved and summed in int over one common denominator den; returns
    the numerators, without trailing zeros, and den.  The one kernel of
    this module."""
    terms = [(na, nb, da * db) for (na, da), (nb, db) in pairs if na and nb]
    den = lcm(*[d for _, _, d in terms])
    out = [0] * max((len(na) + len(nb) - 1 for na, nb, _ in terms), default=0)
    for na, nb, d in terms:
        s = den // d
        for i, x in enumerate(na):
            if x:
                x *= s
                for j, y in enumerate(nb, i):
                    out[j] += x * y
    while out and not out[-1]:
        out.pop()
    return out, den


def p_add(a: Poly, b: Poly) -> Poly:
    return _dot([(([1], 1), _ints(a)), (([1], 1), _ints(b))])


def p_sub(a: Poly, b: Poly) -> Poly:
    return _dot([(([1], 1), _ints(a)), (([-1], 1), _ints(b))])


def _divmod(a, b) -> tuple[Form, Form]:
    """Quotient and remainder of a by a nonzero b, exactly, on (numerators,
    denominator) pairs, returning Forms: the pseudo-division
    lead^k na = q nb + r of integer numerators, with nb over its content so
    that a constant b, or any b / b[-1] in Z[z], has lead +-1."""
    (na, da), (nb, db) = a, b
    g = gcd(*nb)
    nb = [y // g for y in nb]
    k = max(len(na) - len(nb) + 1, 0)
    rem, quot = [x * nb[-1] ** k for x in na], [0] * k
    for t in reversed(range(k)):
        quot[t] = q = rem[t + len(nb) - 1] // nb[-1]
        for i, y in enumerate(nb, t):
            rem[i] -= q * y
    den = da * nb[-1] ** k
    return _reduced([x * db for x in quot], g * den), _reduced(rem, den)


def p_eval(p: Poly, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def p_shift(p: Poly, z0: Fraction) -> Poly:
    """Coefficients of p(z0 + w) as a polynomial in w (binomial expansion)."""
    out = [Fraction(0)] * len(p)
    for m, c in enumerate(p):
        if not c:
            continue
        zp = Fraction(1)
        for k in range(m + 1):
            out[m - k] += comb(m, k) * c * zp
            zp *= z0
    return tuple(out)


def p_majorant(p: Poly, eps: Fraction, z0: Fraction) -> Fraction:
    """sum_t |c_t| eps^t for the Taylor coefficients of p at z0."""
    return sum((abs(c) * eps**t for t, c in enumerate(p_shift(p, z0))), Fraction(0))


# -- series containers -------------------------------------------------------


class _Series(NamedTuple):
    ell: int
    terms: dict[int, list[list[Poly]]]


class AnalyticMatrixSeries(_Series):
    """A(z, q) = sum_n A_n(z) q^n with polynomial-in-z entries; building one
    trims every entry and drops the zero A_n."""

    __slots__ = ()

    def __new__(cls, ell: int, terms: dict[int, list[list[Poly]]]):
        clean = {}
        for n, m in terms.items():
            mm = [[p_trim(e) for e in row] for row in m]
            if any(any(e for e in row) for row in mm):
                clean[int(n)] = mm
        return super().__new__(cls, ell, clean)

    def a0(self) -> list[list[Poly]]:
        return self.terms.get(0, [[() for _ in range(self.ell)] for _ in range(self.ell)])

    def term(self, n: int) -> list[list[Poly]] | None:
        return self.terms.get(n)

    def shifted(self, h: Fraction) -> "AnalyticMatrixSeries":
        """Replace A_0 by A_0 - h I (for the exponent-shifted recursion)."""
        a0 = [row[:] for row in self.a0()]
        for i in range(self.ell):
            a0[i][i] = p_add(a0[i][i], (-Fraction(h),))
        terms = dict(self.terms)
        terms[0] = a0
        return AnalyticMatrixSeries(self.ell, terms)

    def majorant_norm(self, domain: "DomainParams"):
        """C = sum_n (sum_ij maj(A_n[i][j])) delta^n: the constant controlling
        the clamped operator."""
        return _weighted(
            ((n, _majorant((e for row in m for e in row), domain)) for n, m in self.terms.items()),
            domain,
        )


class VectorSeries(NamedTuple):
    """u(z, q) = sum_n u_n(z) q^n, coefficients stored densely from n = 0
    as Forms; `coeffs` is their Fraction view."""

    ell: int
    forms: list[list[Form]]

    @classmethod
    def of(cls, ell: int, coeffs) -> "VectorSeries":
        """The series of the Poly vectors coeffs."""
        return cls(ell, [[_form(p) for p in vec] for vec in coeffs])

    @property
    def coeffs(self) -> list[list[Poly]]:
        return [[_poly(x) for x in vec] for vec in self.forms]


class DomainParams(NamedTuple):
    """Polydisc data: |z - z0| <= epsilon, |q| <= delta, z0 rational."""

    z0: Fraction
    epsilon: Fraction
    delta: Fraction


def _majorant(polys, domain: DomainParams):
    """sum of maj(p) over the polynomials of one block."""
    return sum(p_majorant(p, domain.epsilon, domain.z0) for p in polys)


def _weighted(blocks, domain: DomainParams) -> Fraction:
    """sum_n block_n delta^n over (n, block) pairs, exactly."""
    return sum((block * domain.delta**n for n, block in blocks), Fraction(0))


class ContractionResult(NamedTuple):
    series: VectorSeries
    truncation: int
    ratio: Fraction
    bound: Fraction
    distances: tuple[Fraction, ...]


class LogSeriesSolution(NamedTuple):
    """phi = sum_{j,k,n} phi_{j,k,n}(z) q^{h_j + n} (log q)^k."""

    ell: int
    exponents: tuple[Fraction, ...]
    log_order: int
    layers: dict[tuple[int, int], VectorSeries]
    radius: Fraction


# -- exact coefficient recursion ---------------------------------------------


def _mat_vec(m: list[list[Poly]], v: list[Poly]) -> list[Poly]:
    iv = [_ints(x) for x in v]
    return [_dot(zip(map(_ints, row), iv)) for row in m]


def _poly_solvable(m: list[list[Poly]], b: list[Poly]) -> bool:
    """Whether M(z) x(z) = b(z) has a polynomial solution x, linearized over the
    coefficients of x up to the degree bound (ell - 1) * deg M + deg b, which
    covers every polynomial solution that can exist."""
    ell = len(m)
    deg_m = max((len(e) - 1 for row in m for e in row if e), default=0)
    deg_b = max((len(e) - 1 for e in b if e), default=0)
    width = (ell - 1) * deg_m + deg_b + 1
    rows_per_eq = width + deg_m
    big = _linalg.zeros(ell * rows_per_eq, ell * width)
    rhs = [Fraction(0)] * (ell * rows_per_eq)
    for r_i in range(ell):
        for s in range(rows_per_eq):
            row = big[r_i * rows_per_eq + s]
            for c_j in range(ell):
                e = m[r_i][c_j]
                for t in range(width):
                    if 0 <= s - t < len(e):
                        row[c_j * width + t] += e[s - t]
            bb = b[r_i]
            rhs[r_i * rows_per_eq + s] = bb[s] if s < len(bb) else Fraction(0)
    return _linalg.solve(big, rhs) is not None


def _char_expansion(a0: list[list[Poly]]):
    """Faddeev-LeVerrier over Q[z]: c_0..c_ell and B_0..B_{ell-1} with
    det(lam I - A_0) = sum_k c_k lam^(ell-k), adj(lam I - A_0) = sum_k B_k lam^(ell-1-k),
    each polynomial as (numerators, denominator) for `_dot`."""
    ell = len(a0)
    cs: list[Poly] = [(Fraction(1),)]
    bs = [[[(Fraction(1),) if i == j else () for j in range(ell)] for i in range(ell)]]
    for k in range(1, ell + 1):
        ab = [_mat_vec(a0, col) for col in zip(*bs[-1])]  # columns of A_0 B_{k-1}
        cs.append(_dot((([-1], k), _ints(ab[i][i])) for i in range(ell)))
        bs.append([[p_add(ab[j][i], cs[k] if i == j else ()) for j in range(ell)]
                   for i in range(ell)])
    return [_ints(c) for c in cs], [[[_ints(e) for e in row] for row in b] for b in bs[:ell]]


def _int_system(a: AnalyticMatrixSeries, f_terms: Mapping[int, list]):
    """(ell, A's terms, f's vectors) with every polynomial a Form, made
    once per solve for `_rhs`; f's entries may be Polys or Forms."""
    return (
        a.ell,
        {n: [[_form(e) for e in row] for row in m] for n, m in a.terms.items()},
        {n: [_form(p) for p in vec] for n, vec in f_terms.items()},
    )


def _rhs(system, u: list[list[Form]], n: int, stop: int) -> list[list]:
    """b_n = f_n + sum_{m < stop} A_{n-m} u_m as one list of `_kernel` terms
    per row, over the Forms of `_int_system` and of the u_m: the right-hand
    side of the recursion (stop = n) and of the clamped operator and
    residual (stop = n + 1)."""
    ell, a, f = system
    prods = [(a[n - m], u[m]) for m in range(stop) if n - m in a]
    fn = f.get(n)
    return [
        ([(_ONE, fn[i])] if fn else []) + [(e, x) for an, v in prods for e, x in zip(an[i], v)]
        for i in range(ell)
    ]


def recursion_solve(
    a: AnalyticMatrixSeries,
    f_terms: Mapping[int, list[Poly]],
    seeds: list[list[Poly]],
    n_max: int,
    layer: tuple[int, int] | None = None,
) -> VectorSeries:
    """Coefficients u_0 .. u_{n_max-1} from the exact recursion; the
    entries of f_terms may be Polys or Forms.

    The first len(seeds) coefficients are dictated by the seeds and verified
    against the recursion: a violated relation raises SeedInconsistent when
    some polynomial solution exists and Resonance when none does.  Beyond the
    seeds, u_n = adj(nI - A_0) b_n / chi(n) with chi(n) = det(nI - A_0), by
    exact division of `_kernel` integer forms into a Form, with no Fraction;
    chi(n) = 0 in Q[z] or a nonzero remainder raises Resonance (the module
    docstring says why this matches a linear solve).
    """
    ell = a.ell
    n_seeds = len(seeds)
    a0 = a.a0()
    system = _int_system(a, f_terms)
    cs, bs = _char_expansion(a0)
    u: list[list[Form]] = []
    for n in range(n_max):
        rhs = [_kernel(terms) for terms in _rhs(system, u, n, n)]
        if n < n_seeds:
            rhs = [_poly(y) for y in rhs]
            mm = [[p_sub((Fraction(n),) if i == j else (), e) for j, e in enumerate(row)]
                  for i, row in enumerate(a0)]
            cand = [p_trim(c) for c in seeds[n]]
            if _mat_vec(mm, cand) == rhs:
                u.append([_form(c) for c in cand])
                continue
            raise (SeedInconsistent if _poly_solvable(mm, rhs) else Resonance)(n, layer)
        chi = _kernel((([n ** (ell - k)], 1), c) for k, c in enumerate(cs))
        if not chi[0]:
            raise Resonance(n, layer)
        adj = [[_kernel((([n ** (ell - 1 - k)], 1), b[i][j]) for k, b in enumerate(bs))
                for j in range(ell)] for i in range(ell)]
        divided = [_divmod(_kernel(zip(row, rhs)), chi) for row in adj]
        if any(rem.nums for _, rem in divided):
            raise Resonance(n, layer)
        u.append([quot for quot, _ in divided])
    return VectorSeries(ell, u)


def residual_norm(
    a: AnalyticMatrixSeries,
    f_terms: Mapping[int, list[Poly]],
    series: VectorSeries,
    domain: DomainParams,
):
    """Majorant norm of q u' - A u - f over the computed coefficient range:
    b_n - n u_n (the majorant of n u_n - b_n) weighed by delta^n."""
    system = _int_system(a, f_terms)
    u = series.forms

    def block(n: int):
        rows = zip(_rhs(system, u, n, n + 1), u[n])
        return _majorant((_dot(terms + [(([-n], 1), x)]) for terms, x in rows), domain)

    return _weighted(((n, block(n)) for n in range(len(u))), domain)


# -- certified contraction route ---------------------------------------------


def choose_truncation(a: AnalyticMatrixSeries, domain: DomainParams, c=None) -> int:
    """Truncation index N beyond which the recursion divisors dominate A.

    Uses a crude spectral proxy (twice the max of the entry-wise l1 norm of
    A_0 over boundary samples of the z-disc) capped from below by the full
    majorant constant C (computed here unless given as c), so that both the
    resonance range and the contraction requirement C/N < 1 are cleared.
    """
    import cmath  # only here and in `evaluate`: the float sites of the package

    a0 = a.a0()
    k_bound = 0.0
    z0 = complex(domain.z0)
    for k in range(64):
        z = z0 + complex(domain.epsilon) * cmath.exp(2j * cmath.pi * k / 64)
        s = sum(abs(p_eval(e, z)) for row in a0 for e in row)
        k_bound = max(k_bound, 2.0 * float(abs(s)))
    c = a.majorant_norm(domain) if c is None else c
    return 1 + floor(max(k_bound, float(c)))


def contraction_solve(
    a: AnalyticMatrixSeries,
    f_terms: Mapping[int, list[Poly]],
    seeds: list[list[Poly]],
    domain: DomainParams,
    n_max: int,
    iterations: int = 25,
    truncation: int | None = None,
) -> ContractionResult:
    """Picard iteration of the clamped operator, with an a-priori tail bound.

    The first N coefficients (N the truncation) stay clamped: to the seeds,
    and past the seeds to the exact recursion (which raises Resonance or
    SeedInconsistent as `recursion_solve` does).  The bound
    (1 - C/N)^-1 (C/N)^iterations ||T 0|| certifies the distance from the
    final iterate to the true fixed point in the weighted majorant norm.
    """
    ell = a.ell
    c = a.majorant_norm(domain)
    n_cap = truncation if truncation is not None else choose_truncation(a, domain, c)
    n_cap = max(n_cap, len(seeds))
    ratio = c / n_cap
    if ratio >= 1:
        raise ContractionFails(f"C/N = {ratio} >= 1")
    n_clamped = min(n_cap, n_max)
    clamped = recursion_solve(a, f_terms, seeds[:n_clamped], n_clamped).forms
    system = _int_system(a, f_terms)

    # ||T 0||: the clamped block plus the divided inhomogeneity tail
    f_norm = _weighted(
        [(n, _majorant(map(_poly, vec), domain)) for n, vec in enumerate(clamped)]
        + [(n, _majorant(f, domain) / n) for n, f in sorted(f_terms.items()) if n_cap <= n < n_max],
        domain,
    )

    def apply_t(cur: list[list[Form]]) -> list[list[Form]]:
        return clamped + [
            [_reduced(nums, den * n) for nums, den in map(_kernel, _rhs(system, cur, n, n + 1))]
            for n in range(n_clamped, n_max)
        ]

    def moved(new: list[Form], old: list[Form]):
        return _majorant((_dot([(_ONE, x), (([-1], 1), y)]) for x, y in zip(new, old)), domain)

    u = clamped + [[Form([], 1)] * ell for _ in range(n_clamped, n_max)]
    distances = []
    for _ in range(iterations):
        nxt = apply_t(u)
        distances.append(_weighted(((n, moved(nxt[n], u[n])) for n in range(n_max)), domain))
        u = nxt

    bound = (1 / (1 - ratio)) * ratio**iterations * f_norm
    return ContractionResult(
        series=VectorSeries(ell, u),
        truncation=n_cap,
        ratio=ratio,
        bound=bound,
        distances=tuple(distances),
    )


# -- logarithmic layers --------------------------------------------------------


def log_system_solve(
    a: AnalyticMatrixSeries,
    exponents: list[Fraction],
    log_order: int,
    seeds: Mapping[tuple[int, int], list[list[Poly]]],
    n_max: int,
    radius: Fraction,
) -> LogSeriesSolution:
    """Homogeneous solutions with nilpotent log structure, layer by layer.

    Exponents must be pairwise non-congruent mod 1 so the blocks do not
    interact.  For each exponent h_j the layers k = log_order .. 0 satisfy
    the shifted recursion with inhomogeneity -(k+1) phi_{j,k+1}, handed
    down as Forms.
    """
    exps = [Fraction(h) for h in exponents]
    for i in range(len(exps)):
        for j in range(i + 1, len(exps)):
            if (exps[i] - exps[j]).denominator == 1:
                raise InvalidSystem(
                    f"exponents {exps[i]} and {exps[j]} are congruent mod 1"
                )
    layers: dict[tuple[int, int], VectorSeries] = {}
    for j, h in enumerate(exps):
        shifted = a.shifted(h)
        above: VectorSeries | None = None
        for k in range(log_order, -1, -1):
            if above is None:
                f_terms: dict[int, list[Form]] = {}
            else:
                f_terms = {
                    n: [_reduced([-(k + 1) * x for x in nums], den) for nums, den in vec]
                    for n, vec in enumerate(above.forms)
                }
            layer_seeds = [list(vec) for vec in seeds.get((j, k), [])]
            series = recursion_solve(shifted, f_terms, layer_seeds, n_max, layer=(j, k))
            layers[(j, k)] = series
            above = series
    return LogSeriesSolution(
        ell=a.ell,
        exponents=tuple(exps),
        log_order=log_order,
        layers=layers,
        radius=Fraction(radius),
    )


def poly_from_json(v) -> Poly:
    if isinstance(v, list):
        return p_trim([rat_from_json(c) for c in v])
    return p_trim([rat_from_json(v)])


def poly_to_json(p: Poly) -> list:
    return [rat_to_json(c) for c in p]


def _int_at_least(v, name: str, low: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        raise InvalidSystem(f"{name} must be at least {low} (a JSON integer), got {v!r}")
    return v


def _list(v, name: str) -> list:
    if not isinstance(v, list):
        raise InvalidSystem(f"{name} must be a JSON list, got {v!r}")
    return v


def _vector(v, name: str) -> list[Poly]:
    return [poly_from_json(e) for e in _list(v, name)]


def system_from_json(obj: dict) -> dict:
    """Decode a series-system description into solver-ready pieces.

    Returns a dict with keys: a (AnalyticMatrixSeries), f (dict n -> vector),
    seeds (list for the plain recursion, or dict (j, k) -> seed list when the
    system carries exponents), exponents, log_order, domain, radius.  A
    domain z0 given as [re, im] comes back as z0 = re with epsilon + |im|.
    Raises InvalidSystem on a non-object; an ell, K or A/f index that is not
    a JSON integer, or ell < 1, K < 0 or an index < 0; a seed key "j:k"
    outside 0 <= j < len(exponents), 0 <= k <= K; an A_n, a row of it, an f
    vector, a seed vector or the exponents not given as a JSON list; an A_n
    that is not ell x ell, an f or seed vector not of length ell, a list
    domain z0 that is not [re, im], a domain epsilon or delta that is not
    positive, or a bad rational.
    """
    if not isinstance(obj, dict):
        raise InvalidSystem("a system must be a JSON object")
    try:
        ell = _int_at_least(obj["ell"], "ell", 1)
        terms = {
            _int_at_least(n, "an A index", 0): [_vector(r, "a row of A") for r in _list(m, "A_n")]
            for n, m in obj.get("A", [])
        }
        f_terms = {
            _int_at_least(n, "an f index", 0): _vector(vec, "an f vector")
            for n, vec in obj.get("f", [])
        }
        exponents = [rat_from_json(h) for h in _list(obj.get("exponents", []), "exponents")]
        log_order = _int_at_least(obj.get("K", 0), "K", 0)
        raw_seeds = obj.get("seeds", [])
        if isinstance(raw_seeds, dict):
            seeds: dict[tuple[int, int], list[list[Poly]]] = {}
            for key, vecs in raw_seeds.items():
                j, k = (int(x) for x in key.split(":"))
                if not (0 <= j < len(exponents) and 0 <= k <= log_order):
                    raise InvalidSystem(f"seed key {key!r} names no layer (j, k)")
                seeds[(j, k)] = [_vector(vec, "a seed vector") for vec in vecs]
            seed_vecs = [vec for vecs in seeds.values() for vec in vecs]
        else:
            seeds = [_vector(vec, "a seed vector") for vec in raw_seeds]
            seed_vecs = seeds
        domain = None
        if "domain" in obj:
            d = obj["domain"]
            z0_raw = d["z0"]
            if isinstance(z0_raw, list):
                if len(z0_raw) != 2:
                    raise InvalidSystem(f"a list z0 must be [re, im], got {z0_raw!r}")
                z0, im = (rat_from_json(x) for x in z0_raw)
            else:
                z0, im = rat_from_json(z0_raw), Fraction(0)
            epsilon, delta = rat_from_json(d["epsilon"]), rat_from_json(d["delta"])
            if epsilon <= 0 or delta <= 0:
                raise InvalidSystem(
                    f"domain radii must be positive, got epsilon {epsilon}, delta {delta}"
                )
            domain = DomainParams(z0=z0, epsilon=epsilon + abs(im), delta=delta)
        radius = rat_from_json(obj.get("radius", 1))
    except InvalidSystem:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError) as exc:
        raise InvalidSystem(f"malformed system: {type(exc).__name__}: {exc}") from exc
    for n, m in terms.items():
        if len(m) != ell or any(len(row) != ell for row in m):
            raise InvalidSystem(f"A_{n} is not {ell} x {ell}")
    if any(len(vec) != ell for vec in list(f_terms.values()) + seed_vecs):
        raise InvalidSystem(f"a vector of f or of the seeds is not of length {ell}")
    return {
        "ell": ell,
        "a": AnalyticMatrixSeries(ell, terms),
        "f": f_terms,
        "seeds": seeds,
        "exponents": exponents,
        "log_order": log_order,
        "domain": domain,
        "radius": radius,
    }


def evaluate(solution: LogSeriesSolution, z, q: complex, log_q: complex) -> list[complex]:
    """Numeric value of the log-series at (z, q), on the branch fixed by log_q."""
    import cmath

    if abs(cmath.exp(log_q) - q) > 1e-12:
        raise BranchMismatch(f"exp(L) = {cmath.exp(log_q)} but q = {q}")
    if not (0 < abs(q) < float(solution.radius)):
        raise OutOfRadius(f"|q| = {abs(q)} outside (0, {solution.radius})")
    out = [0j] * solution.ell
    for (j, k), series in solution.layers.items():
        h = solution.exponents[j]
        lk = log_q**k
        for n, vec in enumerate(series.coeffs):
            scale = cmath.exp((float(h) + n) * log_q) * lk
            for i in range(solution.ell):
                if vec[i]:
                    out[i] += complex(p_eval(vec[i], complex(z))) * scale
    return out
