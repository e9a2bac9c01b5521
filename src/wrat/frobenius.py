"""Power-series solutions of regular-singular systems q (d/dq) u = A(z, q) u + f.

A is an ell x ell matrix whose q-coefficients have polynomial entries in an
auxiliary parameter z; everything is exact.  Every polynomial is a `Form`,
integer numerators over one denominator in lowest terms, from the JSON read
by `poly_from_json` to the JSON written by `poly_to_json`: A's terms, f, the
seeds and each series coefficient, held once.  The integer kernel `_kernel`
does all their arithmetic and `_majorant` all their bounds.  Two routes
compute the solution; both read b_n from `_rhs`, and the contraction takes
its first N coefficients from `recursion_solve`, so they differ only past N:

* `recursion_solve` peels coefficients off the defining relation
  [n I - A_0(z)] u_n = f_n + sum_{m<n} A_{n-m} u_m, validating the supplied
  seed coefficients at the resonant indices n < N (their `_defect`, the
  residual's step, must vanish) and solving exactly above.
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

`solve_json` picks the route of a system file (log layers, else the
contraction when a domain is given, else the recursion) and writes the
result as JSON.

Majorant convention: a polynomial p contributes sum_m |c_m| eps^m where the
c_m are its Taylor coefficients at the rational expansion center z0, summed
in integers, and a q-series weighs coefficient n by delta^n, so every bound
is a Fraction.  A complex center a + ib is certified on the real disc
|z - a| <= eps + |b|, which contains its disc: the Taylor coefficients c_t
at a + ib satisfy sum_t |c_t| eps^t <= sum_m |q_m| (eps + |b|)^m for
q(w) = p(a + w), so `system_from_json` folds [a, b] into z0 = a and
epsilon + |b|.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, floor, gcd, lcm
from typing import Mapping, NamedTuple

from . import BadInput, _linalg
from ._serde import rat_from_json, rat_to_json, ratio_to_json

Poly = tuple[Fraction, ...]  # the Fraction view of a Form: `VectorSeries.coeffs`


class Form(NamedTuple):
    """A polynomial as integer numerators, constant term first, over one
    denominator: den > 0, no factor common to den and every numerator, no
    trailing zero.  So it is canonical: `_linalg.over_common` of the Poly."""

    nums: list[int]
    den: int

    @staticmethod
    def of(coeffs) -> "Form":
        """The Form of a sequence of ints and Fractions, constant term first."""
        return _reduced(*_linalg.over_common(coeffs))


class _StepFailure(BadInput):
    """The recursion fails at index n, in a log layer (exponent, log power)
    or in the plain recursion (layer None)."""

    _message = ""

    def __init__(self, n: int, layer: tuple[int, int] | None = None):
        self.n = n
        self.layer = layer
        msg = self._message.format(n)
        if layer is not None:
            msg += f" in layer (exponent {layer[0]}, log power {layer[1]})"
        super().__init__(msg)


class Resonance(_StepFailure):
    """[n I - A_0] is singular at an index the seeds do not cover."""

    _message = "resonant index n = {}"


class SeedInconsistent(_StepFailure):
    """A seed coefficient fails its defining relation although solutions exist."""

    _message = "seed at n = {} does not satisfy the recursion"


class ContractionFails(BadInput):
    """C/N >= 1: the clamped operator is not certified to contract."""


class InvalidSystem(BadInput):
    """A series-system file does not describe a system (bad shape or value)."""


# -- polynomial helpers ------------------------------------------------------


_ONE = Form([1], 1)
_ZERO = Form([], 1)


def _reduced(nums: list[int], den: int) -> Form:
    """nums / den as a Form: trailing zeros dropped, then one gcd."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(*nums, den)
    if den < 0:
        g = -g
    return Form(nums, den) if g == 1 else Form([x // g for x in nums], den // g)


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


def p_eval(p: Form, x):
    """p(x) by Horner on the numerators, each divided by the denominator as
    it enters: for a complex x the same float as Horner on the Fraction
    coefficients.  Only `choose_truncation`'s spectral proxy calls it."""
    nums, den = p
    out = 0
    for c in reversed(nums):
        out = out * x + c / den
    return out


# -- series containers -------------------------------------------------------


class AnalyticMatrixSeries(NamedTuple):
    """A(z, q) = sum_n A_n(z) q^n, each entry of A_n a Form in z."""

    ell: int
    terms: dict[int, list[list[Form]]]

    def a0(self) -> list[list[Form]]:
        return self.terms.get(0, [[_ZERO] * self.ell for _ in range(self.ell)])

    def shifted(self, h: Fraction) -> "AnalyticMatrixSeries":
        """Replace A_0 by A_0 - h I (for the exponent-shifted recursion)."""
        a0, minus_h = [row[:] for row in self.a0()], ([-h.numerator], h.denominator)
        for i in range(self.ell):
            a0[i][i] = _reduced(*_kernel([(_ONE, a0[i][i]), (minus_h, _ONE)]))
        return AnalyticMatrixSeries(self.ell, {**self.terms, 0: a0})

    def majorant_norm(self, domain: "DomainParams"):
        """C = sum_n (sum_ij maj(A_n[i][j])) delta^n: the constant controlling
        the clamped operator."""
        return _weighted(
            ((n, _majorant((e for row in m for e in row), domain)) for n, m in self.terms.items()),
            domain,
        )


class VectorSeries(NamedTuple):
    """u(z, q) = sum_n u_n(z) q^n, coefficients stored densely from n = 0
    as Forms; `coeffs` is their Fraction view, the one the library keeps
    for its readers (no step of the solver reads it)."""

    ell: int
    forms: list[list[Form]]

    @property
    def coeffs(self) -> list[list[Poly]]:
        return [[tuple(Fraction(c, den) for c in nums) for nums, den in vec]
                for vec in self.forms]


class DomainParams(NamedTuple):
    """Polydisc data: |z - z0| <= epsilon, |q| <= delta, z0 rational."""

    z0: Fraction
    epsilon: Fraction
    delta: Fraction


def _majorant(forms, domain: DomainParams) -> Fraction:
    """sum_t |c_t| eps^t over the Taylor coefficients c_t at z0 of each
    polynomial of one block, summed in integers into one Fraction.  With
    z0 = zn/zd and eps = en/ed, a polynomial nums/d of degree top has
    d zd^top c_t = sum_{m >= t} nums[m] C(m, t) zn^(m-t) zd^(top-m+t) (at
    z0 = 0 the shift is the identity and is skipped), and its majorant is
    sum_t |d zd^top c_t| en^t ed^(top-t) over d zd^top ed^top."""
    zn, zd = domain.z0.numerator, domain.z0.denominator
    en, ed = domain.epsilon.numerator, domain.epsilon.denominator
    parts = []
    for nums, d in forms:
        if not nums:
            continue
        top = len(nums) - 1
        if zn:
            nums = [sum(a * comb(m, t) * zn ** (m - t) * zd ** (top - m + t)
                        for m, a in enumerate(nums[t:], t)) for t in range(top + 1)]
            d *= zd**top
        s = sum(abs(c) * en**t * ed ** (top - t) for t, c in enumerate(nums))
        parts.append((s, d * ed**top))
    den = lcm(*[d for _, d in parts])
    return Fraction(sum(s * (den // d) for s, d in parts), den)


def _weighted(blocks, domain: DomainParams) -> Fraction:
    """sum_n block_n delta^n over (n, block) pairs, exactly, in integers:
    with delta = dn/dd, top the largest n and D the lcm of the blocks'
    denominators, block b/d adds b (D/d) dn^n dd^(top-n) over D dd^top."""
    blocks = [(n, block.numerator, block.denominator) for n, block in blocks]
    if not blocks:
        return Fraction(0)
    dn, dd = domain.delta.numerator, domain.delta.denominator
    top = max(n for n, _, _ in blocks)
    den = lcm(*[d for _, _, d in blocks])
    num = sum(b * (den // d) * dn**n * dd ** (top - n) for n, b, d in blocks)
    return Fraction(num, den * dd**top)


class ContractionResult(NamedTuple):
    series: VectorSeries
    truncation: int
    ratio: Fraction
    bound: Fraction
    distances: tuple[Fraction, ...]


# -- exact coefficient recursion ---------------------------------------------


def _poly_solvable(a0: list[list[Form]], n: int, b) -> bool:
    """Whether [n I - A_0(z)] x(z) = b(z) has a polynomial solution x,
    linearized over the coefficients of x up to the degree bound
    (ell - 1) * deg M + deg b, which covers every polynomial solution that
    can exist.  b is a list of (numerators, denominator) pairs; each
    equation's rows are scaled to integers by the lcm of its denominators."""
    m = [[_kernel([(_ONE, ([n] if i == j else [], 1)), (([-1], 1), e)])
          for j, e in enumerate(row)] for i, row in enumerate(a0)]
    deg_m = max((len(e) - 1 for row in m for e, _ in row if e), default=0)
    deg_b = max((len(e) - 1 for e, _ in b if e), default=0)
    width = (len(a0) - 1) * deg_m + deg_b + 1
    rows, rhs = [], []
    for row, (nb, db) in zip(m, b):
        den = lcm(db, *[d for _, d in row])
        for s in range(width + deg_m):
            rows.append([nums[s - t] * (den // d) if 0 <= s - t < len(nums) else 0
                         for nums, d in row for t in range(width)])
            rhs.append(nb[s] * (den // db) if s < len(nb) else 0)
    return _linalg.solve(rows, rhs) is not None


def _char_expansion(a0: list[list[Form]]):
    """Faddeev-LeVerrier over Q[z]: c_0..c_ell and B_0..B_{ell-1} with
    det(lam I - A_0) = sum_k c_k lam^(ell-k), adj(lam I - A_0) = sum_k B_k lam^(ell-1-k),
    each polynomial a Form: c_k = -tr(A_0 B_{k-1}) / k, B_k = A_0 B_{k-1} + c_k I."""
    ell = len(a0)
    cs = [_ONE]
    bs = [[[_ONE if i == j else _ZERO for j in range(ell)] for i in range(ell)]]
    for k in range(1, ell + 1):
        ab = [[_kernel(zip(row, col)) for col in zip(*bs[-1])] for row in a0]  # A_0 B_{k-1}
        cs.append(_reduced(*_kernel((([-1], k), ab[i][i]) for i in range(ell))))
        bs.append([[_reduced(*_kernel([(_ONE, x)] + ([(_ONE, cs[k])] if i == j else [])))
                    for j, x in enumerate(row)] for i, row in enumerate(ab)])
    return cs, bs[:ell]


def _rhs(a: AnalyticMatrixSeries, f, u: list[list[Form]], n: int, stop: int) -> list[list]:
    """b_n = f_n + sum_{m < stop} A_{n-m} u_m as one list of `_kernel` terms
    per row, f the {n: vector} dict: the right-hand side of the recursion
    (stop = n) and of the clamped operator (stop = n + 1)."""
    prods = [(a.terms[n - m], u[m]) for m in range(stop) if n - m in a.terms]
    fn = f.get(n)
    return [
        ([(_ONE, fn[i])] if fn else []) + [(e, x) for an, v in prods for e, x in zip(an[i], v)]
        for i in range(a.ell)
    ]


def _defect(a: AnalyticMatrixSeries, f, u: list[list[Form]], n: int) -> list[tuple[list[int], int]]:
    """f_n + sum_{m <= n} A_{n-m} u_m - n u_n per row as `_kernel` forms:
    all zero exactly when u_n satisfies the recursion, which is the seed
    check, and the residual's block at n otherwise."""
    rows = zip(_rhs(a, f, u, n, n + 1), u[n])
    return [_kernel(terms + [(([-n], 1), x)]) for terms, x in rows]


def recursion_solve(
    a: AnalyticMatrixSeries,
    f_terms: Mapping[int, list[Form]],
    seeds: list[list[Form]],
    n_max: int,
    layer: tuple[int, int] | None = None,
) -> VectorSeries:
    """Coefficients u_0 .. u_{n_max-1} from the exact recursion.

    The first len(seeds) coefficients are dictated by the seeds and verified
    against the recursion by `_defect`: a violated relation raises
    SeedInconsistent when some polynomial solution exists and Resonance when
    none does.  Beyond the seeds, u_n = adj(nI - A_0) b_n / chi(n) with
    chi(n) = det(nI - A_0), by exact division of `_kernel` integer forms
    into a Form, with no Fraction; chi(n) = 0 in Q[z] or a nonzero remainder
    raises Resonance (the module docstring says why this matches a linear
    solve).
    """
    ell = a.ell
    n_seeds = len(seeds)
    cs, bs = _char_expansion(a.a0())
    u: list[list[Form]] = []
    for n in range(n_max):
        if n < n_seeds:
            u.append(list(seeds[n]))
            if not any(nums for nums, _ in _defect(a, f_terms, u, n)):
                continue
            b = [_kernel(terms) for terms in _rhs(a, f_terms, u, n, n)]
            raise (SeedInconsistent if _poly_solvable(a.a0(), n, b) else Resonance)(n, layer)
        rhs = [_kernel(terms) for terms in _rhs(a, f_terms, u, n, n)]
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
    f_terms: Mapping[int, list[Form]],
    series: VectorSeries,
    domain: DomainParams,
):
    """Majorant norm of q u' - A u - f over the computed coefficient range:
    the majorant of each `_defect` block weighed by delta^n."""
    u = series.forms
    return _weighted(((n, _majorant(_defect(a, f_terms, u, n), domain)) for n in range(len(u))),
                     domain)


# -- certified contraction route ---------------------------------------------


def choose_truncation(a: AnalyticMatrixSeries, domain: DomainParams, c: Fraction) -> int:
    """Truncation index N beyond which the recursion divisors dominate A.

    Uses a crude spectral proxy (twice the max of the entry-wise l1 norm of
    A_0 over boundary samples of the z-disc) capped from below by the full
    majorant constant c = C (`a.majorant_norm(domain)`), so that both the
    resonance range and the contraction requirement C/N < 1 are cleared.
    A proxy past the float range raises ContractionFails.
    """
    import cmath  # only here: the one float site of the package

    a0 = [e for row in a.a0() for e in row]
    k_bound = 0.0
    try:
        z0, eps = complex(domain.z0), complex(domain.epsilon)
        for k in range(64):
            z = z0 + eps * cmath.exp(2j * cmath.pi * k / 64)
            s = sum(abs(p_eval(e, z)) for e in a0)
            k_bound = max(k_bound, 2.0 * float(abs(s)))
        return 1 + floor(max(k_bound, float(c)))
    except OverflowError as exc:
        raise ContractionFails(f"the truncation proxy is past the float range: {exc}") from exc


def contraction_solve(
    a: AnalyticMatrixSeries,
    f_terms: Mapping[int, list[Form]],
    seeds: list[list[Form]],
    domain: DomainParams,
    n_max: int,
    iterations: int,
) -> ContractionResult:
    """Picard iteration of the clamped operator, with an a-priori tail bound.

    The first N coefficients (N the truncation, from `choose_truncation`
    and at least the number of seeds) stay clamped: to the seeds,
    and past the seeds to the exact recursion (which raises Resonance or
    SeedInconsistent as `recursion_solve` does).  The bound
    (1 - C/N)^-1 (C/N)^iterations ||T 0|| certifies the distance from the
    final iterate to the true fixed point in the weighted majorant norm.
    """
    ell = a.ell
    c = a.majorant_norm(domain)
    n_cap = max(choose_truncation(a, domain, c), len(seeds))
    ratio = c / n_cap
    if ratio >= 1:
        raise ContractionFails(f"C/N = {ratio} >= 1")
    n_clamped = min(n_cap, n_max)
    clamped = recursion_solve(a, f_terms, seeds[:n_clamped], n_clamped).forms

    # ||T 0||: the clamped block plus the divided inhomogeneity tail
    f_norm = _weighted(
        [(n, _majorant(vec, domain)) for n, vec in enumerate(clamped)]
        + [(n, _majorant(f, domain) / n) for n, f in f_terms.items() if n_cap <= n < n_max],
        domain,
    )

    def apply_t(cur: list[list[Form]]) -> list[list[Form]]:
        return clamped + [
            [_reduced(nums, den * n) for nums, den in map(_kernel, _rhs(a, f_terms, cur, n, n + 1))]
            for n in range(n_clamped, n_max)
        ]

    def moved(new: list[Form], old: list[Form]):
        return _majorant((_kernel([(_ONE, x), (([-1], 1), y)]) for x, y in zip(new, old)), domain)

    u = clamped + [[_ZERO] * ell for _ in range(n_clamped, n_max)]
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
    seeds: Mapping[tuple[int, int], list[list[Form]]],
    n_max: int,
) -> dict[tuple[int, int], VectorSeries]:
    """Homogeneous solutions with nilpotent log structure, layer by layer:
    phi = sum_{j,k,n} phi_{j,k,n}(z) q^{h_j + n} (log q)^k, returned as the
    layers {(j, k): phi_{j,k}}.

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
            f_terms = {} if above is None else {
                n: [_reduced([-(k + 1) * x for x in nums], den) for nums, den in vec]
                for n, vec in enumerate(above.forms)
            }
            series = recursion_solve(shifted, f_terms, seeds.get((j, k), []), n_max, layer=(j, k))
            layers[(j, k)] = series
            above = series
    return layers


def poly_from_json(v) -> Form:
    return Form.of([rat_from_json(c) for c in (v if isinstance(v, list) else [v])])


def poly_to_json(p: Form) -> list:
    """A Form's coefficients in the rational JSON convention, each in lowest terms."""
    nums, den = p
    return [ratio_to_json(c, den) for c in nums]


def _series_json(series: VectorSeries) -> list:
    """The coefficients of series, each Form written by `poly_to_json`."""
    return [[poly_to_json(x) for x in vec] for vec in series.forms]


def _int_at_least(v, name: str, low: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < low:
        raise InvalidSystem(f"{name} must be at least {low} (a JSON integer), got {v!r}")
    return v


def _list(v, name: str) -> list:
    if not isinstance(v, list):
        raise InvalidSystem(f"{name} must be a JSON list, got {v!r}")
    return v


def _vector(v, name: str) -> list[Form]:
    return [poly_from_json(e) for e in _list(v, name)]


def _by_order(pairs, name: str, decode) -> dict:
    """{n: decode(entry)} of the [n, entry] pairs of A or f, each n once."""
    out = {}
    for n, entry in pairs:
        n = _int_at_least(n, f"an {name} index", 0)
        if n in out:
            raise InvalidSystem(f"{name} gives order {n} twice")
        out[n] = decode(entry)
    return out


def system_from_json(obj: dict) -> dict:
    """Decode a series-system description into solver-ready pieces.

    Returns a dict with keys: a (AnalyticMatrixSeries), f (dict n -> vector),
    seeds (list for the plain recursion, or dict (j, k) -> seed list when the
    system carries exponents), exponents, log_order, domain, radius.  A
    domain z0 given as [re, im] comes back as z0 = re with epsilon + |im|.
    Raises InvalidSystem on a non-object; an ell, K or A/f index that is not
    a JSON integer, or ell < 1, K < 0 or an index < 0; two A or two f
    entries of one order; a seed key "j:k" outside 0 <= j < len(exponents),
    0 <= k <= K, or two keys of one layer ("0:1" and "00:1"); an A_n, a row
    of it, an f vector, a seed vector or the exponents not given as a JSON
    list; an A_n that is not ell x ell, an f or seed vector not of length
    ell, a list domain z0 that is not [re, im], a domain epsilon or delta
    that is not positive, or a bad rational.
    """
    if not isinstance(obj, dict):
        raise InvalidSystem("a system must be a JSON object")
    try:
        ell = _int_at_least(obj["ell"], "ell", 1)
        terms = _by_order(
            obj.get("A", []), "A", lambda m: [_vector(r, "a row of A") for r in _list(m, "A_n")]
        )
        f_terms = _by_order(obj.get("f", []), "f", lambda vec: _vector(vec, "an f vector"))
        exponents = [rat_from_json(h) for h in _list(obj.get("exponents", []), "exponents")]
        log_order = _int_at_least(obj.get("K", 0), "K", 0)
        raw_seeds = obj.get("seeds", [])
        if isinstance(raw_seeds, dict):
            seeds: dict[tuple[int, int], list[list[Form]]] = {}
            for key, vecs in raw_seeds.items():
                j, k = (int(x) for x in key.split(":"))
                if not (0 <= j < len(exponents) and 0 <= k <= log_order):
                    raise InvalidSystem(f"seed key {key!r} names no layer (j, k)")
                if (j, k) in seeds:
                    raise InvalidSystem(f"two seed keys name layer {j}:{k}")
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
        "a": AnalyticMatrixSeries(ell, terms),
        "f": f_terms,
        "seeds": seeds,
        "exponents": exponents,
        "log_order": log_order,
        "domain": domain,
        "radius": radius,
    }


def solve_json(obj: dict, route: str, order: int, iterations: int) -> dict:
    """Decode obj (`system_from_json`), solve it to order on route and
    return the result as JSON.  Route "auto" picks the log layers when the
    system has exponents or keyed seeds, else the contraction when it has a
    domain, else the recursion; a forced route the system does not fit
    raises InvalidSystem, and a name that is no route ValueError.  The
    recursion's residual is weighed at z0 = 0, epsilon = delta = 1: the
    plain sum of absolute coefficient values."""
    if route not in ("auto", "recursion", "contraction", "log"):
        raise ValueError(f"unknown route {route!r}")
    system = system_from_json(obj)
    a, seeds, domain = system["a"], system["seeds"], system["domain"]
    keyed = isinstance(seeds, dict)
    if route == "auto":
        if system["exponents"] or keyed:
            route = "log"
        else:
            route = "recursion" if domain is None else "contraction"
    if route == "log":
        if not keyed:
            raise InvalidSystem("log route needs seeds keyed as 'j:k'")
        layers = log_system_solve(a, system["exponents"], system["log_order"], seeds, order)
        return {
            "route": "log",
            "exponents": [rat_to_json(h) for h in system["exponents"]],
            "K": system["log_order"],
            "radius": rat_to_json(system["radius"]),
            "layers": {
                f"{j}:{k}": _series_json(series) for (j, k), series in sorted(layers.items())
            },
        }
    if keyed:
        raise InvalidSystem("plain routes need a seed list, not 'j:k' layers")
    if route == "contraction":
        if domain is None:
            raise InvalidSystem("contraction route needs a domain block")
        res = contraction_solve(a, system["f"], seeds, domain, order, iterations=iterations)
        return {
            "route": "contraction",
            "truncation": res.truncation,
            "ratio": str(res.ratio),
            "bound": str(res.bound),
            "distances": [str(d) for d in res.distances],
            "coefficients": _series_json(res.series),
        }
    series = recursion_solve(a, system["f"], seeds, order)
    unit = DomainParams(Fraction(0), Fraction(1), Fraction(1))
    return {
        "route": "recursion",
        "residual": str(residual_norm(a, system["f"], series, unit)),
        "coefficients": _series_json(series),
    }
