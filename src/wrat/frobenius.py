"""Power-series solutions of regular-singular systems q (d/dq) u = A(z, q) u + f.

A is an ell x ell matrix whose q-coefficients have polynomial entries in an
auxiliary parameter z; everything is exact over Fraction.  Two independent
routes compute the solution:

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
c_m are its Taylor coefficients at the expansion center z0, and a q-series
weighs coefficient n by delta^n.  All of it stays in Fraction for rational
z0; a complex center is accepted but the bounds then go through floats.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, floor
from typing import Mapping

from . import _linalg

Poly = tuple[Fraction, ...]  # coefficients, constant term first, no trailing zeros


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
    p = tuple(Fraction(c) for c in p)
    while p and not p[-1]:
        p = p[:-1]
    return p


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return p_trim(out)


def p_scale(c, a: Poly) -> Poly:
    c = Fraction(c)
    if not c:
        return ()
    return tuple(c * x for x in a)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return p_trim(out)


def p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by a nonzero b, exactly."""
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for t in range(len(quot) - 1, -1, -1):
        quot[t] = rem[t + len(b) - 1] / b[-1]
        for i, cb in enumerate(b):
            rem[t + i] -= quot[t] * cb
    return p_trim(quot), p_trim(rem)


def p_eval(p: Poly, x):
    out = 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def p_shift(p: Poly, z0) -> tuple:
    """Coefficients of p(z0 + w) as a polynomial in w (binomial expansion)."""
    out = [Fraction(0) if isinstance(z0, Fraction) else 0.0 for _ in p]
    for m, c in enumerate(p):
        if not c:
            continue
        zp = Fraction(1) if isinstance(z0, Fraction) else complex(1)
        for k in range(m + 1):
            t = m - k
            out[t] = out[t] + comb(m, t) * c * zp
            zp = zp * z0
    return tuple(out)


def p_majorant(p: Poly, eps: Fraction, z0):
    """sum_t |c_t| eps^t for the Taylor coefficients of p at z0."""
    total = Fraction(0) if isinstance(z0, Fraction) else 0.0
    ep = Fraction(1) if isinstance(z0, Fraction) else 1.0
    for c in p_shift(p, z0):
        total = total + abs(c) * ep
        ep = ep * eps
    return total


# -- series containers -------------------------------------------------------


def _zero_vec(ell: int) -> list[Poly]:
    return [() for _ in range(ell)]


@dataclass
class AnalyticMatrixSeries:
    """A(z, q) = sum_n A_n(z) q^n with polynomial-in-z entries."""

    ell: int
    terms: dict[int, list[list[Poly]]]

    def __post_init__(self):
        clean = {}
        for n, m in self.terms.items():
            mm = [[p_trim(e) for e in row] for row in m]
            if any(any(e for e in row) for row in mm):
                clean[int(n)] = mm
        self.terms = clean

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
        """C = sum_n (sum_ij maj(A_n[i][j])) delta^n."""
        total = Fraction(0) if isinstance(domain.z0, Fraction) else 0.0
        for n, m in self.terms.items():
            block = sum(
                p_majorant(e, domain.epsilon, domain.z0) for row in m for e in row
            )
            total = total + block * domain.delta**n
        return total


@dataclass
class VectorSeries:
    """u(z, q) = sum_n u_n(z) q^n, coefficients stored densely from n = 0."""

    ell: int
    coeffs: list[list[Poly]]

    def term(self, n: int) -> list[Poly]:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return _zero_vec(self.ell)

    def majorant_norm(self, domain: "DomainParams", start: int = 0):
        total = Fraction(0) if isinstance(domain.z0, Fraction) else 0.0
        dp = domain.delta**start
        for n in range(start, len(self.coeffs)):
            block = sum(p_majorant(e, domain.epsilon, domain.z0) for e in self.coeffs[n])
            total = total + block * dp
            dp = dp * domain.delta
        return total


@dataclass(frozen=True)
class DomainParams:
    """Polydisc data: |z - z0| <= epsilon, |q| <= delta."""

    z0: Fraction | complex
    epsilon: Fraction
    delta: Fraction


@dataclass
class ContractionResult:
    series: VectorSeries
    truncation: int
    ratio: Fraction
    bound: Fraction
    distances: tuple[Fraction, ...]


@dataclass
class LogSeriesSolution:
    """phi = sum_{j,k,n} phi_{j,k,n}(z) q^{h_j + n} (log q)^k."""

    ell: int
    exponents: tuple[Fraction, ...]
    log_order: int
    layers: dict[tuple[int, int], VectorSeries]
    radius: Fraction


# -- exact coefficient recursion ---------------------------------------------


def _mat_vec(m: list[list[Poly]], v: list[Poly]) -> list[Poly]:
    return [
        p_trim(
            _sum_polys([p_mul(m[i][j], v[j]) for j in range(len(v)) if m[i][j] and v[j]])
        )
        for i in range(len(m))
    ]


def _sum_polys(ps: list[Poly]) -> Poly:
    out: Poly = ()
    for p in ps:
        out = p_add(out, p)
    return out


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
    det(lam I - A_0) = sum_k c_k lam^(ell-k), adj(lam I - A_0) = sum_k B_k lam^(ell-1-k)."""
    ell = len(a0)
    cs: list[Poly] = [(Fraction(1),)]
    bs = [[[(Fraction(1),) if i == j else () for j in range(ell)] for i in range(ell)]]
    for k in range(1, ell + 1):
        ab = [_mat_vec(a0, col) for col in zip(*bs[-1])]  # columns of A_0 B_{k-1}
        cs.append(p_scale(Fraction(-1, k), _sum_polys([ab[i][i] for i in range(ell)])))
        bs.append([[p_add(ab[j][i], cs[k] if i == j else ()) for j in range(ell)]
                   for i in range(ell)])
    return cs, bs[:ell]


def recursion_solve(
    a: AnalyticMatrixSeries,
    f_terms: Mapping[int, list[Poly]],
    seeds: list[list[Poly]],
    n_max: int,
    layer: tuple[int, int] | None = None,
) -> VectorSeries:
    """Coefficients u_0 .. u_{n_max-1} from the exact recursion.

    The first len(seeds) coefficients are dictated by the seeds and verified
    against the recursion: a violated relation raises SeedInconsistent when
    some polynomial solution exists and Resonance when none does.  Beyond the
    seeds, u_n = adj(nI - A_0) b_n / chi(n) with chi(n) = det(nI - A_0), by
    exact division; chi(n) = 0 in Q[z] or a nonzero remainder raises
    Resonance (the module docstring says why this matches a linear solve).
    """
    ell = a.ell
    n_seeds = len(seeds)
    a0 = a.a0()
    cs, bs = _char_expansion(a0)
    u: list[list[Poly]] = []
    for n in range(n_max):
        rhs = [p_trim(f_terms.get(n, _zero_vec(ell))[i]) for i in range(ell)]
        for m_idx in range(n):
            an = a.term(n - m_idx)
            if an is not None and any(u[m_idx][j] for j in range(ell)):
                prod = _mat_vec(an, u[m_idx])
                rhs = [p_add(rhs[i], prod[i]) for i in range(ell)]
        if n < n_seeds:
            mm = [[p_add((Fraction(n),) if i == j else (), p_scale(-1, e))
                   for j, e in enumerate(row)] for i, row in enumerate(a0)]
            cand = [p_trim(c) for c in seeds[n]]
            if _mat_vec(mm, cand) == rhs:
                u.append(cand)
                continue
            raise (SeedInconsistent if _poly_solvable(mm, rhs) else Resonance)(n, layer)
        chi = _sum_polys([p_scale(n ** (ell - k), c) for k, c in enumerate(cs)])
        if not chi:
            raise Resonance(n, layer)
        adj = [[_sum_polys([p_scale(n ** (ell - 1 - k), b[i][j]) for k, b in enumerate(bs)])
                for j in range(ell)] for i in range(ell)]
        divided = [p_divmod(y, chi) for y in _mat_vec(adj, rhs)]
        if any(rem for _, rem in divided):
            raise Resonance(n, layer)
        u.append([quot for quot, _ in divided])
    return VectorSeries(ell, u)


def residual_norm(
    a: AnalyticMatrixSeries,
    f_terms: Mapping[int, list[Poly]],
    series: VectorSeries,
    domain: DomainParams,
):
    """Majorant norm of q u' - A u - f over the computed coefficient range."""
    ell = a.ell
    total = Fraction(0) if isinstance(domain.z0, Fraction) else 0.0
    dp = Fraction(1)
    for n in range(len(series.coeffs)):
        r = [p_scale(n, series.coeffs[n][i]) for i in range(ell)]
        for m_idx in range(n + 1):
            an = a.term(n - m_idx)
            if an is not None:
                prod = _mat_vec(an, series.term(m_idx))
                r = [p_add(r[i], p_scale(-1, prod[i])) for i in range(ell)]
        fv = f_terms.get(n)
        if fv is not None:
            r = [p_add(r[i], p_scale(-1, fv[i])) for i in range(ell)]
        total = total + sum(p_majorant(e, domain.epsilon, domain.z0) for e in r) * dp
        dp = dp * domain.delta
    return total


# -- certified contraction route ---------------------------------------------


def norm_bound(a: AnalyticMatrixSeries, domain: DomainParams):
    """The constant C controlling the clamped operator: ||A||-majorant."""
    return a.majorant_norm(domain)


def choose_truncation(a: AnalyticMatrixSeries, domain: DomainParams) -> int:
    """Truncation index N beyond which the recursion divisors dominate A.

    Uses a crude spectral proxy (twice the max of the entry-wise l1 norm of
    A_0 over boundary samples of the z-disc) capped from below by the full
    majorant constant C, so that both the resonance range and the
    contraction requirement C/N < 1 are cleared.
    """
    a0 = a.a0()
    k_bound = 0.0
    z0 = complex(domain.z0)
    for k in range(64):
        z = z0 + complex(domain.epsilon) * cmath.exp(2j * cmath.pi * k / 64)
        s = sum(abs(p_eval(e, z)) for row in a0 for e in row)
        k_bound = max(k_bound, 2.0 * float(abs(s)))
    c = float(norm_bound(a, domain))
    return 1 + floor(max(k_bound, c))


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
    n_cap = truncation if truncation is not None else choose_truncation(a, domain)
    n_cap = max(n_cap, len(seeds))
    c = norm_bound(a, domain)
    ratio = Fraction(c) / n_cap if isinstance(c, Fraction) else c / n_cap
    if ratio >= 1:
        raise ContractionFails(f"C/N = {ratio} >= 1")
    n_clamped = min(n_cap, n_max)
    if len(seeds) < n_clamped:
        seeds = recursion_solve(a, f_terms, seeds, n_clamped).coeffs

    # ||T 0||: the clamped block plus the divided inhomogeneity tail
    f_norm = Fraction(0) if isinstance(domain.z0, Fraction) else 0.0
    dp = Fraction(1)
    for n in range(n_max):
        if n < n_cap:
            block = sum(
                p_majorant(p_trim(e), domain.epsilon, domain.z0) for e in seeds[n]
            )
        else:
            fv = f_terms.get(n)
            block = (
                sum(p_majorant(p_trim(e), domain.epsilon, domain.z0) for e in fv) / n
                if fv is not None
                else 0
            )
        f_norm = f_norm + block * dp
        dp = dp * domain.delta

    u = [
        [p_trim(e) for e in seeds[n]] if n < len(seeds) else _zero_vec(ell)
        for n in range(n_max)
    ]

    def apply_t(cur: list[list[Poly]]) -> list[list[Poly]]:
        out = []
        for n in range(n_max):
            if n < n_cap:
                out.append([p_trim(e) for e in seeds[n]])
                continue
            acc = [p_trim(f_terms.get(n, _zero_vec(ell))[i]) for i in range(ell)]
            for m_idx in range(n + 1):
                an = a.term(n - m_idx)
                if an is not None and any(cur[m_idx][j] for j in range(ell)):
                    prod = _mat_vec(an, cur[m_idx])
                    acc = [p_add(acc[i], prod[i]) for i in range(ell)]
            out.append([p_scale(Fraction(1, n), acc[i]) for i in range(ell)])
        return out

    distances = []
    for _ in range(iterations):
        nxt = apply_t(u)
        diff = Fraction(0) if isinstance(domain.z0, Fraction) else 0.0
        dp = Fraction(1)
        for n in range(n_max):
            block = sum(
                p_majorant(p_add(nxt[n][i], p_scale(-1, u[n][i])), domain.epsilon, domain.z0)
                for i in range(ell)
            )
            diff = diff + block * dp
            dp = dp * domain.delta
        distances.append(diff)
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
    the shifted recursion with inhomogeneity -(k+1) phi_{j,k+1}.
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
                f_terms: dict[int, list[Poly]] = {}
            else:
                f_terms = {
                    n: [p_scale(-(k + 1), e) for e in above.coeffs[n]]
                    for n in range(len(above.coeffs))
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
    from ._serde import rat_from_json

    if isinstance(v, list):
        return p_trim([rat_from_json(c) for c in v])
    return p_trim([rat_from_json(v)])


def poly_to_json(p: Poly) -> list:
    from ._serde import rat_to_json

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
    system carries exponents), exponents, log_order, domain, radius.
    Raises InvalidSystem on a non-object; an ell, K or A/f index that is not
    a JSON integer, or ell < 1, K < 0 or an index < 0; a seed key "j:k"
    outside 0 <= j < len(exponents), 0 <= k <= K; an A_n, a row of it, an f
    vector, a seed vector or the exponents not given as a JSON list; an A_n
    that is not ell x ell, an f or seed vector not of length ell, a domain
    epsilon or delta that is not positive, or a bad rational.
    """
    from ._serde import rat_from_json

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
                z0 = complex(float(rat_from_json(z0_raw[0])), float(rat_from_json(z0_raw[1])))
            else:
                z0 = rat_from_json(z0_raw)
            epsilon, delta = rat_from_json(d["epsilon"]), rat_from_json(d["delta"])
            if epsilon <= 0 or delta <= 0:
                raise InvalidSystem(
                    f"domain radii must be positive, got epsilon {epsilon}, delta {delta}"
                )
            domain = DomainParams(z0=z0, epsilon=epsilon, delta=delta)
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
