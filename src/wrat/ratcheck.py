"""Spectrum checks for a Cartan element v acting on a graded centralizer.

For a nilpotent f of degree -1 and a degree-0 Cartan element v with
[v, f] = 0, the question answered here is whether every ad(v)-eigenvalue on
the piece of the centralizer of f in degree -j lies in -j - 1 + {0, 1, 2, ...}.
Two independent routes are provided:

* `exact_condition` reads the evidence off the kernel slot table.  Every
  v that centralizes f lies in h^f, the part of the Cartan subalgebra that
  kills every root in the support of f, and ad(f) maps the (degree d,
  h^f-weight mu) span into the (d - 1, mu) span.  So ker ad(f) splits into
  slots (d, mu) whose multiplicities do not depend on v (one exact rank per
  slot), and v acts on slot (d, mu) by mu(v).  Summing the slots by
  (j, mu(v)) gives one evidence row per occupied (j, eigenvalue) pair.

* `fast_condition` looks only at the spectrum of ad(v) on the degree-0 and
  degree -1/2 blocks, which controls the spectrum everywhere else.  The only
  eigenvalues needing work are +-2 (resp. +-5/2), where a single injectivity
  computation either certifies the slot as empty (recording the computed
  images as witnesses) or exhibits a genuine violation.  Anything outside
  the tractable range falls back to the exact route wholesale.

The classical types get the same treatment on matrix realizations, and
`search_v` hunts for a passing v over a small rational lattice inside h^f:
it builds the slot table once and checks each candidate against the
occupied slots in integer arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Iterable

from . import _linalg
from .grading import (
    DynkinGrading,
    NotDegreeMinusOne,
    ad_block,
    grade,
    grade_by_weights,
    is_even_grading,
    verify_good_grading,
)
from .liealg import (
    BasisElement,
    ChevalleyTable,
    F,
    LieElement,
    build_chevalley,
)
from .orbits import ClassicalRealization, OrbitRecord, classical_basis
from .rootsys import CartanElement, cartan_solve, pairing


class VNotInCentralizer(ValueError):
    """The candidate v does not commute with the nilpotent f."""


class GradingNotGood(ValueError):
    """The supplied grading is not good for f (or f is not in degree -1)."""


class GradingNotEven(ValueError):
    """The supplied grading has half-integer degrees where integers are required."""


class _NotFound:
    """Sentinel: no passing v exists within the searched lattice."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotFound"


NOT_FOUND = _NotFound()


@dataclass(frozen=True)
class EvidenceEntry:
    j: Fraction
    eigenvalue: Fraction
    multiplicity: int
    admissible: bool


@dataclass(frozen=True)
class FallbackWitness:
    eigenvalue: Fraction
    element: BasisElement
    image_support: tuple[BasisElement, ...]


@dataclass(frozen=True)
class ConditionVerdict:
    status: str  # "pass" | "fail"
    evidence: tuple[EvidenceEntry, ...]
    fallbacks: tuple[FallbackWitness, ...]
    method: str


@dataclass(frozen=True)
class SearchConfig:
    denominator_bound: int = 2
    coefficient_bound: int = 4


def _admissible(j: Fraction, lam: Fraction) -> bool:
    t = lam + j + 1
    return t.denominator == 1 and t >= 0


def _support_roots(f: LieElement) -> list[tuple[int, ...]]:
    roots = []
    for b in f.coords:
        if b.kind == "h":
            continue
        roots.append(b.key)
    return roots


def _require_centralizing(table: ChevalleyTable, f: LieElement, v: CartanElement) -> None:
    for c in _support_roots(f):
        if pairing(table.rs, c, v) != 0:
            raise VNotInCentralizer(f"a(v) = {pairing(table.rs, c, v)} != 0 at root {c}")


def _eigenvalue(table: ChevalleyTable, i: int, v: CartanElement) -> Fraction:
    b = table.basis[i]
    if b.kind == "h":
        return Fraction(0)
    val = pairing(table.rs, b.key, v)
    return val if b.kind == "e" else -val


def _eigenblocks(
    table: ChevalleyTable, grading: DynkinGrading, v: CartanElement
) -> dict[tuple[Fraction, Fraction], list[int]]:
    blocks: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i in range(table.dimension):
        key = (grading.degrees[i], _eigenvalue(table, i, v))
        blocks.setdefault(key, []).append(i)
    return blocks


def _kernel_slots(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    hf_basis: list[tuple[int, ...]],
) -> list[tuple[Fraction, tuple[int, ...], int, int]]:
    """ker ad(f) split into (degree, h^f-weight) slots.

    The weight of a basis vector is its root paired with each primitive
    integer vector of `hf_basis` (zero on the Cartan part).  Returns one
    (degree, weight, representative basis index, multiplicity) tuple per
    occupied slot; the representative's ad(v)-eigenvalue is the slot's
    eigenvalue for every v in h^f.
    """
    fi = table.to_indexed(f)
    groups: dict[tuple[Fraction, tuple[int, ...]], list[int]] = {}
    zero = (0,) * len(hf_basis)
    for i, b in enumerate(table.basis):
        if b.kind == "h":
            mu = zero
        else:
            sign = 1 if b.kind == "e" else -1
            mu = tuple(sign * sum(c * x for c, x in zip(b.key, w)) for w in hf_basis)
        groups.setdefault((grading.degrees[i], mu), []).append(i)
    slots = []
    for (d, mu), src in groups.items():
        dst = groups.get((d - 1, mu), [])
        m = ad_block(table, fi, tuple(src), tuple(dst))
        mult = len(src) - _linalg.rank(m)
        if mult:
            slots.append((d, mu, src[0], mult))
    return slots


def exact_condition(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    v: CartanElement,
) -> ConditionVerdict:
    """Exact kernel computation; one evidence row per occupied (j, eigenvalue).

    The kernel slot table is built for f, and the multiplicities of the
    slots on which v acts by the same eigenvalue are summed per degree.
    """
    _require_centralizing(table, f, v)
    mults: dict[tuple[Fraction, Fraction], int] = {}
    for d, _, rep, mult in _kernel_slots(table, grading, f, _hf_basis(table, f)):
        key = (-d, _eigenvalue(table, rep, v))
        mults[key] = mults.get(key, 0) + mult
    rows = [
        EvidenceEntry(j, lam, mult, _admissible(j, lam))
        for (j, lam), mult in sorted(mults.items())
    ]
    status = "pass" if all(r.admissible for r in rows) else "fail"
    return ConditionVerdict(status, tuple(rows), (), "exact")


def _injectivity_step(
    table: ChevalleyTable,
    blocks,
    fi,
    d: Fraction,
    lam: Fraction,
) -> tuple[int, list[FallbackWitness]]:
    """Rank defect of ad(f) on the (d, lam) eigenspace; witnesses when injective."""
    src = blocks.get((d, lam), [])
    dst = blocks.get((d - 1, lam), [])
    m = ad_block(table, fi, tuple(src), tuple(dst))
    defect = len(src) - _linalg.rank(m)
    witnesses = []
    if defect == 0:
        for i in src:
            acc: dict[int, Fraction] = {}
            for k, ci in fi.items():
                for t, c in table.basis_bracket(k, i).items():
                    acc[t] = acc.get(t, Fraction(0)) + ci * c
            support = tuple(
                sorted(
                    (table.basis[t] for t, val in acc.items() if val),
                    key=lambda b: (b.kind, b.key),
                )
            )
            witnesses.append(FallbackWitness(lam, table.basis[i], support))
    return defect, witnesses


def fast_condition(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    v: CartanElement,
) -> ConditionVerdict:
    """Spectrum-on-two-blocks route; delegates wholesale on hard eigenvalues."""
    _require_centralizing(table, f, v)
    fi = table.to_indexed(f)
    blocks = _eigenblocks(table, grading, v)
    half = Fraction(1, 2)

    rows: list[EvidenceEntry] = []
    witnesses: list[FallbackWitness] = []

    def analyze(d: Fraction, boundary: Fraction) -> bool:
        """One graded block; returns False when exact delegation is needed."""
        special = boundary - 1  # -2 on the integer block, -5/2 on the half block
        lams = sorted({lam for (dd, lam) in blocks if dd == d})
        for lam in lams:
            offset = lam - boundary  # integer iff lam is on the tame lattice
            if offset.denominator != 1:
                return False
            if lam >= boundary and lam != -special:
                continue
            if lam == special or lam == -special:
                defect, wit = _injectivity_step(table, blocks, fi, d, lam)
                if defect == 0:
                    witnesses.extend(wit)
                else:
                    j = -d
                    rows.append(EvidenceEntry(j, lam, defect, _admissible(j, lam)))
                continue
            return False
        return True

    # degree 0: tame eigenvalues are the integers >= -1, the one extra
    # injectivity-resolvable value is -2 (and +2 gets the same treatment);
    # degree -1/2: shift everything down by a half.
    if not (analyze(Fraction(0), Fraction(-1)) and analyze(-half, Fraction(-3, 2))):
        return exact_condition(table, grading, f, v)

    rows.sort(key=lambda r: (r.j, r.eigenvalue))
    witnesses.sort(key=lambda w: (w.eigenvalue, w.element.kind, w.element.key))
    status = "pass" if all(r.admissible for r in rows) else "fail"
    return ConditionVerdict(status, tuple(rows), tuple(witnesses), "fast")


def h0f_space(table: ChevalleyTable, f: LieElement) -> list[CartanElement]:
    """Basis of the Cartan elements annihilating every root in the support of f."""
    roots = _support_roots(f)
    n = table.rs.rank
    m = [[Fraction(c) for c in r] for r in roots]
    return [CartanElement.of(vec) for vec in _linalg.nullspace(m, n)]


def _primitive(vec: tuple[Fraction, ...]) -> tuple[int, ...]:
    den = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def _hf_basis(table: ChevalleyTable, f: LieElement) -> list[tuple[int, ...]]:
    """`h0f_space` as primitive integer pairing vectors."""
    basis = [_primitive(w.pairings) for w in h0f_space(table, f)]
    return [b for b in basis if any(b)]


def search_v(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    config: SearchConfig = SearchConfig(),
):
    """First v in a small rational lattice of h^f that passes
    `exact_condition`, or NOT_FOUND.

    Candidates are v = sum k_i b_i / den over the primitive basis b of h^f,
    with |k_i| <= coefficient_bound and den <= denominator_bound, taken in
    order of the least common denominator of v, then lexicographically.
    The kernel slot table is built once; on slot (d, mu) v acts by
    sum k_i mu_i / den, so each candidate is checked against the occupied
    slots with integer sums, stopping at the first inadmissible slot.

    Even gradings need no search: v = 0 always works there.
    """
    rank = table.rs.rank
    if is_even_grading(grading):
        return CartanElement.zero(rank)
    basis = _hf_basis(table, f)
    if not basis:
        return NOT_FOUND
    # slot (d, mu) is admissible at v iff t = mu(v) + 1 - d is a
    # nonnegative integer; with 1 - d = p/q and mu(v) = s/den that is
    # s*q + den*p being a nonnegative multiple of den*q
    checks = [
        (mu, (1 - d).numerator, (1 - d).denominator)
        for d, mu, _, _ in _kernel_slots(table, grading, f, basis)
    ]

    B = config.coefficient_bound
    candidates: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
    for den in range(1, config.denominator_bound + 1):
        for ks in product(range(-B, B + 1), repeat=len(basis)):
            if not any(ks):
                continue
            ints = [sum(k * b[i] for k, b in zip(ks, basis)) for i in range(rank)]
            g = gcd(den, *ints)
            candidates.setdefault((den // g, tuple(x // g for x in ints)), (den, ks))

    # (reduced denominator, numerators) orders exactly as (lcm, v) does
    for key in sorted(candidates):
        den, ks = candidates[key]
        for mu, p, q in checks:
            n = sum(k * m for k, m in zip(ks, mu)) * q + den * p
            if n < 0 or n % (den * q):
                break
        else:
            lcd, ints = key
            return CartanElement(tuple(Fraction(x, lcd) for x in ints))
    return NOT_FOUND


def verify_good_even_shortcut(
    table: ChevalleyTable,
    h: CartanElement,
    f_roots: Iterable[tuple[int, ...]],
    x0: CartanElement,
) -> ConditionVerdict:
    """Check the condition through an auxiliary even good grading.

    x0 defines a grading with e_a in degree a(x0); f (the sum of root
    vectors over f_roots) must be homogeneous of degree -1 there, the
    grading must be good for f and even, and then v = h/2 - x0 is the
    canonical candidate, checked exactly against the Dynkin grading of h.
    """
    from .grading import complete_sl2

    f_roots = [tuple(c) for c in f_roots]
    rs = table.rs
    for c in f_roots:
        if pairing(rs, c, x0) != 1:
            raise GradingNotGood(f"root {c} is not in degree -1 for the x0 grading")
    aux = grade_by_weights(table, x0)
    f = LieElement({F(c): Fraction(1) for c in f_roots})
    if not verify_good_grading(aux, f):
        raise GradingNotGood("the x0 grading is not good for f")
    if not is_even_grading(aux):
        raise GradingNotEven("the x0 grading has half-integer degrees")
    v = Fraction(1, 2) * h - x0
    for c in f_roots:
        if pairing(rs, c, v) != 0:
            raise VNotInCentralizer(f"h/2 - x0 does not centralize the root vector at {c}")
    dynkin = grade(table, h)
    try:
        complete_sl2(table, dynkin, f_roots)
    except NotDegreeMinusOne as exc:
        raise GradingNotGood(str(exc)) from exc
    return exact_condition(table, dynkin, f, v)


def verify_self_contragredient(
    table: ChevalleyTable, grading: DynkinGrading, f: LieElement
) -> bool:
    """Each centralizer vector in degree 0 pairs to zero with h/2 and has
    traceless adjoint action on both the positive and the negative part.

    Each condition is a linear functional L on g_0, and L vanishes on the
    kernel of M = ad(f): g_0 -> g_-1 exactly when L lies in the row space of
    M, that is, when rank(M + [L]) == rank(M).  The three functionals are
    appended together, which tests all three at once.
    """
    fi = table.to_indexed(f)
    g0 = grading.block(0)
    m = ad_block(table, fi, g0, grading.block(-1))

    rs = table.rs
    n = rs.rank
    h_coords = cartan_solve(rs, grading.characteristic)
    d = rs.half_norms
    # <h/2, h_b> with <h_a, h_b> = a_ab / d_a
    pair = [
        sum(h_coords[a] * rs.cartan_matrix[a][b] / (2 * d[a]) for a in range(n))
        for b in range(n)
    ]
    pos_idx = [i for i, deg in enumerate(grading.degrees) if deg > 0]
    neg_idx = [i for i, deg in enumerate(grading.degrees) if deg < 0]

    # only Cartan basis vectors enter the traces: a root vector e_a moves
    # every weight by a, so [e_a, b_j] has no b_j component
    rows = [[Fraction(0)] * len(g0) for _ in range(3)]
    for k, i in enumerate(g0):
        b = table.basis[i]
        if b.kind == "h":
            rows[0][k] = pair[b.key]
            for row, side in zip(rows[1:], (pos_idx, neg_idx)):
                row[k] = sum(table.basis_bracket(i, j).get(j, 0) for j in side)
    return _linalg.rank(m + rows) == _linalg.rank(m)


# ---------------------------------------------------------------------------
# Classical (matrix) route
# ---------------------------------------------------------------------------


def _classical_blocks(real: ClassicalRealization):
    """Basis elements grouped by (degree, v-eigenvalue)."""
    basis = classical_basis(real)
    blocks: dict[tuple[Fraction, Fraction], list] = {}
    for elt in basis:
        (i, j), _, _ = elt
        d = (real.h_diag[i] - real.h_diag[j]) / 2
        lam = real.v_diag[i] - real.v_diag[j]
        blocks.setdefault((d, lam), []).append(elt)
    return blocks


def _units(elt) -> list[tuple[int, int, Fraction]]:
    """A symmetrized unit E_ij + c * E_i'j' as (row, column, coefficient) terms."""
    (i, j), partner, c = elt
    return [(i, j, Fraction(1))] + ([(*partner, c)] if partner else [])


def _f_nonzeros(real: ClassicalRealization):
    """f's nonzero entries as (by column: [(row, value)], by row: [(column, value)])."""
    n = real.size
    by_col: list[list] = [[] for _ in range(n)]
    by_row: list[list] = [[] for _ in range(n)]
    for r, row in enumerate(real.f):
        for s, x in enumerate(row):
            if x:
                by_col[s].append((r, x))
                by_row[r].append((s, x))
    return by_col, by_row


def _classical_ad_f(f_nonzeros, elt) -> dict[tuple[int, int], Fraction]:
    """[f, B] as a sparse matrix for a symmetrized unit B, from `_f_nonzeros`."""
    by_col, by_row = f_nonzeros
    out: dict[tuple[int, int], Fraction] = {}

    def add(i, j, c):
        v = out.get((i, j), 0) + c
        if v:
            out[(i, j)] = v
        else:
            out.pop((i, j), None)

    for a, b, coeff in _units(elt):
        # f E_ab: column b gets f's column a
        for r, x in by_col[a]:
            add(r, b, coeff * x)
        # E_ab f: row a gets f's row b
        for s, x in by_row[b]:
            add(a, s, -coeff * x)
    return out


def _classical_ad_block(f_nonzeros, src, dst):
    """Matrix of ad(f) from the span of src to the span of dst.

    Its zeros are int, which `_linalg.rank` skips faster than Fraction(0)."""
    reps = {elt[0]: r for r, elt in enumerate(dst)}
    m = [[0] * len(src) for _ in dst]
    for col, elt in enumerate(src):
        for pos, val in _classical_ad_f(f_nonzeros, elt).items():
            r = reps.get(pos)
            if r is not None:
                m[r][col] = val
    return m


def check_classical(real: ClassicalRealization) -> ConditionVerdict:
    """Blockwise kernel computation on the matrix realization."""
    blocks = _classical_blocks(real)
    fnz = _f_nonzeros(real)
    rows = []
    for (d, lam), src in blocks.items():
        m = _classical_ad_block(fnz, src, blocks.get((d - 1, lam), []))
        mult = len(src) - _linalg.rank(m)
        if mult:
            j = -d
            rows.append(EvidenceEntry(j, lam, mult, _admissible(j, lam)))
    rows.sort(key=lambda r: (r.j, r.eigenvalue))
    status = "pass" if all(r.admissible for r in rows) else "fail"
    return ConditionVerdict(status, tuple(rows), (), "exact")


def verify_self_contragredient_classical(real: ClassicalRealization) -> bool:
    """Classical analogue: kernel vectors w in degree 0 satisfy tr(h w) = 0
    and have traceless adjoint action on the positive and negative parts.

    As in `verify_self_contragredient`, each condition is a functional on
    g_0 that must lie in the row space of ad(f): g_0 -> g_-1, so the check
    is one rank comparison.
    """
    basis = classical_basis(real)
    hd = real.h_diag
    g0 = [elt for elt in basis if hd[elt[0][0]] == hd[elt[0][1]]]
    gm1 = [elt for elt in basis if hd[elt[0][0]] - hd[elt[0][1]] == -2]
    m = _classical_ad_block(_f_nonzeros(real), g0, gm1)

    # the functionals as coefficients on the entries W[r][s] of w: tr(h W),
    # then per side the coefficient of each B at its representative (i, j)
    # in [W, B] = W B - B W, summed over the side
    funcs: list[dict] = [{(i, i): hd[i] for i in range(real.size)}, {}, {}]
    for elt in basis:
        (i, j), _, _ = elt
        if hd[i] != hd[j]:
            t = funcs[1] if hd[i] > hd[j] else funcs[2]
            for a, b, coeff in _units(elt):
                if b == j:
                    t[(i, a)] = t.get((i, a), 0) + coeff
                if a == i:
                    t[(b, j)] = t.get((b, j), 0) - coeff
    rows = [
        [t.get(pos, 0) + (c * t.get(partner, 0) if partner else 0) for pos, partner, c in g0]
        for t in funcs
    ]
    return _linalg.rank(m + rows) == _linalg.rank(m)


# ---------------------------------------------------------------------------
# Record orchestration
# ---------------------------------------------------------------------------


def realize_record(record: OrbitRecord):
    """(table, dynkin grading, f, sl2 triple) for a bundled record."""
    from .grading import complete_sl2
    from .rootsys import build

    table = build_chevalley(build(record.algebra))
    grading = grade(table, record.h)
    triple = complete_sl2(table, grading, list(record.f_roots))
    return table, grading, triple.f, triple


def check_record(record: OrbitRecord, method: str = "both") -> ConditionVerdict:
    """Run the requested route(s) on a bundled record.

    With method="both" the two routes run independently and must agree on
    the status; the merged verdict carries the exact route's evidence and
    the fast route's witnesses.
    """
    table, grading, f, _ = realize_record(record)
    if method == "exact":
        return exact_condition(table, grading, f, record.v)
    if method == "fast":
        return fast_condition(table, grading, f, record.v)
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    fast = fast_condition(table, grading, f, record.v)
    exact = exact_condition(table, grading, f, record.v)
    if fast.status != exact.status:
        raise RuntimeError(
            f"routes disagree on {record.algebra} {record.label}: "
            f"fast={fast.status} exact={exact.status}"
        )
    return ConditionVerdict(exact.status, exact.evidence, fast.fallbacks, "both")


def verdict_to_json(algebra: str, label: str, verdict: ConditionVerdict) -> dict:
    return {
        "algebra": algebra,
        "label": label,
        "status": verdict.status,
        "evidence": [
            {
                "j": str(r.j),
                "lambda": str(r.eigenvalue),
                "mult": r.multiplicity,
                "admissible": r.admissible,
            }
            for r in verdict.evidence
        ],
        "fallbacks": [
            {
                "eigenvalue": str(w.eigenvalue),
                "element": str(w.element),
                "image_support": [str(b) for b in w.image_support],
            }
            for w in verdict.fallbacks
        ],
    }
