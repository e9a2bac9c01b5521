"""Spectrum checks for a Cartan element v acting on a graded centralizer.

For a nilpotent f of degree -1 and a degree-0 Cartan element v with
[v, f] = 0, the question answered here is whether every ad(v)-eigenvalue on
the piece of the centralizer of f in degree -j lies in -j - 1 + {0, 1, 2, ...}.

Both realizations (the Chevalley basis of an exceptional record, the
symmetrized matrix units of a classical partition) are read through one
graded operator, `_GradedOperator`: per basis vector a degree and an integer
torus weight (signed root coefficients, resp. e_i - e_j), on which a torus
element given by its coordinate values acts by the dot product; the columns
[f, b_j] of ad(f), built on demand; the Cartan basis vectors with their
torus coordinates; and whether f sits in a verified sl2-triple (e, h, f).

* `exact_condition` and `check_classical` read the evidence off the kernel
  slot table.  ad(f) maps the (degree d, torus weight mu) span into the
  (d - 1, mu) span, so ker ad(f) splits into slots (d, mu).  A record's
  torus is h^f, which kills every root in the support of f and holds every
  v centralizing f, so its slots do not depend on v; a partition's torus is
  v itself.  On a verified triple each slot is counted (Kostant), reading
  only degrees and weights; without one it takes one exact rank.  Summing
  the slots by (j, eigenvalue of v) gives one evidence row per occupied pair.

* `fast_condition` looks only at the spectrum of ad(v) on the degree-0 and
  degree -1/2 blocks, which controls the spectrum everywhere else.  The only
  eigenvalues needing work are +-2 (resp. +-5/2), where a single injectivity
  computation either certifies the slot as empty (recording the computed
  images as witnesses) or exhibits a genuine violation.  Anything outside
  the tractable range hands off to the slot table wholesale.

`search_v` builds a record's slot table once and checks each v of a small
rational lattice inside h^f against it in integer arithmetic.  A record's
triple is the one `complete_sl2` verifies in `realize_record`; a partition's
is built and verified by `build_classical`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Callable, Iterable

from . import _linalg
from .grading import (
    DynkinGrading,
    NotDegreeMinusOne,
    Sl2Triple,
    complete_sl2,
    grade,
    grade_by_weights,
    is_even_grading,
    verify_good_grading,
)
from .liealg import (
    BasisElement,
    ChevalleyTable,
    F,
    H,
    LieElement,
    build_chevalley,
)
from .orbits import ClassicalRealization, OrbitRecord, classical_basis, is_sl2_triple
from .rootsys import CartanElement, build, pairing


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
    slot_rule: str  # "counting" (verified sl2-triple), "rank", or "none" (no slot table)


@dataclass(frozen=True)
class SearchConfig:
    denominator_bound: int = 2
    coefficient_bound: int = 4


def _admissible(j: Fraction, lam: Fraction) -> bool:
    t = lam + j + 1
    return t.denominator == 1 and t >= 0


def _verdict(rows, witnesses, method: str, slot_rule: str) -> ConditionVerdict:
    rows = sorted(rows, key=lambda r: (r.j, r.eigenvalue))
    status = "pass" if all(r.admissible for r in rows) else "fail"
    return ConditionVerdict(status, tuple(rows), tuple(witnesses), method, slot_rule)


def _integral(x):
    """x as an int when it is integral; `_linalg.rank` is faster on ints."""
    return x.numerator if x.denominator == 1 else x


def _dot(weight, t):
    """A torus element t, given by its coordinate values, on a weight given
    as sparse (coordinate, coefficient) pairs."""
    return sum(c * t[k] for k, c in weight)


def _over_common_denominator(t) -> tuple[list[int], int]:
    """(integers n, den) with t = n / den, so that `_dot` on t runs on ints."""
    den = lcm(*(x.denominator for x in t))
    return [x.numerator * (den // x.denominator) for x in t], den


@dataclass(frozen=True)
class _GradedOperator:
    """ad(f) on a graded basis b_0, b_1, ... on which a torus acts diagonally.

    weights[i] is the torus weight of b_i as sparse (coordinate, integer)
    pairs; column(j) is [f, b_j] as {i: coefficient}, built on each call;
    cartan holds (i, torus coordinates of b_i) per Cartan basis vector b_i;
    sl2 says that f sits in a verified sl2-triple (e, h, f), h giving the
    degrees, and that the torus centralizes it.
    """

    degrees: tuple[Fraction, ...]
    weights: tuple[tuple[tuple[int, int], ...], ...]
    column: Callable[[int], dict[int, int | Fraction]]
    cartan: tuple[tuple[int, tuple], ...]
    sl2: bool


def _chevalley_operator(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    triple: Sl2Triple | None = None,
) -> _GradedOperator:
    """The operator on the Chevalley basis.  The torus coordinates are the
    simple-root pairings a_i(.), so e_a has weight a and f_a weight -a.
    triple is f's sl2-triple on this grading from `complete_sl2`, or None;
    h^f centralizes its e too, as e is the only partner of h and f."""
    a = table.rs.cartan_matrix  # a_i(h_k) = a_ik
    if triple is not None and (
        triple.f != f
        or [sum(c * triple.h[H(k)] for k, c in enumerate(r)) for r in a]
        != list(grading.characteristic.pairings)
    ):
        raise ValueError("the sl2-triple is not the triple of f on this grading")
    fi = table.to_indexed(f)

    def column(j: int) -> dict[int, int | Fraction]:
        return {k: _integral(x) for k, x in table.ad_column(fi, j).items()}

    sign = {"e": 1, "f": -1}
    weights = tuple(
        tuple((k, sign[b.kind] * c) for k, c in enumerate(b.key) if c) if b.kind in sign else ()
        for b in table.basis
    )
    cartan = tuple((table.index[H(k)], tuple(r[k] for r in a)) for k in range(len(a)))
    return _GradedOperator(grading.degrees, weights, column, cartan, triple is not None)


def _units(elt) -> list[tuple[int, int, int | Fraction]]:
    """A symmetrized unit E_ij + c * E_i'j' as (row, column, coefficient) terms."""
    (i, j), partner, c = elt
    return [(i, j, 1)] + ([(*partner, _integral(c))] if partner else [])


def _classical_operator(real: ClassicalRealization) -> _GradedOperator:
    """The operator on the symmetrized matrix units of `classical_basis`.
    The torus is the diagonal, so E_ij + c E_i'j' has weight e_i - e_j.
    sl2 is checked here, so an f replaced after `build_classical` gets the
    rank rule; a diagonal v commuting with f commutes with e as well."""
    basis = classical_basis(real)
    index = {pos: k for k, (pos, _, _) in enumerate(basis)}
    by_col: list[list] = [[] for _ in range(real.size)]
    by_row: list[list] = [[] for _ in range(real.size)]
    for r, row in enumerate(real.f):
        for s, x in enumerate(row):
            if x:
                by_col[s].append((r, _integral(x)))
                by_row[r].append((s, _integral(x)))

    def column(j: int) -> dict[int, int | Fraction]:
        # f E_ab has f's column a in column b, and E_ab f has f's row b in
        # row a; the coordinates of [f, B] are its entries at representatives
        out: dict[int, int | Fraction] = {}
        for a, b, coeff in _units(basis[j]):
            terms = [((r, b), x) for r, x in by_col[a]] + [((a, s), -x) for s, x in by_row[b]]
            for pos, x in terms:
                k = index.get(pos)
                if k is not None:
                    out[k] = out.get(k, 0) + coeff * x
        return {k: x for k, x in out.items() if x}

    hd, v = real.h_diag, real.v_diag
    degrees, weights, cartan = [], [], []
    for k, elt in enumerate(basis):
        (i, j), _, _ = elt
        degrees.append((hd[i] - hd[j]) / 2)
        weights.append(((i, 1), (j, -1)) if i != j else ())
        if i == j:
            coords = [0] * real.size
            for a, _, c in _units(elt):
                coords[a] = c
            cartan.append((k, tuple(coords)))
    sl2 = is_sl2_triple(real) and all(v[r] == v[s] for s, col in enumerate(by_col) for r, _ in col)
    return _GradedOperator(tuple(degrees), tuple(weights), column, tuple(cartan), sl2)


def _kernel_slots(op: _GradedOperator, torus: list) -> list[tuple[Fraction, tuple, int, int]]:
    """ker ad(f) split into (degree, torus weight) slots, for a torus given
    as a list of elements, each by its coordinate values.

    Returns one (degree, weight, representative basis index, multiplicity)
    tuple per occupied slot; for every v in the span of the torus, the
    representative's ad(v)-eigenvalue is the slot's eigenvalue.

    With op.sl2 the weight-mu spans form an sl2-module (h acts by 2d), so a
    slot holds dim g_(d, mu) - dim g_(d-1, mu) at d <= 0 and none at d > 0;
    otherwise dim g_(d, mu) - rank(ad(f): g_(d, mu) -> g_(d-1, mu)).
    """
    groups: dict[tuple, list[int]] = {}
    for i, (d, w) in enumerate(zip(op.degrees, op.weights)):
        groups.setdefault((d, tuple(_dot(w, t) for t in torus)), []).append(i)
    slots = []
    for (d, mu), src in groups.items():
        dst = groups.get((d - 1, mu), [])
        if op.sl2:
            mult = len(src) - len(dst) if d <= 0 else 0
        else:
            mult = len(src) - _linalg.rank(_linalg.block(op.column, src, dst))
        if mult:
            slots.append((d, mu, src[0], mult))
    return slots


def _slot_verdict(op: _GradedOperator, torus, v) -> ConditionVerdict:
    """Slot multiplicities summed by (j, eigenvalue of v), one evidence row
    per occupied pair; v is given by its torus coordinates."""
    ints, den = _over_common_denominator(v)
    mults: dict[tuple[Fraction, Fraction], int] = {}
    for d, _, rep, mult in _kernel_slots(op, torus):
        key = (-d, Fraction(_dot(op.weights[rep], ints), den))
        mults[key] = mults.get(key, 0) + mult
    rows = [EvidenceEntry(j, lam, m, _admissible(j, lam)) for (j, lam), m in mults.items()]
    return _verdict(rows, (), "exact", "counting" if op.sl2 else "rank")


def _self_contragredient(op: _GradedOperator) -> bool:
    """Each centralizer vector w in degree 0 has traceless adjoint action on
    the positive part (and so on the negative part): the trace is a linear
    functional L on g_0, zero on the kernel of M = ad(f): g_0 -> g_-1
    exactly when rank(M + [L]) == rank(M).

    When f is in an sl2-triple (e, h, f) with h giving the degrees, this
    restates the triple.  Such a w spans a trivial sl2 summand, so it
    commutes with e, and ad(e)^(2d): g_-d -> g_d is w-equivariant; the
    Killing form makes g_-d dual to g_d, so tr(w|g_d) = -tr(w|g_d) = 0.
    The pairing with h/2 needs no row either, as it vanishes on the kernel:
    <h, w> = <[e, f], w> = <e, [f, w]> = 0.  The rank test is for an f in
    no triple (f = 0, a dropped root), where the trace row is what fails.
    """
    g0 = [i for i, d in enumerate(op.degrees) if d == 0]
    m = _linalg.block(op.column, g0, [i for i, d in enumerate(op.degrees) if d == -1])
    # ad(w) is traceless on g and on g_0 for w in g_0, so its trace on the
    # negative part is minus its trace on the positive part and needs no row
    # of its own.  A basis vector of nonzero weight shifts every weight, so
    # only Cartan vectors enter the trace, acting on b_j by weight_j.
    positive: dict[int, int] = {}
    for d, w in zip(op.degrees, op.weights):
        if d > 0:
            for k, c in w:
                positive[k] = positive.get(k, 0) + c
    col = {i: c for c, i in enumerate(g0)}
    row = [0] * len(g0)
    for i, coords in op.cartan:
        row[col[i]] = _dot(positive.items(), coords)
    return _linalg.rank(m + [row]) == _linalg.rank(m)


def _support_roots(f: LieElement) -> list[tuple[int, ...]]:
    return [b.key for b in f.coords if b.kind != "h"]


def _require_centralizing(table: ChevalleyTable, f: LieElement, v: CartanElement) -> None:
    for c in _support_roots(f):
        if pairing(table.rs, c, v) != 0:
            raise VNotInCentralizer(f"a(v) = {pairing(table.rs, c, v)} != 0 at root {c}")


def exact_condition(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    v: CartanElement,
    triple: Sl2Triple | None = None,
) -> ConditionVerdict:
    """Exact kernel computation; one evidence row per occupied (j, eigenvalue).

    The kernel slot table is built for f over h^f, and the multiplicities of
    the slots on which v acts by the same eigenvalue are summed per degree.
    Given f's sl2-triple the slots are counted, else each takes one rank.
    """
    _require_centralizing(table, f, v)
    op = _chevalley_operator(table, grading, f, triple)
    return _slot_verdict(op, _hf_basis(table, f), v.pairings)


def fast_condition(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    v: CartanElement,
    triple: Sl2Triple | None = None,
) -> ConditionVerdict:
    """Spectrum-on-two-blocks route; hands off wholesale on hard eigenvalues,
    to the slot table of `exact_condition` (counted when triple is given)."""
    _require_centralizing(table, f, v)
    op = _chevalley_operator(table, grading, f, triple)
    ints, den = _over_common_denominator(v.pairings)
    blocks: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i, (d, w) in enumerate(zip(op.degrees, op.weights)):
        blocks.setdefault((d, Fraction(_dot(w, ints), den)), []).append(i)
    half = Fraction(1, 2)

    rows: list[EvidenceEntry] = []
    witnesses: list[FallbackWitness] = []

    def analyze(d: Fraction, boundary: Fraction) -> bool:
        """One graded block; returns False when the hand-off is needed."""
        special = boundary - 1  # -2 on the integer block, -5/2 on the half block
        for lam in sorted({lam for (dd, lam) in blocks if dd == d}):
            # off the tame lattice, or below its one resolvable value
            if (lam - boundary).denominator != 1 or lam < special:
                return False
            if lam not in (special, -special):
                continue
            # rank defect of ad(f) on the (d, lam) eigenspace; witnesses
            # (each image's support) when it is injective
            src = blocks.get((d, lam), [])
            m = _linalg.block(op.column, src, blocks.get((d - 1, lam), []))
            defect = len(src) - _linalg.rank(m)
            if defect:
                rows.append(EvidenceEntry(-d, lam, defect, _admissible(-d, lam)))
                continue
            for i in src:
                support = sorted(
                    (table.basis[k] for k in op.column(i)), key=lambda b: (b.kind, b.key)
                )
                witnesses.append(FallbackWitness(lam, table.basis[i], tuple(support)))
        return True

    # degree 0: tame eigenvalues are the integers >= -1, the one extra
    # injectivity-resolvable value is -2 (and +2 gets the same treatment);
    # degree -1/2: shift everything down by a half.
    if not (analyze(Fraction(0), Fraction(-1)) and analyze(-half, Fraction(-3, 2))):
        return _slot_verdict(op, _hf_basis(table, f), v.pairings)

    witnesses.sort(key=lambda w: (w.eigenvalue, w.element.kind, w.element.key))
    return _verdict(rows, witnesses, "fast", "none")


def h0f_space(table: ChevalleyTable, f: LieElement) -> list[CartanElement]:
    """Basis of the Cartan elements annihilating every root in the support of f."""
    roots = _support_roots(f)
    n = table.rs.rank
    m = [[Fraction(c) for c in r] for r in roots]
    return [CartanElement.of(vec) for vec in _linalg.nullspace(m, n)]


def _primitive(vec: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The integer vector on vec's ray with coprime entries, first nonzero > 0."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints) * next((1 if x > 0 else -1 for x in ints if x), 1) or 1
    return tuple(x // g for x in ints)


def _hf_basis(table: ChevalleyTable, f: LieElement) -> list[tuple[int, ...]]:
    """`h0f_space` as primitive integer pairing vectors."""
    return [_primitive(w.pairings) for w in h0f_space(table, f)]


def search_v(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    config: SearchConfig = SearchConfig(),
    triple: Sl2Triple | None = None,
):
    """First v in a small rational lattice of h^f that passes
    `exact_condition`, or NOT_FOUND; triple as there.

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
        for d, mu, _, _ in _kernel_slots(_chevalley_operator(table, grading, f, triple), basis)
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
        triple = complete_sl2(table, dynkin, f_roots)
    except NotDegreeMinusOne as exc:
        raise GradingNotGood(str(exc)) from exc
    return exact_condition(table, dynkin, f, v, triple)


def verify_self_contragredient(
    table: ChevalleyTable, grading: DynkinGrading, f: LieElement
) -> bool:
    """`_self_contragredient` on the Chevalley basis."""
    return _self_contragredient(_chevalley_operator(table, grading, f))


# ---------------------------------------------------------------------------
# Classical (matrix) route
# ---------------------------------------------------------------------------


def check_classical(real: ClassicalRealization) -> ConditionVerdict:
    """Kernel slot table on the matrix realization, with v as the torus."""
    op = _classical_operator(real)
    return _slot_verdict(op, [real.v_diag], real.v_diag)


def verify_self_contragredient_classical(real: ClassicalRealization) -> bool:
    """`_self_contragredient` on the matrix realization."""
    return _self_contragredient(_classical_operator(real))


# ---------------------------------------------------------------------------
# Record orchestration
# ---------------------------------------------------------------------------


def realize_record(record: OrbitRecord):
    """(table, dynkin grading, f, sl2 triple) for a bundled record."""
    table = build_chevalley(build(record.algebra))
    grading = grade(table, record.h)
    triple = complete_sl2(table, grading, list(record.f_roots))
    return table, grading, triple.f, triple


def check_realized(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f: LieElement,
    v: CartanElement,
    method: str,
    triple: Sl2Triple | None = None,
) -> ConditionVerdict:
    """`check_record` on the parts `realize_record` returns."""
    if method == "exact":
        return exact_condition(table, grading, f, v, triple)
    if method == "fast":
        return fast_condition(table, grading, f, v, triple)
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    fast = fast_condition(table, grading, f, v, triple)
    exact = exact_condition(table, grading, f, v, triple)
    if fast.status != exact.status:
        raise RuntimeError(
            f"routes disagree on {table.rs.simple_type} at v = {[str(x) for x in v.pairings]}: "
            f"fast={fast.status} exact={exact.status}"
        )
    return ConditionVerdict(exact.status, exact.evidence, fast.fallbacks, "both", exact.slot_rule)


def check_record(record: OrbitRecord, method: str = "both") -> ConditionVerdict:
    """Run the requested route(s) on a bundled record.

    With method="both" both routes run and must agree on the status; the
    merged verdict carries the exact route's evidence and slot rule and the
    fast route's witnesses.  The exact route counts its slots on the
    verified triple and the fast route takes ranks of ad(f) columns, so the
    two share only the degrees and the weights.  When the fast route hands
    off (its method is "exact") both sides are the counted table.
    """
    table, grading, f, triple = realize_record(record)
    return check_realized(table, grading, f, record.v, method, triple)


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
