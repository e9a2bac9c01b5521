"""The rationality check on the Chevalley route: exceptional records.

For a nilpotent f of degree -1 and a degree-0 Cartan element v with
[v, f] = 0, the question answered here is whether every ad(v)-eigenvalue on
the piece of the centralizer of f in degree -j lies in -j - 1 + {0, 1, 2, ...}.
A record is read on its Chevalley basis through the graded operator of
`slots` (`_chevalley_operator`): degrees from the grading, torus weights
a(t) and -a(t) on e_a and f_a, the columns of ad(f) from the table.

* `exact_condition` reads the evidence off the kernel slot table of
  `slots`, with v itself as the torus: one evidence row per (degree,
  eigenvalue) slot, counted on f's verified sl2-triple, else one exact
  rank per slot.

* `fast_condition` looks only at the spectrum of ad(v) on the degree-0 and
  degree -1/2 blocks, which controls the spectrum everywhere else.  The only
  eigenvalues needing work are +-2 (resp. +-5/2), where a single injectivity
  computation either certifies the slot as empty (recording the computed
  images as witnesses) or exhibits a genuine violation.  Anything outside
  the tractable range hands off to the slot table wholesale.

`check_realized` checks v against f and builds the operator and its
grouping at v once for every route it runs; `verify_self_contragredient`
answers a verified triple without one.

`search_v`, the only user of h^f, builds a record's slot table once with h^f
as the torus; h^f kills every root in the support of f and holds every v
centralizing f.  Each v of a small rational lattice inside h^f is checked
against that table in integer arithmetic.  A record's triple is the one
`complete_sl2` verifies in `realize_record`.

Classical partitions (matrix units) are checked in `classical`.  Its
`check_classical` and `verify_self_contragredient_classical` still resolve
here, through the module `__getattr__`: views kept for the benchmark's
files, whose tracer names the layers `ratcheck.check_classical` and
`ratcheck.verify_self_contragredient_classical`, until ROADMAP item 1
settles the layer names, as `grading.ad_block` is kept.  Importing this
module does not load `classical`.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul
from typing import NamedTuple

from . import RoutesDisagree, _linalg, grading as gr, liealg
from .orbits import OrbitRecord
from .rootsys import CartanElement, build, pairing
from .slots import (
    ConditionVerdict,
    FallbackWitness,
    _GradedOperator,
    _admissible,
    _group,
    _kernel_slots,
    _self_contragredient,
    _shift,
    _slot_verdict,
    _verdict,
)


class VNotInCentralizer(ValueError):
    """The candidate v does not commute with the nilpotent f."""


class _NotFound:
    """Sentinel: no passing v exists within the searched lattice."""

    def __repr__(self) -> str:
        return "NotFound"

    def __reduce__(self) -> str:
        return "NOT_FOUND"  # a copy or an unpickled one is the module's instance


NOT_FOUND = _NotFound()


class SearchConfig(NamedTuple):
    denominator_bound: int = 2
    coefficient_bound: int = 4


def _require_triple(
    table: liealg.ChevalleyTable, grading: gr.DynkinGrading, f: liealg.Element, triple
) -> None:
    """triple, from `complete_sl2`, is f's sl2-triple on this grading: its f
    is f and its h pairs with the simple roots as the grading's does."""
    a = table.rs.cartan_matrix  # a_i(h_k) = a_ik
    h = [triple.h.get(table.index[liealg.H(k)], 0) for k in range(len(a))]
    pairings = [sum(c * x for c, x in zip(r, h)) for r in a]
    if triple.f != f or pairings != list(grading.characteristic.pairings):
        raise ValueError("the sl2-triple is not the triple of f on this grading")


def _chevalley_operator(
    table: liealg.ChevalleyTable,
    grading: gr.DynkinGrading,
    f: liealg.Element,
    triple: gr.Sl2Triple | None = None,
) -> _GradedOperator:
    """The operator on the Chevalley basis.  The torus coordinates are the
    simple-root pairings a_i(.), so e_a has weight a and f_a weight -a, as
    `table.weigh` evaluates them; the degrees are the grading's.  triple is
    f's sl2-triple on this grading from `complete_sl2`, or None; h^f
    centralizes its e too, as e is the only partner of h and f.  A column
    of ad(f) is int when f's coefficients are, as a record's are."""
    if triple is not None:
        _require_triple(table, grading, f, triple)
    a = table.rs.cartan_matrix

    def column(j: int) -> liealg.Element:
        return table.ad_column(f, j)

    cartan = tuple((table.index[liealg.H(k)], tuple(r[k] for r in a)) for k in range(len(a)))
    return _GradedOperator(
        grading.degree_nums, grading.degree_den, table.weigh, column, cartan, triple is not None
    )


def _support_roots(table: liealg.ChevalleyTable, f: liealg.Element) -> list[tuple[int, ...]]:
    return [table.basis[i].key for i in f if table.basis[i].kind != "h"]


def _require_centralizing(
    table: liealg.ChevalleyTable, f: liealg.Element, v: CartanElement
) -> None:
    """a(v) = 0 at every support root a of f, each a(v) from `pairing`,
    which raises DimensionMismatch first on a v of the wrong rank."""
    for c in _support_roots(table, f):
        a = pairing(table.rs, c, v)
        if a:
            raise VNotInCentralizer(f"a(v) = {a} != 0 at root {c}")


def _realize(
    table: liealg.ChevalleyTable,
    grading: gr.DynkinGrading,
    f: liealg.Element,
    v: CartanElement,
    triple: gr.Sl2Triple | None,
) -> tuple[_GradedOperator, dict[tuple, list[int]], int]:
    """(op, groups, den), the parts every route of one verdict reads: v
    checked against f, then the operator and its grouping at v."""
    _require_centralizing(table, f, v)
    op = _chevalley_operator(table, grading, f, triple)
    return (op, *_group(op, [v.pairings]))


def exact_condition(
    table: liealg.ChevalleyTable,
    grading: gr.DynkinGrading,
    f: liealg.Element,
    v: CartanElement,
    triple: gr.Sl2Triple | None = None,
    *,
    parts: tuple | None = None,
) -> ConditionVerdict:
    """Exact kernel computation; one evidence row per occupied (j, eigenvalue).

    The kernel slot table is built for f with v as the torus, so each slot
    is one (j, eigenvalue) pair.  Given f's sl2-triple the slots are
    counted, else each takes one rank.  parts, when given, is `_realize`'s
    result on these arguments.
    """
    return _slot_verdict(*(parts or _realize(table, grading, f, v, triple)))


def fast_condition(
    table: liealg.ChevalleyTable,
    grading: gr.DynkinGrading,
    f: liealg.Element,
    v: CartanElement,
    triple: gr.Sl2Triple | None = None,
    *,
    parts: tuple | None = None,
) -> ConditionVerdict:
    """Spectrum-on-two-blocks route; hands off wholesale on hard eigenvalues,
    to `exact_condition`'s slot table (counted given triple) on its grouping.
    parts as there."""
    op, groups, den = parts or _realize(table, grading, f, v, triple)

    D = op.degree_den
    scale = den * D
    defects: list[tuple[int, int, int]] = []
    witnesses: list[FallbackWitness] = []

    def analyze(d: int) -> bool:
        """One graded block, degree d / D, j = -d / D; returns False when
        the hand-off is needed.  Eigenvalue lam = n / den there is tame when
        it is `_admissible`; the one extra injectivity-resolvable value is
        lam + j + 1 = -1, and lam = j + 2 gets the same treatment."""
        for n in sorted({n for (dd, (n,)) in groups if dd == d}):
            t = _shift(d, n, D, den)
            if t != -scale and not _admissible(t, scale):
                return False
            if t != -scale and n * D != (2 * D - d) * den:
                continue
            # rank defect of ad(f) on the (d, lam) eigenspace; witnesses
            # (each image's support) when it is injective
            src = groups[(d, (n,))]
            m = _linalg.block(op.column, src, groups.get((d - D, (n,)), []))
            defect = len(src) - _linalg.rank(m)
            if defect:
                defects.append((d, n, defect))
                continue
            lam = Fraction(n, den)
            for i in src:
                support = sorted(
                    (table.basis[k] for k in op.column(i)), key=lambda b: (b.kind, b.key)
                )
                witnesses.append(FallbackWitness(lam, table.basis[i], tuple(support)))
        return True

    # degree 0: tame eigenvalues are the integers >= -1, the one extra
    # injectivity-resolvable value is -2 (and +2 gets the same treatment);
    # degree -1/2: shift everything down by a half.
    if not (analyze(0) and analyze(-D // 2)):
        return _slot_verdict(op, groups, den)

    witnesses.sort(key=lambda w: (w.eigenvalue, w.element.kind, w.element.key))
    return _verdict(defects, D, den, witnesses, "fast", "none")


def h0f_space(table: liealg.ChevalleyTable, f: liealg.Element) -> list[CartanElement]:
    """Basis of the Cartan elements annihilating every root in the support of f."""
    roots = _support_roots(table, f)
    return [CartanElement(tuple(vec)) for vec in _linalg.nullspace(roots, table.rs.rank)]


def _primitive(vec: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The integer vector on vec's ray with coprime entries, first nonzero > 0."""
    ints, _ = _linalg.over_common(vec)
    g = gcd(*ints) * next((1 if x > 0 else -1 for x in ints if x), 1) or 1
    return tuple(x // g for x in ints)


def _hf_basis(table: liealg.ChevalleyTable, f: liealg.Element) -> list[tuple[int, ...]]:
    """`h0f_space` as primitive integer pairing vectors."""
    return [_primitive(w.pairings) for w in h0f_space(table, f)]


def search_v(
    table: liealg.ChevalleyTable,
    grading: gr.DynkinGrading,
    f: liealg.Element,
    config: SearchConfig = SearchConfig(),
    triple: gr.Sl2Triple | None = None,
):
    """First v in a small rational lattice of h^f that passes
    `exact_condition`, or NOT_FOUND; triple as there.

    Candidates are v = sum k_i b_i / den over the primitive basis b of h^f,
    with |k_i| <= coefficient_bound and den <= denominator_bound; the one
    returned is the least passing v in order of its least common
    denominator, then lexicographically.  The kernel slot table is built
    once; on slot (d, mu) v acts by sum k_i mu_i / den, so each (den, k) is
    checked against the occupied slots by `_admissible`, stopping at the
    first inadmissible slot.  Passing depends on v alone, so only the
    passing candidates are reduced and compared.

    Even gradings need no search: v = 0 always works there.
    """
    rank = table.rs.rank
    if gr.is_even_grading(grading):
        return CartanElement.zero(rank)
    basis = _hf_basis(table, f)
    if not basis:
        return NOT_FOUND
    op = _chevalley_operator(table, grading, f, triple)
    q = op.degree_den
    checks = [(d, mu) for d, mu, _ in _kernel_slots(op, _group(op, basis)[0])]

    B = config.coefficient_bound
    # (reduced denominator, numerators) orders exactly as (lcm, v) does
    best = None
    for den in range(1, config.denominator_bound + 1):
        scale = den * q
        for ks in product(range(-B, B + 1), repeat=len(basis)):
            if not any(ks):
                continue
            for d, mu in checks:
                if not _admissible(_shift(d, sum(map(mul, ks, mu)), q, den), scale):
                    break
            else:
                ints = [sum(k * b[i] for k, b in zip(ks, basis)) for i in range(rank)]
                g = gcd(den, *ints)
                key = (den // g, tuple(x // g for x in ints))
                if best is None or key < best:
                    best = key
    if best is None:
        return NOT_FOUND
    lcd, ints = best
    return CartanElement(tuple(Fraction(x, lcd) for x in ints))


def verify_self_contragredient(
    table: liealg.ChevalleyTable,
    grading: gr.DynkinGrading,
    f: liealg.Element,
    triple: gr.Sl2Triple | None = None,
) -> bool:
    """Self-contragredience on the Chevalley basis: given f's sl2-triple
    from `complete_sl2`, True once `_require_triple` passes, with no
    operator; else `_self_contragredient`'s rank test."""
    if triple is not None:
        _require_triple(table, grading, f, triple)
        return True
    return _self_contragredient(_chevalley_operator(table, grading, f))


# ---------------------------------------------------------------------------
# Record orchestration
# ---------------------------------------------------------------------------


def realize_record(record: OrbitRecord):
    """(table, dynkin grading, f, sl2 triple) for a bundled record."""
    table = liealg.build_chevalley(build(record.algebra))
    grading = gr.grade(table, record.h)
    triple = gr.complete_sl2(table, grading, list(record.f_roots))
    return table, grading, triple.f, triple


def check_realized(
    table: liealg.ChevalleyTable,
    grading: gr.DynkinGrading,
    f: liealg.Element,
    v: CartanElement,
    method: str,
    triple: gr.Sl2Triple | None = None,
) -> ConditionVerdict:
    """`check_record` on the parts `realize_record` returns.  v is checked
    against f, and the operator and its grouping at v are built, once for
    every route."""
    if method not in ("exact", "fast", "both"):
        raise ValueError(f"unknown method {method!r}")
    op, groups, den = parts = _realize(table, grading, f, v, triple)
    if method == "exact":
        return exact_condition(table, grading, f, v, triple, parts=parts)
    fast = fast_condition(table, grading, f, v, triple, parts=parts)
    if method == "fast":
        return fast
    handoff = fast.method == "exact"
    if handoff:
        # the fast side is the counted table: rank the slots instead
        parts = (op._replace(sl2=False), groups, den)
    exact = exact_condition(table, grading, f, v, triple, parts=parts)
    if fast.status != exact.status:
        why = f"fast={fast.status} exact={exact.status}"
    elif handoff and fast.evidence != exact.evidence:
        why = "the counted and the ranked slot tables differ"
    else:
        return ConditionVerdict(exact.status, exact.evidence, fast.fallbacks, "both", exact.slot_rule)
    raise RoutesDisagree(
        f"routes disagree on {table.rs.simple_type} at v = {[str(x) for x in v.pairings]}: {why}"
    )


def check_record(record: OrbitRecord, method: str = "both") -> ConditionVerdict:
    """Run the requested route(s) on a bundled record.

    With method="both" both routes run and must agree on the status; the
    merged verdict carries the exact route's evidence and slot rule and the
    fast route's witnesses.  The exact route counts its slots on the
    verified triple and the fast route takes ranks of ad(f) columns, so the
    two share only the degrees, the weights and the grouping.  When the
    fast route hands off (its method is "exact") it returns the counted
    table, and the exact side takes one rank per slot instead (slot rule
    "rank"), so the gate still sets counts against ranks; both sides are
    then whole slot tables, and every evidence row must agree as well;
    when they do not, `wrat.RoutesDisagree` is raised.
    """
    table, grading, f, triple = realize_record(record)
    return check_realized(table, grading, f, record.v, method, triple)


def __getattr__(name: str):
    if name in ("check_classical", "verify_self_contragredient_classical"):
        from . import classical

        return getattr(classical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
