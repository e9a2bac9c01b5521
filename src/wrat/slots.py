"""The kernel slot table of the Chevalley route, and the verdict every route shares.

For a nilpotent f of degree -1 and a degree-0 Cartan element v with
[v, f] = 0, the question is whether every ad(v)-eigenvalue on the piece of
the centralizer of f in degree -j lies in -j - 1 + {0, 1, 2, ...}.

An exceptional record (its Chevalley basis, in `ratcheck`) is read through
a graded operator, `_GradedOperator`: per basis vector a degree; the torus
weights of all basis vectors at once, at a torus element given by its
integer coordinate values (a(t) and -a(t) on e_a and f_a); the columns
[f, b_j] of ad(f), built on demand; the Cartan basis vectors with their
torus coordinates; and whether f sits in a verified sl2-triple (e, h, f).

ad(f) maps the (degree d, torus weight mu) span into the (d - 1, mu) span,
so ker ad(f) splits into slots (d, mu).  With v itself as the torus a slot
is a pair (d, eigenvalue of v) and gives one evidence row.  On a verified
triple each slot is counted (Kostant), reading only degrees and weights;
without one it takes one exact rank.  A classical partition (`classical`)
counts the same slots in closed form from its Jordan data and hands them
to `_verdict`.  A row is decided in integers: its degree and eigenvalue are
integer numerators over two positive denominators fixed per table, so the
rows sort on those numerators, and each row's two Fractions are made once,
for the output.  Every admissibility decision reads `_admissible` on
`_shift`.  `_self_contragredient` is the rank test for an f in no triple.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import _linalg, liealg


class EvidenceEntry(NamedTuple):
    j: Fraction
    eigenvalue: Fraction
    multiplicity: int
    admissible: bool


class FallbackWitness(NamedTuple):
    eigenvalue: Fraction
    element: liealg.BasisElement
    image_support: tuple[liealg.BasisElement, ...]


class ConditionVerdict(NamedTuple):
    status: str  # "pass" | "fail"
    evidence: tuple[EvidenceEntry, ...]
    fallbacks: tuple[FallbackWitness, ...]
    method: str
    slot_rule: str  # "counting" (verified sl2-triple), "rank", or "none" (no slot table)


def _shift(d: int, n: int, degree_den: int, den: int) -> int:
    """t = (lam + j + 1) den degree_den, lam = n / den, j = -d / degree_den."""
    return n * degree_den - d * den + den * degree_den


def _admissible(t: int, scale: int) -> bool:
    """Whether t / scale (scale = den degree_den) is an integer >= 0."""
    return t >= 0 and not t % scale


def _verdict(
    slots, degree_den: int, den: int, witnesses, method: str, slot_rule: str
) -> ConditionVerdict:
    """The verdict on integer slots (d, n, mult): mult kernel vectors of
    eigenvalue n / den in degree -d / degree_den.  Both denominators are
    positive, so (-d, n) sorts as (j, lam) does; each row is decided by
    `_admissible` on its `_shift`."""
    scale = den * degree_den
    rows = []
    for d, n, mult in sorted(slots, key=lambda s: (-s[0], s[1])):
        ok = _admissible(_shift(d, n, degree_den, den), scale)
        rows.append(EvidenceEntry(Fraction(-d, degree_den), Fraction(n, den), mult, ok))
    status = "pass" if all(r.admissible for r in rows) else "fail"
    return ConditionVerdict(status, tuple(rows), tuple(witnesses), method, slot_rule)


class _GradedOperator(NamedTuple):
    """ad(f) on a graded basis b_0, b_1, ... on which a torus acts diagonally.

    b_i sits in degree degrees[i] / degree_den, integers over one even
    denominator, so that degree -1/2 has a key as well; weigh(t) is the
    tuple of torus weights of all b_i at the torus element with integer
    coordinate values t; column(j) is [f, b_j] as {i: coefficient}, built
    on each call; cartan holds (i, torus coordinates of b_i) per Cartan
    basis vector b_i; sl2 says that f sits in a verified sl2-triple
    (e, h, f), h giving the degrees, and that the torus centralizes it.
    """

    degrees: tuple[int, ...]
    degree_den: int
    weigh: Callable[[list[int]], tuple[int, ...]]
    column: Callable[[int], dict[int, int | Fraction]]
    cartan: tuple[tuple[int, tuple], ...]
    sl2: bool


def _group(op: _GradedOperator, torus: list) -> tuple[dict[tuple, list[int]], int]:
    """(groups, den): basis indices by (degree numerator, torus weight), for
    a torus given as a list of elements by their coordinate values (v alone,
    or the h^f basis of `search_v`).  The weights are taken on den times the
    torus, den the common denominator, so every key is integers."""
    flat, den = _linalg.over_common([x for t in torus for x in t])
    rows = iter(flat)
    ints = [[next(rows) for _ in t] for t in torus]
    mus = [op.weigh(t) for t in ints]
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(op.degrees, zip(*mus))):
        groups.setdefault(key, []).append(i)
    return groups, den


def _kernel_slots(op: _GradedOperator, groups: dict) -> list[tuple[int, tuple, int]]:
    """ker ad(f) split into the (degree, torus weight) slots of `_group`.

    Returns one (degree, weight, multiplicity) tuple per occupied slot, the
    degree as its numerator over op.degree_den.

    With op.sl2 the weight-mu spans form an sl2-module (h acts by 2d), so a
    slot holds dim g_(d, mu) - dim g_(d-1, mu) at d <= 0 and none at d > 0;
    otherwise dim g_(d, mu) - rank(ad(f): g_(d, mu) -> g_(d-1, mu)).
    """
    slots = []
    for (d, mu), src in groups.items():
        dst = groups.get((d - op.degree_den, mu), [])
        if op.sl2:
            mult = len(src) - len(dst) if d <= 0 else 0
        else:
            mult = len(src) - _linalg.rank(_linalg.block(op.column, src, dst))
        if mult:
            slots.append((d, mu, mult))
    return slots


def _slot_verdict(op: _GradedOperator, groups: dict, den: int) -> ConditionVerdict:
    """One evidence row per occupied slot of `_group`'s table with v alone
    as the torus: slot (d, (n,)) holds eigenvalue n / den in degree
    j = -d / op.degree_den."""
    slots = [(d, n, mult) for d, (n,), mult in _kernel_slots(op, groups)]
    return _verdict(slots, op.degree_den, den, (), "exact", "counting" if op.sl2 else "rank")


def _self_contragredient(op: _GradedOperator) -> bool:
    """Each centralizer vector w in degree 0 has traceless adjoint action on
    the positive part (and so on the negative part): the trace is a linear
    functional L on g_0, zero on the kernel of M = ad(f): g_0 -> g_-1
    exactly when rank(M + [L]) == rank(M).

    The rank test is for an f in no sl2-triple (f = 0, a dropped root).
    On a verified triple (e, h, f), h giving the degrees, both realizations
    answer True without it: such a w spans a trivial sl2 summand, so it
    commutes with e, and ad(e)^(2d): g_-d -> g_d is w-equivariant; the
    Killing form makes g_-d dual to g_d, so tr(w|g_d) = -tr(w|g_d) = 0.
    The h/2 pairing vanishes on the kernel: <h, w> = <e, [f, w]> = 0.
    """
    g0 = [i for i, d in enumerate(op.degrees) if d == 0]
    m = _linalg.block(op.column, g0, [i for i, d in enumerate(op.degrees) if d == -op.degree_den])
    # ad(w), w in g_0, is traceless on g and on g_0, so the negative part
    # needs no row of its own.  Only Cartan vectors enter the trace (the
    # others shift every weight), acting on b_j by weight_j.
    col = {i: c for c, i in enumerate(g0)}
    row = [0] * len(g0)
    for i, coords in op.cartan:
        row[col[i]] = sum([w for d, w in zip(op.degrees, op.weigh(coords)) if d > 0])
    return _linalg.rank(m + [row]) == _linalg.rank(m)


def verdict_to_json(algebra: str, label: str, verdict: ConditionVerdict, q=None) -> dict:
    """The verdict as JSON under algebra and label, and q after them when given."""
    return {
        "algebra": algebra,
        "label": label,
        **({} if q is None else {"q": q}),
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
