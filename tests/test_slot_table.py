"""`exact_condition` (kernel slot table) against the blockwise oracle, and
against the h^f slot table of `search_v`.

The oracle is the direct algorithm: group the Chevalley basis by
(degree, ad(v)-eigenvalue) for the given v and take one exact rank per
block, counted as the pivots of the Gauss-Jordan `linalg_oracle.rref`
rather than by the integer `_linalg.rank` the package uses.  Its ad(f) blocks are summed
straight from `ChevalleyTable.basis_bracket` (`contragredient_oracle.ad_block`),
not from the package's `ad_column`/`_linalg.block` assembly.  Both must give
identical evidence rows and status for every v in h^f.

`exact_condition` groups by (degree, eigenvalue of v) as well, with v as the
torus of its slot table: ranked without a triple, counted with one.
`search_v` groups once per f by (degree, h^f-weight) and reads each
candidate v off those finer slots.  Summing the h^f slots by (j, eigenvalue
of v) must give `exact_condition`'s evidence rows for every v in h^f.

The package decides each row in integers (degree and eigenvalue numerators
over two denominators fixed per table); the oracles here make every degree
and eigenvalue a Fraction, sort on Fractions and test admissibility with
`_admissible`, one Fraction sum per row.  The same check runs on the matrix
realizations of so/sp partitions, with their own v and with v = 0.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from classical_matrix_oracle import _classical_operator, classical_basis
from contragredient_oracle import _ad_f, ad_block, degrees, dense
from linalg_oracle import rref
from test_contragredience import legal_partitions
from wrat.classical import build_classical, check_classical
from wrat import slots
from wrat.orbits import load_records
from wrat.ratcheck import (
    _chevalley_operator,
    _hf_basis,
    exact_condition,
    fast_condition,
    realize_record,
)
from wrat.rootsys import CartanElement, pairing
from wrat.slots import EvidenceEntry, _group, _kernel_slots, _slot_verdict

RECORDS = load_records()
IDS = [f"{rec.algebra}-{rec.label}" for rec in RECORDS]


def _admissible(j: Fraction, lam: Fraction) -> bool:
    """The condition on one row, in Fractions: lam + j + 1 is a
    nonnegative integer."""
    t = lam + j + 1
    return t.denominator == 1 and t >= 0


def eigenvalue(table, i, v):
    """ad(v)-eigenvalue of basis vector i: a(v) on e_a, -a(v) on f_a, 0 on h."""
    b = table.basis[i]
    if b.kind == "h":
        return Fraction(0)
    val = pairing(table.rs, b.key, v)
    return val if b.kind == "e" else -val


def fraction_verdict(blocks, ad):
    """(status, evidence rows) from one rank per (degree, eigenvalue) block,
    given the blocks keyed by Fraction (degree, eigenvalue) and ad(src, dst),
    the matrix of ad(f) between two blocks."""
    rows = []
    for (d, lam), src in blocks.items():
        dst = blocks.get((d - 1, lam), [])
        mult = len(src) - len(rref(ad(src, dst))[1])
        if mult:
            rows.append(EvidenceEntry(-d, lam, mult, _admissible(-d, lam)))
    rows.sort(key=lambda r: (r.j, r.eigenvalue))
    status = "pass" if all(r.admissible for r in rows) else "fail"
    return status, tuple(rows)


def blockwise_condition(table, grading, f, v):
    """`fraction_verdict` on the Chevalley basis."""
    blocks: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i, deg in enumerate(degrees(grading)):
        blocks.setdefault((deg, eigenvalue(table, i, v)), []).append(i)
    return fraction_verdict(blocks, lambda src, dst: ad_block(table, f, tuple(src), tuple(dst)))


def blockwise_classical(real):
    """`fraction_verdict` on the symmetrized matrix units: E_ij + c E_i'j'
    sits in degree (h_i - h_j) / 2 with eigenvalue v_i - v_j, and [f, B] is
    read at the representatives from the dense f (`contragredient_oracle`)."""
    h, v = real.h_diag, real.v_diag
    f = dense(real, real.f)
    blocks: dict[tuple[Fraction, Fraction], list] = {}
    for elt in classical_basis(real):
        (i, j), _, _ = elt
        blocks.setdefault((Fraction(h[i] - h[j], 2), Fraction(v[i] - v[j])), []).append(elt)

    def ad(src, dst):
        row_of = {elt[0]: r for r, elt in enumerate(dst)}
        m = [[Fraction(0)] * len(src) for _ in dst]
        for c, elt in enumerate(src):
            for pos, x in _ad_f(f, elt).items():
                if pos in row_of:
                    m[row_of[pos]][c] = x
        return m

    return fraction_verdict(blocks, ad)


@functools.cache
def realized(k):
    table, grading, f, triple = realize_record(RECORDS[k])
    return table, grading, f, triple, _hf_basis(table, f)


@functools.cache
def hf_slots(k):
    """The (degree, h^f-weight, multiplicity) slots `search_v` checks, the
    degree as a Fraction."""
    table, grading, f, triple, basis = realized(k)
    op = _chevalley_operator(table, grading, f, triple)
    slots = _kernel_slots(op, _group(op, basis)[0])
    return [(Fraction(d, op.degree_den), mu, mult) for d, mu, mult in slots]


def draw_v(data, table, basis):
    """v = sum k_i b_i / den over the primitive h^f basis b, as (v, ks, den)."""
    den = data.draw(st.integers(1, 4), label="den")
    ks = data.draw(
        st.lists(st.integers(-4, 4), min_size=len(basis), max_size=len(basis)),
        label="ks",
    )
    v = CartanElement(
        tuple(
            sum((Fraction(c * b[i], den) for c, b in zip(ks, basis)), Fraction(0))
            for i in range(table.rs.rank)
        )
    )
    return v, ks, den


def assert_routes_agree(table, grading, f, v):
    got = exact_condition(table, grading, f, v)
    assert (got.status, got.evidence) == blockwise_condition(table, grading, f, v)


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_record_v_matches_oracle(k):
    table, grading, f, _, _ = realized(k)
    assert_routes_agree(table, grading, f, RECORDS[k].v)


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_sampled_v_matches_oracle(k, data):
    table, grading, f, _, basis = realized(k)
    v, _, _ = draw_v(data, table, basis)
    assert_routes_agree(table, grading, f, v)


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_hf_slots_summed_at_v_equal_exact_evidence(k, data):
    """On slot (d, mu) of the h^f table v acts by sum k_i mu_i / den; the
    multiplicities summed per (j, eigenvalue) are `exact_condition`'s rows."""
    table, grading, f, triple, basis = realized(k)
    v, ks, den = draw_v(data, table, basis)
    mults: dict[tuple[Fraction, Fraction], int] = {}
    for d, mu, mult in hf_slots(k):
        key = (-d, Fraction(sum(c * m for c, m in zip(ks, mu)), den))
        mults[key] = mults.get(key, 0) + mult
    got = exact_condition(table, grading, f, v, triple)
    assert {(r.j, r.eigenvalue): r.multiplicity for r in got.evidence} == mults
    assert all(r.admissible == _admissible(r.j, r.eigenvalue) for r in got.evidence)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_integer_rows_match_the_fraction_oracle(data):
    """The slot table's rows, their order, admissibility and status, counted
    and ranked, equal the Fraction oracle's for a record and a v drawn from
    h^f (most of which make `fast_condition` hand off) or the record's own
    v.  The fast route agrees on the status; it hands off to the same rows,
    or gives some of them as its defect rows, in the same order."""
    k = data.draw(st.integers(0, len(RECORDS) - 1), label="record")
    table, grading, f, triple, basis = realized(k)
    if data.draw(st.booleans(), label="own v"):
        v = RECORDS[k].v
    else:
        v, _, _ = draw_v(data, table, basis)
    want = blockwise_condition(table, grading, f, v)
    op = _chevalley_operator(table, grading, f, triple)
    for o in (op, op._replace(sl2=False)):
        got = _slot_verdict(o, *_group(o, [v.pairings]))
        assert (got.status, got.evidence) == want
    fast = fast_condition(table, grading, f, v, triple)
    event(f"fast route: {fast.method}")
    assert fast.status == want[0]
    if fast.method == "exact":
        assert fast.evidence == want[1]
    else:
        rows = list(fast.evidence)
        assert set(rows) <= set(want[1])
        assert rows == sorted(rows, key=lambda r: (r.j, r.eigenvalue))


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(-30, 30), st.integers(1, 6), st.integers(-30, 30), st.integers(1, 6))
def test_shift_and_admissible_match_the_definition(n, den, d, degree_den):
    """`slots._shift` is (lam + j + 1) den D for lam = n / den and
    j = -d / D, and `slots._admissible` on it holds exactly when
    lam + j + 1 is an integer >= 0."""
    lam, j = Fraction(n, den), Fraction(-d, degree_den)
    t = slots._shift(d, n, degree_den, den)
    assert t == (lam + j + 1) * den * degree_den
    assert slots._admissible(t, den * degree_den) == _admissible(j, lam)


@pytest.mark.parametrize(
    "d,n,degree_den,den,t,ok",
    [
        (2, 0, 2, 3, 0, True),  # lam + j + 1 = 0
        (2, -3, 2, 3, -6, False),  # = -1: t = -den D
        (1, 1, 2, 3, 5, False),  # one below den D
        (1, 4, 2, 3, 11, False),  # one below 2 den D
        (0, 0, 2, 3, 6, True),  # = 1
        (1, 0, 1, 1, 0, True),  # D = den = 1: t is lam + j + 1 itself
        (1, -1, 1, 1, -1, False),
    ],
)
def test_admissible_at_the_boundary(d, n, degree_den, den, t, ok):
    """The boundary cases of the admissibility test, each pinned to its t."""
    assert slots._shift(d, n, degree_den, den) == t
    assert slots._admissible(t, den * degree_den) is ok
    assert _admissible(Fraction(-d, degree_den), Fraction(n, den)) is ok


CLASSICAL = legal_partitions(range(1, 11))


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(CLASSICAL), st.booleans())
def test_classical_integer_rows_match_the_fraction_oracle(partition, v_zero):
    """`check_classical`'s rows against the Fraction oracle on the matrix
    realization, with the partition's own v or with v = 0 (`--v-zero`),
    counted and ranked."""
    real = build_classical(partition)
    if v_zero:
        real = real._replace(v_diag=(0,) * real.size)
    want = blockwise_classical(real)
    got = check_classical(real)
    assert (got.status, got.evidence) == want
    op = _classical_operator(real)._replace(sl2=False)
    ranked = _slot_verdict(op, *_group(op, [real.v_diag]))
    assert (ranked.status, ranked.evidence) == want


@pytest.mark.parametrize("name", ["G2 A1~", "E6 3A1"])
@pytest.mark.parametrize("k", [3, -3])
def test_fast_route_hands_off_below_its_resolvable_value(name, k):
    """At v = k/2 times the first primitive h^f vector, degree 0 holds the
    eigenvalue -3, below -2, the one value an injectivity check resolves
    there; a kernel vector sits in that slot.  The fast route must hand
    off and fail with the exact route."""
    (idx,) = [i for i, rec in enumerate(RECORDS) if f"{rec.algebra} {rec.label}" == name]
    table, grading, f, triple, basis = realized(idx)
    v = CartanElement(tuple(Fraction(k * x, 2) for x in basis[0]))
    fast = fast_condition(table, grading, f, v, triple)
    assert (fast.method, fast.status) == ("exact", "fail")
    assert (fast.status, fast.evidence) == blockwise_condition(table, grading, f, v)
    assert EvidenceEntry(Fraction(0), Fraction(-3), 1, False) in fast.evidence
