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
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contragredient_oracle import ad_block
from linalg_oracle import rref
from wrat.orbits import load_records
from wrat.ratcheck import (
    EvidenceEntry,
    _admissible,
    _chevalley_operator,
    _group,
    _hf_basis,
    _kernel_slots,
    exact_condition,
    realize_record,
)
from wrat.rootsys import CartanElement, pairing

RECORDS = load_records()
IDS = [f"{rec.algebra}-{rec.label}" for rec in RECORDS]


def eigenvalue(table, i, v):
    """ad(v)-eigenvalue of basis vector i: a(v) on e_a, -a(v) on f_a, 0 on h."""
    b = table.basis[i]
    if b.kind == "h":
        return Fraction(0)
    val = pairing(table.rs, b.key, v)
    return val if b.kind == "e" else -val


def blockwise_condition(table, grading, f, v):
    """(status, evidence rows) from one rank per (degree, eigenvalue) block."""
    blocks: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i in range(table.dimension):
        blocks.setdefault((grading.degrees[i], eigenvalue(table, i, v)), []).append(i)
    rows = []
    for (d, lam), src in blocks.items():
        dst = blocks.get((d - 1, lam), [])
        m = ad_block(table, f, tuple(src), tuple(dst))
        mult = len(src) - len(rref(m)[1])
        if mult:
            rows.append(EvidenceEntry(-d, lam, mult, _admissible(-d, lam)))
    rows.sort(key=lambda r: (r.j, r.eigenvalue))
    status = "pass" if all(r.admissible for r in rows) else "fail"
    return status, tuple(rows)


@functools.cache
def realized(k):
    table, grading, f, triple = realize_record(RECORDS[k])
    return table, grading, f, triple, _hf_basis(table, f)


@functools.cache
def hf_slots(k):
    """The (degree, h^f-weight, multiplicity) slots `search_v` checks."""
    table, grading, f, triple, basis = realized(k)
    op = _chevalley_operator(table, grading, f, triple)
    return _kernel_slots(op, _group(op, basis)[0])


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
