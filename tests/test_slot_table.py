"""`exact_condition` (kernel slot table) against the blockwise oracle.

The oracle is the direct algorithm: group the Chevalley basis by
(degree, ad(v)-eigenvalue) for the given v and take one exact rank per
block, counted as the pivots of the Gauss-Jordan `_linalg.rref` rather than
by the integer `_linalg.rank` the package uses.  The slot table groups by (degree, h^f-weight) instead, once per f;
both must give identical evidence rows and status for every v in h^f.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrat import _linalg
from wrat.grading import ad_block
from wrat.orbits import load_records
from wrat.ratcheck import (
    EvidenceEntry,
    _admissible,
    _hf_basis,
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
    fi = table.to_indexed(f)
    blocks: dict[tuple[Fraction, Fraction], list[int]] = {}
    for i in range(table.dimension):
        blocks.setdefault((grading.degrees[i], eigenvalue(table, i, v)), []).append(i)
    rows = []
    for (d, lam), src in blocks.items():
        dst = blocks.get((d - 1, lam), [])
        m = ad_block(table, fi, tuple(src), tuple(dst))
        mult = len(src) - len(_linalg.rref(m)[1])
        if mult:
            rows.append(EvidenceEntry(-d, lam, mult, _admissible(-d, lam)))
    rows.sort(key=lambda r: (r.j, r.eigenvalue))
    status = "pass" if all(r.admissible for r in rows) else "fail"
    return status, tuple(rows)


@functools.cache
def realized(k):
    table, grading, f, _ = realize_record(RECORDS[k])
    return table, grading, f, _hf_basis(table, f)


def assert_routes_agree(table, grading, f, v):
    got = exact_condition(table, grading, f, v)
    assert (got.status, got.evidence) == blockwise_condition(table, grading, f, v)


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_record_v_matches_oracle(k):
    table, grading, f, _ = realized(k)
    assert_routes_agree(table, grading, f, RECORDS[k].v)


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_sampled_v_matches_oracle(k, data):
    table, grading, f, basis = realized(k)
    den = data.draw(st.integers(1, 4), label="den")
    ks = data.draw(
        st.lists(st.integers(-4, 4), min_size=len(basis), max_size=len(basis)),
        label="ks",
    )
    rank = table.rs.rank
    v = CartanElement(
        tuple(
            sum((Fraction(c * b[i], den) for c, b in zip(ks, basis)), Fraction(0))
            for i in range(rank)
        )
    )
    assert_routes_agree(table, grading, f, v)
