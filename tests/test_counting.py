"""The sl2 counting rule for kernel slots, against the rank rule as oracle.

On a verified sl2-triple (e, h, f) every (degree d, torus weight mu) span is
a piece of an sl2-module, so the kernel of ad(f) there has dimension
dim g_(d, mu) - dim g_(d-1, mu) for d <= 0 and 0 for d > 0.  `_kernel_slots`
counts that way whenever the operator carries a verified triple and takes
one rank per slot otherwise.  Both rules must give the same evidence rows and
status on every legal so/sp partition of size <= 14 (with its own v and with
v = 0) and on the 15 records for sampled v in h^f.  `ConditionVerdict.slot_rule`
says which rule ran; an f with a root dropped is in no triple and must run by
rank, and counting there would be wrong.
"""
import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_contragredience import legal_partitions
from wrat.grading import grade
from wrat.liealg import F, LieElement
from wrat.orbits import ClassicalPartition, build_classical, is_sl2_triple, load_records
from wrat.ratcheck import (
    _chevalley_operator,
    _classical_operator,
    _hf_basis,
    _slot_verdict,
    check_classical,
    check_realized,
    check_record,
    exact_condition,
    fast_condition,
    realize_record,
    search_v,
)
from wrat.rootsys import CartanElement

RECORDS = load_records()
IDS = [f"{rec.algebra}-{rec.label}" for rec in RECORDS]
PARTITIONS = legal_partitions(range(1, 15))

# the partitions of the `classical` benchmark workload
BENCH_PARTITIONS = (
    ("sp", (13, 13, 10, 10, 6, 4, 2, 2)),
    ("so", (9, 9, 8, 8, 7, 5, 5, 3, 3, 2, 2)),
    ("so", (12, 12, 9, 9, 7, 5, 3, 1)),
)


@functools.cache
def realized(k):
    return realize_record(RECORDS[k])


def by_rank(op):
    return dataclasses.replace(op, sl2=False)


def zero_v(real):
    return dataclasses.replace(real, v_diag=(Fraction(0),) * real.size)


def assert_same_table(counted, ranked):
    assert (counted.slot_rule, ranked.slot_rule) == ("counting", "rank")
    assert (counted.status, counted.evidence) == (ranked.status, ranked.evidence)


def test_partitions_up_to_14_count_as_they_rank():
    assert len(PARTITIONS) == 345
    for p in PARTITIONS:
        for real in (build_classical(p), zero_v(build_classical(p))):
            op = _classical_operator(real)
            assert op.sl2, p
            counted = check_classical(real)
            assert_same_table(counted, _slot_verdict(by_rank(op), [real.v_diag], real.v_diag))


@pytest.mark.parametrize("family,parts", BENCH_PARTITIONS)
def test_bench_partitions_run_by_counting(family, parts):
    real = build_classical(ClassicalPartition.from_parts(family, parts))
    assert check_classical(real).slot_rule == "counting"
    assert check_classical(zero_v(real)).slot_rule == "counting"


def test_replaced_f_runs_by_rank():
    real = build_classical(ClassicalPartition.from_parts("sp", (3, 3, 2)))
    zero = dataclasses.replace(real, f=tuple((Fraction(0),) * real.size for _ in range(real.size)))
    assert not is_sl2_triple(zero)
    assert check_classical(zero).slot_rule == "rank"


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_records_run_by_counting(k):
    rec = RECORDS[k]
    assert check_record(rec, "both").slot_rule == "counting"
    assert check_record(rec, "exact").slot_rule == "counting"
    # the bundled v never makes the fast route hand off
    fast = check_record(rec, "fast")
    assert (fast.method, fast.slot_rule) == ("fast", "none")


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_records_count_as_they_rank_on_sampled_v(k, data):
    table, grading, f, triple = realized(k)
    basis = _hf_basis(table, f)
    den = data.draw(st.integers(1, 4), label="den")
    ks = data.draw(
        st.lists(st.integers(-4, 4), min_size=len(basis), max_size=len(basis)), label="ks"
    )
    v = CartanElement(
        tuple(
            sum((Fraction(c * b[i], den) for c, b in zip(ks, basis)), Fraction(0))
            for i in range(table.rs.rank)
        )
    )
    assert_same_table(
        exact_condition(table, grading, f, v, triple), exact_condition(table, grading, f, v)
    )
    fast = fast_condition(table, grading, f, v, triple)
    assert fast.slot_rule == ("none" if fast.method == "fast" else "counting")
    both = check_realized(table, grading, f, v, "both", triple)
    assert (both.method, both.slot_rule) == ("both", "counting")


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_search_v_same_with_and_without_triple(k):
    table, grading, f, triple = realized(k)
    assert search_v(table, grading, f, triple=triple) == search_v(table, grading, f)


def test_dropped_root_runs_by_rank():
    """f with one root dropped sits in no triple: it runs by rank and gets
    the rank route's verdict.  Counting there would miscount, and the
    record's triple is refused for it."""
    miscounted = 0
    for k, rec in enumerate(RECORDS):
        table, grading, f, triple = realized(k)
        for drop in rec.f_roots:
            g = LieElement({F(c): Fraction(1) for c in rec.f_roots if c != drop})
            got = exact_condition(table, grading, g, rec.v)
            assert got.slot_rule == "rank"
            op = _chevalley_operator(table, grading, g)
            torus = _hf_basis(table, g)
            assert got == _slot_verdict(op, torus, rec.v.pairings)
            forced = _slot_verdict(dataclasses.replace(op, sl2=True), torus, rec.v.pairings)
            miscounted += forced.evidence != got.evidence
            with pytest.raises(ValueError):
                exact_condition(table, grading, g, rec.v, triple)
    assert miscounted


@pytest.mark.parametrize("k", [0, len(RECORDS) - 1], ids=[IDS[0], IDS[-1]])
def test_triple_of_another_grading_is_refused(k):
    table, grading, f, triple = realized(k)
    other = grade(table, 2 * RECORDS[k].h)
    with pytest.raises(ValueError):
        exact_condition(table, other, f, RECORDS[k].v, triple)
