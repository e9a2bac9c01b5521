"""The sl2 counting rule for kernel slots, against the rank rule as oracle.

On a verified sl2-triple (e, h, f) every (degree d, torus weight mu) span is
a piece of an sl2-module, so the kernel of ad(f) there has dimension
dim g_(d, mu) - dim g_(d-1, mu) for d <= 0 and 0 for d > 0.  `_kernel_slots`
counts that way whenever the operator carries a verified triple and takes
one rank per slot otherwise.  Both rules must give the same evidence rows and
status on every legal so/sp partition of size <= 14 (with its own v and with
v = 0) and on the 15 records for sampled v in h^f; past size 14 the counted
multiplicities must add up to dim g^f.  On a partition the counted side is
`classical.check_classical`, which counts in closed form from the Jordan
data, and the ranked side the operator of `classical_matrix_oracle`.
`ConditionVerdict.slot_rule` says which rule ran; an f with a root dropped
is in no triple and must run by rank, and counting there would be wrong.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical_matrix_oracle as matrix
from classical_matrix_oracle import _classical_operator
from test_contragredience import legal_partitions
from wrat.grading import grade
from wrat.liealg import F
from wrat.classical import (
    ClassicalPartition,
    build_classical,
    check_classical,
    is_sl2_triple,
)
from wrat.orbits import load_records
from wrat.ratcheck import (
    _chevalley_operator,
    _hf_basis,
    check_realized,
    check_record,
    exact_condition,
    fast_condition,
    realize_record,
    search_v,
)
from wrat.rootsys import CartanElement
from wrat.slots import _group, _slot_verdict

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
    return op._replace(sl2=False)


def slot_verdict(op, v):
    return _slot_verdict(op, *_group(op, [v]))


def zero_v(real):
    return real._replace(v_diag=(Fraction(0),) * real.size)


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
            assert_same_table(counted, slot_verdict(by_rank(op), real.v_diag))


@st.composite
def larger_partitions(draw):
    """A legal so/sp partition of size 15-40, built to a drawn size: a part
    of 1-14 that the family must pair (even in so, odd in sp) enters twice
    and counts twice, so an sp size is even."""
    family = draw(st.sampled_from(["so", "sp"]))
    paired = 0 if family == "so" else 1
    left = draw(st.integers(15, 40)) if family == "so" else 2 * draw(st.integers(8, 20))
    parts = []
    while left:
        fits = [p for p in range(1, 15) if p * (2 if p % 2 == paired else 1) <= left]
        p = draw(st.sampled_from(fits))
        times = 2 if p % 2 == paired else 1
        parts += [p] * times
        left -= p * times
    return family, parts


def centralizer_dim(family, parts):
    """dim g^f from the partition: 1/2 sum (dual part)^2 +- 1/2 #{odd parts},
    + in sp and - in so."""
    dual = [sum(1 for p in parts if p > i) for i in range(max(parts))]
    odd = sum(p % 2 for p in parts)
    return (sum(x * x for x in dual) + (odd if family == "sp" else -odd)) // 2


@settings(max_examples=40, deadline=None, database=None)
@given(larger_partitions())
def test_larger_partitions_count_dim_centralizer(drawn):
    """Past the sizes the rank rule checks, the counted slots still add up
    to dim g^f, with the partition's own v and with v = 0."""
    family, parts = drawn
    real = build_classical(ClassicalPartition.from_parts(family, parts))
    for r in (real, zero_v(real)):
        verdict = check_classical(r)
        assert verdict.slot_rule == "counting"
        assert sum(e.multiplicity for e in verdict.evidence) == centralizer_dim(family, parts)


@pytest.mark.parametrize("family,parts", BENCH_PARTITIONS)
def test_bench_partitions_run_by_counting(family, parts):
    real = build_classical(ClassicalPartition.from_parts(family, parts))
    assert check_classical(real).slot_rule == "counting"
    assert check_classical(zero_v(real)).slot_rule == "counting"


def test_replaced_f_runs_by_rank():
    """An f in no triple has no closed form: the package refuses it, and
    the matrix oracle ranks its slots."""
    real = build_classical(ClassicalPartition.from_parts("sp", (3, 3, 2)))
    zero = real._replace(f={})
    assert not is_sl2_triple(zero)
    with pytest.raises(ValueError, match="no verified sl2-triple"):
        check_classical(zero)
    assert matrix.check_classical(zero).slot_rule == "rank"


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
    if fast.method == "exact":
        assert fast == exact_condition(table, grading, f, v, triple)
    both = check_realized(table, grading, f, v, "both", triple)
    # on a hand-off the fast side is the counted table and the exact side
    # ranks the slots, so the gate sets counts against ranks
    rule = "rank" if fast.method == "exact" else "counting"
    assert (both.method, both.slot_rule) == ("both", rule)
    assert both.evidence == exact_condition(table, grading, f, v, triple).evidence


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_search_v_same_with_and_without_triple(k):
    table, grading, f, triple = realized(k)
    assert search_v(table, grading, f, 2, 4, triple) == search_v(table, grading, f, 2, 4)


def test_dropped_root_runs_by_rank():
    """f with one root dropped sits in no triple: it runs by rank and gets
    the rank route's verdict.  Counting there would miscount, and the
    record's triple is refused for it."""
    miscounted = 0
    for k, rec in enumerate(RECORDS):
        table, grading, f, triple = realized(k)
        for drop in rec.f_roots:
            g = {table.index[F(c)]: Fraction(1) for c in rec.f_roots if c != drop}
            got = exact_condition(table, grading, g, rec.v)
            assert got.slot_rule == "rank"
            op = _chevalley_operator(table, grading, g)
            assert got == slot_verdict(op, rec.v.pairings)
            forced = slot_verdict(op._replace(sl2=True), rec.v.pairings)
            miscounted += forced.evidence != got.evidence
            with pytest.raises(ValueError):
                exact_condition(table, grading, g, rec.v, triple)
    assert miscounted


@pytest.mark.parametrize("k", [0, len(RECORDS) - 1], ids=[IDS[0], IDS[-1]])
def test_triple_of_another_grading_is_refused(k):
    table, grading, f, triple = realized(k)
    other = grade(table, CartanElement.of([2 * x for x in RECORDS[k].h.pairings]))
    with pytest.raises(ValueError):
        exact_condition(table, other, f, RECORDS[k].v, triple)
