"""Self-contragredience as a rank test, against the kernel-walk oracles.

`verify_self_contragredient` and `verify_self_contragredient_classical` ask
whether the trace lies in the row space of ad(f): g_0 -> g_-1.  The oracles
in `contragredient_oracle.py` walk a nullspace basis instead, and also test
the h/2 pairing.  Both must agree on every bundled record and on every legal
so/sp partition, and both must return False on the negative controls: f = 0,
and f with one root vector dropped.  The trace row the package builds (read
off Cartan vectors only) is checked against the oracles' rows over all of
g_0, and the oracles' h/2 pairing row, which the package no longer builds,
never raises the rank of ad(f): g_0 -> g_-1 on realized inputs.
"""
import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contragredient_oracle as oracle
from wrat import _linalg
from wrat.liealg import F, LieElement
from wrat.orbits import ClassicalPartition, InvalidPartition, build_classical, load_records
from wrat.ratcheck import (
    _chevalley_operator,
    _classical_operator,
    _dot,
    realize_record,
    verify_self_contragredient,
    verify_self_contragredient_classical,
)

RECORDS = load_records()
IDS = [f"{rec.algebra}-{rec.label}" for rec in RECORDS]


@functools.cache
def realized(k):
    return realize_record(RECORDS[k])


def _parts(n, largest):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _parts(n - k, k):
            yield (k,) + rest


def legal_partitions(sizes):
    out = []
    for n in sizes:
        for family in ("so", "sp"):
            for parts in _parts(n, n):
                try:
                    out.append(ClassicalPartition.from_parts(family, parts))
                except InvalidPartition:
                    pass
    return out


def _zero_f(real):
    return dataclasses.replace(real, f=tuple((Fraction(0),) * real.size for _ in range(real.size)))


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_record_matches_oracle(k):
    table, grading, f, _ = realized(k)
    assert verify_self_contragredient(table, grading, f)
    assert oracle.self_contragredient(table, grading, f)


def assert_functionals_match(op, g0, pair, pos, neg):
    """The checks carry one trace row and read it off Cartan vectors only:
    the g<0 row is minus the g>0 row, both rows vanish off the Cartan part,
    and the trace at a Cartan vector is the sum of the positive weights
    there.  The h/2 pairing row is zero on ker ad(f): g_0 -> g_-1, so
    appending it never raises the rank.  Returns whether that row is
    nonzero, so callers can tell that the rank test had something to see."""
    assert neg == [-x for x in pos]
    positive = [w for w, d in zip(op.weights, op.degrees) if d > 0]
    cartan = {i: sum(_dot(w, coords) for w in positive) for i, coords in op.cartan}
    assert {i: x for i, x in zip(g0, pos) if x or i in cartan} == cartan
    m = _linalg.block(op.column, g0, [i for i, d in enumerate(op.degrees) if d == -1])
    assert len(_linalg.rref(m + [pair])[1]) == len(_linalg.rref(m)[1])
    return any(pair)


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_record_functionals_match_oracle(k):
    table, grading, f, _ = realized(k)
    g0, (pos, neg) = oracle.trace_rows(table, grading)
    pair = oracle.pairing_row(table, grading)
    assert assert_functionals_match(_chevalley_operator(table, grading, f), g0, pair, pos, neg)


def test_partition_functionals_match_oracle():
    for p in legal_partitions(range(1, 13)):
        real = build_classical(p)
        g0, (pos, neg) = oracle.trace_rows_classical(real)
        pair = oracle.pairing_row_classical(real)
        # h = 0 only on the partition 1, 1, ..., 1
        nonzero = assert_functionals_match(_classical_operator(real), g0, pair, pos, neg)
        assert nonzero == any(x > 1 for x in p.pairs + p.singles), p


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(legal_partitions([13, 14])))
def test_sampled_partitions_up_to_14_pairing_row_is_redundant(p):
    real = build_classical(p)
    g0, (pos, neg) = oracle.trace_rows_classical(real)
    pair = oracle.pairing_row_classical(real)
    assert_functionals_match(_classical_operator(real), g0, pair, pos, neg)


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_record_negative_controls(k):
    table, grading, f, _ = realized(k)
    controls = [LieElement({})]
    roots = RECORDS[k].f_roots
    if len(roots) > 1:
        for drop in roots:
            controls.append(LieElement({F(c): Fraction(1) for c in roots if c != drop}))
    for g in controls:
        assert not verify_self_contragredient(table, grading, g), g
        assert not oracle.self_contragredient(table, grading, g), g


def test_partitions_up_to_12_match_oracle():
    parts = legal_partitions(range(1, 13))
    assert len(parts) > 200
    for p in parts:
        real = build_classical(p)
        assert verify_self_contragredient_classical(real), p
        assert oracle.self_contragredient_classical(real), p
        zero = _zero_f(real)
        assert verify_self_contragredient_classical(zero) == oracle.self_contragredient_classical(
            zero
        ), p


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(legal_partitions([13, 14])))
def test_sampled_partitions_up_to_14_match_oracle(p):
    real = build_classical(p)
    assert verify_self_contragredient_classical(real) == oracle.self_contragredient_classical(real)
    assert verify_self_contragredient_classical(real)


@pytest.mark.parametrize(
    "family,parts",
    [("sp", (3, 3, 2)), ("so", (5, 5, 4, 4)), ("sp", (13, 13, 10, 10, 6, 4, 2, 2))],
)
def test_classical_zero_f_is_not_self_contragredient(family, parts):
    zero = _zero_f(build_classical(ClassicalPartition.from_parts(family, parts)))
    assert not verify_self_contragredient_classical(zero)
    assert not oracle.self_contragredient_classical(zero)
