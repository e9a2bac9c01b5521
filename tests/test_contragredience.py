"""Self-contragredience as a rank test, against the kernel-walk oracles.

On a verified sl2-triple the verdict is a theorem, so
`verify_self_contragredient` and `verify_self_contragredient_classical`
return True there without building an operator; for an f in no triple they
ask, through `_self_contragredient`, whether the trace lies in the row
space of ad(f): g_0 -> g_-1.  That shortcut must equal the rank test on the
same realization's operator on every bundled record and on every legal
so/sp partition of size <= 12, and a record's triple is refused for any
other f and for another grading.  The oracles
in `contragredient_oracle.py` walk a nullspace basis instead, and also test
the h/2 pairing.  Both must agree on every bundled record and on every legal
so/sp partition, and both must return False on the negative controls: f = 0,
and f with one root vector dropped.  The trace row the package builds (read
off Cartan vectors only) is checked against the oracles' rows over all of
g_0, and the oracles' h/2 pairing row, which the package no longer builds,
never raises the rank of ad(f): g_0 -> g_-1 on realized inputs.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classical_matrix_oracle as matrix
import contragredient_oracle as oracle
from classical_matrix_oracle import _classical_operator
from linalg_oracle import rref
from wrat import _linalg, grading as gr, ratcheck, slots
from wrat.liealg import F
from wrat.classical import (
    ClassicalPartition,
    InvalidPartition,
    build_classical,
    verify_self_contragredient_classical,
)
from wrat.orbits import load_records
from wrat.ratcheck import _chevalley_operator, realize_record, verify_self_contragredient
from wrat.slots import _self_contragredient

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
    return real._replace(f={})


def assert_triple_path_is_rank_path(shortcut, op):
    """A realization's public answer on its verified triple, given as
    shortcut, against the rank test it skips, on that realization's
    operator."""
    assert op.sl2
    assert shortcut == _self_contragredient(op)


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_record_matches_oracle(k):
    table, grading, f, triple = realized(k)
    assert verify_self_contragredient(table, grading, f, triple)
    assert verify_self_contragredient(table, grading, f)
    assert oracle.self_contragredient(table, grading, f)
    assert_triple_path_is_rank_path(
        verify_self_contragredient(table, grading, f, triple),
        _chevalley_operator(table, grading, f, triple),
    )


@pytest.mark.parametrize("k", range(len(RECORDS)), ids=IDS)
def test_record_triple_path_builds_no_operator(k, monkeypatch):
    """Given the triple, `verify_self_contragredient` checks it against f
    and the grading and answers without an operator or the rank test: True
    on the record, ValueError for an f with one root vector dropped and for
    the grading of another record of the same algebra."""
    table, grading, f, triple = realized(k)
    roots = RECORDS[k].f_roots
    dropped = {table.index[F(c)]: 1 for c in roots[1:]}
    other = next(r.h for r in RECORDS if r.algebra == RECORDS[k].algebra and r.h != RECORDS[k].h)
    other_grading = gr.grade(table, other)

    def refuse(*args, **kwargs):
        raise AssertionError("an operator or the rank test on the triple path")

    for home in (ratcheck, slots):
        monkeypatch.setattr(home, "_self_contragredient", refuse)
    monkeypatch.setattr(ratcheck, "_chevalley_operator", refuse)
    assert verify_self_contragredient(table, grading, f, triple) is True
    for g, gd in ((dropped, grading), (f, other_grading)):
        with pytest.raises(ValueError, match="not the triple of f"):
            verify_self_contragredient(table, gd, g, triple)


def assert_functionals_match(op, g0, pair, pos, neg):
    """The checks carry one trace row and read it off Cartan vectors only:
    the g<0 row is minus the g>0 row, both rows vanish off the Cartan part,
    and the trace at a Cartan vector is the sum of the positive weights
    there.  The h/2 pairing row is zero on ker ad(f): g_0 -> g_-1, so
    appending it never raises the rank.  Returns whether that row is
    nonzero, so callers can tell that the rank test had something to see."""
    assert neg == [-x for x in pos]
    cartan = {
        i: sum(w for w, d in zip(op.weigh(coords), op.degrees) if d > 0)
        for i, coords in op.cartan
    }
    assert {i: x for i, x in zip(g0, pos) if x or i in cartan} == cartan
    m = _linalg.block(op.column, g0, [i for i, d in enumerate(op.degrees) if d == -op.degree_den])
    assert len(rref(m + [pair])[1]) == len(rref(m)[1])
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
    table, grading, f, triple = realized(k)
    controls = [{}]
    roots = RECORDS[k].f_roots
    if len(roots) > 1:
        for drop in roots:
            controls.append({table.index[F(c)]: Fraction(1) for c in roots if c != drop})
    for g in controls:
        assert not verify_self_contragredient(table, grading, g), g
        assert not oracle.self_contragredient(table, grading, g), g
        with pytest.raises(ValueError):
            verify_self_contragredient(table, grading, g, triple)


def test_partitions_up_to_12_match_oracle():
    parts = legal_partitions(range(1, 13))
    assert len(parts) > 200
    for p in parts:
        real = build_classical(p)
        assert_triple_path_is_rank_path(
            verify_self_contragredient_classical(real), _classical_operator(real)
        )
        assert verify_self_contragredient_classical(real), p
        assert oracle.self_contragredient_classical(real), p
        zero = _zero_f(real)
        ranked = matrix.verify_self_contragredient_classical(zero)
        assert ranked == oracle.self_contragredient_classical(zero), p
        if real.f:
            with pytest.raises(ValueError, match="no verified sl2-triple"):
                verify_self_contragredient_classical(zero)
        else:  # the partition 1, 1, ..., 1, whose f is 0 in the trivial triple
            assert verify_self_contragredient_classical(zero) == ranked, p


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
    """f = 0 is in no triple: the package refuses it, and the matrix
    oracle's rank test and the kernel walk both say False."""
    zero = _zero_f(build_classical(ClassicalPartition.from_parts(family, parts)))
    with pytest.raises(ValueError, match="no verified sl2-triple"):
        verify_self_contragredient_classical(zero)
    assert not matrix.verify_self_contragredient_classical(zero)
    assert not oracle.self_contragredient_classical(zero)
