"""The closed-form classical check against the matrix slot table, and its reach.

`classical.check_classical` counts each partition's kernel slots from the
Jordan data: block types and multiplicities, v on each block, and the
form's parity (S^2 V for sp, Lambda^2 V for so).  The oracle in
`classical_matrix_oracle` reads the same realization through the
symmetrized matrix units and the graded operator of `slots`, counted on
the verified triple and ranked slot by slot.  All three must give the same
status and evidence rows on every legal so/sp partition of size <= 16 and
on drawn partitions of size 15-40, with the partition's own v and with
v = 0.  The closed form needs no matrix basis, so partitions far past the
matrix route's reach (size 4,000 and 10,000) finish in well under a
second, and their multiplicities add up to dim g^f.
"""
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

import classical_matrix_oracle as matrix
from test_contragredience import legal_partitions
from test_counting import centralizer_dim, larger_partitions
from wrat import slots
from wrat.classical import ClassicalPartition, build_classical, check_classical
from wrat.cli import main


def assert_matches_the_matrix_table(real):
    """The closed form equals the counted matrix table verdict for verdict,
    and the ranked one row for row."""
    closed = check_classical(real)
    op = matrix._classical_operator(real)
    groups, den = slots._group(op, [real.v_diag])
    assert closed == slots._slot_verdict(op, groups, den)
    ranked = slots._slot_verdict(op._replace(sl2=False), groups, den)
    assert (closed.status, closed.evidence) == (ranked.status, ranked.evidence)


def own_and_zero_v(real):
    return real, real._replace(v_diag=(Fraction(0),) * real.size)


def test_every_partition_up_to_16_matches_the_matrix_table():
    partitions = legal_partitions(range(1, 17))
    assert len(partitions) == 570
    for p in partitions:
        for real in own_and_zero_v(build_classical(p)):
            assert_matches_the_matrix_table(real)


@settings(max_examples=25, deadline=None, database=None)
@given(larger_partitions())
def test_drawn_partitions_up_to_40_match_the_matrix_table(drawn):
    family, parts = drawn
    for real in own_and_zero_v(build_classical(ClassicalPartition.from_parts(family, parts))):
        assert_matches_the_matrix_table(real)


def test_v_off_the_chains_is_refused():
    """v must commute with f: one entry of v moved off its chain's value
    leaves the closed form without an answer."""
    real = build_classical(ClassicalPartition.from_parts("sp", (3, 3, 2)))
    v = list(real.v_diag)
    v[0] += 1
    with pytest.raises(ValueError, match="not constant on f's Jordan chains"):
        check_classical(real._replace(v_diag=tuple(v)))


@pytest.mark.parametrize(
    "parts", [[4000], [2] * 5000], ids=["one-part-4000", "5000-parts-of-2"]
)
@pytest.mark.parametrize("v_zero", [False, True], ids=["own-v", "v-zero"])
def test_large_partitions_finish_and_count_dim_centralizer(capsys, parts, v_zero):
    """check-classical on sp partitions of size 4,000 and 10,000, in
    process: each finishes in seconds, and the evidence multiplicities add
    up to dim g^f."""
    argv = ["check-classical", "--family", "C", "--partition", ",".join(map(str, parts))]
    start = time.perf_counter()
    assert main(argv + ["--v-zero"] * v_zero) == 0
    assert time.perf_counter() - start < 5
    rows = json.loads(capsys.readouterr().out)["evidence"]
    assert sum(r["mult"] for r in rows) == centralizer_dim("sp", parts)
