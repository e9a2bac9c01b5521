"""Self-tests for the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q

They are not part of the repository's test suite (pytest's testpaths is
tests/), because they test the benchmark, not wrat.
"""
from __future__ import annotations

import copy
import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_covered_child_time():
    # root [0, 100) has children [10, 30) and [20, 50) (overlapping: covered
    # 40) and [60, 70); the first child has a grandchild [12, 18)
    spans = [
        ("root", 0, 100, -1, "r"),
        ("a", 10, 30, 0, "r"),
        ("leaf", 12, 18, 1, "r"),
        ("a", 20, 50, 0, "r"),
        ("b", 60, 70, 0, "r"),
    ]
    self_ns, calls = tracer.self_times(spans)
    assert self_ns == {"root": 100 - 40 - 10, "a": (20 - 6) + 30, "leaf": 6, "b": 10}
    assert calls == {"root": 1, "a": 2, "leaf": 1, "b": 1}


def test_covered_clips_children_to_the_parent():
    assert tracer.covered_ns([(5, 15), (14, 30)], 10, 20) == 10
    assert tracer.covered_ns([], 0, 10) == 0


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def test_centralizer_dimension_formula_matches_check_classical():
    from wrat.orbits import ClassicalPartition, InvalidPartition, build_classical
    from wrat.ratcheck import check_classical

    checked = 0
    for n in range(1, 15):
        for parts in _partitions(n):
            for family in ("so", "sp"):
                try:
                    partition = ClassicalPartition.from_parts(family, parts)
                except InvalidPartition:
                    continue
                verdict = check_classical(build_classical(partition))
                total = sum(row.multiplicity for row in verdict.evidence)
                assert total == workloads.centralizer_dim(family, parts), (family, parts)
                checked += 1
    assert checked > 300


def _golden_series(name):
    wl = workloads.make_workload("series", workloads.DEFAULT_SEED, ".bench_work")
    req = next(r for r in wl.requests if r.name == f"frobenius_{name}")
    out = json.loads(req.golden_path("series").read_bytes())
    return req, out


@pytest.mark.parametrize("name", ["recursion", "log"])
def test_residual_check_accepts_golden_and_rejects_one_perturbed_coefficient(name):
    req, out = _golden_series(name)
    workloads.check_series(req.expect["system"], req.expect["order"], out)

    bad = copy.deepcopy(out)
    coeffs = bad["coefficients"] if name == "recursion" else bad["layers"]["0:0"]
    poly = coeffs[7][1]
    poly[0] = str(Fraction(poly[0]) + Fraction(1, 5)) if poly else "1/5"
    with pytest.raises(workloads.CheckFailed, match="fails at n = \\[7"):
        workloads.check_series(req.expect["system"], req.expect["order"], bad)


def test_log_check_rejects_a_dropped_seed():
    req, out = _golden_series("log")
    system = copy.deepcopy(req.expect["system"])
    system["seeds"]["0:0"] = [[[8], [3]]]
    with pytest.raises(workloads.CheckFailed, match="ignores its seed"):
        workloads.check_series(system, req.expect["order"], out)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_same_seed_gives_identical_requests_and_files(name, seed):
    first = workloads.make_workload(name, seed, ".bench_work")
    second = workloads.make_workload(name, seed, ".bench_work")
    assert [r.argv for r in first.requests] == [r.argv for r in second.requests]
    assert first.files == second.files


def test_default_series_systems_are_the_documented_ones():
    wl = workloads.make_workload("series", workloads.DEFAULT_SEED, ".bench_work")
    assert list(wl.files.values()) == [
        b'{"ell":2,"A":[[0,[[["1/2"],[0,1]],[[],["-1/3"]]]],[1,[[[1],[]],[[0,1],[1]]]]],'
        b'"f":[[1,[[1],[0,1]]]],"seeds":[]}\n',
        b'{"ell":2,"A":[[0,[[[],[1,1]],[[],[]]]],[1,[[[0,1],[]],[[1],[0,1]]]]],'
        b'"exponents":[0,"1/3"],"K":1,"seeds":{"0:1":[[[3,3],[]]],"0:0":[[[7],[3]]]}}\n',
    ]


def test_unresolved_entry_point_is_reported_absent():
    import wrat.grading

    fake = types.ModuleType("wrat.grading")
    for attr, value in vars(wrat.grading).items():
        if attr != "grade":
            setattr(fake, attr, value)
    modules = {"wrat.grading": fake}
    t = tracer.Tracer("req")
    t.install(modules)
    assert "grading.grade" in t.absent
    assert "grading.ad_block" not in t.absent
    assert fake.ad_block is not wrat.grading.ad_block
    assert fake.ad_block.__wrapped__ is wrat.grading.ad_block
