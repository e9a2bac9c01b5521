import ast
import contextlib
import copy
import gc
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import series_oracle
import wrat
from wrat import _linalg, cli, frobenius as fr, orbits, ratcheck, slots
from wrat.classical import ClassicalPartition
from wrat._serde import rat_to_json
from wrat.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    return rc, json.loads(out), err


REPORT_TSV = """\
algebra\tlabel\tq\tstatus\tfallbacks
E6\t3A1\t2\tpass\t-
E6\t2A2+A1\t3\tpass\t-
E7\t4A1\t2\tpass\t-
E7\t2A2+A1\t3\tpass\t-
E8\t4A1\t2\tpass\t-
E8\t2A2+2A1\t3\tpass\t-2,2
E8\t2A3\t4\tpass\t-
E8\tA4+A3\t5\tpass\t-5/2,-2,2,5/2
E8\tA6+A1\t7\tpass\t-2,2
E8\tA7\t8\tpass\t-
F4\tA1\t2\tpass\t-
F4\tA2~+A1\t3\tpass\t-
F4\tA2+A1~\t4\tpass\t-2,2
G2\tA1~\t2\tpass\t-
G2\tA1\t3\tpass\t-
"""


def test_check_exceptional_pass(capsys):
    rc, d, _ = run_json(capsys, "check-exceptional", "--algebra", "G2", "--q", "3")
    assert rc == 0
    assert list(d) == ["algebra", "label", "q", "status", "evidence", "fallbacks"]
    assert (d["algebra"], d["label"], d["q"], d["status"]) == ("G2", "A1", [3], "pass")
    assert d["fallbacks"] == []
    assert {"j": "0", "lambda": "0", "mult": 1, "admissible": True} in d["evidence"]
    assert sum(e["mult"] for e in d["evidence"]) == 8


def test_check_exceptional_by_label(capsys):
    rc, d, _ = run_json(capsys, "check-exceptional", "--algebra", "E8", "--label", "A7")
    assert rc == 0
    assert d["label"] == "A7" and d["status"] == "pass"
    # q and label together must agree
    rc, d, _ = run_json(
        capsys, "check-exceptional", "--algebra", "E8", "--label", "A7", "--q", "8"
    )
    assert rc == 0
    rc, _, err = run(
        capsys, "check-exceptional", "--algebra", "E8", "--label", "A7", "--q", "7"
    )
    assert rc == 3 and err.startswith("error:")
    rc, _, err = run(capsys, "check-exceptional", "--algebra", "E8", "--label", "Zz")
    assert rc == 3


def test_check_exceptional_fallback_shape(capsys):
    rc, d, _ = run_json(capsys, "check-exceptional", "--algebra", "F4", "--q", "4")
    assert rc == 0
    eigs = sorted(w["eigenvalue"] for w in d["fallbacks"])
    assert eigs == ["-2", "2"]
    for w in d["fallbacks"]:
        assert w["element"] and w["image_support"]


def test_check_exceptional_methods_agree(capsys):
    rc_e, d_e, _ = run_json(
        capsys, "check-exceptional", "--algebra", "G2", "--q", "2", "--exact"
    )
    rc_f, d_f, _ = run_json(
        capsys, "check-exceptional", "--algebra", "G2", "--q", "2", "--fast"
    )
    assert rc_e == rc_f == 0
    assert d_e["status"] == d_f["status"] == "pass"


def test_check_exceptional_even_or_external(capsys):
    rc, out, err = run(capsys, "check-exceptional", "--algebra", "E6", "--q", "5")
    assert rc == 3
    assert json.loads(out) == {"algebra": "E6", "q": 5, "status": "even-or-external"}
    assert err.startswith("error:")


def test_check_exceptional_bad_inputs(capsys):
    rc, _, err = run(capsys, "check-exceptional", "--algebra", "A3", "--q", "2")
    assert rc == 3 and err.startswith("error:")
    rc, _, err = run(capsys, "check-exceptional", "--algebra", "H4", "--q", "2")
    assert rc == 3 and err.startswith("error:")
    rc, _, err = run(capsys, "check-exceptional", "--algebra", "G2")
    assert rc == 3 and err.startswith("error:")


PLAIN_SYSTEM = {"ell": 1, "A": [[0, [[0]]]], "seeds": [[[1]]]}
KEYED_SYSTEM = {
    "ell": 2,
    "A": [[0, [[0, 1], [0, 0]]]],
    "exponents": [0],
    "K": 1,
    "seeds": {"0:1": [[[3], [0]]], "0:0": [[[7], [3]]]},
}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check-exceptional", "--algebra", "E8"], "need --q or --label to pick a record"),
        (
            ["check-exceptional", "--algebra", "E8", "--label", "A7", "--q", "7"],
            "record E8 A7 belongs to q = (8,), not 7",
        ),
        (
            ["check-exceptional", "--algebra", "E8", "--label", "Zz"],
            "no bundled record E8 with label 'Zz'",
        ),
        (
            ["check-exceptional", "--algebra", "C3", "--label", "A1"],
            "no bundled record C3 with label 'A1'",
        ),
        (
            ["check-exceptional", "--algebra", "C3", "--q", "3"],
            "C3 is classical; no bundled record applies",
        ),
        (
            ["check-classical", "--family", "C", "--partition", "3,x"],
            "partition must be comma-separated integers: '3,x'",
        ),
        (
            ["check-classical", "--family", "B", "--partition", "4,4"],
            "partition of 8 is type D, not B",
        ),
        (["frobenius", "{plain}", "--route", "log"], "log route needs seeds keyed as 'j:k'"),
        (
            ["frobenius", "{keyed}", "--route", "recursion"],
            "plain routes need a seed list, not 'j:k' layers",
        ),
        (
            ["frobenius", "{keyed}", "--route", "contraction"],
            "plain routes need a seed list, not 'j:k' layers",
        ),
        (
            ["frobenius", "{plain}", "--route", "contraction"],
            "contraction route needs a domain block",
        ),
    ],
    ids=[
        "no-q-or-label", "q-off-label", "unknown-label", "classical-label", "classical-q",
        "partition-text", "partition-letter", "log-on-plain", "recursion-on-keyed",
        "contraction-on-keyed", "contraction-without-domain",
    ],
)
def test_bad_input_messages_are_pinned(capsys, tmp_path, argv, message):
    """The exact stderr of each record, partition and route refusal: one
    line, exit 3, nothing on stdout."""
    paths = {
        "{plain}": write_system(tmp_path, "plain.json", PLAIN_SYSTEM),
        "{keyed}": write_system(tmp_path, "keyed.json", KEYED_SYSTEM),
    }
    rc, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert (rc, out, err) == (3, "", f"error: {message}\n")


def test_check_classical(capsys):
    rc, d, _ = run_json(
        capsys, "check-classical", "--family", "C", "--partition", "3,3,2"
    )
    assert rc == 0
    assert d["algebra"] == "C4" and d["label"] == "sp[3,3,2]"
    assert d["status"] == "pass"
    rc, d, _ = run_json(
        capsys, "check-classical", "--family", "D", "--partition", "5,5,4,4"
    )
    assert rc == 0
    assert d["algebra"] == "D9" and d["label"] == "so[5,5,4,4]"
    assert d["status"] == "pass"
    # the so/sp spellings work too and pick the letter automatically
    rc, d, _ = run_json(
        capsys, "check-classical", "--family", "so", "--partition", "2,2,1"
    )
    assert rc == 0 and d["algebra"] == "B2"


def test_check_classical_spec_examples(capsys):
    rc, d, _ = run_json(
        capsys, "check-classical", "--family", "C", "--partition", "1,1,2"
    )
    assert rc == 0 and d["status"] == "pass"
    rc, d, _ = run_json(
        capsys, "check-classical", "--family", "B", "--partition", "2,2,1"
    )
    assert rc == 0 and d["status"] == "pass"
    # odd part unpaired in sp: parity violation
    rc, _, err = run(capsys, "check-classical", "--family", "C", "--partition", "1,2")
    assert rc == 3 and err.startswith("error:")


def test_check_classical_letter_mismatch(capsys):
    # so[2,2] has even size, so it is D, not B
    rc, _, err = run(capsys, "check-classical", "--family", "B", "--partition", "2,2")
    assert rc == 3 and "not B" in err


@pytest.mark.parametrize(
    "family,parts,label",
    [
        ("B", "1", "so1"),
        ("so", "1,1", "so2"),
        ("B", "3", "A1"),
        ("so", "1,1,1", "A1"),
        ("C", "2", "A1"),
        ("sp", "1,1", "A1"),
        ("so", "2,2", "so4"),
        ("so", "3,1", "so4"),
        ("so", "3,3", "A3"),
        ("D", "5,1", "A3"),
        ("B", "2,2,1", "B2"),
        ("C", "2,2", "C2"),
        ("D", "4,4", "D4"),
        ("C", "13,13,10,10,6,4,2,2", "C30"),
        ("B", "9,9,8,8,7,5,5,3,3,2,2", "B30"),
        ("D", "12,12,9,9,7,5,3,1", "D29"),
    ],
)
def test_classical_algebra_labels(capsys, family, parts, label):
    for cmd in ("check-classical", "verify-contragredient"):
        _, d, _ = run_json(capsys, cmd, "--family", family, "--partition", parts)
        assert d["algebra"] == label


def test_classical_algebra_labels_name_the_algebra(capsys):
    """On every legal partition of size <= 14 the label is a simple type of
    the algebra's dimension, or one of the three non-simple so(1), so(2),
    so(4); where the letter's own type exists the label is that type."""
    from test_contragredience import legal_partitions
    from wrat.rootsys import IllegalType, SimpleType, build

    for p in legal_partitions(range(1, 15)):
        parts = ",".join(str(x) for x in sorted(list(p.pairs) * 2 + list(p.singles)))
        _, d, _ = run_json(
            capsys, "verify-contragredient", "--family", p.family, "--partition", parts
        )
        n = p.size
        if d["algebra"] in ("so1", "so2", "so4"):
            assert d["algebra"] == f"so{n}" and p.family == "so"
            continue
        st = SimpleType.parse(d["algebra"])
        dim = n * (n - 1) // 2 if p.family == "so" else n * (n + 1) // 2
        assert st.rank + 2 * len(build(st).positive_roots) == dim
        try:
            assert st == SimpleType(p.letter, n // 2)
        except IllegalType:
            pass


def _simple_type_label(partition) -> str:
    """The label as read off `rootsys.SimpleType`, which raises on the
    ranks below each classical type's least one."""
    from wrat.rootsys import IllegalType, SimpleType

    key = (partition.letter, partition.size // 2)
    try:
        return str(SimpleType(*key))
    except IllegalType:
        low = {("B", 1): "A1", ("C", 1): "A1", ("D", 3): "A3"}
        return low.get(key, f"{partition.family}{partition.size}")


def test_algebra_label_matches_the_simple_type_rule():
    """`ClassicalPartition.algebra_label` reads the least classical ranks without
    `rootsys`; at every legal size 1-64 of so and sp it names what
    `SimpleType` names, the low ranks included."""
    seen = {}
    for n in range(1, 65):
        parts = {"so": [n] if n % 2 else [n - 1, 1], "sp": [n]}
        for family in ("so", "sp") if n % 2 == 0 else ("so",):
            p = ClassicalPartition.from_parts(family, parts[family])
            assert p.size == n
            seen[family, n] = p.algebra_label
            assert seen[family, n] == _simple_type_label(p), (family, n)
    assert len(seen) == 64 + 32
    assert [seen["so", n] for n in range(1, 9)] == [
        "so1", "so2", "A1", "so4", "B2", "A3", "B3", "D4"
    ]
    assert [seen["sp", n] for n in (2, 4, 6)] == ["A1", "C2", "C3"]


def test_family_choices_are_the_families_classical_parses():
    """The --family literal in `cli` names exactly the families
    `ClassicalPartition.parse` reads, so the parser needs no `classical`."""
    from wrat import classical

    assert cli._FAMILIES == sorted(classical._FAMILY_TO_SERIES)
    for family, parts in zip(cli._FAMILIES, ["3", "2", "3,1", "3", "2"]):
        p = ClassicalPartition.parse(family, parts)
        assert p.family == classical._FAMILY_TO_SERIES[family]
    for family in ("b", "E", "so ", ""):
        with pytest.raises(classical.InvalidPartition):
            ClassicalPartition.parse(family, "2")


def test_check_classical_v_zero(capsys):
    # all-pairs partition: the grading is even and v = 0 passes
    rc, d, _ = run_json(
        capsys, "check-classical", "--family", "C", "--partition", "1,1", "--v-zero"
    )
    assert rc == 0 and d["status"] == "pass"


def test_check_classical_bad_partition_text(capsys):
    rc, _, err = run(capsys, "check-classical", "--family", "C", "--partition", "a,b")
    assert rc == 3 and err.startswith("error:")


@pytest.mark.parametrize(
    "command,size",
    [
        pytest.param("check-classical", "10000000000000000000", id="check-classical"),
        pytest.param("verify-contragredient", "10000000000000000000", id="verify-contragredient"),
        pytest.param("check-classical", "2000000000000000000", id="check-classical-2e18"),
        pytest.param("check-classical", "4000000000", id="check-classical-4e9"),
    ],
)
def test_partition_past_the_index_range_exits_3(capsys, command, size):
    """A size whose square is past the index range is an invalid partition:
    the bound dates from a check on about size**2 / 2 matrix units, and a
    realization that large, which holds tuples of its size, would end in a
    MemoryError."""
    rc, out, err = run(capsys, command, "--family", "C", "--partition", size)
    assert (rc, out) == (3, "")
    assert err == f"error: partition size {size} is past the index range\n"


def test_search_v_found(capsys):
    rc, d, _ = run_json(capsys, "search-v", "--algebra", "G2", "--q", "3")
    assert rc == 0
    assert d["status"] == "found"
    assert d["v"] == ["-3/2", "1"]


def test_search_v_not_found(capsys):
    rc, d, _ = run_json(
        capsys,
        "search-v",
        "--algebra",
        "E8",
        "--q",
        "5",
        "--denominator-bound",
        "1",
    )
    assert rc == 2
    assert d["status"] == "not-found"


@pytest.mark.parametrize(
    "argv",
    [
        ("search-v", "--algebra", "G2", "--q", "3", "--denominator-bound", "0"),
        ("search-v", "--algebra", "G2", "--q", "3", "--coefficient-bound", "-1"),
        ("frobenius", "system.json", "--order", "0"),
        ("frobenius", "system.json", "--iterate", "-1"),
    ],
    ids=["denominator-bound", "coefficient-bound", "order", "iterate"],
)
def test_out_of_range_flag_is_bad_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 3
    assert "must be at least" in capsys.readouterr().err


def test_verify_contragredient_both_spellings(capsys):
    rc, d, _ = run_json(capsys, "verify-contragredient", "--algebra", "G2", "--q", "3")
    assert rc == 0 and d["self_contragredient"] is True
    rc, d, _ = run_json(
        capsys, "verify-contragredient", "--family", "sp", "--partition", "3,3,2"
    )
    assert rc == 0 and d["self_contragredient"] is True
    assert d["algebra"] == "C4"


def test_verify_contragredient_bad_target(capsys):
    rc, _, err = run(capsys, "verify-contragredient", "--algebra", "G2")
    assert rc == 3 and err.startswith("error:")
    rc, _, err = run(capsys, "verify-contragredient", "--family", "sp")
    assert rc == 3 and err.startswith("error:")
    rc, _, err = run(capsys, "verify-contragredient")
    assert rc == 3 and err.startswith("error:")


def write_system(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_frobenius_recursion_route(capsys, tmp_path):
    path = write_system(
        tmp_path,
        "rec.json",
        {"ell": 1, "A": [[0, [["1/2"]]]], "f": [[1, [[1]]]], "seeds": [[[0]], [[2]]]},
    )
    rc, d, _ = run_json(capsys, "frobenius", path, "--order", "4")
    assert rc == 0
    assert d["route"] == "recursion"
    assert d["residual"] == "0"
    assert d["coefficients"] == [[[]], [[2]], [[]], [[]]]


def test_frobenius_resonance_exits_3(capsys, tmp_path):
    path = write_system(
        tmp_path,
        "res.json",
        {"ell": 1, "A": [[0, [[3]]]], "f": [[3, [[1]]]], "seeds": [[[0]]]},
    )
    rc, _, err = run(capsys, "frobenius", path)
    assert rc == 3 and "n = 3" in err


def test_frobenius_contraction_route(capsys, tmp_path):
    path = write_system(
        tmp_path,
        "con.json",
        {
            "ell": 1,
            "A": [[0, [["1/2"]]]],
            "f": [[3, [[1]]]],
            "seeds": [[[0]], [[0]]],
            "domain": {"z0": 0, "epsilon": "1/2", "delta": "1/2"},
        },
    )
    rc, d, _ = run_json(capsys, "frobenius", path, "--iterate", "12")
    assert rc == 0
    assert d["route"] == "contraction"
    assert d["truncation"] == 2 and d["ratio"] == "1/4"
    assert d["bound"] == "1/301989888"


def test_frobenius_contraction_fills_past_the_seeds(capsys, tmp_path):
    # one seed but truncation N = 2: u_1 comes from the recursion, not a clamp to 0
    path = write_system(
        tmp_path,
        "fill.json",
        {
            "ell": 1,
            "A": [[0, [[["1/2"]]]]],
            "f": [[1, [[1]]]],
            "seeds": [[[]]],
            "domain": {"z0": 0, "epsilon": "1/2", "delta": "1/2"},
        },
    )
    rc, d, _ = run_json(capsys, "frobenius", path)
    assert rc == 0
    assert d["truncation"] == 2
    assert d["coefficients"][1] == [[2]]
    # ||T 0|| = 2 delta = 1, so the bound is (4/3) (1/4)^25
    assert d["bound"] == str(Fraction(4, 3) * Fraction(1, 4) ** 25)


def test_frobenius_contraction_resonant_fill_exits_3(capsys, tmp_path):
    path = write_system(
        tmp_path,
        "res.json",
        {
            "ell": 1,
            "A": [[0, [[1]]]],
            "f": [[1, [[1]]]],
            "seeds": [[[]]],
            "domain": {"z0": 0, "epsilon": "1/2", "delta": "1/2"},
        },
    )
    rc, _, err = run(capsys, "frobenius", path)
    assert rc == 3 and "n = 1" in err


INCONSISTENT_SEED = {
    "ell": 1,
    "A": [[0, [["1/4"]]]],
    "f": [[2, [[1]]]],
    "seeds": [[[5]]],
    "domain": {"z0": 0, "epsilon": "1/2", "delta": "1/2"},
}


@pytest.mark.parametrize("route", ["recursion", "contraction"])
def test_frobenius_inconsistent_seed_exits_3(capsys, tmp_path, route):
    # -u_0/4 = f_0 = 0 forces u_0 = 0; the seed 5 is checked on every route,
    # also when the seeds fill the whole clamped range (truncation N = 1)
    path = write_system(tmp_path, "seed.json", INCONSISTENT_SEED)
    rc, out, err = run(capsys, "frobenius", path, "--route", route)
    assert rc == 3 and out == ""
    assert err == "error: seed at n = 0 does not satisfy the recursion\n"


def test_frobenius_log_route(capsys, tmp_path):
    path = write_system(
        tmp_path,
        "log.json",
        {
            "ell": 2,
            "A": [[0, [[0, 1], [0, 0]]]],
            "exponents": [0],
            "K": 1,
            "seeds": {"0:1": [[[3], [0]]], "0:0": [[[7], [3]]]},
        },
    )
    rc, d, _ = run_json(capsys, "frobenius", path, "--order", "3")
    assert rc == 0
    assert d["route"] == "log"
    assert d["layers"]["0:1"][0] == [[3], []]
    assert d["layers"]["0:0"][0] == [[7], [3]]


def test_frobenius_route_mismatches(capsys, tmp_path):
    plain = write_system(
        tmp_path, "p.json", {"ell": 1, "A": [[0, [[0]]]], "seeds": [[[1]]]}
    )
    rc, _, err = run(capsys, "frobenius", plain, "--route", "contraction")
    assert rc == 3 and "domain" in err
    rc, _, err = run(capsys, "frobenius", plain, "--route", "log")
    assert rc == 3 and err.startswith("error:")


def test_frobenius_unreadable_input(capsys, tmp_path):
    # a missing file is an I/O failure; malformed JSON is bad input
    rc, _, err = run(capsys, "frobenius", str(tmp_path / "absent.json"))
    assert rc == 4 and err.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "frobenius", str(bad))
    assert rc == 3


@pytest.mark.parametrize(
    "obj,message",
    [
        ({"ell": 1, "A": [[0, [["1/2", "1"]]]], "seeds": [[[1]]]}, "A_0 is not 1 x 1"),
        ({"ell": 2, "A": [[0, [[1, 0]]]], "seeds": []}, "A_0 is not 2 x 2"),
        ({"ell": 1, "A": [[0, [["1/0"]]]], "seeds": [[[1]]]}, "ZeroDivisionError"),
        ([{"ell": 1}], "JSON object"),
        ({"ell": -1, "A": [], "seeds": []}, "ell must be at least 1"),
        ({"ell": 1, "A": [[0, [[1]]]], "seeds": [[[1], [2]]]}, "not of length 1"),
        ({"ell": 1.9, "A": [[0, [["1/2"]]]], "seeds": []}, "ell must be at least 1"),
        ({"ell": True, "A": [[0, [["1/2"]]]], "seeds": []}, "ell must be at least 1"),
        ({"ell": 1, "K": 1.5, "exponents": ["1/2"], "seeds": {}}, "K must be at least 0"),
        ({"ell": 1, "A": [[0, [["1/2"]]], [1.5, [[1]]]]}, "an A index must be at least 0"),
        ({"ell": 1, "A": [[0, [["1/2"]]], [-1, [[1]]]]}, "an A index must be at least 0"),
        ({"ell": 1, "A": [[0, [["1/2"]]]], "f": [[-2, [[1]]]]}, "an f index must be at least 0"),
        (
            {"ell": 1, "exponents": ["1/2"], "seeds": {"5:0": [[[1]]]}},
            "seed key '5:0' names no layer",
        ),
        (
            {"ell": 1, "exponents": ["1/2"], "K": 1, "seeds": {"0:2": [[[1]]]}},
            "seed key '0:2' names no layer",
        ),
        ({"ell": 1, "exponents": ["1/2", "3/2"], "seeds": {}}, "congruent mod 1"),
        (
            {"ell": 1, "A": [[0, [["1/2"]]], [0, [["1/3"]]]], "f": [[1, [[1]]]], "seeds": []},
            "A gives order 0 twice",
        ),
        (
            {"ell": 1, "A": [[0, [["1/2"]]]], "f": [[1, [[1]]], [1, [[5]]]], "seeds": []},
            "f gives order 1 twice",
        ),
        (
            {"ell": 1, "exponents": [0], "seeds": {"0:0": [[[1]]], "00:0": [[[7]]]}},
            "two seed keys name layer 0:0",
        ),
        (
            {"ell": 2, "A": [[0, [["1/2", 0], [0, "1/3"]]]], "seeds": ["00", "12"]},
            "a seed vector must be a JSON list",
        ),
        ({"ell": 2, "A": [[0, ["10", [0, "1/3"]]]]}, "a row of A must be a JSON list"),
        ({"ell": 1, "A": [[0, "1"]]}, "A_n must be a JSON list"),
        ({"ell": 1, "A": [[0, [[0]]]], "f": [[0, "1"]]}, "an f vector must be a JSON list"),
        (
            {"ell": 1, "exponents": ["1/2"], "seeds": {"0:0": ["1"]}},
            "a seed vector must be a JSON list",
        ),
        ({"ell": 1, "exponents": "1", "seeds": {}}, "exponents must be a JSON list"),
        (
            {
                "ell": 1,
                "A": [[0, [[["1/4", 1]]]]],
                "seeds": [[[1]]],
                "domain": {"z0": 0, "epsilon": "-3", "delta": "1/2"},
            },
            "domain radii must be positive",
        ),
        (
            {
                "ell": 1,
                "A": [[0, [["1/2"]]]],
                "seeds": [[[1]]],
                "domain": {"z0": 0, "epsilon": "1/2", "delta": "-1/2"},
            },
            "domain radii must be positive",
        ),
        (
            {
                "ell": 1,
                "A": [[0, [["1/2"]]]],
                "seeds": [[[1]]],
                "domain": {"z0": 0, "epsilon": "1/2", "delta": 0},
            },
            "domain radii must be positive",
        ),
        *(
            (
                {
                    "ell": 1,
                    "A": [[0, [["1/2"]]]],
                    "seeds": [[[1]]],
                    "domain": {"z0": z0, "epsilon": "1/2", "delta": "1/2"},
                },
                "a list z0 must be [re, im]",
            )
            for z0 in ([1], [], [1, 2, 3])
        ),
    ],
    ids=[
        "wide-row", "short-height", "zero-denominator", "array", "negative-ell", "long-seed",
        "float-ell", "bool-ell", "float-K", "float-A-index", "negative-A-index",
        "negative-f-index", "seed-exponent-out-of-range", "seed-k-above-K",
        "congruent-exponents", "repeated-A-order", "repeated-f-order", "repeated-seed-layer",
        "string-seed", "string-A-row", "string-A", "string-f",
        "string-layer-seed", "string-exponents", "negative-epsilon", "negative-delta",
        "zero-delta", "one-entry-z0", "empty-z0", "three-entry-z0",
    ],
)
def test_frobenius_malformed_system_exits_3(capsys, tmp_path, obj, message):
    rc, out, err = run(capsys, "frobenius", write_system(tmp_path, "s.json", obj))
    assert rc == 3 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text,key",
    [
        (
            '{"ell": 1, "A": [[0, [["1/2"]]]], "seeds": [[[0]]], "domain":'
            ' {"z0": 0, "epsilon": "1/2", "epsilon": "1/3", "delta": "1/2"}}',
            "epsilon",
        ),
        ('{"ell": 1, "ell": 2, "A": [[0, [["1/2"]]]], "seeds": [[[0]]]}', "ell"),
        (
            '{"ell": 1, "exponents": ["1/2"], "K": 0, "A": [[0, [["1/2"]]]],'
            ' "seeds": {"0:0": [[1]], "0:0": [[2]]}}',
            "0:0",
        ),
    ],
    ids=["domain-epsilon", "top-level-ell", "log-seed"],
)
def test_frobenius_repeated_key_exits_3(capsys, tmp_path, text, key):
    """A JSON object that names one key twice is refused, naming the key,
    at any depth of the file: json.load alone would keep the last value."""
    path = tmp_path / "s.json"
    path.write_text(text)
    rc, out, err = run(capsys, "frobenius", str(path))
    assert (rc, out) == (3, "")
    assert err == f"error: repeated key {key!r} in a JSON object\n"


def _paths(node, path=()):
    """Every position in a JSON tree, as a key path."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _retype(v):
    return st.sampled_from(
        [float(v) if isinstance(v, int) else 0.5, str(v), True, False, None, [], {}, "1/0", -1]
    )


@st.composite
def mutated_systems(draw):
    """A bench-shaped recursion or log system with one to three mutations:
    a key dropped, a value retyped, a list resized, or ell, K or an A/f
    index set to a small integer."""
    obj = draw(st.sampled_from([series_oracle.recursion_system(), series_oracle.log_system()]))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(obj) if p]
        kind = draw(st.sampled_from(["drop", "retype", "resize", "integer"]))
        if kind == "integer":
            paths = [
                p for p in paths if p in (("ell",), ("K",)) or p[0] in ("A", "f") and p[2:] == (0,)
            ]
        elif kind == "resize":
            paths = [p for p in paths if isinstance(_at(obj, p), list)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key = _at(obj, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(_retype(parent[key]))
        elif kind == "integer":
            parent[key] = draw(st.integers(-2, 4))
        elif parent[key] and draw(st.booleans()):
            parent[key].pop()
        else:
            parent[key].append(copy.deepcopy(parent[key][-1]) if parent[key] else 0)
    return obj


def _frobenius_run(obj: dict, *argv: str) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["frobenius", path, *argv])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    mutated_systems(),
    st.sampled_from(["auto", "recursion", "contraction", "log"]),
    st.integers(1, 5),
)
def test_frobenius_exit_contract_under_mutation(obj, route, order):
    rc, out, err = _frobenius_run(obj, "--route", route, "--order", str(order))
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err
    if rc:
        assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "domain", [None, {"z0": 0, "epsilon": "1/2", "delta": "1/2"}], ids=["recursion", "contraction"]
)
def test_an_all_zero_a_n_prints_as_its_absence(domain):
    """A series holds the A_n it is given; an A_3 of zeros changes no byte."""
    plain = series_oracle.recursion_system()
    if domain:
        plain["domain"] = domain
    padded = copy.deepcopy(plain)
    padded["A"].append([3, [[[], [0]], [[0, "0/5"], []]]])
    got = [_frobenius_run(obj, "--order", "8") for obj in (plain, padded)]
    assert got[0][0] == 0 and got[1] == got[0]
    assert fr.system_from_json(padded)["a"].terms[3] == [[fr.Form([], 1)] * 2] * 2


BUNDLED = sorted(orbits.data_dir().glob("*.json"))


@st.composite
def mutated_record_dirs(draw):
    """(files, record): the bundled record files by name, one of them
    (record, as loaded) with one to three mutations as `mutated_systems`
    makes them, an integer one setting any integer in it."""
    path = draw(st.sampled_from(BUNDLED))
    obj = json.loads(path.read_text())
    record = (obj["algebra"], obj["q"][0])
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(obj) if p]
        kind = draw(st.sampled_from(["drop", "retype", "resize", "integer"]))
        if kind == "integer":
            paths = [p for p in paths if type(_at(obj, p)) is int]
        elif kind == "resize":
            paths = [p for p in paths if isinstance(_at(obj, p), list)]
        if not paths:
            continue
        path_ = draw(st.sampled_from(paths))
        parent, key = _at(obj, path_[:-1]), path_[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(_retype(parent[key]))
        elif kind == "integer":
            parent[key] = draw(st.integers(-2, 4))
        elif parent[key] and draw(st.booleans()):
            parent[key].pop()
        else:
            parent[key].append(copy.deepcopy(parent[key][-1]) if parent[key] else 0)
    files = {p.name: p.read_text() for p in BUNDLED}
    files[path.name] = json.dumps(obj)
    return files, record


def _quiet_main(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(mutated_record_dirs())
def test_record_mutation_exit_contract(case):
    """A WRAT_DATA_DIR with one mutated record: every record subcommand
    ends in a documented exit code with no traceback.  search-v runs at
    bounds 1/1, since a mutated f may leave h^f large."""
    files, (algebra, q) = case
    record = ["--algebra", str(algebra), "--q", str(q)]
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        try:
            with mock.patch.dict(os.environ, {"WRAT_DATA_DIR": tmp}):
                for argv in (
                    ["report", "--all"],
                    ["check-exceptional", *record],
                    ["search-v", *record, "--denominator-bound", "1", "--coefficient-bound", "1"],
                    ["verify-contragredient", *record],
                ):
                    rc, out, err = _quiet_main(*argv)
                    assert rc in (0, 2, 3, 4), (argv, rc, err)
                    assert "Traceback" not in err
                    if rc == 3 or rc == 4:
                        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        finally:
            orbits._load_dir.cache_clear()


PARTITION_CHARS = "0123456789,, -+_ \u0663\uff15"
FAMILIES = cli._FAMILIES + ["b", "c", "E", "SP", "so ", "", "D4", "sp2"]
BIG_PARTS = [4 * 10**9, 10**10, 2 * 10**18, 10**19, 10**30]


def _partition_size(text: str) -> int | None:
    """sum |part| of text if every part parses as an int, else None."""
    try:
        return sum(abs(int(x)) for x in text.split(","))
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(PARTITION_CHARS, max_size=14),
        st.lists(st.one_of(st.integers(-3, 40), st.sampled_from(BIG_PARTS)), max_size=6).map(
            lambda parts: ",".join(map(str, parts))
        ),
    ),
    st.sampled_from(FAMILIES),
    st.sampled_from(["check-classical", "verify-contragredient"]),
)
def test_classical_argv_exit_contract(text, family, command):
    """Odd partition text and near-miss families end in a documented exit
    code with no traceback.  Legal sizes past 200 are left out: below the
    index range a realization of size n still holds tuples of length n."""
    size = _partition_size(text)
    assume(size is None or size <= 200 or size * size > sys.maxsize)
    try:
        rc, out, err = _quiet_main(command, "--family", family, "--partition", text)
    except SystemExit as exc:  # argparse rejects the family
        rc, out, err = exc.code, "", ""
    assert rc in (0, 2, 3, 4), (text, family, rc, err)
    assert "Traceback" not in err


RATIONALS = st.fractions(min_value=-2, max_value=2, max_denominator=4)
RADII = st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8)


def _rat(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@st.composite
def contraction_systems(draw):
    """A 1x1 or 2x2 system with polynomial entries, rational z0 and a domain
    with epsilon, delta > 0."""
    ell = draw(st.integers(1, 2))
    poly = st.lists(RATIONALS.map(_rat), max_size=2)
    vec = st.lists(poly, min_size=ell, max_size=ell)
    mat = st.lists(vec, min_size=ell, max_size=ell)
    terms = draw(st.dictionaries(st.integers(0, 2), mat, max_size=3))
    f = draw(st.dictionaries(st.integers(0, 3), vec, max_size=2))
    return {
        "ell": ell,
        "A": [[n, m] for n, m in terms.items()],
        "f": [[n, v] for n, v in f.items()],
        "seeds": draw(st.lists(vec, min_size=1, max_size=2)),
        "domain": {
            "z0": _rat(draw(RATIONALS)),
            "epsilon": _rat(draw(RADII)),
            "delta": _rat(draw(RADII)),
        },
    }


def _solve_outcome(solve, *args):
    """The layers of a solve by route, or (exception type, n, layer)."""
    try:
        res = solve(*args)
    except (fr.Resonance, fr.SeedInconsistent) as exc:
        return type(exc), exc.n, exc.layer
    return res if isinstance(res, dict) else {None: res}


FRACTION_TEXT = re.compile(r"\d+(/\d+)?")


NON_INTEGERS = RATIONALS.filter(lambda x: x.denominator > 1)


@st.composite
def perturbed_seed_systems(draw):
    """(system, k): a 1x1 or 2x2 system with a diagonal, non-integer A_0, so
    that det(nI - A_0) never vanishes and every seed is forced; its seeds
    u_0 .. u_k from the recursion, with a nonzero constant added to one
    component of u_k when perturbed."""
    obj = draw(contraction_systems())
    ell = obj["ell"]
    diag = [draw(NON_INTEGERS) for _ in range(ell)]
    a0 = [[[_rat(diag[i])] if i == j else [] for j in range(ell)] for i in range(ell)]
    obj["A"] = [[0, a0]] + [[n, m] for n, m in obj["A"] if n]
    k = draw(st.integers(0, 2))
    system = fr.system_from_json(obj)
    seeds = [list(vec) for vec in fr.recursion_solve(system["a"], system["f"], [], k + 1).coeffs]
    if draw(st.booleans()):
        i = draw(st.integers(0, ell - 1))
        seeds[k][i] = series_oracle.p_add(seeds[k][i], (draw(RATIONALS.filter(bool)),))
        perturbed = True
    else:
        perturbed = False
    obj["seeds"] = [[[_rat(c) for c in p] for p in vec] for vec in seeds]
    return obj, k, perturbed


@st.composite
def log_systems(draw):
    """A contraction system made log-shaped as `series_oracle.log_system`
    is: A_0 = [[0, p(z)], [0, 0]], exponents 0 and a non-integer h, and
    the seeds c p(z) e_1 on layer (0, 1) and (t, c) on layer (0, 0) that
    solve n = 0; for ell = 1, A_0 = 0, K = 0 and a seed c + t z."""
    obj = draw(contraction_systems())
    p = [draw(RATIONALS) for _ in range(2)]
    c, t = draw(RATIONALS), draw(RATIONALS)
    if obj["ell"] == 2:
        a0 = [[[], [_rat(x) for x in p]], [[], []]]
        obj["K"] = 1
        obj["seeds"] = {
            "0:1": [[[_rat(c * x) for x in p], []]],
            "0:0": [[[_rat(t)], [_rat(c)]]],
        }
    else:
        a0 = [[[]]]
        obj["K"] = 0
        obj["seeds"] = {"0:0": [[[_rat(c), _rat(t)]]]}
    obj["A"] = [[0, a0]] + [[n, m] for n, m in obj["A"] if n]
    obj["exponents"] = [0, _rat(draw(NON_INTEGERS))]
    return obj


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        contraction_systems(),
        perturbed_seed_systems().map(lambda case: case[0]),
        log_systems(),
    ),
    st.integers(1, 6),
)
# A_0 = z, f_1 = 1 - z: u_1 = (1 - z) / (1 - z) divides by a negative lead
@example({"ell": 1, "A": [[0, [[[0, 1]]]]], "f": [[1, [[1, -1]]]], "seeds": []}, 3)
def test_series_forms_are_the_reduced_view(obj, order):
    """Every stored coefficient is `_linalg.over_common` of its Fraction
    view, the JSON `poly_to_json` writes from the forms is `rat_to_json` of
    the view, and the series is the oracle's, on the recursion and the log
    route."""
    system = fr.system_from_json(obj)
    a, seeds = system["a"], system["seeds"]
    if system["exponents"]:
        args = (a, system["exponents"], system["log_order"], seeds, order)
        with mock.patch.object(fr, "recursion_solve", series_oracle.recursion_solve):
            want = _solve_outcome(fr.log_system_solve, *args)
        got = _solve_outcome(fr.log_system_solve, *args)
    else:
        args = (a, system["f"], seeds, order)
        want = _solve_outcome(series_oracle.recursion_solve, *args)
        got = _solve_outcome(fr.recursion_solve, *args)
    if isinstance(got, tuple):
        assert got == want
        return
    assert {key: series.coeffs for key, series in got.items()} == {
        key: series.coeffs for key, series in want.items()
    }
    for series in got.values():
        view = series.coeffs
        assert len(series.forms) == len(view) == order
        for forms, polys in zip(series.forms, view):
            assert forms == [_linalg.over_common(p) for p in polys]
        assert fr._series_json(series) == [[[rat_to_json(c) for c in p] for p in vec] for vec in view]


@settings(max_examples=60, deadline=None)
@given(perturbed_seed_systems())
def test_frobenius_perturbed_seed_exits_3_on_every_route(case):
    """A seed off the recursion is refused on both plain routes; the same
    system with the recursion's own seeds is certified on both."""
    obj, k, perturbed = case
    for route in ("recursion", "contraction"):
        rc, out, err = _frobenius_run(obj, "--route", route, "--order", str(k + 2))
        if perturbed:
            assert rc == 3 and out == "", route
            assert err == f"error: seed at n = {k} does not satisfy the recursion\n"
        else:
            assert rc == 0, (route, err)


@settings(max_examples=100, deadline=None)
@given(contraction_systems(), st.integers(1, 6), st.integers(0, 4))
def test_frobenius_contraction_certificate_is_nonnegative(obj, order, iterate):
    """Either bad input (exit 3) or a certificate whose ratio, bound and
    distances are all nonnegative exact rationals, with ratio < 1."""
    rc, out, err = _frobenius_run(
        obj, "--route", "contraction", "--order", str(order), "--iterate", str(iterate)
    )
    if rc == 3:
        assert out == "" and err.startswith("error:")
        return
    assert rc == 0, err
    d = json.loads(out)
    texts = [d["ratio"], d["bound"], *d["distances"]]
    assert len(d["distances"]) == iterate
    assert all(FRACTION_TEXT.fullmatch(t) for t in texts), texts
    assert Fraction(d["ratio"]) < 1


@settings(max_examples=60, deadline=None)
@given(contraction_systems(), RATIONALS, st.integers(1, 5), st.integers(0, 3))
def test_frobenius_complex_center_is_its_containing_real_disc(obj, im, order, iterate):
    """A z0 of [re, im] prints the same bytes as z0 = re with epsilon grown
    by |im|, and every number it prints is exact rational text."""
    argv = ("--route", "contraction", "--order", str(order), "--iterate", str(iterate))
    domain = obj["domain"]
    gaussian = {**obj, "domain": {**domain, "z0": [domain["z0"], _rat(im)]}}
    folded = {**obj, "domain": {**domain, "epsilon": _rat(Fraction(domain["epsilon"]) + abs(im))}}
    got = _frobenius_run(gaussian, *argv)
    assert got == _frobenius_run(folded, *argv)
    rc, out, err = got
    if rc:
        assert rc == 3 and out == "" and err.startswith("error:")
        return
    d = json.loads(out)
    numbers = [d["ratio"], d["bound"], *d["distances"]]
    numbers += [c for vec in d["coefficients"] for p in vec for c in p]
    for x in numbers:
        text = str(x)
        assert "." not in text and "e" not in text, text
        Fraction(text)


# stdout of three routes the bench does not run, captured from the
# Fraction-at-a-time arithmetic that the integer kernel of `frobenius` must
# reproduce byte for byte
FROBENIUS_ROUTES = json.loads(
    (Path(__file__).resolve().parent / "golden" / "frobenius_routes.json").read_text()
)


@pytest.mark.parametrize("case", FROBENIUS_ROUTES, ids=[c["name"] for c in FROBENIUS_ROUTES])
def test_frobenius_route_bytes_are_pinned(case):
    assert _frobenius_run(case["system"], *case["argv"]) == (0, case["stdout"], "")


def test_report_tsv_golden(capsys):
    rc, out, _ = run(capsys, "report", "--format", "tsv")
    assert rc == 0
    assert out == REPORT_TSV


# the requests of the bench workloads at their default seed (argv as in
# bench/workloads.py) and their golden stdout, read as data from bench/golden;
# a dict in an argv is a series system, written to a file before the run
GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"
GOLDEN_REQUESTS = (
    [("report_all", "report", ("report", "--all"))]
    + [
        ("search_v", f"search-v_{alg}_q{q}", ("search-v", "--algebra", alg, "--q", str(q)))
        for alg, q in (("E6", 2), ("F4", 2), ("E8", 4), ("E7", 3))
    ]
    + [
        (
            "classical",
            f"{cmd}_{family}_{parts.replace(',', '-')}",
            (cmd, "--family", family, "--partition", parts),
        )
        for family, parts in (
            ("C", "13,13,10,10,6,4,2,2"),
            ("B", "9,9,8,8,7,5,5,3,3,2,2"),
            ("D", "12,12,9,9,7,5,3,1"),
        )
        for cmd in ("check-classical", "verify-contragredient")
    ]
    + [
        ("series", f"frobenius_{name}", ("frobenius", system, "--order", str(order)))
        for name, system, order in (
            ("recursion", series_oracle.recursion_system(), 36),
            ("log", series_oracle.log_system(), 28),
        )
    ]
)


@pytest.mark.parametrize(
    "workload,name,argv", GOLDEN_REQUESTS, ids=[f"{w}/{n}" for w, n, _ in GOLDEN_REQUESTS]
)
def test_bench_requests_match_golden_bytes(capsys, tmp_path, workload, name, argv):
    argv = [write_system(tmp_path, "system.json", a) if isinstance(a, dict) else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out.encode() == (GOLDEN / workload / f"{name}.out").read_bytes()


def test_route_disagreement_exits_2_with_one_line(capsys, monkeypatch):
    real = ratcheck.fast_condition

    def flipped(*args, **kwargs):
        v = real(*args, **kwargs)
        return v._replace(status="fail" if v.status == "pass" else "pass")

    monkeypatch.setattr(ratcheck, "fast_condition", flipped)
    rc, out, err = run(capsys, "check-exceptional", "--algebra", "G2", "--q", "3")
    assert rc == 2 and out == ""
    assert err.startswith("error: routes disagree on G2") and err.count("\n") == 1


def test_other_runtime_errors_propagate(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not a verdict")

    monkeypatch.setattr(ratcheck, "check_record", broken)
    with pytest.raises(RuntimeError, match="not a verdict"):
        main(["check-exceptional", "--algebra", "G2", "--q", "3"])


def _not_utf8_series(tmp_path, monkeypatch):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"ell": 1, "note": "\xe9"}')
    return ["frobenius", str(path)]


def _unparsable_record(tmp_path, monkeypatch):
    (tmp_path / "broken.json").write_text("{not json")
    monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))
    return ["report"]


def _deep_series(tmp_path, monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return ["frobenius", str(path)]


def _deep_record(tmp_path, monkeypatch):
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))
    return ["report"]


def _resonant_system(tmp_path, monkeypatch):
    system = {"ell": 1, "A": [[0, [[2]]]], "f": [[2, [[1]]]], "seeds": []}
    return ["frobenius", write_system(tmp_path, "res.json", system)]


@pytest.mark.parametrize(
    "make_argv,message",
    [
        (_not_utf8_series, "error: cannot parse system: 'utf-8' codec can't decode"),
        (_unparsable_record, "error: cannot parse record broken.json: Expecting"),
        (_deep_series, "error: cannot parse system: maximum recursion depth exceeded"),
        (_deep_record, "error: cannot parse record deep.json: maximum recursion depth exceeded"),
        (_resonant_system, "error: resonant index n = 2"),
    ],
    ids=["not-utf8-series", "unparsable-record", "deep-series", "deep-record", "resonant-system"],
)
def test_named_bad_input_exits_3_with_one_line(capsys, tmp_path, monkeypatch, make_argv, message):
    rc, out, err = run(capsys, *make_argv(tmp_path, monkeypatch))
    assert (rc, out) == (3, "")
    assert err.startswith(message) and err.count("\n") == 1


ROOT_ENTRY = "a root coefficient must be a JSON integer,"


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("q", [2.9], "a q value must be a JSON integer, got 2.9"),
        ("q", [True], "a q value must be a JSON integer, got True"),
        ("q", ["2"], "a q value must be a JSON integer, got '2'"),
        ("f_roots", [[0, 1, 1, 2, 1, 0.0]], f"{ROOT_ENTRY} got 0.0"),
        ("f_roots", [[0, True, 1, 2, 1, 0]], f"{ROOT_ENTRY} got True"),
        ("algebra", 5, "the algebra must be a JSON string, got 5"),
        ("algebra", ["E", 6], "the algebra must be a JSON string, got ['E', 6]"),
        ("label", ["A", 1], "the label must be a JSON string, got ['A', 1]"),
        ("label", 3, "the label must be a JSON string, got 3"),
    ],
    ids=[
        "float-q", "bool-q", "string-q", "float-root", "bool-root",
        "int-algebra", "list-algebra", "list-label", "int-label",
    ],
)
def test_report_non_integer_record_field_exits_3(
    capsys, tmp_path, monkeypatch, key, value, message
):
    """q and the f_roots entries are read as JSON integers only, and algebra
    and label as JSON strings only: anything else there is bad data, not a
    value to truncate or convert."""
    obj = json.loads((Path(wrat.__file__).parent / "data" / "e6_q2.json").read_text())
    obj[key] = value
    (tmp_path / "e6_q2.json").write_text(json.dumps(obj))
    monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))
    rc, out, err = run(capsys, "report", "--format", "tsv")
    assert (rc, out) == (3, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "name,key,value,message",
    [
        ("e6_q2", "v", {"top": 1, "row": [0, 0, "1/0", 0, 0]},
         "malformed record: zero denominator in '1/0'"),
        ("e6_q2", "h", {"top": 0, "row": []}, "diagram has 1 values, expected 6"),
        ("e6_q2", "h", {"top": 0, "row": {}}, "diagram has 1 values, expected 6"),
        ("f4_q2", "h", {"row": ["1/2", 0, 0, 0]}, "characteristic values must be integers"),
        ("f4_q2", "h", {"top": 0, "row": [1, 0, 0, 0]}, "type F has no branch node"),
    ],
    ids=[
        "zero-denominator", "empty-e-row", "empty-e-row-object",
        "non-integral-characteristic", "f4-top",
    ],
)
def test_report_malformed_record_diagram_exits_3(
    capsys, tmp_path, monkeypatch, name, key, value, message
):
    """A zero denominator is a malformed rational, an E-type row is checked
    before its first value is read, a characteristic must be integral and
    only E has a branch node: each exits 3 with one line."""
    obj = json.loads((Path(wrat.__file__).parent / "data" / f"{name}.json").read_text())
    obj[key] = value
    (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))
    rc, out, err = run(capsys, "report", "--all")
    assert (rc, out) == (3, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("key", ["label", "row"])
def test_report_repeated_record_key_exits_3(capsys, tmp_path, monkeypatch, key):
    """A record file whose object, at the top or in a diagram, names one
    key twice is refused, naming the key."""
    text = (Path(wrat.__file__).parent / "data" / "e6_q2.json").read_text()
    # the first "row" is the diagram of h
    text = text.replace(f'"{key}":', f'"{key}": "first", "{key}":', 1)
    (tmp_path / "e6_q2.json").write_text(text)
    monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))
    rc, out, err = run(capsys, "report", "--format", "tsv")
    assert (rc, out) == (3, "")
    assert err == f"error: repeated key {key!r} in a JSON object\n"


def test_plain_value_errors_propagate(capsys, monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise ValueError("not a data defect")

    monkeypatch.setattr(fr, "recursion_solve", broken)
    path = write_system(tmp_path, "rec.json", {"ell": 1, "A": [[0, [["1/2"]]]], "seeds": []})
    with pytest.raises(ValueError, match="not a data defect"):
        main(["frobenius", path])


def test_report_json_deterministic_and_round_trips(capsys):
    rc, out1, _ = run(capsys, "report", "--all")
    assert rc == 0
    rc, out2, _ = run(capsys, "report", "--all")
    assert out2 == out1
    doc = json.loads(out1)
    rows = doc["rows"]
    assert len(rows) == 15
    assert all(r["status"] == "pass" for r in rows)
    assert all(r["self_contragredient"] is True for r in rows)
    first = rows[0]
    assert list(first) == [
        "algebra", "label", "q", "status", "evidence", "fallbacks",
        "self_contragredient",
    ]
    # ordering: algebra then q
    keys = [(r["algebra"], r["q"]) for r in rows]
    assert keys == sorted(keys)


def test_report_output_file(capsys, tmp_path):
    dest = tmp_path / "report.json"
    rc, out, _ = run(capsys, "report", "--output", str(dest))
    assert rc == 0 and out == ""
    rc, stdout_ver, _ = run(capsys, "report")
    assert dest.read_text() == stdout_ver


def test_report_unwritable_output_is_io_error(capsys, tmp_path):
    rc, _, err = run(capsys, "report", "--output", str(tmp_path / "no" / "dir.json"))
    assert rc == 4 and err.startswith("error:")


def test_report_empty_data_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))
    rc, out, _ = run(capsys, "report", "--format", "tsv")
    assert rc == 0
    assert out == "algebra\tlabel\tq\tstatus\tfallbacks\n"
    rc, out, _ = run(capsys, "report")
    assert rc == 0 and json.loads(out) == {"rows": []}


def test_unknown_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])


# `wrat --help`, each `<command> --help`, and usage errors at the top level
# and in each subcommand, as the parser with all six subparsers printed them
# at 80 columns
CLI_USAGE = json.loads((Path(__file__).resolve().parent / "golden" / "cli_usage.json").read_text())


@pytest.mark.parametrize(
    "argv,code,stdout,stderr", CLI_USAGE, ids=[" ".join(c[0]) or "no-arguments" for c in CLI_USAGE]
)
def test_help_and_usage_bytes_are_pinned(capsys, monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, stdout, stderr)


# the same at 20, 40, 103 and 200 columns, where argparse wraps the usage
# lines otherwise; printed by Python 3.11, and by 3.10 and 3.12 alike
CLI_USAGE_WIDTHS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "cli_usage_widths.json").read_text()
)


@pytest.mark.parametrize(
    "columns,argv,code,stdout,stderr",
    CLI_USAGE_WIDTHS,
    ids=[f"{c[0]}-{' '.join(c[1]) or 'no-arguments'}" for c in CLI_USAGE_WIDTHS],
)
def test_usage_wraps_alike_at_any_width(capsys, monkeypatch, columns, argv, code, stdout, stderr):
    """From 3.13 on argparse keeps `--algebra ALGEBRA` or the subcommand
    choices with their `...` whole when it wraps a usage line; the parsers
    cut it into parts as 3.10-3.12 do, so the bytes agree at any width."""
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, stdout, stderr)


def _subcommands(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return list(action.choices)


def test_parser_for_a_named_subcommand_builds_only_it():
    assert _subcommands(build_parser("report")) == ["report"]
    everything = _subcommands(build_parser())
    assert len(everything) == 6 and everything[-1] == "report"
    for other in (None, "--help", "no-such-command"):
        assert _subcommands(build_parser(other)) == everything


# -- start-up: a fresh process runs only the modules its subcommand calls -------

SRC = str(Path(wrat.__file__).resolve().parent.parent)

# runs one request as `python -m wrat.cli` would, then prints which of the
# package's modules executed and whether `dataclasses` was imported; a
# module's own __dict__ is read past the lazy loader, so the check itself
# loads nothing
EXECUTED_PROBE = """
import json, runpy, sys
sys.argv = ["wrat", *json.loads(sys.argv[1])]
try:
    runpy.run_module("wrat.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
defines = {
    "rootsys": "build", "liealg": "build_chevalley", "grading": "grade",
    "orbits": "load_records", "ratcheck": "check_record",
    "frobenius": "recursion_solve", "slots": "_kernel_slots",
    "classical": "build_classical", "_linalg": "rank",
}
ran = [
    name for name, attr in defines.items()
    if attr in object.__getattribute__(sys.modules["wrat." + name], "__dict__")
]
print(json.dumps({"exit": code, "ran": ran, "dataclasses": "dataclasses" in sys.modules}))
"""


def fresh_python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def executed_modules(*argv):
    out = fresh_python("-c", EXECUTED_PROBE, json.dumps(argv))
    assert out.stderr == ""
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "a,epsilon",
    [
        ([[0, [["1/2"]]], [1, [["1e400"]]]], "1/2"),
        ([[0, [["1e400"]]]], "1/2"),
        ([[0, [["1/2"]]]], "1e400"),
    ],
    ids=["majorant-norm", "a0-entry", "epsilon"],
)
def test_contraction_past_the_float_range_exits_3(tmp_path, a, epsilon):
    """A rational the truncation proxy cannot hold as a float refuses the
    contraction with one line, in a fresh process."""
    system = {"ell": 1, "A": a, "domain": {"z0": 0, "epsilon": epsilon, "delta": "1/2"}}
    path = write_system(tmp_path, "big.json", system)
    out = fresh_python("-m", "wrat.cli", "frobenius", path, "--order", "3")
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr.startswith("error: the truncation proxy is past the float range")
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr


def test_frobenius_request_runs_only_frobenius(tmp_path):
    path = write_system(
        tmp_path,
        "rec.json",
        {"ell": 1, "A": [[0, [["1/2"]]]], "f": [[1, [[1]]]], "seeds": [[[0]], [[2]]]},
    )
    got = executed_modules("frobenius", path, "--order", "4", "--route", "recursion")
    # `Form.of` takes each polynomial over its common denominator in `_linalg`
    assert got == {"exit": 0, "ran": ["frobenius", "_linalg"], "dataclasses": False}


def test_check_classical_request_never_runs_frobenius():
    """The classical route needs neither the Chevalley table nor the
    gradings: it runs `classical`, the check also the verdict of `slots`,
    and none of the Chevalley route's modules.  It takes no rank and no
    common denominator in `_linalg`: the check counts its slots from the
    Jordan data.  Self-contragredience on the verified triple of a
    partition needs no slot table."""
    for argv, slot_table in (
        (["check-classical", "--partition", "3,3,2"], True),
        (["check-classical", "--partition", "3,3", "--v-zero"], True),
        (["verify-contragredient", "--partition", "3,3,2"], False),
        (["check-classical", "--partition", "13,13,10,10,6,4,2,2"], True),
        (["verify-contragredient", "--partition", "13,13,10,10,6,4,2,2"], False),
    ):
        got = executed_modules(*argv, "--family", "C")
        assert got["exit"] == 0
        assert "ratcheck" not in got["ran"]
        assert not {"frobenius", "liealg", "grading", "_linalg"} & set(got["ran"]), argv
        assert not {"rootsys", "orbits"} & set(got["ran"]), argv
        assert "classical" in got["ran"], argv
        assert ("slots" in got["ran"]) == slot_table, argv
        assert not got["dataclasses"]


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--all"],
        ["check-exceptional", "--algebra", "G2", "--q", "3"],
        ["search-v", "--algebra", "G2", "--q", "3"],
        ["verify-contragredient", "--algebra", "G2", "--q", "3"],
    ],
    ids=["report", "check-exceptional", "search-v", "verify-contragredient"],
)
def test_exceptional_requests_never_run_classical(argv):
    """The Chevalley route reads the slot table but never the classical route."""
    got = executed_modules(*argv)
    assert got["exit"] == 0
    assert {"ratcheck", "slots"} <= set(got["ran"])
    assert "classical" not in got["ran"]


@pytest.mark.parametrize(
    "argv,code,stderr,ran",
    [
        (
            ["frobenius", "/nonexistent.json"],
            4,
            "error: [Errno 2] No such file or directory: '/nonexistent.json'\n",
            [],
        ),
        (
            ["check-classical", "--family", "C", "--partition", "3,2"],
            3,
            "error: part 3 must occur an even number of times in sp\n",
            ["classical"],
        ),
        (
            ["verify-contragredient"],
            3,
            "error: need --algebra/--q or --family/--partition\n",
            [],
        ),
        (["verify-contragredient", "--family", "C"], 3, "error: --family needs --partition\n", []),
        (
            ["check-exceptional", "--algebra", "E8"],
            3,
            "error: need --q or --label to pick a record\n",
            ["rootsys", "_linalg"],
        ),
    ],
    ids=[
        "missing-series-file", "illegal-partition", "no-target", "family-without-partition",
        "no-q-or-label",
    ],
)
def test_error_exits_run_only_what_the_request_ran(argv, code, stderr, ran):
    """Mapping an exception to its exit code loads no module: a missing
    series file runs none, an illegal partition only `classical`.  The
    CLI's own flag rules load nothing, and a record request without q or
    label only parses the algebra, in `rootsys`, which imports from
    `_linalg`."""
    out = fresh_python("-c", EXECUTED_PROBE, json.dumps(argv))
    assert out.stderr == stderr
    got = json.loads(out.stdout.splitlines()[-1])
    assert got == {"exit": code, "ran": ran, "dataclasses": False}


# every BadInput class the package defines, as "module.Class"
BAD_INPUT_CLASSES = {
    "rootsys.IllegalType", "orbits.NotExceptionalType", "orbits.InvalidRecord",
    "orbits.UnknownRoot", "classical.InvalidPartition", "grading.NoSl2Completion",
    "frobenius._StepFailure", "frobenius.InvalidSystem", "frobenius.Resonance",
    "frobenius.SeedInconsistent", "frobenius.ContractionFails",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _e6_record_with(f_roots):
    """A set-up: the only record is E6 3A1 (e6_q2.json), its f_roots mapped
    by f_roots."""

    def setup(tmp_path, monkeypatch):
        obj = json.loads((Path(wrat.__file__).parent / "data" / "e6_q2.json").read_text())
        obj["f_roots"] = f_roots(obj["f_roots"])
        (tmp_path / "e6_q2.json").write_text(json.dumps(obj))
        monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))

    return setup


def _truncate_at_one(tmp_path, monkeypatch):
    # the chosen truncation N always clears C/N < 1: a forced N = 1 does not
    monkeypatch.setattr(fr, "choose_truncation", lambda *args: 1)


# each BadInput class a request raises -> (the request, its set-up or None)
REFUSALS = {
    "rootsys.IllegalType": (["check-exceptional", "--algebra", "E9", "--q", "2"], None),
    "orbits.NotExceptionalType": (["check-exceptional", "--algebra", "C3", "--q", "3"], None),
    "orbits.InvalidRecord": (["report"], _e6_record_with(lambda roots: roots[:1] * 2)),
    "orbits.UnknownRoot": (["report"], _e6_record_with(lambda roots: [[9] * 6])),
    "classical.InvalidPartition": (["check-classical", "--family", "C", "--partition", "3,2"], None),
    # two of the three root vectors of 3A1 have no sl2 through the h of 3A1
    "grading.NoSl2Completion": (
        ["check-exceptional", "--algebra", "E6", "--q", "2"],
        _e6_record_with(lambda roots: roots[:2]),
    ),
    "frobenius.InvalidSystem": (["frobenius", PLAIN_SYSTEM, "--route", "log"], None),
    "frobenius.Resonance": (
        ["frobenius", {"ell": 1, "A": [[0, [[2]]]], "f": [[2, [[1]]]], "seeds": []}],
        None,
    ),
    "frobenius.SeedInconsistent": (["frobenius", INCONSISTENT_SEED, "--route", "recursion"], None),
    "frobenius.ContractionFails": (
        ["frobenius", {**INCONSISTENT_SEED, "A": [[0, [[4]]]], "seeds": []}, "--route", "contraction"],
        _truncate_at_one,
    ),
}


def test_refusals_are_the_two_categories_at_the_package_root():
    """`cli.main` maps `wrat.BadInput` to exit 3 and `wrat.RoutesDisagree`
    to exit 2.  The package defines exactly these BadInput classes, each
    still a ValueError, and RoutesDisagree is still a RuntimeError, bound in
    `ratcheck` as well."""
    for name in ("rootsys", "orbits", "classical", "grading", "frobenius", "ratcheck"):
        importlib.import_module(f"wrat.{name}")
    defined = {
        f"{c.__module__.removeprefix('wrat.')}.{c.__qualname__}"
        for c in _subclasses(wrat.BadInput)
        if c.__module__.startswith("wrat.")
    }
    assert defined == BAD_INPUT_CLASSES == set(REFUSALS) | {"frobenius._StepFailure"}
    assert issubclass(wrat.BadInput, ValueError)
    assert issubclass(wrat.RoutesDisagree, RuntimeError)
    assert not issubclass(wrat.RoutesDisagree, ValueError)
    assert ratcheck.RoutesDisagree is wrat.RoutesDisagree


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_refusal_class_exits_through_main(capsys, tmp_path, monkeypatch, name):
    """A request that raises the class exits 3 with one line."""
    argv, setup = REFUSALS[name]
    if setup is not None:
        setup(tmp_path, monkeypatch)
    argv = [write_system(tmp_path, "system.json", a) if isinstance(a, dict) else a for a in argv]
    module, cls = name.split(".")
    args = build_parser(argv[0]).parse_args(argv)
    with pytest.raises(getattr(importlib.import_module(f"wrat.{module}"), cls)):
        args.func(args)
    capsys.readouterr()
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _writes_to_stderr(node) -> bool:
    """node is a call that writes to sys.stderr: print(..., file=sys.stderr),
    sys.stderr.write(...), or sys.stderr handed to a call."""

    def is_stderr(n):
        return isinstance(n, ast.Attribute) and n.attr == "stderr" and getattr(n.value, "id", "") == "sys"

    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (
        any(is_stderr(a) for a in node.args)
        or any(k.arg == "file" and is_stderr(k.value) for k in node.keywords)
        or isinstance(func, ast.Attribute) and func.attr == "write" and is_stderr(func.value)
    )


def test_only_main_and_the_usage_path_write_to_stderr():
    """`main` prints the one `error:` line; `_Parser.error` is argparse's
    usage path.  Every other refusal reaches `main` as an exception."""
    tree = ast.parse(Path(cli.__file__).read_text())
    writers = set()
    for top in tree.body:
        scopes = [(top.name, top)] if isinstance(top, ast.FunctionDef) else []
        if isinstance(top, ast.ClassDef):
            scopes = [(f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef)]
        for name, fn in scopes:
            if any(_writes_to_stderr(n) for n in ast.walk(fn)):
                writers.add(name)
    assert writers == {"main", "_Parser.error"}


def test_cli_reads_no_private_name_of_another_module():
    """`cli` reaches the rest of the package through public names only: no
    `module._name` attribute of a module it imports, and no `_name` in a
    `from .module import` list."""
    tree = ast.parse(Path(cli.__file__).read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules |= {a.asname or a.name for a in node.names}
            else:
                private += [f"{node.module}.{a.name}" for a in node.names if a.name[0] == "_"]
    assert {"ratcheck", "slots", "fr"} <= modules
    private += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr[0] == "_"
    ]
    assert private == []


def test_report_all_realizes_each_record_once(capsys, monkeypatch):
    """An in-process `report --all` checks v against f, builds the graded
    operator and groups it once per record, for both routes and the
    self-contragredience check together."""
    calls = Counter()
    for name in ("_chevalley_operator", "_group", "_require_centralizing"):

        def counted(*args, _fn=getattr(ratcheck, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ratcheck, name, counted)
    rc, out, _ = run(capsys, "report", "--all")
    assert rc == 0 and len(json.loads(out)["rows"]) == 15
    assert calls == {"_chevalley_operator": 15, "_group": 15, "_require_centralizing": 15}


def use_handoff_record(tmp_path, monkeypatch):
    """Make G2 A1~, with v = 3/2 times the first primitive h^f vector, the
    only bundled record, through a temporary WRAT_DATA_DIR."""
    (rec,) = [r for r in orbits.load_records() if (str(r.algebra), r.label) == ("G2", "A1~")]
    table, _, f, _ = ratcheck.realize_record(rec)
    first = ratcheck._hf_basis(table, f)[0]
    obj = json.loads((Path(wrat.__file__).parent / "data" / "g2_q2.json").read_text())
    obj["v"] = {"row": [rat_to_json(Fraction(3 * x, 2)) for x in first]}
    (tmp_path / "g2_q2.json").write_text(json.dumps(obj))
    monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))


def test_both_gate_ranks_the_slots_on_a_handoff(capsys, tmp_path, monkeypatch):
    """G2 A1~ with v = 3/2 times the first primitive h^f vector puts the
    eigenvalue -3 in degree 0, so the fast route hands off to the counted
    slot table.  The exact side of `--both` then ranks the slots instead of
    counting them again, and the request prints and exits as `--exact`
    does: 2, a failing row."""
    use_handoff_record(tmp_path, monkeypatch)
    counted = []
    slot_verdict = ratcheck._slot_verdict

    def spy(op, groups, den):
        counted.append(op.sl2)
        return slot_verdict(op, groups, den)

    monkeypatch.setattr(ratcheck, "_slot_verdict", spy)
    argv = ["check-exceptional", "--algebra", "G2", "--q", "2"]
    both = run(capsys, *argv)
    assert counted == [True, False]
    assert ratcheck.check_record(orbits.load_records()[0], "both").slot_rule == "rank"
    assert both == run(capsys, *argv, "--exact")
    assert both[0] == 2 and '"admissible": false' in both[1]


def test_both_gate_compares_the_rows_on_a_handoff(capsys, tmp_path, monkeypatch):
    """On a hand-off both sides of `--both` are whole slot tables, so a
    counted table that miscounts one slot fails the gate even where the
    two statuses agree: the request exits 2 with one error line and no
    verdict, where the true tables print the failing verdict."""
    use_handoff_record(tmp_path, monkeypatch)
    argv = ["check-exceptional", "--algebra", "G2", "--q", "2"]
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (2, "") and '"evidence"' in out
    kernel_slots = slots._kernel_slots

    def miscounted(op, groups):
        got = kernel_slots(op, groups)
        if op.sl2:  # the counting branch: one kernel vector too many
            d, mu, mult = got[0]
            got[0] = (d, mu, mult + 1)
        return got

    monkeypatch.setattr(slots, "_kernel_slots", miscounted)
    rec = orbits.load_records()[0]
    table, grading, f, triple = ratcheck.realize_record(rec)
    fast = ratcheck.fast_condition(table, grading, f, rec.v, triple)
    exact = ratcheck.exact_condition(table, grading, f, rec.v)
    assert fast.method == "exact" and fast.slot_rule == "counting"
    assert exact.slot_rule == "rank"
    assert fast.status == exact.status and fast.evidence != exact.evidence
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: routes disagree on G2") and err.count("\n") == 1
    assert "slot tables differ" in err


# -- the program entry: `run` freezes the heap after the output ---------------

# runs one request as `python -m wrat.cli` would, then prints its exit code
# and the number of objects in the permanent generation
FREEZE_PROBE = """
import gc, json, runpy, sys
sys.argv = ["wrat", *json.loads(sys.argv[1])]
try:
    runpy.run_module("wrat.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "frozen": gc.get_freeze_count()}))
"""


def test_program_entry_freezes_the_heap_after_the_output():
    argv = ["check-classical", "--family", "C", "--partition", "13,13,10,10,6,4,2,2"]
    out = fresh_python("-c", FREEZE_PROBE, json.dumps(argv))
    assert out.stderr == ""
    *lines, last = out.stdout.splitlines(keepends=True)
    got = json.loads(last)
    assert got["exit"] == 0 and got["frozen"] > 0
    golden = GOLDEN / "classical" / "check-classical_C_13-13-10-10-6-4-2-2.out"
    assert "".join(lines).encode() == golden.read_bytes()


@pytest.mark.parametrize(
    "workload,name,argv", GOLDEN_REQUESTS, ids=[f"{w}/{n}" for w, n, _ in GOLDEN_REQUESTS]
)
def test_program_entry_matches_golden_bytes(tmp_path, workload, name, argv):
    """`python -m wrat.cli`, as the benchmark runs it, on every bench request."""
    argv = [write_system(tmp_path, "system.json", a) if isinstance(a, dict) else a for a in argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "wrat.cli", *argv], env=env, capture_output=True, timeout=120
    )
    assert (out.returncode, out.stderr) == (0, b"")
    assert out.stdout == (GOLDEN / workload / f"{name}.out").read_bytes()


def test_main_leaves_the_heap_unfrozen(capsys):
    """In-process callers (the tests, the bench tracer, library code) call
    `main` many times and keep a heap that can still be collected."""
    before = gc.get_freeze_count()
    assert run(capsys, "check-exceptional", "--algebra", "G2", "--q", "3")[0] == 0
    assert run(capsys, "check-classical", "--family", "C", "--partition", "3,3,2")[0] == 0
    assert gc.get_freeze_count() == before


def test_installed_script_is_the_program_entry():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'wrat = "wrat.cli:run"'


@pytest.mark.parametrize(
    "argv,code,stdout,stderr", CLI_USAGE, ids=[" ".join(c[0]) or "no-arguments" for c in CLI_USAGE]
)
def test_help_and_usage_leave_run_before_the_freeze(capsys, monkeypatch, argv, code, stdout, stderr):
    """--help and usage errors end in SystemExit inside `main`, with the
    pinned bytes and exit codes, and so never reach the freeze."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["wrat", *argv])
    before = gc.get_freeze_count()
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert (exc.value.code, *capsys.readouterr()) == (code, stdout, stderr)
    assert gc.get_freeze_count() == before


# loads orbits and ratcheck, then reports whether classical executed, and
# whether the views the benchmark's files read are classical's own objects
VIEWS_PROBE = """
import json, sys
from wrat import orbits, ratcheck
orbits.load_records, ratcheck.check_record
before = "build_classical" in object.__getattribute__(sys.modules["wrat.classical"], "__dict__")
from wrat import classical
views = [
    orbits.build_classical is classical.build_classical,
    orbits.ClassicalPartition is classical.ClassicalPartition,
    orbits.InvalidPartition is classical.InvalidPartition,
    ratcheck.check_classical is classical.check_classical,
    ratcheck.verify_self_contragredient_classical
    is classical.verify_self_contragredient_classical,
]
print(json.dumps({"before": before, "views": views}))
"""


def test_tracer_views_are_the_classical_functions():
    """`orbits.build_classical`, `ratcheck.check_classical` and
    `ratcheck.verify_self_contragredient_classical` are the names
    `bench/tracer.py` wraps, and `bench/test_bench.py` imports
    `ClassicalPartition` and `InvalidPartition` from `orbits`; each
    resolves to the `classical` object itself, and loading `orbits` and
    `ratcheck` does not run `classical`."""
    out = fresh_python("-c", VIEWS_PROBE)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"before": False, "views": [True] * 5}
    for module in (orbits, ratcheck):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name


@pytest.mark.parametrize("argv", [["--help"], ["report", "--all"]], ids=["help", "report"])
def test_start_up_never_imports_dataclasses(argv):
    got = executed_modules(*argv)
    assert got["exit"] == 0 and not got["dataclasses"]


def test_classical_request_never_imports_json():
    """A request that reads no JSON does not import the json package: the
    output writer quotes strings with the C function json.encoder uses."""
    probe = (
        "import runpy, sys; sys.argv = ['wrat', *sys.argv[1:]]\n"
        "try:\n    runpy.run_module('wrat.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    print(exc.code, 'json' in sys.modules)"
    )
    out = fresh_python("-c", probe, "check-classical", "--family", "C", "--partition", "3,3,2")
    assert out.stdout.split("\n")[-2] == "0 False", out.stderr


# counts Fraction.__new__ over one in-process request, argv as JSON in argv[1]
FRACTION_COUNT_PROBE = """
import contextlib, io, json, sys
from fractions import Fraction
count = 0
new = Fraction.__new__
def counted(cls, *args, **kwargs):
    global count
    count += 1
    return new(cls, *args, **kwargs)
Fraction.__new__ = counted
from wrat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(code, count)
"""


def test_report_all_makes_few_fractions():
    """The exceptional pipeline holds integers from the structure constants
    to the evidence rows and makes a Fraction only for a real rational or
    for output: 1,412 per `report --all` in a fresh process, against 1,778
    with `_linalg` back-substituting in Fraction, 1,623 with the degrees
    kept also as a Fraction-keyed map, 1,989 with both, 2,115 with a
    Fraction a(v) per support root in the centralizer check as well, 3,566
    with each row decided in Fractions and 24,126 with Fraction constants,
    degrees and pairings.  `check-classical` on the bench C partition makes
    181, against 369.  The `report` bound fails with any one of those, the
    `check-classical` one with rows decided in Fractions."""
    for argv, bound in [
        (["report", "--all"], 1500),
        (["check-classical", "--family", "C", "--partition", "13,13,10,10,6,4,2,2"], 270),
    ]:
        out = fresh_python("-c", FRACTION_COUNT_PROBE, json.dumps(argv))
        code, count = map(int, out.stdout.split())
        assert code == 0 and count <= bound, (argv, count)


BRACKETS_CACHED_PROBE = """
from wrat import cli, liealg, orbits, rootsys
cli._report_rows()
tables = {}
for rec in orbits.load_records():
    table = liealg.build_chevalley(rootsys.build(rec.algebra))
    tables[id(table)] = table
print(sum(len(t.brackets) for t in tables.values()))
"""


def test_report_rows_cache_the_traced_brackets():
    """The basis brackets a cold `report --all` caches, summed over its
    Chevalley tables: the figure `bench/tracer.py` reports as
    `liealg.brackets_cached`.  A change to what `table.brackets` stores
    shows up here, not as a silent move in that counter."""
    out = fresh_python("-c", BRACKETS_CACHED_PROBE)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == 2897


@pytest.mark.parametrize(
    "system,order,bound",
    [(series_oracle.recursion_system(), 36, 62), (series_oracle.log_system(), 28, 22)],
    ids=["recursion", "log"],
)
def test_series_requests_make_few_fractions(tmp_path, system, order, bound):
    """The series path holds every polynomial as an integer form from the
    JSON to the JSON: 52 Fractions for the bench recursion file (input
    rationals, one majorant per residual block and one weighted sum) and 18
    for the log file in a fresh process.  The recursion file made 160 with
    three Fractions per block in the weighted sum; the two made 393 and 160
    with Fraction polynomials for input, A_0's expansion, the seed check
    and the majorants, and 5,503 and 4,352 with Fraction coefficients
    between kernel calls.  Each bound allows about a fifth more."""
    argv = ["frobenius", write_system(tmp_path, "s.json", system), "--order", str(order)]
    out = fresh_python("-c", FRACTION_COUNT_PROBE, json.dumps(argv))
    code, count = map(int, out.stdout.split())
    assert code == 0 and count <= bound, count


def test_module_help_writes_nothing_to_stderr():
    out = fresh_python("-m", "wrat.cli", "--help")
    assert out.returncode == 0
    assert out.stdout.startswith("usage: wrat")
    assert out.stderr == ""


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["frobenius", "{bad}"], 3, "error: cannot parse system"),
        (["frobenius", "{absent}"], 4, "error: [Errno 2]"),
        (["check-exceptional", "--algebra", "Q9", "--q", "2"], 3, "error: "),
        (["check-classical", "--family", "C", "--partition", "3,2"], 3, "error: "),
    ],
    ids=["malformed-series", "missing-series", "unknown-algebra", "illegal-partition"],
)
def test_error_paths_in_a_fresh_process(tmp_path, argv, code, message):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths = {"{bad}": str(bad), "{absent}": str(tmp_path / "absent.json")}
    out = fresh_python("-m", "wrat.cli", *[paths.get(a, a) for a in argv])
    assert out.returncode == code
    assert out.stdout == ""
    assert out.stderr.startswith(message) and out.stderr.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_output_pipe_keeps_the_exit_codes(tmp_path, unbuffered):
    """stdout, or stdout and stderr, is a pipe whose reader is gone.  A
    failed write to stdout exits 4, a failed write of the error line keeps
    the request's code, and nothing prints an `Exception ignored` line or a
    traceback, with or without PYTHONUNBUFFERED."""
    system = write_system(tmp_path, "rec.json", {"ell": 1, "A": [[0, [["1/2"]]]], "seeds": []})
    broken = "error: [Errno 32] Broken pipe\n"
    usage = next(c for c in CLI_USAGE if c[0] == ["report", "--format", "xml"])
    cases = [
        (["--help"], 4, broken),
        (["check-exceptional", "--algebra", "G2", "--q", "3"], 4, broken),
        (["check-classical", "--family", "C", "--partition", "3,3,2"], 4, broken),
        (["search-v", "--algebra", "G2", "--q", "3"], 4, broken),
        (["verify-contragredient", "--algebra", "G2", "--q", "3"], 4, broken),
        (["frobenius", system, "--order", "4"], 4, broken),
        (["report", "--format", "tsv"], 4, broken),
        (["check-exceptional", "--algebra", "E6", "--q", "5"], 4, broken),
        (
            ["check-classical", "--family", "C", "--partition", "3,2"],
            3,
            "error: part 3 must occur an even number of times in sp\n",
        ),
        (usage[0], 3, usage[3]),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]), COLUMNS="80")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv, code, stderr in cases:
        for both in (False, True):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                out = subprocess.run(
                    [sys.executable, "-m", "wrat.cli", *argv],
                    stdout=write_end,
                    stderr=write_end if both else subprocess.PIPE,
                    env=env,
                    timeout=120,
                )
            finally:
                os.close(write_end)
            assert out.returncode == code, (argv, both)
            assert both or out.stderr.decode() == stderr, argv


def test_request_defaults_live_in_the_parser(capsys, tmp_path):
    """The parser is the one home of each request default: the library
    functions it calls take the value with no default of their own, and
    leaving a flag out prints what spelling its default out prints."""
    search = inspect.signature(ratcheck.search_v).parameters
    solve = inspect.signature(fr.contraction_solve).parameters
    check = inspect.signature(ratcheck.check_record).parameters
    params = [
        search["denominator_bound"], search["coefficient_bound"],
        solve["iterations"], check["method"],
    ]
    assert all(p.default is inspect.Parameter.empty for p in params)
    search_v = ["search-v", "--algebra", "F4", "--q", "2"]
    spelled = run(capsys, *search_v, "--denominator-bound", "2", "--coefficient-bound", "4")
    assert run(capsys, *search_v) == spelled and spelled[0] == 0
    check_exceptional = ["check-exceptional", "--algebra", "G2", "--q", "3"]
    spelled = run(capsys, *check_exceptional, "--both")
    assert run(capsys, *check_exceptional) == spelled and spelled[0] == 0
    path = write_system(
        tmp_path,
        "con.json",
        {
            "ell": 1,
            "A": [[0, [["1/2"]]]],
            "f": [[3, [[1]]]],
            "seeds": [[[0]], [[0]]],
            "domain": {"z0": 0, "epsilon": "1/2", "delta": "1/2"},
        },
    )
    spelled = run(capsys, "frobenius", path, "--iterate", "25")
    assert run(capsys, "frobenius", path) == spelled and spelled[0] == 0
    assert len(json.loads(spelled[1])["distances"]) == 25


# -- exact numbers past CPython's int-to-decimal digit limit -------------------

# 5,000 decimal digits, written out as text: past the 4,300-digit default
HUGE = "7" + "3" * 4999
HAS_DIGIT_LIMIT = hasattr(sys, "set_int_max_str_digits")  # 3.10.7 and later


@pytest.fixture
def unlimited_digits():
    """The test's own reading of huge outputs and references: the digit
    limit lifted for the test, and restored after it."""
    if not HAS_DIGIT_LIMIT:  # no limit to lift
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _series_reference(text: str, order: int) -> list:
    """The coefficients `frobenius` must print for the system text, from the
    Fraction oracle."""
    system = fr.system_from_json(json.loads(text))
    series = series_oracle.recursion_solve(system["a"], system["f"], system["seeds"], order)
    return [[[rat_to_json(c) for c in p] for p in vec] for vec in series.coeffs]


def test_numbers_past_the_digit_limit_are_exact(tmp_path, unlimited_digits):
    """A 5,000-digit A_0 in a system file, a 5,000-digit q in a record and
    a series whose coefficients pass 4,300 digits at order 5: each request
    exits 0 in a fresh process, and the series are the oracle's."""
    recs = tmp_path / "recs"
    recs.mkdir()
    record = json.loads((Path(orbits.__file__).parent / "data" / "g2_q3.json").read_text())
    record["q"] = ["HUGE"]
    (recs / "g2_q3.json").write_text(json.dumps(record).replace('"HUGE"', HUGE))
    small = f'"1/{10**1000 + 1}"'
    systems = {
        "a0.json": ('{"ell":1,"A":[[0,[[' + HUGE + ']]]],"f":[[1,[[1]]]],"seeds":[]}', 4),
        "small.json": ('{"ell":1,"A":[[0,[[[' + small + ']]]],[1,[[[1]]]]],'
                       '"f":[[0,[[1]]]],"seeds":[]}', 5),
    }
    requests = [(["report"], {"WRAT_DATA_DIR": str(recs)}, None)]
    for name, (text, order) in systems.items():
        (tmp_path / name).write_text(text)
        argv = ["frobenius", str(tmp_path / name), "--order", str(order)]
        requests.append((argv, {}, _series_reference(text, order)))
    for argv, extra, coefficients in requests:
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-m", "wrat.cli", *argv],
            env={**env, **extra}, capture_output=True, text=True, timeout=120,
        )
        assert (out.returncode, out.stderr) == (0, ""), argv
        d = json.loads(out.stdout)
        if coefficients is None:
            assert [(row["q"], row["status"]) for row in d["rows"]] == [(int(HUGE), "pass")]
        else:
            assert d["coefficients"] == coefficients
    assert len(d["coefficients"][-1][0][0]) > 4300  # small.json at order 5: "num/den"


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="this Python has no digit limit")
def test_main_restores_the_callers_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, "check-exceptional", "--algebra", "G2", "--q", "3")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run(capsys, "check-exceptional", "--algebra", "G2", "--q", "9")[0] == 3
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_main_runs_without_the_digit_limit_setter(capsys, monkeypatch, tmp_path):
    """Python 3.10.0-3.10.6 have no `sys.set_int_max_str_digits`."""
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    path = write_system(tmp_path, "rec.json", {"ell": 1, "A": [[0, [["1/2"]]]], "f": [[1, [[1]]]]})
    rc, d, _ = run_json(capsys, "frobenius", path, "--order", "3")
    assert (rc, d["coefficients"]) == (0, [[[]], [[2]], [[]]])
