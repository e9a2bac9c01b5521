import contextlib
import copy
import io
import json
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_oracle
from wrat.cli import main


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


def test_check_classical_v_zero(capsys):
    # all-pairs partition: the grading is even and v = 0 passes
    rc, d, _ = run_json(
        capsys, "check-classical", "--family", "C", "--partition", "1,1", "--v-zero"
    )
    assert rc == 0 and d["status"] == "pass"


def test_check_classical_bad_partition_text(capsys):
    rc, _, err = run(capsys, "check-classical", "--family", "C", "--partition", "a,b")
    assert rc == 3 and err.startswith("error:")


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
    ],
    ids=[
        "wide-row", "short-height", "zero-denominator", "array", "negative-ell", "long-seed",
        "float-ell", "bool-ell", "float-K", "float-A-index", "negative-A-index",
        "negative-f-index", "seed-exponent-out-of-range", "seed-k-above-K",
        "congruent-exponents", "string-seed", "string-A-row", "string-A", "string-f",
        "string-layer-seed", "string-exponents", "negative-epsilon", "negative-delta",
        "zero-delta",
    ],
)
def test_frobenius_malformed_system_exits_3(capsys, tmp_path, obj, message):
    rc, out, err = run(capsys, "frobenius", write_system(tmp_path, "s.json", obj))
    assert rc == 3 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


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


@settings(max_examples=200, deadline=None)
@given(
    mutated_systems(),
    st.sampled_from(["auto", "recursion", "contraction", "log"]),
    st.integers(1, 5),
)
def test_frobenius_exit_contract_under_mutation(obj, route, order):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["frobenius", path, "--route", route, "--order", str(order)])
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")


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


FRACTION_TEXT = re.compile(r"\d+(/\d+)?")


@settings(max_examples=100, deadline=None)
@given(contraction_systems(), st.integers(1, 6), st.integers(0, 4))
def test_frobenius_contraction_certificate_is_nonnegative(obj, order, iterate):
    """Either bad input (exit 3) or a certificate whose ratio, bound and
    distances are all nonnegative exact rationals, with ratio < 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(
                ["frobenius", path, "--route", "contraction", "--order", str(order),
                 "--iterate", str(iterate)]
            )
    if rc == 3:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
        return
    assert rc == 0, err.getvalue()
    d = json.loads(out.getvalue())
    texts = [d["ratio"], d["bound"], *d["distances"]]
    assert len(d["distances"]) == iterate
    assert all(FRACTION_TEXT.fullmatch(t) for t in texts), texts
    assert Fraction(d["ratio"]) < 1


def test_report_tsv_golden(capsys):
    rc, out, _ = run(capsys, "report", "--format", "tsv")
    assert rc == 0
    assert out == REPORT_TSV


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
