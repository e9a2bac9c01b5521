"""Request lists for the benchmark workloads, and the checks on their output.

A workload is a fixed list of `wrat` command lines made from a seed; one pass
over the list is one sample.  Each request runs in a fresh process, so the
order of a list does not change the work it asks for.

Why each workload exists (see README.md for the full table):

* report_all  -- the whole exceptional pipeline once, cold.
* search_v    -- the same ratcheck/grading/_linalg code about 900 times per
                 request on a warm bracket cache.
* classical   -- the matrix route, which skips rootsys/liealg/grading.
* series      -- only frobenius and the _linalg solves.

The seed varies the inputs only where it can do so without changing how much
work a pass asks for: the run-to-run spread of the benchmark is taken across
seeds, so a seed that drew a cheaper record would read as a speed-up.  The
record sets of search_v and classical are therefore fixed and the seed sets
their order; series redraws the constants of its two systems at fixed heights;
report_all has no input to vary.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# (algebra, q, label): the four search-v requests, about 3.0 / 2.0 / 1.75 /
# 0.8 s each.  E8 4A1 (115 s per request) is left out.
SEARCH_RECORDS = (
    ("E6", 2, "3A1"),
    ("F4", 2, "A1"),
    ("E8", 4, "2A3"),
    ("E7", 3, "2A2+A1"),
)

# (family, parts): one non-even partition each of C, B and D, sizes 56-62.
CLASSICAL_PARTITIONS = (
    ("C", (13, 13, 10, 10, 6, 4, 2, 2)),
    ("B", (9, 9, 8, 8, 7, 5, 5, 3, 3, 2, 2)),
    ("D", (12, 12, 9, 9, 7, 5, 3, 1)),
)

RECURSION_ORDER = 36
LOG_ORDER = 28


@dataclass(frozen=True)
class Request:
    """One `wrat` command line and what its output must satisfy."""

    name: str
    argv: tuple[str, ...]
    kind: str  # which check applies: report, search, classical, contra, series
    expect: dict = field(default_factory=dict, compare=False)

    def golden_path(self, workload: str) -> Path:
        return GOLDEN_DIR / workload / f"{self.name}.out"


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple[Request, ...]
    files: dict  # relative path -> bytes, written before the first request
    golden: bool  # whether every request has a golden output to match


def rat_json(x: Fraction):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _report_all(seed: int, workdir: str) -> Workload:
    req = Request("report", ("report", "--all"), "report")
    return Workload("report_all", (req,), {}, True)


def _search_v(seed: int, workdir: str) -> Workload:
    order = list(SEARCH_RECORDS)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(order)
    reqs = tuple(
        Request(
            f"search-v_{alg}_q{q}",
            ("search-v", "--algebra", alg, "--q", str(q)),
            "search",
            {"algebra": alg, "q": q, "label": label},
        )
        for alg, q, label in order
    )
    return Workload("search_v", reqs, {}, True)


def _classical(seed: int, workdir: str) -> Workload:
    order = list(CLASSICAL_PARTITIONS)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(order)
    reqs = []
    for family, parts in order:
        text = ",".join(str(p) for p in parts)
        expect = {"family": family, "parts": parts}
        for cmd, kind in (("check-classical", "classical"), ("verify-contragredient", "contra")):
            reqs.append(
                Request(
                    f"{cmd}_{family}_{text.replace(',', '-')}",
                    (cmd, "--family", family, "--partition", text),
                    kind,
                    expect,
                )
            )
    return Workload("classical", tuple(reqs), {}, True)


# -- series systems ----------------------------------------------------------

# Default constants; the systems they give are
#   {"ell":2,"A":[[0,[[["1/2"],[0,1]],[[],["-1/3"]]]],[1,[[[1],[]],[[0,1],[1]]]]],
#    "f":[[1,[[1],[0,1]]]],"seeds":[]}
#   {"ell":2,"A":[[0,[[[],[1,1]],[[],[]]]],[1,[[[0,1],[]],[[1],[0,1]]]]],
#    "exponents":[0,"1/3"],"K":1,"seeds":{"0:1":[[[3,3],[]]],"0:0":[[[7],[3]]]}}
_DEFAULT_RECURSION = {
    "a": Fraction(1, 2), "d": Fraction(-1, 3), "b": 1,
    "e1": 1, "e2": 1, "e3": 1, "g1": 1, "g2": 1,
}
_DEFAULT_LOG = {"p0": 1, "p1": 1, "t1": 1, "t2": 1, "t3": 1, "h": Fraction(1, 3), "c": 3, "t": 7}


def _recursion_constants(rng: random.Random) -> dict:
    """A0 = [[a, b z], [0, d]] with a, d non-integer: det(nI - A0) is
    (n - a)(n - d), constant in z and never 0, so no index is resonant."""
    sign = lambda: rng.choice((1, -1))  # noqa: E731
    return {
        "a": sign() * Fraction(1, 2),
        "d": sign() * Fraction(1, 3),
        "b": sign(),
        "e1": sign(), "e2": sign(), "e3": sign(), "g1": sign(), "g2": sign(),
    }


def _log_constants(rng: random.Random) -> dict:
    """A0 = [[0, p(z)], [0, 0]] is nilpotent, so exponent 0 is resonant at
    n = 0 only, where the seeds sit; the second exponent is non-integer."""
    sign = lambda: rng.choice((1, -1))  # noqa: E731
    return {
        "p0": sign(), "p1": sign(), "t1": sign(), "t2": sign(), "t3": sign(),
        "h": sign() * Fraction(1, 3),
        "c": sign() * 3,
        "t": sign() * 7,
    }


def recursion_system(k: dict) -> dict:
    r = rat_json
    return {
        "ell": 2,
        "A": [
            [0, [[[r(k["a"])], [0, k["b"]]], [[], [r(k["d"])]]]],
            [1, [[[k["e1"]], []], [[0, k["e2"]], [k["e3"]]]]],
        ],
        "f": [[1, [[k["g1"]], [0, k["g2"]]]]],
        "seeds": [],
    }


def log_system(k: dict) -> dict:
    # layer (0, 1) starts at [c p(z), 0]; layer (0, 0) at [t, c], which is
    # the only second entry that solves p(z) u = c p(z) at n = 0
    p0, p1, c = k["p0"], k["p1"], k["c"]
    return {
        "ell": 2,
        "A": [
            [0, [[[], [p0, p1]], [[], []]]],
            [1, [[[0, k["t1"]], []], [[k["t2"]], [0, k["t3"]]]]],
        ],
        "exponents": [0, rat_json(k["h"])],
        "K": 1,
        "seeds": {"0:1": [[[c * p0, c * p1], []]], "0:0": [[[k["t"]], [c]]]},
    }


def _series(seed: int, workdir: str) -> Workload:
    if seed == DEFAULT_SEED:
        rec_k, log_k = _DEFAULT_RECURSION, _DEFAULT_LOG
    else:
        rng = random.Random(seed)
        rec_k, log_k = _recursion_constants(rng), _log_constants(rng)
    files, reqs = {}, []
    for name, system, order in (
        ("recursion", recursion_system(rec_k), RECURSION_ORDER),
        ("log", log_system(log_k), LOG_ORDER),
    ):
        path = f"{workdir}/series_{name}.json"
        files[path] = (json.dumps(system, separators=(",", ":")) + "\n").encode()
        reqs.append(
            Request(
                f"frobenius_{name}",
                ("frobenius", path, "--order", str(order)),
                "series",
                {"system": system, "order": order},
            )
        )
    return Workload("series", tuple(reqs), files, seed == DEFAULT_SEED)


_BUILDERS = {
    "report_all": _report_all,
    "search_v": _search_v,
    "classical": _classical,
    "series": _series,
}
WORKLOADS = tuple(_BUILDERS)


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    """The request list and input files of a workload; a pure function of
    (name, seed, workdir)."""
    return _BUILDERS[name](seed, workdir)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """The output of a request is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def dual_partition(parts) -> list[int]:
    parts = sorted(parts, reverse=True)
    return [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []


def centralizer_dim(family: str, parts) -> int:
    """dim g^f for the nilpotent of Jordan type `parts`:
    1/2 sum (dual_i)^2 + 1/2 #{odd parts} in sp, - in so."""
    square = sum(x * x for x in dual_partition(parts))
    odd = sum(1 for p in parts if p % 2)
    total = square + odd if family in ("C", "sp") else square - odd
    return total // 2


# -- polynomial arithmetic for the series check, independent of wrat ---------


def _poly(v) -> list[Fraction]:
    return [Fraction(c) for c in (v if isinstance(v, list) else [v])]


def _p_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _p_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _p_scale(c, a):
    return [c * x for x in a]


def _is_zero(p) -> bool:
    return not any(p)


def _matrix_terms(system: dict) -> dict[int, list[list[list[Fraction]]]]:
    return {
        int(n): [[_poly(e) for e in row] for row in m] for n, m in system.get("A", [])
    }


def recursion_residuals(terms, f_terms, coeffs, ell: int):
    """Indices n where n u_n - sum_{m<=n} A_{n-m} u_m - f_n is not 0."""
    bad = []
    for n, un in enumerate(coeffs):
        r = [_p_scale(n, un[i]) for i in range(ell)]
        for m in range(n + 1):
            an = terms.get(n - m)
            if an is None:
                continue
            for i in range(ell):
                for j in range(ell):
                    r[i] = _p_add(r[i], _p_scale(-1, _p_mul(an[i][j], coeffs[m][j])))
        fn = f_terms.get(n)
        if fn is not None:
            r = [_p_add(r[i], _p_scale(-1, fn[i])) for i in range(ell)]
        if not all(_is_zero(x) for x in r):
            bad.append(n)
    return bad


def _decode_coeffs(raw) -> list[list[list[Fraction]]]:
    return [[_poly(e) for e in vec] for vec in raw]


def check_series(system: dict, order: int, out: dict) -> None:
    ell = system["ell"]
    terms = _matrix_terms(system)
    if "exponents" not in system:
        _require(out.get("route") == "recursion", "route is not recursion")
        _require(out.get("residual") == "0", f"reported residual {out.get('residual')!r}")
        coeffs = _decode_coeffs(out["coefficients"])
        _require(len(coeffs) == order, f"{len(coeffs)} coefficients, expected {order}")
        f_terms = {int(n): [_poly(e) for e in vec] for n, vec in system.get("f", [])}
        bad = recursion_residuals(terms, f_terms, coeffs, ell)
        _require(not bad, f"recursion fails at n = {bad[:5]}")
        return
    _require(out.get("route") == "log", "route is not log")
    exps = [Fraction(h) for h in system["exponents"]]
    top = system["K"]
    layers = {key: _decode_coeffs(v) for key, v in out["layers"].items()}
    want = {f"{j}:{k}" for j in range(len(exps)) for k in range(top + 1)}
    _require(set(layers) == want, f"layers {sorted(layers)}, expected {sorted(want)}")
    for j, h in enumerate(exps):
        shifted = dict(terms)
        a0 = [row[:] for row in terms.get(0, [[[] for _ in range(ell)] for _ in range(ell)])]
        for i in range(ell):
            a0[i][i] = _p_add(a0[i][i], [-h])
        shifted[0] = a0
        for k in range(top + 1):
            coeffs = layers[f"{j}:{k}"]
            _require(len(coeffs) == order, f"layer {j}:{k} has {len(coeffs)} coefficients")
            for n, seed_vec in enumerate(system["seeds"].get(f"{j}:{k}", [])):
                diff = [_p_add(a, _p_scale(-1, _poly(b))) for a, b in zip(coeffs[n], seed_vec)]
                _require(
                    all(_is_zero(d) for d in diff), f"layer {j}:{k} ignores its seed at n = {n}"
                )
            f_terms = {}
            if k < top:
                f_terms = {
                    n: [_p_scale(-(k + 1), e) for e in vec]
                    for n, vec in enumerate(layers[f"{j}:{k + 1}"])
                }
            bad = recursion_residuals(shifted, f_terms, coeffs, ell)
            _require(not bad, f"layer {j}:{k} fails at n = {bad[:5]}")


def check_classical(expect: dict, rc: int, out: dict) -> None:
    status = out.get("status")
    _require(rc == (0 if status == "pass" else 2), f"exit {rc} with status {status!r}")
    total = sum(row["mult"] for row in out["evidence"])
    want = centralizer_dim(expect["family"], expect["parts"])
    _require(total == want, f"sum of multiplicities {total} != dim g^f {want}")


def check_contragredient(rc: int, out: dict) -> None:
    ok = out.get("self_contragredient")
    _require(isinstance(ok, bool), "no self_contragredient verdict")
    _require(rc == (0 if ok else 2), f"exit {rc} with self_contragredient {ok}")


def check_search(expect: dict, rc: int, out: dict) -> None:
    """The v found centralizes f and passes the exact route again."""
    from wrat.orbits import lookup_exceptional
    from wrat.ratcheck import exact_condition, realize_record
    from wrat.rootsys import CartanElement, pairing

    _require(rc == 0 and out.get("status") == "found", f"exit {rc}, status {out.get('status')!r}")
    _require(out.get("label") == expect["label"], f"label {out.get('label')!r}")
    rec = lookup_exceptional(expect["algebra"], expect["q"])
    v = CartanElement(tuple(Fraction(x) for x in out["v"]))
    table, grading, f, _ = realize_record(rec)
    for c in rec.f_roots:
        _require(pairing(table.rs, c, v) == 0, f"v does not centralize the root vector at {c}")
    _require(exact_condition(table, grading, f, v).status == "pass", "v fails the exact route")


def check_output(workload: Workload, req: Request, rc: int, stdout: bytes) -> None:
    """Raise CheckFailed unless the request's output is right."""
    if workload.golden:
        golden = req.golden_path(workload.name).read_bytes()
        _require(stdout == golden, "output differs from the golden file")
    if req.kind == "report":
        _require(rc == 0, f"exit {rc}")
        return
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    if req.kind == "series":
        _require(rc == 0, f"exit {rc}")
        check_series(req.expect["system"], req.expect["order"], out)
    elif req.kind == "classical":
        check_classical(req.expect, rc, out)
    elif req.kind == "contra":
        check_contragredient(rc, out)
    elif req.kind == "search":
        check_search(req.expect, rc, out)
    else:
        raise CheckFailed(f"no check for kind {req.kind!r}")
