"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints exactly one [PASS]/[FAIL] line; run with

    pytest tests/test_acceptance.py -s

to watch the lines as the criteria execute.  Everything here is exact
rational arithmetic -- there are no tolerances to tune.
"""
import contextlib
import functools
import io
import itertools
import json
import random
import time
from fractions import Fraction as Q

from classical_matrix_oracle import classical_basis
from contragredient_oracle import dense
from good_grading import verify_good_grading
from linalg_oracle import centralizer, rref
from test_grading import block_dims
import series_oracle as oracle
from wrat.classical import (
    ClassicalPartition,
    InvalidPartition,
    build_classical,
    check_classical,
)
from wrat.cli import main as cli_main
from wrat.liealg import build_chevalley
from wrat.orbits import load_records, lookup_exceptional
from wrat.ratcheck import check_record, realize_record
from wrat.rootsys import SimpleType, build, is_admissible_level, pairing
from wrat import frobenius as fr


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {n}: {desc}", flush=True)
                raise
            print(f"\n[PASS] criterion {n}: {desc}", flush=True)

        return wrapper

    return deco


# ---------------------------------------------------------------------------


@criterion(1, "all 15 bundled records pass both check routes exactly in < 10 s")
def test_criterion_1():
    build.cache_clear()
    build_chevalley.cache_clear()
    t0 = time.perf_counter()
    records = load_records()
    assert len(records) == 15
    for rec in records:
        verdict = check_record(rec, "both")
        assert verdict.status == "pass", (str(rec.algebra), rec.label)
        assert verdict.method == "both"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


HALF_BLOCK_DIMS = {
    ("G2", "A1"): 4,
    ("G2", "A1~"): 2,
    ("E7", "4A1"): 26,
    ("E7", "2A2+A1"): 20,
    ("E8", "4A1"): 56,
    ("E8", "2A2+2A1"): 40,
    ("E8", "2A3"): 28,
    ("E8", "A4+A3"): 24,
    ("E8", "A6+A1"): 16,
    ("E8", "A7"): 14,
}


@criterion(2, "degree -1/2 block dimensions match the published counts")
def test_criterion_2():
    seen = {}
    for rec in load_records():
        key = (str(rec.algebra), rec.label)
        if key in HALF_BLOCK_DIMS:
            _, grading, _, _ = realize_record(rec)
            seen[key] = block_dims(grading).get(Q(-1, 2), 0)
    assert seen == HALF_BLOCK_DIMS


# fallback witnesses: eigenvalue -> (element, image support), frozen from the
# published bracket computations; every other record needs no fallback.
WITNESS_GOLDENS = {
    ("F4", "A2+A1~"): {
        ("2", "e(1,1,0,0)"): ("f(0,1,2,0)",),
        ("-2", "f(1,1,0,0)"): ("f(1,2,2,2)",),
    },
    ("E8", "2A2+2A1"): {
        ("-2", "f(1,1,1,1,0,0,0,0)"): ("f(1,2,2,3,2,2,2,1)",),
        ("2", "e(1,1,1,1,0,0,0,0)"): ("f(0,1,1,2,2,1,0,0)",),
    },
    ("E8", "A4+A3"): {
        ("-5/2", "f(1,1,1,1,1,1,0,0)"): ("f(1,1,2,2,2,2,1,1)",),
        ("-2", "f(0,0,0,0,1,1,0,0)"): ("f(1,1,2,2,2,1,0,0)",),
        ("-2", "f(1,0,1,0,0,0,0,0)"): (
            "f(1,1,1,1,1,1,1,1)",
            "f(1,1,2,2,2,1,0,0)",
        ),
        ("2", "e(0,0,0,0,1,1,0,0)"): ("f(0,1,1,2,1,0,0,0)",),
        ("2", "e(1,0,1,0,0,0,0,0)"): (
            "f(0,0,0,1,1,1,1,0)",
            "f(0,1,1,2,1,0,0,0)",
        ),
        ("5/2", "f(0,0,0,1,0,0,0,0)"): ("f(0,1,1,2,1,1,1,0)",),
    },
    ("E8", "A6+A1"): {
        ("-2", "f(0,0,0,0,0,0,1,1)"): ("f(0,1,1,1,1,1,1,1)",),
        ("2", "e(0,0,0,0,0,0,1,1)"): ("f(0,0,0,1,1,1,0,0)",),
    },
}


@criterion(3, "eigenvalue multisets and fallback witnesses match published data")
def test_criterion_3():
    # the small rank-2 case: full block eigenvalues, then the kernel rows
    rec = lookup_exceptional("G2", 3)
    assert rec.label == "A1"
    table, grading, f, _ = realize_record(rec)
    rs = build(rec.algebra)
    eigs = []
    for i in grading.block(Q(-1, 2)):
        b = table.basis[i]
        a = pairing(rs, b.key, rec.v)
        eigs.append(a if b.kind == "e" else -a)
    assert sorted(eigs) == [Q(-3, 2), Q(-1, 2), Q(1, 2), Q(3, 2)]
    verdict = check_record(rec, "exact")
    zero_rows = {e.eigenvalue: e.multiplicity for e in verdict.evidence if e.j == 0}
    assert zero_rows == {Q(-1): 1, Q(0): 1, Q(1): 1}

    # fallback witnesses, with the exact image roots of each bracket
    for rec in load_records():
        key = (str(rec.algebra), rec.label)
        verdict = check_record(rec, "both")
        got = {
            (str(w.eigenvalue), str(w.element)): tuple(
                str(b) for b in sorted(w.image_support, key=str)
            )
            for w in verdict.fallbacks
        }
        assert got == WITNESS_GOLDENS.get(key, {}), key


POSITIVE_COUNTS = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}
COXETER = {"G2": (6, 4), "F4": (12, 9), "E6": (12, 12), "E7": (18, 18), "E8": (30, 30)}
JACOBI_EXHAUSTIVE = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"]
JACOBI_SAMPLED = ["E6", "E7", "E8"]


def _jacobi_defect(t, i, j, k):
    tot = {}
    for d, other in (
        (t.basis_bracket(i, j), k),
        (t.basis_bracket(j, k), i),
        (t.basis_bracket(k, i), j),
    ):
        for m, c in d.items():
            for n, c2 in t.basis_bracket(m, other).items():
                tot[n] = tot.get(n, Q(0)) + c * c2
    return any(tot.values())


@criterion(4, "positive-root counts, Coxeter numbers, and the Jacobi identity")
def test_criterion_4(seed):
    for name, count in POSITIVE_COUNTS.items():
        rs = build(SimpleType.parse(name))
        assert len(rs.positive_roots) == count, name
        assert (rs.coxeter_number, rs.dual_coxeter_number) == COXETER[name]
    for name in JACOBI_EXHAUSTIVE:
        t = build_chevalley(build(SimpleType.parse(name)))
        for i, j, k in itertools.combinations(range(t.dimension), 3):
            assert not _jacobi_defect(t, i, j, k), (name, i, j, k)
    for name in JACOBI_SAMPLED:
        t = build_chevalley(build(SimpleType.parse(name)))
        rng = random.Random(f"{name}:{seed}")
        checked = 0
        while checked < 100_000:
            i, j, k = (rng.randrange(t.dimension) for _ in range(3))
            if i == j or j == k or i == k:
                continue
            assert not _jacobi_defect(t, i, j, k), (name, i, j, k)
            checked += 1


def _legal_partitions(max_size):
    def gen(n, mx):
        if n == 0:
            yield ()
            return
        for k in range(min(n, mx), 0, -1):
            for rest in gen(n - k, k):
                yield (k,) + rest

    out = []
    for n in range(1, max_size + 1):
        for family in ("so", "sp"):
            if family == "sp" and n % 2:
                continue
            for parts in gen(n, n):
                try:
                    out.append(ClassicalPartition.from_parts(family, list(parts)))
                except InvalidPartition:
                    continue
    return out


@criterion(5, "self-contragredience holds for all records and all classical "
             "realizations of size <= 10")
def test_criterion_5():
    from wrat.classical import verify_self_contragredient_classical
    from wrat.ratcheck import verify_self_contragredient

    for rec in load_records():
        table, grading, f, _ = realize_record(rec)
        assert verify_self_contragredient(table, grading, f), rec.label
    parts = _legal_partitions(10)
    assert len(parts) > 100
    for p in parts:
        assert verify_self_contragredient_classical(build_classical(p)), p


def _zero_v(real):
    return real._replace(v_diag=tuple([Q(0)] * real.size))


def _dense_oracle(real):
    """Kernel multiplicities of ad(f) per (degree, eigenvalue) block, done on
    raw N x N matrices with plain rational row reduction."""
    n = real.size
    blocks = {}
    for (i, j), partner, c in classical_basis(real):
        mat = [[Q(0)] * n for _ in range(n)]
        mat[i][j] = Q(1)
        if partner is not None:
            mat[partner[0]][partner[1]] += Q(c)
        d = Q(real.h_diag[i] - real.h_diag[j], 2)
        lam = real.v_diag[i] - real.v_diag[j]
        blocks.setdefault((d, lam), []).append(mat)
    f = dense(real, real.f)
    mult = {}
    for (d, lam), elts in blocks.items():
        cols = []
        for m in elts:
            # f m - m f, entry by entry; products with a zero factor are skipped
            img = [
                [
                    sum((f[r][k] * m[k][c2] for k in range(n) if f[r][k] and m[k][c2]), Q(0))
                    - sum((m[r][k] * f[k][c2] for k in range(n) if m[r][k] and f[k][c2]), Q(0))
                    for c2 in range(n)
                ]
                for r in range(n)
            ]
            cols.append([img[r][c2] for r in range(n) for c2 in range(n)])
        a = [[col[r] for col in cols] for r in range(n * n)]
        k_dim = len(elts) - len(rref(a)[1])
        if k_dim:
            mult[(-d, lam)] = k_dim
    return mult


@criterion(6, "classical checks pass for every legal partition of size <= 8 "
             "and a seeded sample of sizes 9-14, and agree with a dense-matrix "
             "kernel oracle")
def test_criterion_6():
    n_mixed = n_even = 0
    larger = [p for p in _legal_partitions(14) if p.size > 8]
    sample = random.Random(6).sample(larger, 16)
    for p in _legal_partitions(8) + sample:
        real = build_classical(p)
        if p.pairs and p.singles:
            n_mixed += 1
        else:
            real = _zero_v(real)
            n_even += 1
        verdict = check_classical(real)
        assert verdict.status == "pass", p
        ours = {(e.j, e.eigenvalue): e.multiplicity for e in verdict.evidence}
        assert ours == _dense_oracle(real), p
    assert n_mixed >= 17 and n_even >= 40


@criterion(7, "every bundled grading is good and dim ker ad(f) = "
             "dim g_0 + dim g_1/2 exactly")
def test_criterion_7():
    for rec in load_records():
        table, grading, f, _ = realize_record(rec)
        assert verify_good_grading(table, grading, f)
        dims = block_dims(grading)
        expect = dims.get(Q(0), 0) + dims.get(Q(1, 2), 0)
        assert len(centralizer(table, f)) == expect, rec.label


@criterion(8, "series solver recovers a planted solution to order 50, the "
             "contraction iterates obey the certified rate, and the scalar "
             "example comes out exactly")
def test_criterion_8():
    def poly(*cs):
        return oracle.p_trim(cs)

    # planted 2-dimensional solution with degree-2 polynomial coefficients
    a_terms = {
        0: [[poly(Q(1, 2)), poly(0, 1)], [(), poly(Q(-1, 3))]],
        1: [[poly(1, 0, 1), ()], [poly(0, 2), poly(3)]],
        2: [[(), poly(Q(1, 5))], [poly(1), ()]],
    }
    planted = {
        0: [poly(1, 1), poly(2)],
        1: [poly(0, 0, 1), poly(1)],
        2: [poly(3), ()],
        3: [(), poly(0, 1)],
        4: [poly(Q(1, 7)), poly(2, 2, 2)],
        5: [poly(1), poly(1)],
    }
    order = 51
    a = fr.AnalyticMatrixSeries(2, oracle.forms(a_terms))
    f_terms = {}
    for n in range(order):
        phi_n = planted.get(n, [(), ()])
        rhs = [oracle.p_scale(n, e) for e in phi_n]
        for m, mat in a_terms.items():
            if n - m in planted:
                prod = oracle.mat_vec(mat, planted[n - m])
                rhs = [oracle.p_add(x, oracle.p_scale(-1, y)) for x, y in zip(rhs, prod)]
        if any(rhs):
            f_terms[n] = rhs
    sol = fr.recursion_solve(a, oracle.forms(f_terms), oracle.forms([planted[0]]), order)
    for n in range(order):
        assert sol.coeffs[n] == planted.get(n, [(), ()]), n

    # contraction rate certificate at every step up to 20
    dom = fr.DomainParams(Q(0), Q(1, 2), Q(1, 2))
    res = fr.contraction_solve(
        fr.AnalyticMatrixSeries(1, oracle.forms({0: [[poly(Q(1, 2))]]})),
        oracle.forms({3: [poly(1)]}),
        oracle.forms([[()], [()]]),
        dom,
        n_max=24,
        iterations=20,
    )
    assert res.ratio < 1
    d0 = res.distances[0]
    for m, dist in enumerate(res.distances):
        assert dist <= res.ratio**m * d0, m
    assert abs(res.series.coeffs[3][0][0] - Q(2, 5)) <= res.bound

    # the scalar demo: the unique solution of the simplest inhomogeneous
    # system is 2q, with every other coefficient zero
    scalar = fr.recursion_solve(
        fr.AnalyticMatrixSeries(1, oracle.forms({0: [[poly(Q(1, 2))]]})),
        oracle.forms({1: [poly(1)]}),
        oracle.forms([[()]]),
        8,
    )
    assert scalar.coeffs[1] == [poly(2)]
    assert all(scalar.coeffs[n] == [()] for n in range(8) if n != 1)


@criterion(9, "admissible-level arithmetic on the four reference cases")
def test_criterion_9():
    assert is_admissible_level(build(SimpleType.parse("A1")), 3, 2) is True
    assert is_admissible_level(build(SimpleType.parse("A1")), 1, 2) is False
    assert is_admissible_level(build(SimpleType.parse("G2")), 7, 3) is True
    assert is_admissible_level(build(SimpleType.parse("G2")), 5, 3) is False


@criterion(10, "two consecutive full report runs are byte-identical JSON")
def test_criterion_10():
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(["report", "--all"])
        assert rc == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert len(doc["rows"]) == 15
    assert all(row["status"] == "pass" for row in doc["rows"])
