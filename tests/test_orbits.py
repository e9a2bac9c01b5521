import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from contragredient_oracle import dense, dense_form
from wrat._linalg import nullspace, rank
from wrat.classical import (
    ClassicalPartition,
    InvalidPartition,
    _bracket,
    _verify_membership,
    build_classical,
    classical_basis,
    is_sl2_triple,
)
from wrat.orbits import (
    EVEN_OR_EXTERNAL,
    InvalidRecord,
    NotExceptionalType,
    UnknownRoot,
    load_records,
    lookup_exceptional,
    record_from_json,
    validate_record,
)
from wrat._serde import rat_to_json
from wrat.rootsys import IllegalType, SimpleType


def _diagram_to_json(values, family: str) -> dict:
    """A diagram as a record file stores it: E types split off node 2."""
    vals = [rat_to_json(x) for x in values]
    if family == "E":
        return {"top": vals[1], "row": [vals[0]] + vals[2:]}
    return {"row": vals}


def record_to_json(rec) -> dict:
    """The JSON object of a record, the inverse of `record_from_json`."""
    fam = rec.algebra.family
    return {
        "algebra": str(rec.algebra),
        "label": rec.label,
        "q": list(rec.q),
        "h": _diagram_to_json(rec.h.pairings, fam),
        "f_roots": [list(r) for r in rec.f_roots],
        "v": _diagram_to_json(rec.v.pairings, fam),
    }

EXPECTED_LOOKUP = {
    ("G2", 2): "A1~",
    ("G2", 3): "A1",
    ("F4", 2): "A1",
    ("F4", 3): "A2~+A1",
    ("F4", 4): "A2+A1~",
    ("E6", 2): "3A1",
    ("E6", 3): "2A2+A1",
    ("E7", 2): "4A1",
    ("E7", 3): "2A2+A1",
    ("E8", 2): "4A1",
    ("E8", 3): "2A2+2A1",
    ("E8", 4): "2A3",
    ("E8", 5): "A4+A3",
    ("E8", 7): "A6+A1",
    ("E8", 8): "A7",
}


def test_records_load_and_validate():
    recs = load_records()
    assert len(recs) == 15
    for rec in recs:
        validate_record(rec)


def test_lookup_table():
    for (alg, q), label in EXPECTED_LOOKUP.items():
        rec = lookup_exceptional(alg, q)
        assert rec is not EVEN_OR_EXTERNAL
        assert rec.label == label, (alg, q)
    assert lookup_exceptional("E8", 6) is EVEN_OR_EXTERNAL
    assert lookup_exceptional("G2", 4) is EVEN_OR_EXTERNAL
    assert lookup_exceptional("E6", 5) is EVEN_OR_EXTERNAL
    with pytest.raises(NotExceptionalType):
        lookup_exceptional("B4", 2)
    with pytest.raises(NotExceptionalType):
        lookup_exceptional("A1", 3)


def test_lookup_by_label():
    for (alg, q), label in EXPECTED_LOOKUP.items():
        by_label = lookup_exceptional(alg, label=label)
        assert by_label is lookup_exceptional(alg, q)
        assert lookup_exceptional(alg, q, label) is by_label
        assert lookup_exceptional(SimpleType.parse(alg), q=q, label=label) is by_label
    assert lookup_exceptional("E8", 6) is EVEN_OR_EXTERNAL


@pytest.mark.parametrize(
    "args,kwargs,error,message",
    [
        (("E8", 7), {"label": "A7"}, IllegalType, "record E8 A7 belongs to q = (8,), not 7"),
        (("E8",), {"label": "Zz"}, NotExceptionalType, "no bundled record E8 with label 'Zz'"),
        (("C3",), {"label": "A1"}, NotExceptionalType, "no bundled record C3 with label 'A1'"),
        (("C3", 3), {}, NotExceptionalType, "C3 is classical; no bundled record applies"),
        (("E8",), {}, IllegalType, "need q or label to pick a record"),
        (("C3",), {}, IllegalType, "need q or label to pick a record"),
    ],
    ids=["q-off-label", "unknown-label", "classical-label", "classical-q", "neither", "neither-classical"],
)
def test_lookup_refusals(args, kwargs, error, message):
    with pytest.raises(error) as info:
        lookup_exceptional(*args, **kwargs)
    assert str(info.value) == message


def test_record_json_round_trip():
    for rec in load_records():
        again = record_from_json(record_to_json(rec))
        assert again == rec


def test_record_from_json_rejects_garbage():
    rec = load_records()[0]
    obj = record_to_json(rec)

    broken = json.loads(json.dumps(obj))
    broken["h"] = {"row": [1]}
    with pytest.raises(InvalidRecord):
        record_from_json(broken)

    broken = json.loads(json.dumps(obj))
    del broken["label"]
    with pytest.raises(InvalidRecord):
        record_from_json(broken)


def test_validate_rejects_non_roots():
    rec = next(r for r in load_records() if str(r.algebra) == "G2" and r.label == "A1")
    bad = type(rec)(
        algebra=rec.algebra,
        label=rec.label,
        q=rec.q,
        h=rec.h,
        f_roots=((5, 5),),
        v=rec.v,
    )
    with pytest.raises(UnknownRoot):
        validate_record(bad)


def test_data_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv("WRAT_DATA_DIR", str(tmp_path))
    assert load_records() == ()


# -- classical partitions -----------------------------------------------------


def is_even(p) -> bool:
    """Whether the partition's grading is even: all its parts pair, or none."""
    return not p.pairs or not p.singles


def test_partition_splitting():
    p = ClassicalPartition.from_parts("sp", [3, 3, 2])
    assert p.pairs == (3,) and p.singles == (2,)
    assert p.size == 8 and p.letter == "C"
    assert not is_even(p)

    p = ClassicalPartition.from_parts("so", [5, 5, 4, 4])
    assert p.pairs == (4,) and p.singles == (5, 5)
    assert p.size == 18 and p.letter == "D"

    p = ClassicalPartition.from_parts("so", [7, 5, 3, 1])
    assert p.pairs == () and p.singles == (7, 5, 3, 1)
    assert p.letter == "D" and is_even(p)

    p = ClassicalPartition.from_parts("sp", [2, 2])
    assert p.pairs == () and p.singles == (2, 2)
    assert p.letter == "C" and is_even(p)

    p = ClassicalPartition.from_parts("so", [3, 2, 2])
    assert p.letter == "B" and p.size == 7


@pytest.mark.parametrize(
    "family,parts",
    [
        ("sp", [3]),          # odd part unpaired
        ("sp", [3, 3, 1]),    # odd total size
        ("so", [2, 1]),       # even part unpaired in so
        ("so", [4, 4, 2]),    # 2 occurs once
        ("sp", [0, 2]),
        ("sp", []),
        ("su", [2, 2]),
    ],
)
def test_partition_rejections(family, parts):
    with pytest.raises(InvalidPartition):
        ClassicalPartition.from_parts(family, parts)


def _as_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])


def test_realization_membership_equations():
    """f is in the algebra of the form S: S f = -f^T S, h and v are
    sigma-antisymmetric diagonals."""
    for fam, parts in (("sp", [3, 3, 2]), ("so", [5, 5, 4, 4]), ("so", [3, 2, 2])):
        real = build_classical(ClassicalPartition.from_parts(fam, parts))
        S = _as_sympy(dense_form(real))
        f = _as_sympy(dense(real, real.f))
        assert S * f == -f.T * S
        n = real.size
        for i in range(n):
            j = real.sigma[i]
            assert real.h_diag[i] == -real.h_diag[j]
            assert real.v_diag[i] == -real.v_diag[j]
        # h is the standard sl2 weight string on each Jordan block
        assert sorted(real.h_diag, reverse=True)[0] == max(
            list(real.partition.pairs) * 2 + list(real.partition.singles)
        ) - 1


def _dense(rows):
    return [[int(x) for x in row] for row in rows]


def _set(x, i, j, a):
    """A copy of the sparse matrix x with entry (i, j) set to a."""
    out = {k: y for k, y in x.items() if k != (i, j)}
    if a:
        out[i, j] = Fraction(a)
    return out


def _mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n) if a[i][k]) for j in range(n)] for i in range(n)
    ]


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def test_jordan_triple_up_to_14_by_dense_products():
    """The constructed e is in g (S e = -e^T S) and [e, f] = h, [h, e] = 2e,
    [h, f] = -2f, checked with dense integer products."""
    from test_contragredience import legal_partitions

    for p in legal_partitions(range(1, 15)):
        real = build_classical(p)
        n = real.size
        S = _dense(dense_form(real))
        e, f = _dense(dense(real, real.e)), _dense(dense(real, real.f))
        h = [[int(real.h_diag[i]) if i == j else 0 for j in range(n)] for i in range(n)]
        assert _mul(S, e) == [[-x for x in r] for r in _mul(_transpose(e), S)], p
        assert _sub(_mul(e, f), _mul(f, e)) == h, p
        assert _sub(_mul(h, e), _mul(e, h)) == [[2 * x for x in r] for r in e], p
        assert _sub(_mul(h, f), _mul(f, h)) == [[-2 * x for x in r] for r in f], p
        assert is_sl2_triple(real), p


NONZERO = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
).filter(bool)


@st.composite
def sparse_pairs(draw):
    """(n, x, y): sparse n x n matrices with no stored zeros, int and Fraction
    entries; y is drawn freely, or is x or a multiple of it, whose terms
    cancel to the zero commutator."""
    n = draw(st.integers(0, 5))
    cell = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    size = 10 if n else 0  # the 0 x 0 matrices hold no entry
    x = draw(st.dictionaries(cell, NONZERO, max_size=size))
    kind = draw(st.sampled_from(["free", "same", "multiple"]))
    if kind == "free":
        y = draw(st.dictionaries(cell, NONZERO, max_size=size))
    else:
        c = 1 if kind == "same" else draw(NONZERO)
        y = {k: c * a for k, a in x.items()}
    return n, x, y


@settings(max_examples=300, deadline=None, database=None)
@given(sparse_pairs())
def test_bracket_is_the_dense_commutator(pair):
    """`_bracket(x, y)` is xy - yx by dense products, with no stored zeros,
    and int where every entry of x and y is an int."""
    n, x, y = pair

    def square(m):
        return [[m.get((i, j), 0) for j in range(n)] for i in range(n)]

    got = _bracket(x, y)
    assert square(got) == _sub(_mul(square(x), square(y)), _mul(square(y), square(x)))
    assert all(got.values())
    if all(type(a) is int for a in [*x.values(), *y.values()]):
        assert all(type(a) is int for a in got.values())
    if x == y or not x or not y:
        assert got == {}


def test_triple_and_membership_checks_reject():
    real = build_classical(ClassicalPartition.from_parts("sp", [3, 3, 2]))
    # e scaled by 2: still in g, no longer a partner of f
    double_e = {k: 2 * x for k, x in real.e.items()}
    assert not is_sl2_triple(real._replace(e=double_e))
    # f = 0 breaks [e, f] = h
    assert not is_sl2_triple(real._replace(f={}))
    # an entry of f or e without its involution partner leaves g
    for field in ("f", "e"):
        x = getattr(real, field)
        (i, j) = min(x)
        ip, jp, _ = real.involution_of(i, j)
        broken = real._replace(**{field: _set(x, ip, jp, 0)})
        with pytest.raises(InvalidPartition):
            _verify_membership(broken)
        broken = real._replace(**{field: _set(x, ip, jp, 7)})
        with pytest.raises(InvalidPartition):
            _verify_membership(broken)
    # a form whose sigma is no permutation is not monomial
    sigma = (real.sigma[1],) + real.sigma[1:]
    with pytest.raises(InvalidPartition, match="not monomial"):
        _verify_membership(real._replace(sigma=sigma))
    _verify_membership(real)


def test_involution_squares_to_identity():
    for fam, parts in (("sp", [3, 3, 2]), ("so", [5, 5, 4, 4])):
        real = build_classical(ClassicalPartition.from_parts(fam, parts))
        n = real.size
        for i in range(n):
            for j in range(n):
                i2, j2, c = real.involution_of(i, j)
                i3, j3, c2 = real.involution_of(i2, j2)
                assert (i3, j3) == (i, j)
                assert c * c2 == 1


def test_classical_basis_spans_the_right_dimension():
    # so(N): N(N-1)/2, sp(N): N(N+1)/2
    for fam, parts, expect in (
        ("sp", [3, 3, 2], 8 * 9 // 2),
        ("so", [5, 5, 4, 4], 18 * 17 // 2),
        ("so", [3, 2, 2], 7 * 6 // 2),
        ("sp", [2, 2], 4 * 5 // 2),
    ):
        real = build_classical(ClassicalPartition.from_parts(fam, parts))
        basis = classical_basis(real)
        assert len(basis) == expect
        # representative positions are pairwise distinct (coordinates are
        # readable off a single matrix entry)
        reps = [b[0] for b in basis]
        assert len(set(reps)) == len(reps)


def test_classical_basis_elements_satisfy_form_equation():
    real = build_classical(ClassicalPartition.from_parts("sp", [3, 3, 2]))
    S = _as_sympy(dense_form(real))
    n = real.size
    for (i, j), partner, c in classical_basis(real):
        m = sympy.zeros(n, n)
        m[i, j] = 1
        if partner is not None:
            m[partner[0], partner[1]] = sympy.Rational(c)
        assert S * m == -m.T * S, ((i, j), partner, c)


def test_nullspace_against_sympy(seed):
    rng = random.Random(seed)
    for trial in range(25):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        m = [
            [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(c)]
            for _ in range(r)
        ]
        ours = nullspace([row[:] for row in m], c)
        sym = _as_sympy(m).nullspace()
        assert len(ours) == len(sym)
        assert rank([row[:] for row in m]) == _as_sympy(m).rank()
        S = _as_sympy(m)
        for vec in ours:
            v = sympy.Matrix([[sympy.Rational(x)] for x in vec])
            assert S * v == sympy.zeros(r, 1)
