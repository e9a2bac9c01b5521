from fractions import Fraction

import pytest

import euclid_model as em
from chevalley_oracle import coroot_pairing
from wrat.rootsys import (
    CartanElement,
    IllegalType,
    SimpleType,
    _cartan_matrix,
    _enumerate_positive,
    _half_norms,
    build,
    cartan_solve,
    is_admissible_level,
    pairing,
)

FAMILIES = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D4", "D5",
    "G2", "F4",
    "E6", "E7", "E8",
]

# every classical type through rank 8, and the exceptional ones
NORM_TYPES = sorted(
    {f"{f}{n}" for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4)) for n in range(lo, 9)}
    | set(FAMILIES)
)


# every type through rank 9 that the coded closure must match
CLOSURE_TYPES = (
    [("A", n) for n in range(1, 10)]
    + [(f, n) for f in "BC" for n in range(2, 10)]
    + [("D", n) for n in range(4, 10)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def positive_root_count(family: str, n: int) -> int:
    counts = {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}
    if family == "A":
        return n * (n + 1) // 2
    if family in "BC":
        return n * n
    if family == "D":
        return n * (n - 1)
    return counts[f"{family}{n}"]


def tuple_closure(cartan, d):
    """The root-string closure on coefficient tuples, as {root: <b, b>}:
    every probe is a tuple hashed against the roots found so far, and the
    coroot pairing <b, a_i^v> is summed afresh at every step."""
    n = len(cartan)
    columns = [tuple(row[i] for row in cartan) for i in range(n)]
    known = {tuple(int(i == j) for j in range(n)): 2 * d[i] for i in range(n)}
    level = list(known)
    while level:
        nxt = {}
        for beta in level:
            for i, column in enumerate(columns):
                head, x, tail = beta[:i], beta[i], beta[i + 1:]
                p = 0
                while head + (x - p - 1,) + tail in known:
                    p += 1
                q = sum(b * c for b, c in zip(beta, column))
                up = head + (x + 1,) + tail
                if p > q and up not in known:
                    nxt[up] = known[beta] + 2 * d[i] * (q + 1)
        known.update(nxt)
        level = sorted(nxt)
    return known


@pytest.mark.parametrize("family,rank", CLOSURE_TYPES, ids=[f"{f}{n}" for f, n in CLOSURE_TYPES])
def test_coded_closure_matches_tuple_closure(family, rank):
    """The integer-coded closure gives the tuple closure's roots and norms,
    and the classification's number of positive roots."""
    st = SimpleType(family, rank)
    cartan, d = _cartan_matrix(st), _half_norms(st)
    got = _enumerate_positive(cartan, d)
    assert all(r.coeffs == c for c, r in got.items())
    assert {c: r.norm2 for c, r in got.items()} == tuple_closure(cartan, d)
    assert len(got) == positive_root_count(family, rank)


def test_parse_and_str():
    st = SimpleType.parse("e7")
    assert st.family == "E" and st.rank == 7
    assert str(st) == "E7"
    assert SimpleType.parse(" G2 ") == SimpleType("G", 2)


@pytest.mark.parametrize("bad", ["X4", "A0", "B1", "C1", "D3", "E5", "E9", "F5", "G3", "A", "12"])
def test_illegal_types(bad):
    with pytest.raises(IllegalType):
        SimpleType.parse(bad)


@pytest.mark.parametrize("name", NORM_TYPES)
def test_positive_roots_match_euclidean_model(name):
    """The roots, and each root's norm as the model's times one scale per
    type, short roots at 2; the long roots are exactly those of norm
    2 * lacety."""
    st = SimpleType.parse(name)
    rs = build(st)
    oracle = em.positive_root_coeffs(st.family, st.rank)
    assert {r.coeffs for r in rs.positive_roots} == set(oracle)
    scale = Fraction(2) / min(oracle.values())
    long_norm = max(oracle.values())
    for r in rs.positive_roots:
        assert r.norm2 == scale * oracle[r.coeffs], r
        assert (r.norm2 == 2 * rs.lacety) == (oracle[r.coeffs] == long_norm), r


@pytest.mark.parametrize("name", FAMILIES)
def test_cartan_matrix_against_model(name):
    st = SimpleType.parse(name)
    rs = build(st)
    simples = em.simple_roots(st.family, st.rank)
    n = st.rank
    for i in range(n):
        for j in range(n):
            aij = 2 * em.dot(simples[i], simples[j]) / em.dot(simples[j], simples[j])
            assert rs.cartan_matrix[i][j] == aij


@pytest.mark.parametrize("name", FAMILIES)
def test_form_and_invariants_against_model(name):
    st = SimpleType.parse(name)
    rs = build(st)
    simples = em.simple_roots(st.family, st.rank)
    oracle = em.positive_root_coeffs(st.family, st.rank)
    theta = max(oracle, key=lambda c: sum(c))
    norm_theta = oracle[theta]
    # the integer form <a_i, a_j> = d_j a_ij, normalized so short roots
    # have squared length 2
    scale = Fraction(2) / min(em.dot(s, s) for s in simples)
    for i in range(st.rank):
        for j in range(st.rank):
            form_ij = rs.half_norms[j] * rs.cartan_matrix[i][j]
            assert form_ij == scale * em.dot(simples[i], simples[j])
    assert rs.highest_root.coeffs == theta
    assert rs.highest_root.norm2 == scale * norm_theta
    assert rs.coxeter_number == 1 + sum(theta)
    # comarks m_i <a_i, a_i> / <theta, theta>
    hvee = 1 + sum(m * em.dot(s, s) / norm_theta for m, s in zip(theta, simples))
    assert rs.dual_coxeter_number == hvee
    assert rs.lacety == norm_theta / min(em.dot(s, s) for s in simples)


def test_counts_match_dimensions():
    # rank + 2 * positives = dim of the algebra
    dims = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248, "A1": 3, "B3": 21, "C4": 36, "D4": 28}
    for name, d in dims.items():
        rs = build(SimpleType.parse(name))
        assert rs.rank + 2 * len(rs.positive_roots) == d


def test_coroot_pairing_is_cartan_entry():
    """The i-th simple root carries row i of the Cartan matrix as its
    coroot pairings."""
    rs = build(SimpleType.parse("F4"))
    n = rs.rank
    for i in range(n):
        simple = tuple(1 if k == i else 0 for k in range(n))
        (root,) = [r for r in rs.positive_roots if r.coeffs == simple]
        assert root.coroot_pairings == rs.cartan_matrix[i]
        for j in range(n):
            assert coroot_pairing(rs.cartan_matrix, simple, j) == rs.cartan_matrix[i][j]


@pytest.mark.parametrize("name", NORM_TYPES)
def test_closure_keeps_the_coroot_pairings(name):
    """Every positive root b = sum c_j a_j carries the pairings the closure
    computed, <b, a_i^v> = sum_j c_j a_ji."""
    rs = build(SimpleType.parse(name))
    for r in rs.positive_roots:
        want = tuple(coroot_pairing(rs.cartan_matrix, r.coeffs, i) for i in range(rs.rank))
        assert r.coroot_pairings == want, r


def test_cartan_element_refuses_tuple_arithmetic():
    """`+` and `*` raise TypeError from either side, where the tuple would
    concatenate or repeat; equality, hashing and `_replace` are the
    tuple's."""
    h, v = CartanElement.of((2, 2)), CartanElement.of((1, 0))
    for op in (
        lambda: h + v, lambda: (0,) + h, lambda: h + (0,), lambda: 2 * h, lambda: h * 2
    ):
        with pytest.raises(TypeError):
            op()
    assert h == CartanElement.of([Fraction(2), 2]) and h != v
    assert hash(h) == hash(CartanElement((Fraction(2), Fraction(2))))
    assert {h: 1}[CartanElement.of((2, 2))] == 1
    assert h._replace(pairings=v.pairings) == v
    assert CartanElement.of(x + y for x, y in zip(h.pairings, v.pairings)).pairings == (3, 2)


def test_pairing_and_cartan_solve_inverse():
    rs = build(SimpleType.parse("E6"))
    diagram = CartanElement.of((0, 0, 0, 1, 0, 0))
    coords = cartan_solve(rs, diagram)
    # coords are over the simple coroots: multiplying back by the Cartan
    # matrix must reproduce the prescribed simple-root values
    for i in range(rs.rank):
        total = sum(rs.cartan_matrix[i][j] * coords[j] for j in range(rs.rank))
        assert total == diagram.pairings[i]
    # and `pairing` itself reads the stored values linearly
    theta = rs.highest_root.coeffs
    assert pairing(rs, theta, diagram) == sum(
        c * p for c, p in zip(theta, diagram.pairings)
    )


def test_build_is_cached():
    assert build(SimpleType.parse("D4")) is build(SimpleType.parse("D4"))


@pytest.mark.parametrize(
    "name,p,q,expect",
    [
        ("A1", 3, 2, True),
        ("A1", 1, 2, False),
        ("G2", 7, 3, True),
        ("G2", 5, 3, False),
        ("A1", 2, 2, False),   # gcd != 1
        ("G2", 4, 3, False),   # q hits the lacety: threshold jumps to h = 6
        ("G2", 6, 2, False),   # gcd fails
        ("G2", 7, 2, True),    # q coprime to lacety: threshold h-vee = 4
        ("G2", 3, 2, False),   # below h-vee
    ],
)
def test_admissible_levels(name, p, q, expect):
    rs = build(SimpleType.parse(name))
    assert is_admissible_level(rs, p, q) is expect
