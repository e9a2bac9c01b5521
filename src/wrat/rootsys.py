"""Root systems of the finite simple types over exact rationals.

Roots are stored as integer coefficient vectors over the simple roots; there
is no Euclidean embedding anywhere.  Node numbering follows the standard
Bourbaki tables, with the branch node of the E series at index 2, and the
diagrams of F4 and G2 oriented so the first simple roots are the long ones.
The Cartan matrix convention is ``a[i][j] = 2<a_i, a_j> / <a_j, a_j>``, i.e.
``a[i][j]`` pairs the i-th simple root against the j-th simple coroot.
The invariant form is held once, as the integer form, short roots of norm 2:
the half norms d_i = <a_i, a_i>/2 give <a_i, a_j> = d_j a[i][j], and every
positive root carries its norm <b, b> from the root-string closure.

This module is the one place that codes roots as integers: b = sum c_i a_i
is the int sum c_i R^i with R = 13, and each Root keeps its code.  No root
coefficient exceeds m = 6 (E8), and that one bound carries both uses:

* The closure adds and subtracts simple roots.  No digit of a root's code
  reaches R - 1, so adding a simple root never carries, and a downward
  probe that borrows lands on a digit R - 1, which no root has.
* `liealg.ChevalleyTable` looks up codes that are a + b or a - b for
  positive roots a, b, or p - a for a root p.  The digits of such a vector
  are within 2m < R of those of each root it could equal (a + b, and p - a
  for a negative p, have digits of one sign, so they can equal only roots
  of that sign), and two vectors whose digits differ by less than R have
  equal codes only when they are equal.  So a negative root has the
  negative code, and a code lookup decides root membership.

Up to rank 8, 13^8 < 2^30, so every code is a one-digit CPython int.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import BadInput
from ._linalg import over_common, solve


class IllegalType(BadInput):
    """Family/rank combination outside the Cartan classification."""


class DimensionMismatch(ValueError):
    """Vector length does not match the rank at hand."""


_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class _Type(NamedTuple):
    family: str
    rank: int


class SimpleType(_Type):
    """(family, rank); one outside the classification raises IllegalType."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        lo_hi = _RANK_RANGE.get(family)
        if lo_hi is None:
            raise IllegalType(f"unknown family {family!r}")
        lo, hi = lo_hi
        if rank < lo or (hi is not None and rank > hi):
            raise IllegalType(f"illegal rank {rank} for family {family}")
        return super().__new__(cls, family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise IllegalType(f"cannot parse simple type {text!r}")
        return cls(text[0].upper(), int(text[1:]))


class Root(NamedTuple):
    """A root, as its coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]
    norm2: int  # <b, b> on the integer form: 2 on a short root
    coroot_pairings: tuple[int, ...]  # <b, a_i^v> for each simple root a_i
    code: int  # sum c_i R^i (module docstring)

    @property
    def height(self) -> int:
        return sum(self.coeffs)


class CartanElement(NamedTuple):
    """Element v of the Cartan subalgebra, stored by its pairings a_i(v).
    `+` and `*` raise TypeError from either side, rather than concatenate or
    repeat the tuple: arithmetic on v goes through `pairings`."""

    pairings: tuple[Fraction, ...]

    def __add__(self, other):
        raise TypeError("a CartanElement has no arithmetic; compute on its pairings")

    __radd__ = __mul__ = __rmul__ = __add__

    @classmethod
    def of(cls, values) -> "CartanElement":
        return cls(tuple(Fraction(x) for x in values))

    @classmethod
    def zero(cls, rank: int) -> "CartanElement":
        return cls((Fraction(0),) * rank)


def _cartan_matrix(st: SimpleType) -> list[list[int]]:
    n = st.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if st.family in ("A", "B", "C"):
        for i in range(n - 1):
            edge(i, i + 1)
        if st.family == "B":  # a_n short
            a[n - 2][n - 1] = -2
        elif st.family == "C":  # a_n long
            a[n - 1][n - 2] = -2
    elif st.family == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif st.family == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        for i, j in chain:
            if j < n:
                edge(i, j)
        edge(1, 3)
    elif st.family == "F":
        edge(0, 1)
        edge(1, 2, aij=-2)
        edge(2, 3)
    else:  # G2
        edge(0, 1, aij=-3)
    return a


def _half_norms(st: SimpleType) -> list[int]:
    """d_i = <a_i, a_i>/2 on the integer form, short roots normalized to
    <a, a> = 2; d_j a_ij = <a_i, a_j> is integral and symmetric."""
    n = st.rank
    d = [1] * n
    if st.family == "B":
        d[:n - 1] = [2] * (n - 1)
    elif st.family == "C":
        d[n - 1] = 2
    elif st.family == "F":
        d[0] = d[1] = 2
    elif st.family == "G":
        d[0] = 3
    return d


class RootSystem(NamedTuple):
    """A root system; `half_norms` (<a_i, a_i>/2 on the integer form) and
    `positive_set` are derived in `_build`."""

    simple_type: SimpleType
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root: Root
    coxeter_number: int
    dual_coxeter_number: int
    lacety: int
    half_norms: tuple[int, ...]
    positive_set: frozenset[tuple[int, ...]]

    @property
    def rank(self) -> int:
        return self.simple_type.rank


# radix of the root codes (module docstring): R > 2m, m = 6
_R = 13


def _enumerate_positive(cartan: list[list[int]], d: list[int]) -> dict[tuple[int, ...], Root]:
    """Closure of the simple roots under root-string addition, as {root
    coefficients: Root}: each step b -> b + a_i carries the norm along as
    <b, b> + 2 d_i (<b, a_i^v> + 1), and the coroot pairings <b, a_j^v> as
    a vector that gains row i of the Cartan matrix; each Root keeps both.
    Roots are held by their integer codes (see _R) and decoded once at the
    end; each Root keeps its code."""
    n = len(cartan)
    steps = [_R ** i for i in range(n)]
    norm = {steps[i]: 2 * d[i] for i in range(n)}
    pairings = {steps[i]: cartan[i] for i in range(n)}
    level = steps
    while level:
        nxt: dict[int, int] = {}
        for beta in level:
            q_beta = pairings[beta]
            for i, step in enumerate(steps):
                up = beta + step
                if up in norm or up in nxt:
                    continue
                # b + a_i is a root iff the string through b along a_i
                # reaches more than q = <b, a_i^v> steps below b
                q = q_beta[i]
                probe = beta - step
                while q >= 0 and probe in norm:
                    q -= 1
                    probe -= step
                if q < 0:
                    nxt[up] = norm[beta] + 2 * d[i] * (q_beta[i] + 1)
                    pairings[up] = [x + y for x, y in zip(q_beta, cartan[i])]
        norm.update(nxt)
        level = list(nxt)
    out = {}
    for code, b in norm.items():
        digits = tuple([code // step % _R for step in steps])
        assert max(digits) < _R - 1, "a root coefficient reached the code radix"
        out[digits] = Root(digits, b, tuple(pairings[code]), code)
    return out


def _build(st: SimpleType) -> RootSystem:
    cartan = _cartan_matrix(st)
    d = _half_norms(st)
    n = st.rank
    assert all(
        d[j] * cartan[i][j] == d[i] * cartan[j][i] for i in range(n) for j in range(n)
    ), "form must be symmetric"
    closure = _enumerate_positive(cartan, d)
    roots = tuple(closure[c] for c in sorted(closure))
    highest = max(roots, key=lambda r: (r.height, r.coeffs))
    marks = highest.coeffs
    # long roots have <b, b> = 2 * lacety; the comarks are m_i d_i / lacety
    lacety = max(d)
    comarks, rem = divmod(sum(m * d[i] for i, m in enumerate(marks)), lacety)
    assert not rem, "comarks must sum to an integer"
    return RootSystem(
        simple_type=st,
        cartan_matrix=tuple(tuple(row) for row in cartan),
        positive_roots=roots,
        highest_root=highest,
        coxeter_number=1 + sum(marks),
        dual_coxeter_number=1 + comarks,
        lacety=lacety,
        half_norms=tuple(d),
        positive_set=frozenset(closure),
    )


@lru_cache(maxsize=None)
def build(simple_type: SimpleType) -> RootSystem:
    """Root system of the given simple type (cached; instances are immutable)."""
    return _build(simple_type)


def pairing(rs: RootSystem, coeffs: tuple[int, ...], v: CartanElement) -> Fraction:
    """a(v) for the root a = sum n_i a_i, coeffs the n_i: the functional at
    v, summed in integers over the common denominator of v's pairings."""
    if len(v.pairings) != rs.rank:
        raise DimensionMismatch(
            f"Cartan element of rank {len(v.pairings)} against {rs.simple_type}"
        )
    if len(coeffs) != rs.rank:
        raise DimensionMismatch("root coefficient vector has wrong length")
    ints, den = over_common(v.pairings)
    return Fraction(sum(c * x for c, x in zip(coeffs, ints) if c), den)


def cartan_solve(rs: RootSystem, diagram: CartanElement) -> list[Fraction]:
    """Coordinates s over the simple coroots of the element with a_i(v) =
    diagram_i: the one solution `solve` gives, as the Cartan matrix of a
    simple type is nonsingular."""
    if len(diagram.pairings) != rs.rank:
        raise DimensionMismatch("diagram has wrong rank")
    return solve(rs.cartan_matrix, list(diagram.pairings))


def is_admissible_level(rs: RootSystem, p: int, q: int) -> bool:
    """Admissibility of level -h_v + p/q for the affinization.

    Requires gcd(p, q) = 1 together with p >= h_v when q is coprime to the
    lacety, and p >= h when the lacety divides q.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    if gcd(p, q) != 1:
        return False
    if gcd(q, rs.lacety) == 1:
        return p >= rs.dual_coxeter_number
    return p >= rs.coxeter_number
