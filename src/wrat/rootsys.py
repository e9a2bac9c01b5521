"""Root systems of the finite simple types over exact rationals.

Roots are stored as integer coefficient vectors over the simple roots; there
is no Euclidean embedding anywhere.  Node numbering follows the standard
Bourbaki tables, with the branch node of the E series at index 2, and the
diagrams of F4 and G2 oriented so the first simple roots are the long ones.
The Cartan matrix convention is ``a[i][j] = 2<a_i, a_j> / <a_j, a_j>``, i.e.
``a[i][j]`` pairs the i-th simple root against the j-th simple coroot.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from ._linalg import mat, solve_unique


class IllegalType(ValueError):
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


@dataclass(frozen=True, order=True)
class SimpleType:
    family: str
    rank: int

    def __post_init__(self):
        lo_hi = _RANK_RANGE.get(self.family)
        if lo_hi is None:
            raise IllegalType(f"unknown family {self.family!r}")
        lo, hi = lo_hi
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise IllegalType(f"illegal rank {self.rank} for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "SimpleType":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise IllegalType(f"cannot parse simple type {text!r}")
        return cls(text[0].upper(), int(text[1:]))


@dataclass(frozen=True)
class Root:
    """A root, as its coefficient vector over the simple roots."""

    coeffs: tuple[int, ...]
    length_class: str  # "long" or "short"

    @property
    def height(self) -> int:
        return sum(self.coeffs)


@dataclass(frozen=True)
class CartanElement:
    """Element v of the Cartan subalgebra, stored by its pairings a_i(v)."""

    pairings: tuple[Fraction, ...]

    @classmethod
    def of(cls, values) -> "CartanElement":
        return cls(tuple(Fraction(x) for x in values))

    @classmethod
    def zero(cls, rank: int) -> "CartanElement":
        return cls((Fraction(0),) * rank)

    def __add__(self, other: "CartanElement") -> "CartanElement":
        if len(self.pairings) != len(other.pairings):
            raise DimensionMismatch("rank mismatch in Cartan arithmetic")
        return CartanElement(tuple(a + b for a, b in zip(self.pairings, other.pairings)))

    def __sub__(self, other: "CartanElement") -> "CartanElement":
        if len(self.pairings) != len(other.pairings):
            raise DimensionMismatch("rank mismatch in Cartan arithmetic")
        return CartanElement(tuple(a - b for a, b in zip(self.pairings, other.pairings)))

    def __rmul__(self, c) -> "CartanElement":
        c = Fraction(c)
        return CartanElement(tuple(c * a for a in self.pairings))

    def is_zero(self) -> bool:
        return not any(self.pairings)


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


def _half_norms(st: SimpleType) -> list[Fraction]:
    """d_i = <a_i, a_i>/2 with long roots normalized to <a,a> = 2."""
    n = st.rank
    d = [Fraction(1)] * n
    if st.family == "B":
        d[n - 1] = Fraction(1, 2)
    elif st.family == "C":
        for i in range(n - 1):
            d[i] = Fraction(1, 2)
    elif st.family == "F":
        d[2] = d[3] = Fraction(1, 2)
    elif st.family == "G":
        d[1] = Fraction(1, 3)
    return d


@dataclass(frozen=True)
class RootSystem:
    simple_type: SimpleType
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    highest_root: Root
    form_on_simple_roots: tuple[tuple[Fraction, ...], ...]
    coxeter_number: int
    dual_coxeter_number: int
    lacety: int

    @property
    def rank(self) -> int:
        return self.simple_type.rank

    @cached_property
    def half_norms(self) -> tuple[Fraction, ...]:
        return tuple(self.form_on_simple_roots[i][i] / 2 for i in range(self.rank))

    @cached_property
    def positive_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(r.coeffs for r in self.positive_roots)

    def is_root(self, coeffs: tuple[int, ...]) -> bool:
        """Membership for signed coefficient vectors."""
        if coeffs in self.positive_set:
            return True
        return tuple(-c for c in coeffs) in self.positive_set

    @cached_property
    def _scaled_form(self) -> tuple[int, list[list[int]]]:
        return _scaled(self.form_on_simple_roots)

    def norm2(self, coeffs: tuple[int, ...]) -> Fraction:
        """<b, b> for a root given by its coefficient vector."""
        s, form = self._scaled_form
        return Fraction(_quadratic(form, coeffs), s)

    def coroot_pairing(self, coeffs: tuple[int, ...], i: int) -> int:
        """<b, a_i^v> for a root b: the Cartan-matrix root-string pairing."""
        return sum(c * self.cartan_matrix[j][i] for j, c in enumerate(coeffs) if c)


def _scaled(form) -> tuple[int, list[list[int]]]:
    """(s, s * form) with s the least scale making the form integral."""
    s = lcm(*(x.denominator for row in form for x in row))
    return s, [[int(x * s) for x in row] for row in form]


def _quadratic(form, coeffs) -> int:
    """sum_ij c_i c_j form_ij over the support of an integer vector c."""
    support = [(i, c) for i, c in enumerate(coeffs) if c]
    return sum(ci * cj * form[i][j] for i, ci in support for j, cj in support)


def _enumerate_positive(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """Closure of the simple roots under root-string addition."""
    n = len(cartan)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known: set[tuple[int, ...]] = set(simples)
    level = list(simples)
    while level:
        nxt: set[tuple[int, ...]] = set()
        for beta in level:
            for i in range(n):
                # p = how far the string extends downward from beta along a_i
                p = 0
                probe = tuple(b - int(i == j) for j, b in enumerate(beta))
                while probe in known:
                    p += 1
                    probe = tuple(b - int(i == j) for j, b in enumerate(probe))
                pair = sum(beta[j] * cartan[j][i] for j in range(n))
                if p - pair > 0:
                    up = tuple(b + int(i == j) for j, b in enumerate(beta))
                    if up not in known:
                        nxt.add(up)
        known |= nxt
        level = sorted(nxt)
    return sorted(known)


def _build(st: SimpleType) -> RootSystem:
    cartan = _cartan_matrix(st)
    d = _half_norms(st)
    n = st.rank
    form = [[d[j] * cartan[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert form[i][j] == form[j][i], "form must be symmetric"

    # long roots have <b, b> = 2, i.e. 2s on the form scaled by s
    s, scaled = _scaled(form)
    roots = tuple(
        Root(c, "long" if _quadratic(scaled, c) == 2 * s else "short")
        for c in _enumerate_positive(cartan)
    )
    highest = max(roots, key=lambda r: (r.height, r.coeffs))
    marks = highest.coeffs
    h = 1 + sum(marks)
    hv = 1 + sum(Fraction(m) * d[i] for i, m in enumerate(marks))
    assert hv.denominator == 1, "comarks must sum to an integer"
    lacety = int(1 / min(d))
    return RootSystem(
        simple_type=st,
        cartan_matrix=tuple(tuple(row) for row in cartan),
        positive_roots=roots,
        highest_root=highest,
        form_on_simple_roots=tuple(tuple(row) for row in form),
        coxeter_number=h,
        dual_coxeter_number=int(hv),
        lacety=lacety,
    )


@lru_cache(maxsize=None)
def build(simple_type: SimpleType) -> RootSystem:
    """Root system of the given simple type (cached; instances are immutable)."""
    return _build(simple_type)


def pairing(rs: RootSystem, root: Root, v: CartanElement) -> Fraction:
    """a(v) for a root a = sum n_i a_i: the linear functional at v."""
    if len(v.pairings) != rs.rank:
        raise DimensionMismatch(
            f"Cartan element of rank {len(v.pairings)} against {rs.simple_type}"
        )
    coeffs = root.coeffs if isinstance(root, Root) else root
    if len(coeffs) != rs.rank:
        raise DimensionMismatch("root coefficient vector has wrong length")
    return sum((c * p for c, p in zip(coeffs, v.pairings)), Fraction(0))


def cartan_solve(rs: RootSystem, diagram: CartanElement) -> list[Fraction]:
    """Coordinates s over the simple coroots of the element with a_i(v) = diagram_i."""
    if len(diagram.pairings) != rs.rank:
        raise DimensionMismatch("diagram has wrong rank")
    a = mat(rs.cartan_matrix)
    return solve_unique(a, list(diagram.pairings))


def is_admissible_level(rs: RootSystem, p: int, q: int) -> bool:
    """Admissibility of level -h_v + p/q for the affinization.

    Requires gcd(p, q) = 1 together with p >= h_v when q is coprime to the
    lacety, and p >= h when the lacety divides q.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    from math import gcd

    if gcd(p, q) != 1:
        return False
    if gcd(q, rs.lacety) == 1:
        return p >= rs.dual_coxeter_number
    return p >= rs.coxeter_number
