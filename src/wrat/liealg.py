"""Chevalley bases of the simple Lie algebras, with exact structure constants.

Basis: simple coroots h_1..h_n, then root vectors e_a / f_a per positive
root a.  Brackets follow [h_i, e_a] = <a, a_i^v> e_a, [e_a, f_a] = a^v, and
[e_a, e_b] = N(a, b) e_{a+b} with |N(a, b)| = p + 1, where p is the length of
the root string from b downward along a.  Signs are pinned by the
extraspecial-pair convention: positive roots are ordered by (height, lex);
for each non-simple positive root g, the decomposition g = a1 + b1 with a1
minimal gets N(a1, b1) = +(p + 1), and every other constant is forced from
these by the Jacobi identity and the invariant-form relations
N(a,b)/<c,c> = N(b,c)/<a,a> = N(c,a)/<b,b> for a + b + c = 0.

Everything is exact over Fraction; no floating point enters this module.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import _linalg
from .rootsys import CartanElement, RootSystem


class BasisElement(NamedTuple):
    """Tagged basis label: kind "h" with a simple-root index, or "e"/"f" with
    a positive-root coefficient tuple."""

    kind: str
    key: tuple[int, ...] | int

    def __str__(self) -> str:
        if self.kind == "h":
            return f"h{self.key + 1}"
        return f"{self.kind}({','.join(str(c) for c in self.key)})"


def E(coeffs: Iterable[int]) -> BasisElement:
    return BasisElement("e", tuple(coeffs))


def F(coeffs: Iterable[int]) -> BasisElement:
    return BasisElement("f", tuple(coeffs))


def H(i: int) -> BasisElement:
    return BasisElement("h", i)


class LieElement:
    """Sparse vector over the Chevalley basis (no stored zeros)."""

    __slots__ = ("coords",)

    def __init__(self, coords: dict[BasisElement, Fraction] | None = None):
        self.coords = {b: Fraction(c) for b, c in (coords or {}).items() if c}

    def __add__(self, other: "LieElement") -> "LieElement":
        out = dict(self.coords)
        for b, c in other.coords.items():
            out[b] = out.get(b, Fraction(0)) + c
        return LieElement(out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        out = dict(self.coords)
        for b, c in other.coords.items():
            out[b] = out.get(b, Fraction(0)) - c
        return LieElement(out)

    def __rmul__(self, c) -> "LieElement":
        c = Fraction(c)
        return LieElement({b: c * x for b, x in self.coords.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LieElement) and self.coords == other.coords

    def __getitem__(self, b: BasisElement) -> Fraction:
        return self.coords.get(b, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coords

    def support(self) -> list[BasisElement]:
        return sorted(self.coords, key=lambda b: (b.kind, b.key))

    def __repr__(self) -> str:
        if not self.coords:
            return "0"
        return " + ".join(f"{c}*{b}" for b, c in sorted(
            self.coords.items(), key=lambda t: (t[0].kind, t[0].key)))


class ChevalleyTable:
    """Structure constants of the simple Lie algebra over a root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        pos = [r.coeffs for r in rs.positive_roots]
        self.positive = pos
        self.basis: list[BasisElement] = (
            [H(i) for i in range(rs.rank)]
            + [E(c) for c in pos]
            + [F(c) for c in pos]
        )
        self.dimension = len(self.basis)
        self.index = {b: i for i, b in enumerate(self.basis)}
        self._pos_set = set(pos)
        self._norm2 = {c: rs.norm2(c) for c in pos}
        self._by_height = sorted(pos, key=lambda c: (sum(c), c))
        self._order = {c: k for k, c in enumerate(self._by_height)}
        self._ex: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._npp: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        # (i, j) -> sparse coords of [basis_i, basis_j]; filled on demand
        self.brackets: dict[tuple[int, int], dict[int, Fraction]] = {}

    # -- root-level helpers -------------------------------------------------

    def _is_root(self, c: tuple[int, ...]) -> bool:
        return c in self._pos_set or tuple(-x for x in c) in self._pos_set

    def string_down_length(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """p = largest k >= 0 such that b - k*a is a root."""
        k = 0
        probe = tuple(x - y for x, y in zip(b, a))
        while self._is_root(probe):
            k += 1
            probe = tuple(x - y for x, y in zip(probe, a))
        return k

    def extraspecial_pair(self, g: tuple[int, ...]):
        """The decomposition g = a1 + b1 with a1 minimal in (height, lex)."""
        got = self._ex.get(g)
        if got is None:
            ht = sum(g)
            for a in self._by_height:
                if 2 * sum(a) > ht:
                    break
                rem = tuple(x - y for x, y in zip(g, a))
                if rem in self._pos_set:
                    got = (a, rem)
                    break
            if got is None:
                raise ValueError(f"{g} is not a decomposable positive root")
            self._ex[g] = got
        return got

    def n_constant(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """N(a, b) for positive roots a, b with a + b a positive root."""
        key = (a, b)
        val = self._npp.get(key)
        if val is not None:
            return val
        g = tuple(x + y for x, y in zip(a, b))
        a1, b1 = self.extraspecial_pair(g)
        if (a, b) == (a1, b1):
            val = self.string_down_length(a1, b1) + 1
        elif (b, a) == (a1, b1):
            val = -(self.string_down_length(a1, b1) + 1)
        elif self._order[a] > self._order[b]:
            val = -self.n_constant(b, a)
        else:
            # Jacobi identity on the quadruple (a1, -a, b1, -b), reduced to
            # positive pairs of smaller height via the invariant-form relation.
            n2 = self._norm2
            s = tuple(x - y for x, y in zip(a, a1))   # a - a1 = b1 - b
            t = tuple(x - y for x, y in zip(b, a1))   # b - a1 = b1 - a
            total = Fraction(0)
            if s in self._pos_set:
                total += Fraction(n2[s], n2[a] * n2[b1]) * (
                    self.n_constant(a1, s) * self.n_constant(b, s))
            if t in self._pos_set:
                total -= Fraction(n2[t], n2[b1] * n2[b]) * (
                    self.n_constant(a, t) * self.n_constant(a1, t))
            exact = -n2[g] * total / self.n_constant(a1, b1)
            assert exact.denominator == 1, "structure constant must be integral"
            val = int(exact)
        self._npp[key] = val
        return val

    def _n_mixed(self, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        """N(a, -b) for positive roots a != b with a - b a root."""
        n2 = self._norm2
        diff = tuple(x - y for x, y in zip(a, b))
        if diff in self._pos_set:
            # b + diff = a
            return -Fraction(n2[diff], n2[a]) * self.n_constant(b, diff)
        neg = tuple(-x for x in diff)
        # a + neg = b
        return -Fraction(n2[neg], n2[b]) * self.n_constant(a, neg)

    def coroot_coords(self, a: tuple[int, ...]) -> dict[int, Fraction]:
        """a^v over the simple coroots: coefficients n_i <a_i,a_i> / <a,a>."""
        d = self.rs.half_norms
        da = self._norm2[a] / 2
        out = {}
        for i, n in enumerate(a):
            if n:
                c = n * d[i] / da
                assert c.denominator == 1, "coroot must be an integer vector"
                out[i] = Fraction(c)
        return out

    # -- basis-level brackets ----------------------------------------------

    def basis_bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """Sparse coordinates of [basis[i], basis[j]]."""
        if i == j:
            return {}
        got = self.brackets.get((i, j))
        if got is not None:
            return got
        if j < i:
            out = {k: -c for k, c in self.basis_bracket(j, i).items()}
            self.brackets[(i, j)] = out
            return out
        out = self._compute_bracket(self.basis[i], self.basis[j])
        self.brackets[(i, j)] = out
        return out

    def _compute_bracket(self, x: BasisElement, y: BasisElement) -> dict[int, Fraction]:
        rs, idx = self.rs, self.index
        if x.kind == "h" and y.kind == "h":
            return {}
        if x.kind == "h":
            c = rs.coroot_pairing(y.key, x.key)
            if not c:
                return {}
            return {idx[y]: Fraction(c if y.kind == "e" else -c)}
        if y.kind == "h":
            return {k: -c for k, c in self._compute_bracket(y, x).items()}
        a, b = x.key, y.key
        if x.kind == y.kind:
            s = tuple(p + q for p, q in zip(a, b))
            if s not in self._pos_set:
                return {}
            n = self.n_constant(a, b)
            if x.kind == "e":
                return {idx[E(s)]: Fraction(n)}
            return {idx[F(s)]: Fraction(-n)}
        if x.kind == "f":  # [f_a, e_b] = -[e_b, f_a]
            return {k: -c for k, c in self._compute_bracket(y, x).items()}
        # [e_a, f_b]
        if a == b:
            return {i: c for i, c in self.coroot_coords(a).items()}
        diff = tuple(p - q for p, q in zip(a, b))
        if not self._is_root(diff):
            return {}
        n = self._n_mixed(a, b)
        assert n.denominator == 1, "structure constant must be integral"
        target = E(diff) if diff in self._pos_set else F(tuple(-c for c in diff))
        return {idx[target]: n}

    # -- sparse element plumbing --------------------------------------------

    def to_indexed(self, x: LieElement) -> dict[int, Fraction]:
        return {self.index[b]: c for b, c in x.coords.items()}

    def from_indexed(self, coords: dict[int, Fraction]) -> LieElement:
        return LieElement({self.basis[i]: c for i, c in coords.items()})

    def ad_column(self, x: dict[int, Fraction], j: int) -> dict[int, Fraction]:
        """[x, b_j] as sparse coordinates, for x given by its coordinates."""
        out: dict[int, Fraction] = {}
        for i, ci in x.items():
            for k, c in self.basis_bracket(i, j).items():
                out[k] = out.get(k, 0) + ci * c
        return {k: c for k, c in out.items() if c}

    def bracket_indexed(self, x: dict[int, Fraction], y: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for j, cj in y.items():
            for k, c in self.ad_column(x, j).items():
                out[k] = out.get(k, 0) + cj * c
        return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def build_chevalley(rs: RootSystem) -> ChevalleyTable:
    """Chevalley table over a built root system (cached per system)."""
    return ChevalleyTable(rs)


def bracket(table: ChevalleyTable, x: LieElement, y: LieElement) -> LieElement:
    """[x, y] for arbitrary elements, bilinear over the basis table."""
    return table.from_indexed(table.bracket_indexed(table.to_indexed(x), table.to_indexed(y)))


def ad_matrix(table: ChevalleyTable, x: LieElement):
    """Matrix of ad(x) over the basis: column j holds the coords of [x, b_j]."""
    xi, basis = table.to_indexed(x), range(table.dimension)
    return _linalg.block(lambda j: table.ad_column(xi, j), basis, basis)


def centralizer(table: ChevalleyTable, x: LieElement) -> list[LieElement]:
    """Basis of ker ad(x), as elements."""
    null = _linalg.nullspace(ad_matrix(table, x), table.dimension)
    return [
        LieElement({table.basis[i]: c for i, c in enumerate(v) if c}) for v in null
    ]


def cartan_lie_element(table: ChevalleyTable, diagram: CartanElement) -> LieElement:
    """The Cartan element with pairings a_i(v) = diagram_i, over the coroot basis."""
    from .rootsys import cartan_solve

    coords = cartan_solve(table.rs, diagram)
    return LieElement({H(i): c for i, c in enumerate(coords) if c})
