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

Every structure constant is an int: the table holds the root norms <a, a>
on the integer form, short roots of norm 2, and every division in the
recursion is an exact integer division, asserted as such.  The recursion
runs on integer root codes (`ChevalleyTable`): a root is one int, so a
root sum or difference is one int `+` or `-` and a root test one set
lookup; the basis labels keep the coefficient tuples.  An element of
the algebra is a sparse dict {basis index: int | Fraction} over
`ChevalleyTable.basis`, with no stored zeros and never a float, so two
elements are equal exactly when their dicts are (1 == Fraction(1)).
Elements with int coefficients bracket in int.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, NamedTuple

from . import _linalg
from .rootsys import CartanElement, RootSystem, cartan_solve

# an element: {basis index: coefficient}, no stored zeros, never a float
Element = dict[int, int | Fraction]


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


class ChevalleyTable:
    """Structure constants of the simple Lie algebra over a root system.

    The root arithmetic runs on the integer codes of `rootsys`, whose
    module docstring says why a code lookup decides root membership: a
    negative root has the negative code, and root sums, differences and
    membership are int `+`, `-` and set lookups.

    `weigh` evaluates a torus element on every basis vector at once: a on
    e_a, -a on f_a, 0 on the Cartan basis.
    """

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
        # positive root -> code; the codes in the order of `positive`
        self.code = {r.coeffs: r.code for r in rs.positive_roots}
        self._codes = list(self.code.values())
        # signed code -> basis index: e_a at a's code, f_a at its negative
        npos = len(pos)
        self._at = {x: rs.rank + k for k, x in enumerate(self._codes)}
        self._at.update({-x: i + npos for x, i in self._at.items()})
        # <a, a> on the integer form of rs: the invariant-form relations
        # only take ratios of norms
        self._norm2 = {x: r.norm2 for x, r in zip(self._codes, rs.positive_roots)}
        self._by_height = [self.code[c] for c in sorted(pos, key=lambda c: (sum(c), c))]
        self._order = {x: k for k, x in enumerate(self._by_height)}
        self._ex: dict[int, tuple[int, int]] = {}
        self._npp: dict[tuple[int, int], int] = {}
        # (i, j) -> sparse coords of [basis_i, basis_j]; filled on demand
        self.brackets: dict[tuple[int, int], dict[int, int]] = {}

    def weigh(self, t) -> tuple[int, ...]:
        """The torus element with simple-root values t on each basis vector:
        one dot product per positive root a gives a(t) on e_a and -a(t) on
        f_a; the Cartan vectors weigh 0."""
        up = [sum(map(mul, a, t)) for a in self.positive]
        return (0,) * self.rs.rank + tuple(up) + tuple([-x for x in up])

    # -- root-level helpers, on root codes -----------------------------------

    def string_down_length(self, a: int, b: int) -> int:
        """p = largest k >= 0 such that b - k*a is a root."""
        k = 0
        probe = b - a
        while probe in self._at:
            k += 1
            probe -= a
        return k

    def extraspecial_pair(self, g: int) -> tuple[int, int]:
        """The decomposition g = a1 + b1 with a1 minimal in (height, lex)."""
        got = self._ex.get(g)
        if got is None:
            a = next((a for a in self._by_height if g - a in self._norm2), None)
            if a is None:
                raise ValueError(f"{g} is not the code of a decomposable positive root")
            got = self._ex[g] = (a, g - a)
        return got

    def n_constant(self, a: int, b: int) -> int:
        """N(a, b) for positive roots a, b with a + b a positive root."""
        key = (a, b)
        val = self._npp.get(key)
        if val is not None:
            return val
        a1, b1 = self.extraspecial_pair(a + b)
        if a == a1:
            val = self.string_down_length(a1, b1) + 1
        elif b == a1:
            val = -(self.string_down_length(a1, b1) + 1)
        elif self._order[a] > self._order[b]:
            val = -self.n_constant(b, a)
        else:
            # Jacobi identity on the quadruple (a1, -a, b1, -b), reduced to
            # positive pairs of smaller height via the invariant-form
            # relation, over the common denominator <a,a><b1,b1><b,b>:
            # N(a, b) = -<g,g> (<s,s> <b,b> N(a1,s) N(b,s)
            #           - <t,t> <a,a> N(a,t) N(a1,t)) / (den N(a1, b1))
            n2 = self._norm2
            s = a - a1   # = b1 - b
            t = b - a1   # = b1 - a
            total = 0
            if s in n2:
                total += n2[s] * n2[b] * self.n_constant(a1, s) * self.n_constant(b, s)
            if t in n2:
                total -= n2[t] * n2[a] * self.n_constant(a, t) * self.n_constant(a1, t)
            den = n2[a] * n2[b1] * n2[b] * self.n_constant(a1, b1)
            val, rem = divmod(-n2[a + b] * total, den)
            assert not rem, "structure constant must be integral"
        self._npp[key] = val
        return val

    def coroot_coords(self, k: int) -> dict[int, int]:
        """a^v over the simple coroots for the k-th positive root a:
        coefficients n_i <a_i,a_i> / <a,a>."""
        d = self.rs.half_norms
        root = self.rs.positive_roots[k]
        out = {}
        for i, n in enumerate(root.coeffs):
            if n:
                c, rem = divmod(2 * n * d[i], root.norm2)
                assert not rem, "coroot must be an integer vector"
                out[i] = c
        return out

    # -- basis-level brackets ----------------------------------------------

    def basis_bracket(self, i: int, j: int) -> dict[int, int]:
        """Sparse coordinates of [basis[i], basis[j]]."""
        got = self.brackets.get((i, j))
        if got is None:
            if i == j:
                return {}
            if j < i:
                got = {k: -c for k, c in self.basis_bracket(j, i).items()}
            else:
                got = self._compute_bracket(i, j)
            self.brackets[(i, j)] = got
        return got

    def _compute_bracket(self, i: int, j: int) -> dict[int, int]:
        """[basis[i], basis[j]] for i < j.  The basis runs h, e, f, so the
        kind of basis[i] comes no later than that of basis[j]."""
        rank, npos = self.rs.rank, len(self.positive)
        if j < rank:
            return {}
        kb = (j - rank) % npos
        j_is_e = j < rank + npos
        if i < rank:  # [h_i, e_b] = <b, a_i^v> e_b, [h_i, f_b] = -<b, a_i^v> f_b
            c = self.rs.positive_roots[kb].coroot_pairings[i]
            if not c:
                return {}
            return {j: c if j_is_e else -c}
        ka = (i - rank) % npos
        a, b = self._codes[ka], self._codes[kb]
        if (i < rank + npos) == j_is_e:
            k = self._at.get(a + b)
            if k is None:
                return {}
            n = self.n_constant(a, b)
            return {k: n} if j_is_e else {k + npos: -n}
        # [e_a, f_b] = N(a, -b) e_(a-b) or f_(b-a), when a - b is a root
        if a == b:
            return self.coroot_coords(ka)
        diff = a - b
        k = self._at.get(diff)
        if k is None:
            return {}
        n2 = self._norm2
        if diff > 0:
            # b + diff = a: N(a, -b) = -<diff,diff>/<a,a> N(b, diff)
            num, den = -n2[diff] * self.n_constant(b, diff), n2[a]
        else:
            # a - diff = b: N(a, -b) = -<diff,diff>/<b,b> N(a, -diff)
            num, den = -n2[-diff] * self.n_constant(a, -diff), n2[b]
        val, rem = divmod(num, den)
        assert not rem, "structure constant must be integral"
        return {k: val}

    # -- brackets of elements -----------------------------------------------

    def ad_column(self, x: Element, j: int) -> Element:
        """[x, b_j] as an element."""
        out: Element = {}
        for i, ci in x.items():
            for k, c in self.basis_bracket(i, j).items():
                out[k] = out.get(k, 0) + ci * c
        return {k: c for k, c in out.items() if c}

    def bracket(self, x: Element, y: Element) -> Element:
        """[x, y], bilinear over the basis brackets."""
        out: Element = {}
        for j, cj in y.items():
            for k, c in self.ad_column(x, j).items():
                out[k] = out.get(k, 0) + cj * c
        return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def build_chevalley(rs: RootSystem) -> ChevalleyTable:
    """Chevalley table over a built root system (cached per system)."""
    return ChevalleyTable(rs)


def cartan_lie_element(table: ChevalleyTable, diagram: CartanElement) -> Element:
    """The Cartan element with pairings a_i(v) = diagram_i, over the coroot
    basis; a coefficient is an int wherever it is integral, as on the
    coroot lattice, where every characteristic of an sl2-triple lies."""
    coords = cartan_solve(table.rs, diagram)
    return {table.index[H(i)]: _linalg.integral(c) for i, c in enumerate(coords) if c}
