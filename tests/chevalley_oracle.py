"""Chevalley structure constants over Fraction: the reference for `wrat.liealg`.

These are the rational formulas of the structure constants, with the root
norms <a, a> taken from a Fraction form on the simple roots built here from
the Cartan matrix and the half norms, <a_i, a_j> = d_j a_ij:
N(a, b) from the extraspecial pairs and the Jacobi identity with its
invariant-form ratios, N(a, -b) from one such ratio, a^v over the simple
coroots as n_i <a_i, a_i> / <a, a>, and <b, a_i^v> from the Cartan matrix.  The package computes the same numbers in
integers over the root norms on the integer form, short roots of norm 2,
which it carries through the root-string closure, and on integer root
codes; every bracket it returns must equal `bracket` here.  The root-string
combinatorics (extraspecial pairs, string lengths, the (height, lex) order)
are computed here on coefficient tuples, so nothing but the basis is read
from the table.
"""
from __future__ import annotations

from fractions import Fraction

from wrat.liealg import E, F, ChevalleyTable


def coroot_pairing(cartan, coeffs, i: int) -> int:
    """<b, a_i^v> for the root b = sum c_j a_j: sum_j c_j a_ji, read off the
    Cartan matrix rather than the pairings the closure stores."""
    return sum(c * row[i] for c, row in zip(coeffs, cartan))


class ReferenceConstants:
    def __init__(self, table: ChevalleyTable):
        self.table = table
        self.rs = table.rs
        self.pos = self.rs.positive_set
        self.roots = self.pos | {tuple(-x for x in c) for c in self.pos}
        self.by_height = sorted(self.pos, key=lambda c: (sum(c), c))
        self.order = {c: k for k, c in enumerate(self.by_height)}
        self.memo: dict = {}
        self.norms: dict = {}
        d, a = self.rs.half_norms, self.rs.cartan_matrix
        n = len(d)
        self.form = [[Fraction(d[j] * a[i][j]) for j in range(n)] for i in range(n)]

    def norm2(self, c) -> Fraction:
        """<c, c> on the Fraction form on the simple roots."""
        got = self.norms.get(c)
        if got is None:
            form = self.form
            n = len(c)
            got = sum((c[i] * c[j] * form[i][j] for i in range(n) for j in range(n)), Fraction(0))
            self.norms[c] = got
        return got

    def string_down_length(self, a, b) -> int:
        """p = largest k >= 0 such that b - k*a is a root."""
        k = 1
        while tuple(y - k * x for x, y in zip(a, b)) in self.roots:
            k += 1
        return k - 1

    def extraspecial_pair(self, g):
        """g = a1 + b1 with a1 least in (height, lex) among positive roots."""
        for a in self.by_height:
            b = tuple(x - y for x, y in zip(g, a))
            if b in self.pos:
                return a, b
        raise ValueError(f"{g} is not a decomposable positive root")

    def n_constant(self, a, b) -> Fraction:
        """N(a, b) for positive roots a, b with a + b a positive root."""
        key = (a, b)
        if key in self.memo:
            return self.memo[key]
        g = tuple(x + y for x, y in zip(a, b))
        a1, b1 = self.extraspecial_pair(g)
        if (a, b) == (a1, b1):
            val = Fraction(self.string_down_length(a1, b1) + 1)
        elif (b, a) == (a1, b1):
            val = -Fraction(self.string_down_length(a1, b1) + 1)
        elif self.order[a] > self.order[b]:
            val = -self.n_constant(b, a)
        else:
            n2 = self.norm2
            s = tuple(x - y for x, y in zip(a, a1))
            u = tuple(x - y for x, y in zip(b, a1))
            total = Fraction(0)
            if s in self.pos:
                total += n2(s) / (n2(a) * n2(b1)) * self.n_constant(a1, s) * self.n_constant(b, s)
            if u in self.pos:
                total -= n2(u) / (n2(b1) * n2(b)) * self.n_constant(a, u) * self.n_constant(a1, u)
            val = -n2(g) * total / self.n_constant(a1, b1)
        self.memo[key] = val
        return val

    def n_mixed(self, a, b) -> Fraction:
        """N(a, -b) for positive roots a != b with a - b a root."""
        n2 = self.norm2
        diff = tuple(x - y for x, y in zip(a, b))
        if diff in self.pos:
            return -n2(diff) / n2(a) * self.n_constant(b, diff)
        neg = tuple(-x for x in diff)
        return -n2(neg) / n2(b) * self.n_constant(a, neg)

    def coroot_coords(self, a) -> dict[int, Fraction]:
        form = self.form
        return {i: n * form[i][i] / self.norm2(a) for i, n in enumerate(a) if n}

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """[basis[i], basis[j]] from the formulas above, with no stored zeros."""
        t = self.table
        x, y = t.basis[i], t.basis[j]
        if i == j or x.kind == y.kind == "h":
            return {}
        if x.kind == "h" or (y.kind != "h" and (x.kind, y.kind) == ("f", "e")):
            return {k: -c for k, c in self.bracket(j, i).items()}
        if y.kind == "h":
            c = Fraction(coroot_pairing(self.rs.cartan_matrix, x.key, y.key))
            out = {i: -c if x.kind == "e" else c}
        elif x.kind == y.kind:
            s = tuple(p + q for p, q in zip(x.key, y.key))
            if s not in self.pos:
                return {}
            n = self.n_constant(x.key, y.key)
            out = {t.index[E(s)]: n} if x.kind == "e" else {t.index[F(s)]: -n}
        elif x.key == y.key:
            out = self.coroot_coords(x.key)
        else:
            diff = tuple(p - q for p, q in zip(x.key, y.key))
            if diff not in self.roots:
                return {}
            target = E(diff) if diff in self.pos else F(tuple(-c for c in diff))
            out = {t.index[target]: self.n_mixed(x.key, y.key)}
        return {k: c for k, c in out.items() if c}
