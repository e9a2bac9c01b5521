"""The classical route: so and sp partitions and their check.

`ClassicalPartition.parse` reads a partition from its text in a family, a
series (so, sp) or a type letter (B, D are so, C is sp); `label` and
`algebra_label` name it and its simple type.  A partition describes lower
Jordan blocks, the bilinear form is the alternating antidiagonal one per
block, and paired blocks carry the +1/2 / -1/2 split of the Cartan element
v.  `build_classical` builds and verifies the sl2-triple (e, h, f) from the
Jordan blocks, with `_bracket`, the one sparse matrix commutator.
`check_classical` counts the kernel slots in closed form from the Jordan
data, and `verify_self_contragredient_classical` is True on the verified
triple; both raise ValueError where the closed form has no answer.  No
matrix basis and nothing of `_linalg`, root systems, Chevalley bases or
gradings runs, so a classical request loads none of them; `slots` is read
at call time, so a self-contragredience request does not run it.  The
matrix route on symmetrized units is a test oracle,
`tests/classical_matrix_oracle.py`.
"""
from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from . import BadInput, slots


class InvalidPartition(BadInput):
    """The parts cannot be arranged into a nilpotent of the requested type."""


# a --family value: a type letter, which the parts must match, or a series
_FAMILY_TO_SERIES = {"B": "so", "D": "so", "C": "sp", "so": "so", "sp": "sp"}


class ClassicalPartition(NamedTuple):
    """Jordan data for a nilpotent in so/sp, split into paired and single parts.

    Parity does the splitting: orthogonal types pair the even parts and keep
    odd parts single, symplectic types pair the odd parts and keep even parts
    single.  A multiset of parts violating that (an odd multiplicity where
    pairing is forced) is rejected.
    """

    family: str  # "so" or "sp"
    pairs: tuple[int, ...]
    singles: tuple[int, ...]

    @classmethod
    def from_parts(cls, family: str, parts) -> "ClassicalPartition":
        if family not in ("so", "sp"):
            raise InvalidPartition(f"family must be 'so' or 'sp', got {family!r}")
        parts = sorted((int(p) for p in parts), reverse=True)
        if not parts or any(p < 1 for p in parts):
            raise InvalidPartition("parts must be positive integers")
        pair_parity = 0 if family == "so" else 1  # residue of parts that must pair
        counts: dict[int, int] = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        pairs, singles = [], []
        for p in sorted(counts, reverse=True):
            c = counts[p]
            if p % 2 == pair_parity:
                if c % 2:
                    raise InvalidPartition(
                        f"part {p} must occur an even number of times in {family}"
                    )
                pairs.extend([p] * (c // 2))
            else:
                singles.extend([p] * c)
        self = cls(family=family, pairs=tuple(pairs), singles=tuple(singles))
        # the bound dates from a check on about size**2 / 2 matrix units;
        # it stays, so the same sizes exit 3
        if self.size * self.size > sys.maxsize:
            raise InvalidPartition(f"partition size {self.size} is past the index range")
        return self

    @classmethod
    def parse(cls, family: str, text: str) -> "ClassicalPartition":
        """The partition of the comma-separated parts in text, in family:
        a series (so, sp) or a type letter (B, C, D) the parts must match."""
        try:
            parts = [int(x) for x in text.split(",")]
        except ValueError:
            raise InvalidPartition(f"partition must be comma-separated integers: {text!r}")
        self = cls.from_parts(_FAMILY_TO_SERIES.get(family, family), parts)
        if family not in (self.family, self.letter):
            raise InvalidPartition(
                f"partition of {self.size} is type {self.letter}, not {family}"
            )
        return self

    @property
    def size(self) -> int:
        return 2 * sum(self.pairs) + sum(self.singles)

    @property
    def letter(self) -> str:
        if self.family == "sp":
            return "C"
        return "B" if self.size % 2 else "D"

    @property
    def label(self) -> str:
        """Family and parts, largest first: "sp[3,3,2]"."""
        parts = sorted(list(self.pairs) * 2 + list(self.singles), reverse=True)
        return f"{self.family}[{','.join(str(p) for p in parts)}]"

    @property
    def algebra_label(self) -> str:
        """The simple type, e.g. "C3" for sp(6), from the least ranks of the
        classical types (B2, C2, D4); below them so(3) = sp(2) = A1,
        so(6) = A3, and the non-simple so(1), so(2), so(4) get family and
        size: "so4"."""
        letter, rank = self.letter, self.size // 2
        if rank >= (4 if letter == "D" else 2):
            return f"{letter}{rank}"
        low = {("B", 1): "A1", ("C", 1): "A1", ("D", 3): "A3"}
        return low.get((letter, rank), f"{self.family}{self.size}")


class ClassicalRealization(NamedTuple):
    """A partition's matrices, held sparse: the nilpotent f and its sl2
    partner e as {(row, column): entry} with no stored zeros, the diagonals
    of h and v, and the monomial form S as sigma and c (row i of S holds its
    only nonzero c(i) = +-1 in column sigma(i))."""

    size: int
    f: dict[tuple[int, int], int | Fraction]
    e: dict[tuple[int, int], int | Fraction]
    h_diag: tuple[int | Fraction, ...]
    v_diag: tuple[int | Fraction, ...]
    sigma: tuple[int, ...]
    form_coeff: tuple[int, ...]

    def involution_of(self, i: int, j: int) -> tuple[int, int, int]:
        """X -> -S^{-1} X^T S on a matrix unit: E_ij maps to c * E_i'j' with
        c = -c(i) / c(j) = -c(i) c(j), as c(j) = +-1."""
        c = self.form_coeff
        return self.sigma[j], self.sigma[i], -c[i] * c[j]


def build_classical(partition: ClassicalPartition) -> ClassicalRealization:
    """Assemble S (as sigma and c), f, e, h, v from the block data.

    With S_m the alternating antidiagonal form (row i holds (-1)^i in
    column m - 1 - i), paired parts contribute two adjacent lower Jordan
    blocks coupled by the form [[0, S_m], [-S_m, 0]], and single parts carry
    S_m on their own block.  h is the usual sl2 weight diagonal m-1, m-3,
    ..., 1-m on every block, e is the upper partner with entries
    (i + 1)(m - 1 - i), and v is +1/2 on the first copy of each pair, -1/2
    on the second, 0 on singles.  f, e, h and c are ints, v Fractions.  A
    failure of the triple check is a bug and raises AssertionError.
    """
    n = partition.size
    f: dict[tuple[int, int], int] = {}
    e: dict[tuple[int, int], int] = {}
    h = [0] * n
    v = [Fraction(0)] * n
    sigma = [-1] * n
    coeff = [0] * n

    def place_jordan(start: int, m: int):
        for i in range(m - 1):
            f[start + i + 1, start + i] = 1
            e[start + i, start + i + 1] = (i + 1) * (m - 1 - i)
        for i in range(m):
            h[start + i] = m - 1 - 2 * i

    def place_form(row: int, col: int, c: int):
        sigma[row], coeff[row] = col, c

    off = 0
    for m in partition.pairs:
        for i in range(m):
            place_form(off + i, off + 2 * m - 1 - i, (-1) ** i)
            place_form(off + m + i, off + m - 1 - i, -((-1) ** i))
            v[off + i], v[off + m + i] = Fraction(1, 2), Fraction(-1, 2)
        place_jordan(off, m)
        place_jordan(off + m, m)
        off += 2 * m
    for m in partition.singles:
        for i in range(m):
            place_form(off + i, off + m - 1 - i, (-1) ** i)
        place_jordan(off, m)
        off += m

    real = ClassicalRealization(
        size=n,
        f=f,
        e=e,
        h_diag=tuple(h),
        v_diag=tuple(v),
        sigma=tuple(sigma),
        form_coeff=tuple(coeff),
    )
    _verify_membership(real)
    if not is_sl2_triple(real):
        raise AssertionError(f"the Jordan e of {partition} is not an sl2 partner of f")
    return real


def _verify_membership(real: ClassicalRealization) -> None:
    """sigma is a permutation, f and e lie in g, and the diagonals h, v
    satisfy d(sigma(i)) = -d(i).

    S is monomial by construction, so X lies in g iff the involution
    X -> -S^{-1} X^T S, which maps E_ij to c * E_i'j' (`involution_of`),
    fixes it: X[i'][j'] = c * X[i][j], checked at each nonzero of X.
    """
    n = real.size
    if sorted(real.sigma) != list(range(n)):
        raise InvalidPartition("the form is not monomial")
    for x in (real.f, real.e):
        for (i, j), a in x.items():
            ip, jp, cc = real.involution_of(i, j)
            if x.get((ip, jp), 0) != cc * a:
                raise InvalidPartition("nilpotent fell outside the algebra")
    for diag in (real.h_diag, real.v_diag):
        for i in range(n):
            if diag[real.sigma[i]] != -diag[i]:
                raise InvalidPartition("diagonal element fell outside the algebra")


def _bracket(x: dict, y: dict) -> dict:
    """The commutator xy - yx of sparse matrices {(row, column): entry},
    with no stored zeros."""
    out: dict[tuple[int, int], int | Fraction] = {}
    for p, q, sign in ((x, y, 1), (y, x, -1)):
        rows: dict[int, list] = {}
        for (k, j), b in q.items():
            rows.setdefault(k, []).append((j, b))
        for (i, k), a in p.items():
            for j, b in rows.get(k, ()):
                out[i, j] = out.get((i, j), 0) + sign * a * b
    return {pos: z for pos, z in out.items() if z}


def is_sl2_triple(real: ClassicalRealization) -> bool:
    """[e, f] = h, [h, e] = 2e and [h, f] = -2f, over nonzero entries only;
    h is diagonal, so [h, X] = 2X says h_i - h_j = 2 at each nonzero X_ij."""
    hd = real.h_diag
    return (
        _bracket(real.e, real.f) == {(i, i): x for i, x in enumerate(hd) if x}
        and all(hd[i] - hd[j] == 2 for i, j in real.e)
        and all(hd[i] - hd[j] == -2 for i, j in real.f)
    )



def _require_triple(real: ClassicalRealization) -> None:
    if not is_sl2_triple(real):
        raise ValueError("f is in no verified sl2-triple with the realization's e and h")


def check_classical(real: ClassicalRealization) -> slots.ConditionVerdict:
    """The kernel slot table of `slots`, counted from the Jordan data;
    ValueError without a verified triple or when v is not constant on f's
    Jordan chains.  Such a v commutes with the triple, so on each of its
    eigenspaces the chains of length m number #{h_i = m - 1} - #{h_i = m + 1}:
    V is the sum of k copies of V_m per block type (m, n), v acting by
    n / den.  g is S^2 V (alternating form, sp) or Lambda^2 V (symmetric,
    so): S^2 or Lambda^2 of each type's copies plus the product of each pair
    of types.  V_m (x) V_m' is the sum of V_d, d = m + m' - 1 - 2t for
    0 <= t < min(m, m'), S^2 V_m holding the even t; so in S^2 (V_m (x) C^k)
    V_d comes k(k + 1)/2 times at even t and k(k - 1)/2 at odd t, and in
    Lambda^2 the other way round.  Each V_d holds one kernel vector of ad(f),
    in degree -(d - 1)/2, where v is the sum of its two types' values."""
    _require_triple(real)
    v = real.v_diag
    if any(v[r] != v[s] for r, s in real.f):
        raise ValueError("v is not constant on f's Jordan chains")
    den = lcm(*[x.denominator for x in v])
    weights = Counter(zip(real.h_diag, [x.numerator * (den // x.denominator) for x in v]))
    types = [  # ((m, n), k) per block type
        ((h + 1, n), c - weights[h + 2, n])
        for (h, n), c in weights.items()
        if h >= 0 and c > weights[h + 2, n]
    ]
    form = real.form_coeff  # one parity on every row, read off row 0
    sign = -form[0] * form[real.sigma[0]]  # +1 alternating (S^2 V), -1 symmetric (Lambda^2 V)
    kernel: Counter = Counter()  # (degree numerator over 2, eigenvalue numerator) -> dim
    for a, ((m, n), k) in enumerate(types):
        for t in range(m):
            kernel[2 - 2 * m + 2 * t, 2 * n] += k * (k + sign * (-1) ** t) // 2
        for (m2, n2), k2 in types[a + 1:]:
            for t in range(min(m, m2)):
                kernel[2 - m - m2 + 2 * t, n + n2] += k * k2
    rows = [(d, n, mult) for (d, n), mult in kernel.items() if mult]
    return slots._verdict(rows, 2, den, (), "exact", "counting")


def verify_self_contragredient_classical(real: ClassicalRealization) -> bool:
    """True on a verified triple (`slots._self_contragredient`); ValueError without one."""
    _require_triple(real)
    return True
