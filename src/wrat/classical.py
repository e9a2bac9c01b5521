"""The classical (matrix) route: so and sp partitions and their check.

`ClassicalPartition.parse` reads a partition from its text in a family, a
series (so, sp) or a type letter (B, D are so, C is sp); `label` and
`algebra_label` name it and its simple type.  A partition describes lower
Jordan blocks, the bilinear form is the alternating antidiagonal one per
block, and paired blocks carry the +1/2 / -1/2 split of the Cartan element
v.  `build_classical` builds and verifies the sl2-triple (e, h, f) from the
Jordan blocks; `check_classical` and `verify_self_contragredient_classical`
read the symmetrized matrix units through the kernel slot table of `slots`,
with the diagonal v as the torus.  `_bracket` is the one sparse matrix
commutator: the triple check and the columns of ad(f) both read it.
Nothing here touches root systems, Chevalley bases or gradings, so a
classical request loads none of them; `slots` is read at call time, so a
verified self-contragredience request does not run it.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from . import BadInput, _linalg, slots


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
        if family == "sp" and self.size % 2:
            raise InvalidPartition("sp needs an even total size")
        # the realization indexes about size**2 / 2 matrix units
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

    partition: ClassicalPartition
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
        partition=partition,
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


def classical_basis(real: ClassicalRealization):
    """Basis of the algebra as sparse symmetrized matrix units.

    Each entry is ((i, j), partner, c) meaning E_ij + c * E_partner, or
    ((i, j), None, None) for a matrix unit fixed by the involution with
    sign +1.  Representatives are chosen once per two-cycle, so supports of
    distinct basis elements are disjoint and coordinates of any algebra
    element can be read straight off its matrix entries at representatives.
    """
    sigma = real.sigma
    out = []
    for i in range(real.size):
        # E_ij maps to c E_(sigma(j), sigma(i)), so it comes first in its
        # two-cycle or is fixed when sigma(j) >= i; sigma is an involution,
        # so those j are the values sigma[i:]
        for j in sorted(sigma[i:]):
            ip, jp, c = real.involution_of(i, j)
            if (ip, jp) != (i, j):
                out.append(((i, j), (ip, jp), c))
            elif c == 1:
                out.append(((i, j), None, None))
            # a fixed unit with c == -1 lies in the -1 eigenspace; not in g
    return out


# ---------------------------------------------------------------------------
# The check on the symmetrized matrix units
# ---------------------------------------------------------------------------


def _units(elt) -> list[tuple[int, int, int | Fraction]]:
    """A symmetrized unit E_ij + c * E_i'j' as (row, column, coefficient) terms."""
    (i, j), partner, c = elt
    return [(i, j, 1)] + ([(*partner, _linalg.integral(c))] if partner else [])


def _classical_sl2(real: ClassicalRealization) -> bool:
    """Whether (e, h, f) is a verified sl2-triple and the diagonal v commutes
    with f: v is constant across each nonzero entry of f, and then commutes
    with e as well.  Checked on the realization itself, so an f replaced after
    `build_classical` gets the rank rule."""
    v = real.v_diag
    return is_sl2_triple(real) and all(v[r] == v[s] for r, s in real.f)


def _classical_operator(real: ClassicalRealization) -> slots._GradedOperator:
    """The operator on the symmetrized matrix units of `classical_basis`.
    The torus is the diagonal, so E_ij + c E_i'j' has weight e_i - e_j."""
    basis = classical_basis(real)
    index = {pos: k for k, (pos, _, _) in enumerate(basis)}

    def column(j: int) -> dict[int, int | Fraction]:
        # the coordinates of [f, B] are its entries at representatives
        unit = {(a, b): coeff for a, b, coeff in _units(basis[j])}
        return {index[pos]: x for pos, x in _bracket(real.f, unit).items() if pos in index}

    hd, den = _linalg.over_common(real.h_diag)
    degrees, cartan = [], []
    for k, elt in enumerate(basis):
        (i, j), _, _ = elt
        degrees.append(hd[i] - hd[j])
        if i == j:
            coords = [0] * real.size
            for a, _, c in _units(elt):
                coords[a] = c
            cartan.append((k, tuple(coords)))

    def weigh(t) -> tuple[int, ...]:
        return tuple([t[i] - t[j] for ((i, j), _, _) in basis])

    return slots._GradedOperator(
        tuple(degrees), 2 * den, weigh, column, tuple(cartan), _classical_sl2(real)
    )


def check_classical(real: ClassicalRealization) -> slots.ConditionVerdict:
    """Kernel slot table on the matrix realization, with v as the torus."""
    op = _classical_operator(real)
    return slots._slot_verdict(op, *slots._group(op, [real.v_diag]))


def verify_self_contragredient_classical(real: ClassicalRealization) -> bool:
    """`_self_contragredient` on the matrix realization; on a verified triple
    it is True without building the operator."""
    return _classical_sl2(real) or slots._self_contragredient(_classical_operator(real))
