"""Bundled nilpotent-orbit data and the classical matrix realizations.

The package ships one JSON record per exceptional pairing (algebra, level
denominator q) for which the relevant grading has half-integer steps.  Each
record carries a weighted-diagram characteristic h, the positive roots whose
root vectors sum to the nilpotent f, and the distinguished Cartan element v
centralizing f.  Records use Bourbaki numbering; for the E series the JSON
splits a diagram into the branch-node value ("top", node 2) and the chain
values ("row", nodes 1,3,4,...), which flatten back to coefficient order
1..n.

The classical side (types B, C, D) is realized directly with matrices:
a partition describes lower Jordan blocks, the bilinear form is the
alternating antidiagonal one per block, and paired blocks carry the
+1/2 / -1/2 split of the Cartan element v.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from ._serde import rat_from_json, rat_to_json
from .rootsys import CartanElement, RootSystem, SimpleType, build


class NotExceptionalType(ValueError):
    """The algebra is not one of G2, F4, E6, E7, E8."""


class UnknownRoot(ValueError):
    """A listed coefficient vector is not a positive root of the algebra."""


class InvalidRecord(ValueError):
    """A data record is structurally or arithmetically inconsistent."""


class InvalidPartition(ValueError):
    """The parts cannot be arranged into a nilpotent of the requested type."""


class _EvenOrExternal:
    """Sentinel: for this (algebra, q) the grading is even or outside the table."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EvenOrExternal"


EVEN_OR_EXTERNAL = _EvenOrExternal()


@dataclass(frozen=True)
class OrbitRecord:
    algebra: SimpleType
    label: str
    q: tuple[int, ...]
    h: CartanElement
    f_roots: tuple[tuple[int, ...], ...]
    v: CartanElement

    def root_system(self) -> RootSystem:
        return build(self.algebra)


def _diagram_from_json(obj, family: str, rank: int) -> tuple[Fraction, ...]:
    row = [rat_from_json(x) for x in obj["row"]]
    top = obj.get("top")
    if family == "E":
        if top is None:
            raise InvalidRecord("E-series diagram needs a branch-node value")
        flat = [row[0], rat_from_json(top)] + row[1:]
    else:
        if top is not None:
            raise InvalidRecord(f"type {family} has no branch node")
        flat = row
    if len(flat) != rank:
        raise InvalidRecord(f"diagram has {len(flat)} values, expected {rank}")
    return tuple(flat)


def _diagram_to_json(values, family: str) -> dict:
    vals = [rat_to_json(x) for x in values]
    if family == "E":
        return {"top": vals[1], "row": [vals[0]] + vals[2:]}
    return {"row": vals}


def record_from_json(obj: dict) -> OrbitRecord:
    try:
        st = SimpleType.parse(obj["algebra"])
        label = str(obj["label"])
        q = tuple(int(x) for x in obj["q"])
        h = _diagram_from_json(obj["h"], st.family, st.rank)
        v = _diagram_from_json(obj["v"], st.family, st.rank)
        f_roots = tuple(tuple(int(x) for x in r) for r in obj["f_roots"])
    except InvalidRecord:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidRecord(f"malformed record: {exc}") from exc
    if any(len(r) != st.rank for r in f_roots):
        raise InvalidRecord("root vector has wrong length")
    if any(x.denominator != 1 for x in h):
        raise InvalidRecord("characteristic values must be integers")
    return OrbitRecord(
        algebra=st,
        label=label,
        q=q,
        h=CartanElement.of(h),
        f_roots=f_roots,
        v=CartanElement.of(v),
    )


def record_to_json(rec: OrbitRecord) -> dict:
    fam = rec.algebra.family
    return {
        "algebra": str(rec.algebra),
        "label": rec.label,
        "q": list(rec.q),
        "h": _diagram_to_json(rec.h.pairings, fam),
        "f_roots": [list(r) for r in rec.f_roots],
        "v": _diagram_to_json(rec.v.pairings, fam),
    }


def validate_record(rec: OrbitRecord) -> None:
    """Arithmetic sanity: roots exist, f has degree -1, v centralizes f."""
    from .rootsys import pairing

    rs = rec.root_system()
    for c in rec.f_roots:
        if c not in rs.positive_set:
            raise UnknownRoot(f"{c} is not a positive root of {rec.algebra}")
    if len(set(rec.f_roots)) != len(rec.f_roots):
        raise InvalidRecord("repeated root in f")
    for c in rec.f_roots:
        if pairing(rs, c, rec.h) != 2:
            raise InvalidRecord(f"root {c} is not in degree -1 for h")
        if pairing(rs, c, rec.v) != 0:
            raise InvalidRecord(f"v does not centralize the root vector at {c}")
    if not rec.q or any(x < 2 for x in rec.q):
        raise InvalidRecord("q values must be integers >= 2")


def data_dir() -> Path:
    """Directory of record files; WRAT_DATA_DIR overrides the bundled set."""
    override = os.environ.get("WRAT_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


@lru_cache(maxsize=None)
def _load_dir(path_str: str) -> tuple[OrbitRecord, ...]:
    path = Path(path_str)
    recs = []
    for fn in sorted(path.glob("*.json")):
        with open(fn) as fh:
            obj = json.load(fh)
        rec = record_from_json(obj)
        validate_record(rec)
        recs.append(rec)
    return tuple(recs)


def load_records() -> tuple[OrbitRecord, ...]:
    return _load_dir(str(data_dir()))


def lookup_exceptional(algebra, q: int):
    """The record for (algebra, q), or EVEN_OR_EXTERNAL when none applies.

    Raises NotExceptionalType for classical families (use the partition
    interface for those).
    """
    st = SimpleType.parse(algebra) if isinstance(algebra, str) else algebra
    if st.family not in ("E", "F", "G"):
        raise NotExceptionalType(f"{st} is classical; no bundled record applies")
    for rec in load_records():
        if rec.algebra == st and q in rec.q:
            return rec
    return EVEN_OR_EXTERNAL


# ---------------------------------------------------------------------------
# Classical realizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalPartition:
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
        return self

    @property
    def size(self) -> int:
        return 2 * sum(self.pairs) + sum(self.singles)

    @property
    def letter(self) -> str:
        if self.family == "sp":
            return "C"
        return "B" if self.size % 2 else "D"

    def is_even(self) -> bool:
        return not self.pairs or not self.singles


@dataclass(frozen=True)
class ClassicalRealization:
    """Matrices for a partition: the form S, the nilpotent f, its sl2
    partner e, the diagonals of h and v, and the sparse description of S
    (row i holds its only nonzero in column sigma(i), with value c(i))."""

    partition: ClassicalPartition
    size: int
    form: tuple[tuple[Fraction, ...], ...]
    f: tuple[tuple[Fraction, ...], ...]
    e: tuple[tuple[Fraction, ...], ...]
    h_diag: tuple[Fraction, ...]
    v_diag: tuple[Fraction, ...]
    sigma: tuple[int, ...]
    form_coeff: tuple[Fraction, ...]

    def involution_of(self, i: int, j: int) -> tuple[int, int, Fraction]:
        """X -> -S^{-1} X^T S on a matrix unit: E_ij maps to c * E_i'j'."""
        return (
            self.sigma[j],
            self.sigma[i],
            -self.form_coeff[i] / self.form_coeff[j],
        )


def build_classical(partition: ClassicalPartition) -> ClassicalRealization:
    """Assemble S, f, e, h, v from the block data.

    With S_m the alternating antidiagonal form (row i holds (-1)^i in
    column m - 1 - i), paired parts contribute two adjacent lower Jordan
    blocks coupled by the form [[0, S_m], [-S_m, 0]], and single parts carry
    S_m on their own block.  h is the usual sl2 weight diagonal m-1, m-3,
    ..., 1-m on every block, e is the upper partner with entries
    (i + 1)(m - 1 - i), and v is +1/2 on the first copy of each pair, -1/2
    on the second, 0 on singles.  A failure of the triple check is a bug
    and raises AssertionError.
    """
    n = partition.size
    zero = Fraction(0)
    form = [[zero] * n for _ in range(n)]
    f = [[zero] * n for _ in range(n)]
    e = [[zero] * n for _ in range(n)]
    h = [zero] * n
    v = [zero] * n

    def place_jordan(start: int, m: int):
        for i in range(m - 1):
            f[start + i + 1][start + i] = Fraction(1)
            e[start + i][start + i + 1] = Fraction((i + 1) * (m - 1 - i))
        for i in range(m):
            h[start + i] = Fraction(m - 1 - 2 * i)

    off = 0
    for m in partition.pairs:
        for i in range(m):
            form[off + i][off + 2 * m - 1 - i] = Fraction((-1) ** i)
            form[off + m + i][off + m - 1 - i] = Fraction(-((-1) ** i))
            v[off + i], v[off + m + i] = Fraction(1, 2), Fraction(-1, 2)
        place_jordan(off, m)
        place_jordan(off + m, m)
        off += 2 * m
    for m in partition.singles:
        for i in range(m):
            form[off + i][off + m - 1 - i] = Fraction((-1) ** i)
        place_jordan(off, m)
        off += m

    # the first nonzero of each row; `_verify_membership` checks it is the only one
    sigma = [next((j for j, x in enumerate(row) if x), -1) for row in form]
    coeff = [form[i][j] for i, j in enumerate(sigma)]

    real = ClassicalRealization(
        partition=partition,
        size=n,
        form=tuple(tuple(r) for r in form),
        f=tuple(tuple(r) for r in f),
        e=tuple(tuple(r) for r in e),
        h_diag=tuple(h),
        v_diag=tuple(v),
        sigma=tuple(sigma),
        form_coeff=tuple(coeff),
    )
    _verify_membership(real)
    if not is_sl2_triple(real):
        raise AssertionError(f"the Jordan e of {partition} is not an sl2 partner of f")
    return real


def _nonzeros(m) -> dict[tuple[int, int], Fraction]:
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row) if x}


def _verify_membership(real: ClassicalRealization) -> None:
    """S is monomial, f and e lie in g, and the diagonals h, v satisfy
    d(sigma(i)) = -d(i).

    S must be monomial: row i holds only c(i), in column sigma(i), and sigma
    is a permutation.  Then X lies in g iff the involution
    X -> -S^{-1} X^T S, which maps E_ij to c * E_i'j' (`involution_of`),
    fixes it: X[i'][j'] = c * X[i][j], checked at each nonzero of X.
    """
    n = real.size
    s, sigma, c = real.form, real.sigma, real.form_coeff
    if sorted(sigma) != list(range(n)) or any(
        s[i][j] != (c[i] if j == sigma[i] else 0) for i in range(n) for j in range(n)
    ):
        raise InvalidPartition("the form is not monomial")
    for x in (real.f, real.e):
        for (i, j), a in _nonzeros(x).items():
            ip, jp, cc = real.involution_of(i, j)
            if x[ip][jp] != cc * a:
                raise InvalidPartition("nilpotent fell outside the algebra")
    for diag in (real.h_diag, real.v_diag):
        for i in range(n):
            if diag[real.sigma[i]] != -diag[i]:
                raise InvalidPartition("diagonal element fell outside the algebra")


def is_sl2_triple(real: ClassicalRealization) -> bool:
    """[e, f] = h, [h, e] = 2e and [h, f] = -2f, over nonzero entries only;
    h is diagonal, so [h, X] = 2X says h_i - h_j = 2 at each nonzero X_ij."""
    hd = real.h_diag
    e, f = _nonzeros(real.e), _nonzeros(real.f)
    ef = {(i, i): -x for i, x in enumerate(hd) if x}  # [e, f] - h
    for x, y, sign in ((e, f, 1), (f, e, -1)):
        rows: dict[int, list] = {}
        for (k, j), b in y.items():
            rows.setdefault(k, []).append((j, b))
        for (i, k), a in x.items():
            for j, b in rows.get(k, ()):
                ef[i, j] = ef.get((i, j), 0) + sign * a * b
    return (
        not any(ef.values())
        and all(hd[i] - hd[j] == 2 for i, j in e)
        and all(hd[i] - hd[j] == -2 for i, j in f)
    )


def classical_basis(real: ClassicalRealization):
    """Basis of the algebra as sparse symmetrized matrix units.

    Each entry is ((i, j), partner, c) meaning E_ij + c * E_partner, or
    ((i, j), None, None) for a matrix unit fixed by the involution with
    sign +1.  Representatives are chosen once per two-cycle, so supports of
    distinct basis elements are disjoint and coordinates of any algebra
    element can be read straight off its matrix entries at representatives.
    """
    n = real.size
    out = []
    seen = set()
    for i in range(n):
        for j in range(n):
            if (i, j) in seen:
                continue
            ip, jp, c = real.involution_of(i, j)
            if (ip, jp) == (i, j):
                if c == 1:
                    out.append(((i, j), None, None))
                # c == -1: this unit lies in the -1 eigenspace; not in g
                seen.add((i, j))
            else:
                out.append(((i, j), (ip, jp), c))
                seen.add((i, j))
                seen.add((ip, jp))
    return out
