"""Gradings of a simple Lie algebra induced by a Cartan characteristic.

A characteristic assigns a value a_i(h) to each simple root; basis vectors
are then homogeneous, with e_a in degree a(h)/2, f_a in degree -a(h)/2 and
the Cartan subalgebra in degree 0.  The grading is *good* for a nilpotent f
of degree -1 when ad(f): g_j -> g_{j-1} is injective for j >= 1/2 and
surjective for j <= 1/2; it is *even* when every degree is an integer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import _linalg
from .liealg import ChevalleyTable, LieElement, bracket, cartan_lie_element
from .rootsys import CartanElement


class NoSl2Completion(ValueError):
    """No degree-one partner e with [e, f] = h exists."""


class NotDegreeMinusOne(ValueError):
    """The candidate nilpotent is not homogeneous of degree -1."""


@dataclass(frozen=True)
class DynkinGrading:
    """Eigenspace decomposition of the algebra under a Cartan characteristic."""

    table: ChevalleyTable
    characteristic: CartanElement
    degrees: tuple[Fraction, ...]
    by_degree: dict[Fraction, tuple[int, ...]] = field(compare=False)

    def block(self, j) -> tuple[int, ...]:
        return self.by_degree.get(Fraction(j), ())

    def block_dims(self) -> dict[Fraction, int]:
        return {j: len(ix) for j, ix in sorted(self.by_degree.items())}


class Sl2Triple(NamedTuple):
    e: LieElement
    h: LieElement
    f: LieElement


def grade(table: ChevalleyTable, characteristic: CartanElement) -> DynkinGrading:
    """Grade the basis by half the characteristic pairing on each root."""
    from .rootsys import pairing

    rs = table.rs
    degrees: list[Fraction] = []
    for b in table.basis:
        if b.kind == "h":
            degrees.append(Fraction(0))
        else:
            d = pairing(rs, b.key, characteristic) / 2
            degrees.append(d if b.kind == "e" else -d)
    by_degree: dict[Fraction, list[int]] = {}
    for i, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(i)
    return DynkinGrading(
        table=table,
        characteristic=characteristic,
        degrees=tuple(degrees),
        by_degree={j: tuple(ix) for j, ix in by_degree.items()},
    )


def grade_by_weights(table: ChevalleyTable, x0: CartanElement) -> DynkinGrading:
    """Grade by a derivation element directly: e_a sits in degree a(x0).

    x0 is the element whose ad eigenvalues ARE the degrees, as for a general
    (not necessarily Dynkin) grading, so this is `grade` at 2 * x0, and the
    stored characteristic is 2 * x0.
    """
    return grade(table, 2 * x0)


def is_even_grading(grading: DynkinGrading) -> bool:
    return all(d.denominator == 1 for d in grading.by_degree)


def ad_block(
    table: ChevalleyTable,
    x_indexed: dict[int, Fraction],
    src: tuple[int, ...],
    dst: tuple[int, ...],
):
    """Matrix of ad(x) from the span of src to the span of dst: the columns
    `ChevalleyTable.ad_column` placed by `_linalg.block`, with int zeros.

    Components of [x, b] falling outside dst are dropped, so callers must
    pass a dst block that actually contains the image.
    """
    return _linalg.block(lambda j: table.ad_column(x_indexed, j), src, dst)


def verify_good_grading(grading: DynkinGrading, f: LieElement) -> bool:
    """ad(f) injective on degrees >= 1/2 and surjective onto degrees <= -1/2."""
    table = grading.table
    fi = table.to_indexed(f)
    half = Fraction(1, 2)
    levels = set(grading.by_degree) | {j + 1 for j in grading.by_degree}
    for j in levels:
        src = grading.block(j)
        dst = grading.block(j - 1)
        m = ad_block(table, fi, src, dst)
        r = _linalg.rank(m)
        if j >= half and r < len(src):
            return False
        if j <= half and r < len(dst):
            return False
    return True


def complete_sl2(
    table: ChevalleyTable,
    grading: DynkinGrading,
    f_roots: list[tuple[int, ...]],
) -> Sl2Triple:
    """Extend f = sum of f_b over the given roots to a triple (e, h, f).

    Every root must sit in degree -1 (raises NotDegreeMinusOne otherwise);
    e is found in degree +1 by solving [f, e] = -h exactly.  ad(f) maps
    g_1 into g_0, which holds h, so the system keeps the g_0 rows only: the
    rows it drops are all zero.  The whole triple is re-verified before
    being returned.  Raises NoSl2Completion when the linear system has no
    solution.
    """
    from .liealg import F
    from .rootsys import pairing

    rs = table.rs
    for c in f_roots:
        if pairing(rs, c, grading.characteristic) != 2:
            raise NotDegreeMinusOne(
                f"root {c} pairs to {pairing(rs, c, grading.characteristic)}, expected 2"
            )
    f = LieElement({F(tuple(c)): Fraction(1) for c in f_roots})
    h = cartan_lie_element(table, grading.characteristic)
    if h.is_zero():
        raise NoSl2Completion("characteristic is zero; no sl2 through it")

    src, g0 = grading.block(1), grading.block(0)
    hi = table.to_indexed(h)
    sol = _linalg.solve(ad_block(table, table.to_indexed(f), src, g0), [-hi.get(k, 0) for k in g0])
    if sol is None:
        raise NoSl2Completion("no degree-one e satisfies [e, f] = h")
    e = table.from_indexed({j: sol[c] for c, j in enumerate(src) if sol[c]})

    if bracket(table, e, f) != h:
        raise NoSl2Completion("completion failed verification")
    if bracket(table, h, e) != 2 * e or bracket(table, h, f) != -2 * f:
        raise NoSl2Completion("candidate h does not weight the pair correctly")
    return Sl2Triple(e=e, h=h, f=f)
