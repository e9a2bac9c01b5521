"""Gradings of a simple Lie algebra induced by a Cartan characteristic.

A characteristic assigns a value a_i(h) to each simple root; basis vectors
are then homogeneous, with e_a in degree a(h)/2, f_a in degree -a(h)/2 and
the Cartan subalgebra in degree 0.  The grading is *good* for a nilpotent f
of degree -1 when ad(f): g_j -> g_{j-1} is injective for j >= 1/2 and
surjective for j <= 1/2; it is *even* when every degree is an integer.
"""
from __future__ import annotations

from typing import NamedTuple

from . import BadInput, _linalg
from .liealg import ChevalleyTable, Element, F, cartan_lie_element
from .rootsys import CartanElement, DimensionMismatch, pairing


class NoSl2Completion(BadInput):
    """No degree-one partner e with [e, f] = h exists."""


class NotDegreeMinusOne(ValueError):
    """The candidate nilpotent is not homogeneous of degree -1."""


class DynkinGrading(NamedTuple):
    """Eigenspace decomposition of the algebra under a Cartan characteristic.

    Basis vector i sits in degree degree_nums[i] / degree_den, integers over
    one even denominator; `block` lists the indices of one degree."""

    table: ChevalleyTable
    characteristic: CartanElement
    degree_nums: tuple[int, ...]
    degree_den: int

    def block(self, j) -> tuple[int, ...]:
        """The indices in degree j, an int or a Fraction, in basis order."""
        n, r = divmod(j.numerator * self.degree_den, j.denominator)
        return () if r else tuple(i for i, d in enumerate(self.degree_nums) if d == n)


class Sl2Triple(NamedTuple):
    """Elements e, h, f of the algebra with [e, f] = h, [h, e] = 2e, [h, f] = -2f."""

    e: Element
    h: Element
    f: Element


def grade(table: ChevalleyTable, characteristic: CartanElement) -> DynkinGrading:
    """Grade the basis by half the characteristic pairing on each root.

    The pairings are scaled once to integers over their common denominator
    den, and `ChevalleyTable.weigh` evaluates them on every basis vector:
    a basis vector of weight n sits in degree n / (2 den).
    """
    pairings = characteristic.pairings
    if len(pairings) != table.rs.rank:
        raise DimensionMismatch(
            f"Cartan element of rank {len(pairings)} against {table.rs.simple_type}"
        )
    scaled, den = _linalg.over_common(pairings)
    return DynkinGrading(
        table=table,
        characteristic=characteristic,
        degree_nums=table.weigh(scaled),
        degree_den=2 * den,
    )


def is_even_grading(grading: DynkinGrading) -> bool:
    return all(n % grading.degree_den == 0 for n in grading.degree_nums)


def ad_block(
    table: ChevalleyTable,
    x: Element,
    src: tuple[int, ...],
    dst: tuple[int, ...],
):
    """Matrix of ad(x) from the span of src to the span of dst: the columns
    `ChevalleyTable.ad_column` placed by `_linalg.block`, with int zeros.

    Components of [x, b] falling outside dst are dropped, so callers must
    pass a dst block that actually contains the image.
    """
    return _linalg.block(lambda j: table.ad_column(x, j), src, dst)


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
    solution.  f's coefficients are the int 1, and those of h and e are
    ints wherever they are integral.
    """
    rs = table.rs
    for c in f_roots:
        if pairing(rs, c, grading.characteristic) != 2:
            raise NotDegreeMinusOne(
                f"root {c} pairs to {pairing(rs, c, grading.characteristic)}, expected 2"
            )
    f = {table.index[F(c)]: 1 for c in f_roots}
    h = cartan_lie_element(table, grading.characteristic)
    if not h:
        raise NoSl2Completion("characteristic is zero; no sl2 through it")

    src, g0 = grading.block(1), grading.block(0)
    sol = _linalg.solve(ad_block(table, f, src, g0), [-h.get(k, 0) for k in g0])
    if sol is None:
        raise NoSl2Completion("no degree-one e satisfies [e, f] = h")
    e = {j: _linalg.integral(sol[c]) for c, j in enumerate(src) if sol[c]}

    if table.bracket(e, f) != h:
        raise NoSl2Completion("completion failed verification")
    two_e = {k: 2 * c for k, c in e.items()}
    minus_two_f = {k: -2 * c for k, c in f.items()}
    if table.bracket(h, e) != two_e or table.bracket(h, f) != minus_two_f:
        raise NoSl2Completion("candidate h does not weight the pair correctly")
    return Sl2Triple(e=e, h=h, f=f)
