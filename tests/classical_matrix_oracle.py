"""The matrix route for classical partitions, kept as an oracle for the closed form.

`wrat.classical` counts a partition's kernel slots from its Jordan data.
This module reads the same realization through the symmetrized matrix
units instead: `classical_basis` spans the algebra, `_classical_operator`
is the graded operator of `wrat.slots` on it (degrees from h, the diagonal
as the torus, the columns [f, B] from `classical._bracket`), and the slot
table is counted on a verified triple and ranked otherwise.
`check_classical` and `verify_self_contragredient_classical` are the
matrix route's answers, the rank fallback included, so an f in no triple
still gets a verdict here where the package refuses it.
"""
from wrat import _linalg, slots
from wrat.classical import _bracket, is_sl2_triple


def classical_basis(real):
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


def _units(elt):
    """A symmetrized unit E_ij + c * E_i'j', c = +-1, as (row, column, coefficient) terms."""
    (i, j), partner, c = elt
    return [(i, j, 1)] + ([(*partner, c)] if partner else [])


def _classical_sl2(real) -> bool:
    """Whether (e, h, f) is a verified sl2-triple and the diagonal v commutes
    with f: v is constant across each nonzero entry of f, and then commutes
    with e as well.  Checked on the realization itself, so an f replaced after
    `build_classical` gets the rank rule."""
    v = real.v_diag
    return is_sl2_triple(real) and all(v[r] == v[s] for r, s in real.f)


def _classical_operator(real) -> slots._GradedOperator:
    """The operator on the symmetrized matrix units of `classical_basis`.
    The torus is the diagonal, so E_ij + c E_i'j' has weight e_i - e_j."""
    basis = classical_basis(real)
    index = {pos: k for k, (pos, _, _) in enumerate(basis)}

    def column(j: int) -> dict:
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


def check_classical(real) -> slots.ConditionVerdict:
    """Kernel slot table on the matrix realization, with v as the torus:
    counted on a verified triple that v centralizes, ranked otherwise."""
    op = _classical_operator(real)
    return slots._slot_verdict(op, *slots._group(op, [real.v_diag]))


def verify_self_contragredient_classical(real) -> bool:
    """`_self_contragredient` on the matrix realization; on a verified triple
    it is True without building the operator."""
    return _classical_sl2(real) or slots._self_contragredient(_classical_operator(real))
