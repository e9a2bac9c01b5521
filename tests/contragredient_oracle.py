"""Kernel-walk self-contragredience checks, kept as oracles for the rank test.

These compute a basis of ker ad(f) on g_0 with the Gauss-Jordan
`linalg_oracle.nullspace` and test every kernel vector against the three
conditions one by one: pairing with h/2 (tr(h w) on the matrix side) and
the trace of ad(w) on the positive and on the negative part.  The classical
version builds [f, B] by scanning f as a dense matrix (`dense`, built from
the realization's sparse entries), and the Chevalley version sums
[f, b_j] from `basis_bracket` itself, so neither oracle shares the sparse
assembly (`ad_column`, `_linalg.block`) or the integer rank of the package
code.
"""
from fractions import Fraction

import linalg_oracle
from classical_matrix_oracle import classical_basis
from wrat.rootsys import cartan_solve


def degrees(grading) -> tuple[Fraction, ...]:
    """The degree of each basis vector of a `DynkinGrading`, as a Fraction."""
    return tuple(Fraction(n, grading.degree_den) for n in grading.degree_nums)


def dense(real, entries) -> list[list[Fraction]]:
    """The n x n matrix with the given {(row, column): entry} dict."""
    n = real.size
    return [[Fraction(entries.get((i, j), 0)) for j in range(n)] for i in range(n)]


def dense_form(real) -> list[list[Fraction]]:
    """The form S: row i holds c(i) in column sigma(i)."""
    return dense(real, {(i, j): c for i, (j, c) in enumerate(zip(real.sigma, real.form_coeff))})


def ad_block(table, x, src, dst):
    """ad(x): span(src) -> span(dst), summed straight from the basis brackets."""
    pos_of = {k: r for r, k in enumerate(dst)}
    out = linalg_oracle.zeros(len(dst), len(src))
    for c, j in enumerate(src):
        for i, ci in x.items():
            for k, coef in table.basis_bracket(i, j).items():
                r = pos_of.get(k)
                if r is not None:
                    out[r][c] += ci * coef
    return out


def self_contragredient(table, grading, f) -> bool:
    g0 = grading.block(0)
    m = ad_block(table, f, g0, grading.block(-1))
    kernel = linalg_oracle.nullspace(m, len(g0))

    rs = table.rs
    n = rs.rank
    h_coords = cartan_solve(rs, grading.characteristic)
    d = rs.half_norms
    # <h_i, h_j> = a_ij / d_i, the form dual to the integer form of rs
    metric = [[Fraction(rs.cartan_matrix[i][j]) / d[i] for j in range(n)] for i in range(n)]

    pos_idx = [i for i, deg in enumerate(degrees(grading)) if deg > 0]
    neg_idx = [i for i, deg in enumerate(degrees(grading)) if deg < 0]

    for w in kernel:
        wh = [Fraction(0)] * n
        for k, i in enumerate(g0):
            b = table.basis[i]
            if b.kind == "h" and w[k]:
                wh[b.key] += w[k]
        pair = sum(
            Fraction(1, 2) * h_coords[a] * wh[b] * metric[a][b]
            for a in range(n)
            for b in range(n)
        )
        if pair != 0:
            return False
        for side in (pos_idx, neg_idx):
            tr = Fraction(0)
            for j in side:
                for k, i in enumerate(g0):
                    if w[k]:
                        tr += w[k] * table.basis_bracket(i, j).get(j, Fraction(0))
            if tr != 0:
                return False
    return True


def _units(elt):
    (i, j), partner, c = elt
    units = [(i, j, Fraction(1))]
    if partner is not None:
        units.append((partner[0], partner[1], c))
    return units


def _ad_f(f, elt) -> dict:
    """[f, B] for a symmetrized unit B, scanning every row and column of the
    dense f."""
    out: dict = {}
    n = len(f)
    for a, b, coeff in _units(elt):
        for r in range(n):
            if f[r][a]:
                out[(r, b)] = out.get((r, b), 0) + coeff * f[r][a]
        for s in range(n):
            if f[b][s]:
                out[(a, s)] = out.get((a, s), 0) - coeff * f[b][s]
    return {k: v for k, v in out.items() if v}


def self_contragredient_classical(real) -> bool:
    basis = classical_basis(real)
    g0 = [elt for elt in basis if real.h_diag[elt[0][0]] == real.h_diag[elt[0][1]]]
    gm1 = [elt for elt in basis if real.h_diag[elt[0][0]] - real.h_diag[elt[0][1]] == -2]
    reps = {elt[0]: r for r, elt in enumerate(gm1)}
    m = linalg_oracle.zeros(len(gm1), len(g0))
    f = dense(real, real.f)
    for col, elt in enumerate(g0):
        for pos, val in _ad_f(f, elt).items():
            r = reps.get(pos)
            if r is not None:
                m[r][col] = val
    kernel = linalg_oracle.nullspace(m, len(g0))

    pos_elts = [elt for elt in basis if real.h_diag[elt[0][0]] > real.h_diag[elt[0][1]]]
    neg_elts = [elt for elt in basis if real.h_diag[elt[0][0]] < real.h_diag[elt[0][1]]]

    for w in kernel:
        wm: dict = {}
        for k, elt in enumerate(g0):
            if w[k]:
                for a, b, coeff in _units(elt):
                    wm[(a, b)] = wm.get((a, b), 0) + w[k] * coeff
        # tr(h W): h is diagonal
        if sum(real.h_diag[i] * val for (i, j), val in wm.items() if i == j) != 0:
            return False
        for side in (pos_elts, neg_elts):
            tr = Fraction(0)
            for elt in side:
                (i, j), _, _ = elt
                # coefficient of elt in [W, elt] is [W, B][i][j]
                for a, b, coeff in _units(elt):
                    if b == j:
                        tr += coeff * wm.get((i, a), 0)
                    if a == i:
                        tr -= coeff * wm.get((b, j), 0)
            if tr != 0:
                return False
    return True


def pairing_row(table, grading):
    """<h/2, w> as a row over the g_0 basis, from the coroot coordinates of h
    and the form <h_i, h_j> = a_ij / d_i dual to the integer form of rs; the
    rank checks that read it need it only up to scale."""
    rs = table.rs
    h_coords = cartan_solve(rs, grading.characteristic)
    row = []
    for i in grading.block(0):
        b = table.basis[i]
        row.append(
            sum(
                h_coords[a] * Fraction(rs.cartan_matrix[a][b.key]) / rs.half_norms[a] / 2
                for a in range(rs.rank)
            )
            if b.kind == "h"
            else Fraction(0)
        )
    return row


def pairing_row_classical(real):
    """tr(h w) as a row over the g_0 basis of the matrix realization."""
    hd = real.h_diag
    return [
        sum((c * hd[a] for a, b, c in _units(elt) if a == b), Fraction(0))
        for elt in classical_basis(real)
        if hd[elt[0][0]] == hd[elt[0][1]]
    ]


def trace_rows(table, grading):
    """(g_0 basis indices, [trace of ad(w) on g_>0, on g_<0] as rows over g_0),
    read off the basis brackets one diagonal coefficient at a time."""
    g0 = grading.block(0)
    rows = []
    for sign in (1, -1):
        side = [j for j, deg in enumerate(degrees(grading)) if sign * deg > 0]
        rows.append(
            [sum(table.basis_bracket(i, j).get(j, Fraction(0)) for j in side) for i in g0]
        )
    return list(g0), rows


def trace_rows_classical(real):
    """`trace_rows` on the matrix side: the coefficient of B in [W, B] is the
    entry of W B - B W at B's representative, from the matrix entries of W
    and B as {(row, column): value}."""
    basis = classical_basis(real)
    hd = real.h_diag
    entries = [{(a, b): c for a, b, c in _units(elt)} for elt in basis]
    g0 = [k for k, elt in enumerate(basis) if hd[elt[0][0]] == hd[elt[0][1]]]
    rows = []
    for sign in (1, -1):
        side = [k for k, elt in enumerate(basis) if sign * (hd[elt[0][0]] - hd[elt[0][1]]) > 0]
        row = []
        for w in g0:
            tr = Fraction(0)
            for k in side:
                (i, j), _, _ = basis[k]
                bm = entries[k]
                for (a, b), c in entries[w].items():
                    if a == i:
                        tr += c * bm.get((b, j), 0)
                    if b == j:
                        tr -= bm.get((i, a), 0) * c
            row.append(tr)
        rows.append(row)
    return g0, rows
