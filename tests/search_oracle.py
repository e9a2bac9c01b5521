"""The reference for `ratcheck.search_v`: every candidate v built, reduced
and sorted first, then tested in that order.

It is the search loop as it stood before `search_v` tested each (den, k)
before reducing it, kept so that the two orders can be compared: both must
return the same v, or both None.  The slot table and the primitive
basis of h^f come from `ratcheck` itself; only the enumeration differs.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from wrat import grading as gr
from wrat.ratcheck import _chevalley_operator, _hf_basis
from wrat.rootsys import CartanElement
from wrat.slots import _group, _kernel_slots


def search_v(table, grading, f, denominator_bound, coefficient_bound, triple):
    rank = table.rs.rank
    if gr.is_even_grading(grading):
        return CartanElement.zero(rank)
    basis = _hf_basis(table, f)
    if not basis:
        return None
    op = _chevalley_operator(table, grading, f, triple)
    checks = []
    for d, mu, _ in _kernel_slots(op, _group(op, basis)[0]):
        t = 1 - Fraction(d, op.degree_den)
        checks.append((mu, t.numerator, t.denominator))
    candidates = {}
    for den in range(1, denominator_bound + 1):
        for ks in product(range(-coefficient_bound, coefficient_bound + 1), repeat=len(basis)):
            if not any(ks):
                continue
            ints = [sum(k * b[i] for k, b in zip(ks, basis)) for i in range(rank)]
            g = gcd(den, *ints)
            candidates.setdefault((den // g, tuple(x // g for x in ints)), (den, ks))
    for key in sorted(candidates):
        den, ks = candidates[key]
        for mu, p, q in checks:
            n = sum(k * m for k, m in zip(ks, mu)) * q + den * p
            if n < 0 or n % (den * q):
                break
        else:
            lcd, ints = key
            return CartanElement(tuple(Fraction(x, lcd) for x in ints))
    return None
