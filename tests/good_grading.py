"""The goodness test of a grading, kept for the tests that check every
bundled grading is good: no verdict of the package reads it.

A grading is *good* for a nilpotent f of degree -1 when ad(f): g_j -> g_{j-1}
is injective for j >= 1/2 and surjective for j <= 1/2.
"""
from fractions import Fraction

from wrat import _linalg
from wrat.grading import ad_block


def verify_good_grading(grading, f) -> bool:
    """ad(f) injective on degrees >= 1/2 and surjective onto degrees <= -1/2."""
    table, den = grading.table, grading.degree_den
    # degree j = n / den runs over the occupied levels and one above each
    levels = set(grading.degree_nums)
    for n in levels | {n + den for n in levels}:
        src = grading.block(Fraction(n, den))
        dst = grading.block(Fraction(n - den, den))
        r = _linalg.rank(ad_block(table, f, src, dst))
        if 2 * n >= den and r < len(src):
            return False
        if 2 * n <= den and r < len(dst):
            return False
    return True
