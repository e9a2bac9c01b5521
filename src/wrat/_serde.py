"""Rational-number JSON conventions shared by the data files and the CLI.

Integers are stored as JSON numbers; every other rational is the string
"num/den" in lowest terms (e.g. "-3/2").  Floats are rejected on input and
on output so that exactness is never silently lost, and so is a zero
denominator on input, as a ValueError like every other malformed value.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


def rat_to_json(x: int | Fraction) -> int | str:
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"expected an int or a Fraction, got {x!r}")
    return ratio_to_json(x.numerator, x.denominator)


def ratio_to_json(num: int, den: int) -> int | str:
    """num / den, for den > 0, in lowest terms as `rat_to_json` writes it."""
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return num if den == 1 else f"{num}/{den}"


def rat_from_json(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise ValueError(f"expected an int or 'num/den' string, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r} (ZeroDivisionError)") from None
    raise ValueError(f"expected an int or 'num/den' string, got {v!r}")
