"""Rational-number JSON conventions shared by the data files and the CLI.

Integers are stored as JSON numbers; every other rational is the string
"num/den" in lowest terms (e.g. "-3/2").  Floats are rejected on input so
that exactness is never silently lost, and so is a zero denominator, as a
ValueError like every other malformed value.
"""
from __future__ import annotations

from fractions import Fraction


def rat_to_json(x: Fraction) -> int | str:
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


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
