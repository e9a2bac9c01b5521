"""Rational-number JSON conventions shared by the data files and the CLI.

On output an integer is a JSON number and every other rational the string
"num/den" in lowest terms (e.g. "-3/2").  On input `rat_from_json` reads a
JSON integer or any string that `fractions.Fraction` reads, exactly:
"2/4", "0.5", "1e-3" and " 3/2 " are 1/2, 1/2, 1/1000 and 3/2.  Floats are
rejected on input and on output so that exactness is never silently lost,
and so is a zero denominator on input, as a ValueError like every other
malformed value.

Both JSON readers refuse an object that repeats a key (`unique_keys`).
`json_text` writes the CLI's output: the bytes of `json.dumps(obj,
indent=2)`, whose encoder is the pure-Python one whenever it indents.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

try:  # the C function json.encoder uses, without loading the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote


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


def unique_keys(error: type[Exception]):
    """An `object_pairs_hook` for `json.load` that raises error, naming the
    key, on a JSON object that repeats one, where a dict keeps the last."""

    def hook(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
            raise error(f"repeated key {key!r} in a JSON object")
        return obj

    return hook


def json_text(obj, nl: str = "\n") -> str:
    """`json.dumps(obj, indent=2)` for obj built of dicts with str keys,
    lists, str, int, bool and None; anything else raises TypeError.  nl is
    the newline and indent the enclosing container's items sit at."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if t is list or t is dict:
        if not obj:
            return "[]" if t is list else "{}"
        inner = nl + "  "
        if t is list:
            items, ends = [json_text(x, inner) for x in obj], "[]"
        elif all(type(k) is str for k in obj):
            items, ends = [f"{_quote(k)}: {json_text(x, inner)}" for k, x in obj.items()], "{}"
        else:
            raise TypeError(f"JSON keys here must be str, got {list(obj)!r}")
        return ends[0] + inner + ("," + inner).join(items) + nl + ends[1]
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    raise TypeError(f"cannot write {obj!r} as JSON")
