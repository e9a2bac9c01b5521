"""The rational JSON conventions of `_serde`, on output as on input, and
`json_text`, the writer of the CLI's JSON output."""
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrat._serde import json_text, rat_from_json, rat_to_json, ratio_to_json


@pytest.mark.parametrize(
    "x,want",
    [(0, 0), (-3, -3), (Fraction(4, 2), 2), (Fraction(-3, 6), "-1/2"), (Fraction(7, 3), "7/3")],
)
def test_rat_to_json_writes_lowest_terms(x, want):
    assert rat_to_json(x) == want
    assert type(rat_to_json(x)) is type(want)


@pytest.mark.parametrize(
    "x", [0.1, 2.0, True, False, "3/6", "2", None, Decimal("0.5"), 1j, [1]], ids=repr
)
def test_rat_to_json_rejects_anything_but_a_rational(x):
    """A float would print its binary expansion and a string would be
    re-read as a rational; both are rejected as `rat_from_json` rejects
    them on input."""
    with pytest.raises(ValueError):
        rat_to_json(x)


@pytest.mark.parametrize(
    "text,want",
    [("2/4", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("1e-3", Fraction(1, 1000)),
     (" 3/2 ", Fraction(3, 2))],
)
def test_rat_from_json_reads_fraction_strings_exactly(text, want):
    """Input is not held to output's lowest-terms "num/den": any string
    `Fraction` reads is read, exactly, so a stricter reader would be a
    deliberate change."""
    assert rat_from_json(text) == want


@given(st.fractions(max_denominator=10**6))
def test_json_round_trip(x):
    assert rat_from_json(rat_to_json(x)) == x


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
def test_ratio_to_json_is_rat_to_json_of_the_quotient(num, den):
    assert ratio_to_json(num, den) == rat_to_json(Fraction(num, den))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_text_is_the_indented_dumps(obj):
    """Nested dicts, lists, strings (escapes and non-ASCII included), ints,
    bools and None, empty containers among them, print as
    `json.dumps(obj, indent=2)` does."""
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [1.5, Fraction(1, 2), (1, 2), {1: "a"}, [{"a": {2, 3}}], {"a": [b"x"]}],
    ids=repr,
)
def test_json_text_rejects_other_values(obj):
    """A float, a Fraction, a tuple, a set, bytes or a non-string key is
    never written: each is a value the CLI does not mean to print."""
    with pytest.raises(TypeError):
        json_text(obj)
