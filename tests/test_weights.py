import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowmon.errors import ParseError, ValidationError, WeightOverflowError
from flowmon.weights import MAX_MICROS, SCALE, Weight

# the reference grammar: \d is Unicode category Nd, as str.isdecimal
_DECIMAL = re.compile(r"(\d+)(?:\.(\d{1,6}))?")


def test_parse_basics():
    assert Weight.parse("3").micros == 3_000_000
    assert Weight.parse("1.01").micros == 1_010_000
    assert Weight.parse("0.000001").micros == 1
    assert Weight.parse("0").micros == 0


@pytest.mark.parametrize("bad", ["", "-1", "1.", ".5", "1.0000001", "1e3", "abc", "1,5", "1\n", "1.5\n"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        Weight.parse(bad)


@given(st.text(alphabet="0123456789.\u0663x-\n ", max_size=12))
def test_parse_agrees_with_the_decimal_pattern(text):
    m = _DECIMAL.fullmatch(text)
    if m is None:
        with pytest.raises(ParseError):
            Weight.parse(text)
    else:
        frac = m.group(2) or ""
        assert Weight.parse(text).micros == int(m.group(1)) * SCALE + int(frac.ljust(6, "0"))


@given(st.integers(0, 10**13))
def test_format_parse_round_trip(micros):
    w = Weight(micros)
    assert Weight.parse(str(w)) == w


def test_exact_decimal_arithmetic():
    # the canonical float trap: 0.1 + 0.2 == 0.3 holds in fixed point
    assert Weight.parse("0.1") + Weight.parse("0.2") == Weight.parse("0.3")
    assert 5 * Weight.parse("1.01") == Weight.parse("5.05")
    assert Weight.parse("1.5") + Weight.parse("0.01") == Weight.parse("1.51")


def test_ordering():
    assert Weight.parse("1.01") > Weight.from_units(1)
    assert Weight.parse("2") > Weight.parse("1.999999")


def test_negative_rejected():
    with pytest.raises(ValidationError):
        Weight(-1)
    with pytest.raises(ValidationError):
        Weight.from_units(1) - Weight.from_units(2)


def test_overflow_reported():
    with pytest.raises(WeightOverflowError):
        Weight(MAX_MICROS + 1)
    with pytest.raises(WeightOverflowError):
        Weight(MAX_MICROS) + Weight(1)


def test_parse_whole_parts_past_the_int_digit_limit():
    # int() refuses a string of over 4,300 digits: leading zeros of any
    # script are dropped, and any longer whole part overflows
    assert Weight.parse("0" * 5000 + "1.5") == Weight.parse("1.5")
    assert Weight.parse("٠" * 5000 + "2") == Weight.from_units(2)
    assert Weight.parse("0" * 5000 + str(MAX_MICROS // SCALE) + ".775807").micros == MAX_MICROS
    for text in ("1" * 5000, "1" + "0" * 5000, "1" + "0" * 13, "0" * 5000 + "9" * 14 + ".5"):
        with pytest.raises(WeightOverflowError):
            Weight.parse(text)
