import math
import random
import re
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest

from flawsim.fixedpoint import (
    MAX_RAW,
    VALUE_PATTERN,
    FixedPoint,
    FixedPointOverflow,
    div_round_half_away,
    format_raw,
    raw_from_digits,
)

_LITERAL = re.compile(VALUE_PATTERN)


def decode_literal(text: str) -> int:
    """Raw value of a whole decimal literal: raw_from_digits over a
    VALUE_PATTERN fullmatch, the decode gcode and tamper run per value."""
    m = _LITERAL.fullmatch(text)
    assert m is not None, f"not a decimal literal: {text!r}"
    return raw_from_digits(*m.groups(""))


def test_parse_basics():
    assert decode_literal("2") == 20_000
    assert decode_literal("4.1234") == 41_234
    assert decode_literal("-1.5") == -15_000
    assert decode_literal("+0.25") == 2_500
    assert decode_literal(".5") == 5_000
    assert decode_literal("5.") == 50_000


def test_parse_rounds_fifth_fraction_digit_half_away():
    assert decode_literal("0.41235") == 4_124  # 4123.5 rounds away
    assert decode_literal("0.41234") == 4_123
    assert decode_literal("-0.00005") == -1
    assert decode_literal("1.0000049") == 10_000  # digits past the fifth ignored


def decoder_oracle(text: str) -> int | None:
    """Raw value per the documented rule, by Decimal: fraction digits past
    the fifth dropped, then half away from zero at 1e-4 (Decimal's
    ROUND_HALF_UP rounds ties away from zero).  None past MAX_RAW."""
    d = Decimal(text).quantize(Decimal("1e-5"), rounding=ROUND_DOWN)
    raw = int(d.quantize(Decimal("1e-4"), rounding=ROUND_HALF_UP).scaleb(4))
    return None if abs(raw) > MAX_RAW else raw


_EDGE_LITERALS = [
    "214748.3647", "-214748.3647", "+214748.3647", "214748.36474", "-214748.36474",
    "214748.36475", "-214748.36475", "214748.3648", "214749", "0000214748.3647",
    ".5", "5.", "-.5", "+5.", "0", "-0", "+0", ".00005", "-.00005", "0.00004999",
]


def random_literal(rng) -> str:
    sign = rng.choice(("", "", "-", "+"))
    if rng.random() < 0.1:
        int_part = ""  # bare fraction: ".5"
    else:
        int_part = str(rng.randrange(10 ** rng.randrange(1, 7)))
        if rng.random() < 0.2:
            int_part = "0" * rng.randrange(1, 6) + int_part  # leading zeros
    n_frac = rng.randrange(0, 9)
    frac = "".join(str(rng.randrange(10)) for _ in range(n_frac))
    if n_frac >= 5 and rng.random() < 0.4:
        frac = frac[:4] + "5" + "0" * (n_frac - 5)  # an exact tie on the fifth digit
    if not frac:
        if not int_part:
            int_part = str(rng.randrange(10))
        return sign + int_part + ("." if rng.random() < 0.3 else "")  # "5."
    return sign + int_part + "." + frac


def plain_literal(rng) -> str:
    """Up to four integer digits and five fraction digits, half negative."""
    units = rng.randrange(0, 10_000)
    frac_digits = rng.randrange(0, 6)
    frac = "".join(str(rng.randrange(10)) for _ in range(frac_digits))
    text = f"{units}.{frac}" if frac else str(units)
    if rng.random() < 0.5:
        text = "-" + text
    return text


def test_decoder_matches_decimal_oracle_with_ties_and_edges():
    rng = random.Random(606)
    plain = random.Random(11)
    literals = (_EDGE_LITERALS + [random_literal(rng) for _ in range(4000)]
                + [plain_literal(plain) for _ in range(500)])
    fraction_lengths = set()
    for text in literals:
        expect = decoder_oracle(text)
        if expect is None:
            with pytest.raises(FixedPointOverflow):
                decode_literal(text)
        else:
            assert decode_literal(text) == expect, text
        fraction_lengths.add(len(text.partition(".")[2]))
    assert fraction_lengths == set(range(9))


def test_parse_syntax_errors():
    # superscript two, Arabic-Indic three and fullwidth one are digits to
    # isdigit() or \d, not to the firmware's NUMERIC(): gcode and tamper
    # read values through VALUE_PATTERN, so it must refuse them
    for bad in ("", "  ", "1.2.3", "abc", "--4", "1e3", ".", "\xb2", "\u0663", "1.\u0663", "\uff11"):
        assert _LITERAL.fullmatch(bad) is None, bad


def test_parse_overflow():
    with pytest.raises(FixedPointOverflow):
        decode_literal("9999999999")
    with pytest.raises(FixedPointOverflow):
        decode_literal("9" * 5000)  # past int()'s digit limit: still an overflow
    assert decode_literal("214748.3647") == MAX_RAW
    assert decode_literal("0" * 5000 + "1.5") == 15_000  # leading zeros fit


def test_format_trims_trailing_zeros():
    assert FixedPoint(20_000).to_text() == "2"
    assert FixedPoint(37_111).to_text() == "3.7111"
    assert FixedPoint(41_000).to_text() == "4.1"
    assert FixedPoint(500).to_text() == "0.05"
    assert FixedPoint(-7_500).to_text() == "-0.75"
    assert FixedPoint(0).to_text() == "0"


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        raw = rng.randrange(-MAX_RAW, MAX_RAW)
        assert decode_literal(format_raw(raw)) == raw


def test_scale_by_half_away_from_zero():
    # 4.1234 * 0.9 = 3.71106 -> 3.7111
    # (the scaling transform_reduction applies to a raw value)
    assert div_round_half_away(41_234 * 9, 10) == 37_111
    assert div_round_half_away(-41_234 * 9, 10) == -37_111  # sign-symmetric
    assert div_round_half_away(40_000 * 1, 2) == 20_000
    # exact tie: 0.0001 * 0.5 = 0.00005 -> away from zero
    assert div_round_half_away(1 * 1, 2) == 1
    assert div_round_half_away(-1 * 1, 2) == -1


def test_scale_matches_fraction_oracle():
    rng = random.Random(3)
    for _ in range(500):
        raw = rng.randrange(-200_000, 200_000)
        num = rng.randrange(0, 101)
        exact = Fraction(raw) * num / 100
        expect = int(exact) + (
            (1 if exact > 0 else -1) if abs(exact - int(exact)) >= Fraction(1, 2) else 0
        )
        assert div_round_half_away(raw * num, 100) == expect


def test_div_round_half_away():
    assert div_round_half_away(5, 10) == 1
    assert div_round_half_away(-5, 10) == -1
    assert div_round_half_away(4, 10) == 0
    assert div_round_half_away(-4, 10) == 0
    assert div_round_half_away(15, 10) == 2


def oracle_div_round_half_away(numerator, denominator):
    exact = Fraction(numerator, denominator)
    magnitude = math.floor(abs(exact) + Fraction(1, 2))
    return -magnitude if exact < 0 else magnitude


def oracle_format_raw(raw):
    """The minimal-digit decimal text of raw / 10^4, from the exact value."""
    exact = Fraction(raw, 10_000)
    units = math.floor(abs(exact))
    frac = f"{int((abs(exact) - units) * 10_000):04d}".rstrip("0")
    return ("-" if raw < 0 else "") + str(units) + (f".{frac}" if frac else "")


EDGE_RAWS = [0] + [sign * raw for raw in (1, 9_999, 10_000, 10_001, MAX_RAW) for sign in (1, -1)]


def test_fixed_point_text_matches_a_fraction_oracle():
    rng = random.Random(37)
    raws = EDGE_RAWS + [rng.randrange(-MAX_RAW, MAX_RAW + 1) for _ in range(20_000)]
    raws += [rng.randrange(-10**rng.randrange(1, 10), 10**rng.randrange(1, 10)) for _ in range(20_000)]
    for raw in raws:
        assert format_raw(raw) == oracle_format_raw(raw), raw
        assert Fraction(format_raw(raw)) == Fraction(raw, 10_000), raw
    for numerator in EDGE_RAWS + [rng.randrange(-MAX_RAW * 100, MAX_RAW * 100) for _ in range(20_000)]:
        for denominator in (1, 2, 3, 10, 100, rng.randrange(1, 10**6)):
            got = div_round_half_away(numerator, denominator)
            assert got == oracle_div_round_half_away(numerator, denominator), (numerator, denominator)
    # exact ties round away from zero on both sides
    for numerator in (1, 3, 5, 99, MAX_RAW):
        assert div_round_half_away(numerator, 2) == (numerator + 1) // 2
        assert div_round_half_away(-numerator, 2) == -((numerator + 1) // 2)
    for denominator in (0, -1, -100):
        with pytest.raises(ValueError):
            div_round_half_away(1, denominator)


def test_arithmetic_and_compare():
    a, b = FixedPoint(decode_literal("2.5")), FixedPoint(decode_literal("1.25"))
    assert FixedPoint(a.raw - b.raw) == FixedPoint(12_500)
    assert FixedPoint(a.raw + b.raw).to_text() == "3.75"
    assert b.raw < a.raw
    assert b.raw == 12_500
    assert FixedPoint(-25_000).to_text() == "-2.5"
    with pytest.raises(FixedPointOverflow):
        FixedPoint(MAX_RAW + 1)
