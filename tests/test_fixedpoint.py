import random
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest

from flawsim.fixedpoint import (
    MAX_RAW,
    FixedPoint,
    FixedPointOverflow,
    FixedPointSyntax,
    div_round_half_away,
    format_raw,
)


def oracle_parse(text: str) -> int:
    """Full-precision oracle: exact decimal, half away from zero at 1e-4."""
    d = Decimal(text) * 10_000
    return int(d.quantize(Decimal(1), rounding=ROUND_HALF_UP) if d >= 0 else
               -(-d).quantize(Decimal(1), rounding=ROUND_HALF_UP))


def test_parse_basics():
    assert FixedPoint.parse("2").raw == 20_000
    assert FixedPoint.parse("4.1234").raw == 41_234
    assert FixedPoint.parse("-1.5").raw == -15_000
    assert FixedPoint.parse("+0.25").raw == 2_500
    assert FixedPoint.parse(".5").raw == 5_000
    assert FixedPoint.parse("5.").raw == 50_000


def test_parse_rounds_fifth_fraction_digit_half_away():
    assert FixedPoint.parse("0.41235").raw == 4_124  # 4123.5 rounds away
    assert FixedPoint.parse("0.41234").raw == 4_123
    assert FixedPoint.parse("-0.00005").raw == -1
    assert FixedPoint.parse("1.0000049").raw == 10_000  # digits past the fifth ignored


def test_parse_matches_decimal_oracle():
    rng = random.Random(11)
    for _ in range(500):
        units = rng.randrange(0, 10_000)
        frac_digits = rng.randrange(0, 6)
        frac = "".join(str(rng.randrange(10)) for _ in range(frac_digits))
        text = f"{units}.{frac}" if frac else str(units)
        if rng.random() < 0.5:
            text = "-" + text
        assert FixedPoint.parse(text).raw == oracle_parse(text), text


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


def test_decoder_matches_decimal_oracle_with_ties_and_edges():
    rng = random.Random(606)
    literals = _EDGE_LITERALS + [random_literal(rng) for _ in range(4000)]
    fraction_lengths = set()
    for text in literals:
        expect = decoder_oracle(text)
        if expect is None:
            with pytest.raises(FixedPointOverflow):
                FixedPoint.parse(text)
        else:
            assert FixedPoint.parse(text).raw == expect, text
        fraction_lengths.add(len(text.partition(".")[2]))
    assert fraction_lengths == set(range(9))


def test_parse_syntax_errors():
    # superscript two, Arabic-Indic three and fullwidth one are digits to
    # isdigit() or \d, not to the firmware's NUMERIC()
    for bad in ("", "  ", "1.2.3", "abc", "--4", "1e3", ".", "\xb2", "\u0663", "1.\u0663", "\uff11"):
        with pytest.raises(FixedPointSyntax):
            FixedPoint.parse(bad)


def test_parse_overflow():
    with pytest.raises(FixedPointOverflow):
        FixedPoint.parse("9999999999")
    with pytest.raises(FixedPointOverflow):
        FixedPoint.parse("9" * 5000)  # past int()'s digit limit: still an overflow
    FixedPoint.parse("214748.3647")  # == MAX_RAW exactly
    assert FixedPoint.parse("0" * 5000 + "1.5").raw == 15_000  # leading zeros fit


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
        assert FixedPoint.parse(format_raw(raw)).raw == raw


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


def test_arithmetic_and_compare():
    a, b = FixedPoint.parse("2.5"), FixedPoint.parse("1.25")
    assert FixedPoint(a.raw - b.raw) == FixedPoint(12_500)
    assert FixedPoint(a.raw + b.raw).to_text() == "3.75"
    assert b < a
    assert float(b) == 1.25
    assert str(FixedPoint(-25_000)) == "-2.5"
    with pytest.raises(FixedPointOverflow):
        FixedPoint(MAX_RAW + 1)
