"""Signed fixed-point values at scale 10^4.

This is the arithmetic both tampering paths share: the in-stream state
machine accumulates digits to the same raw value raw_from_digits()
computes, so a value that round-trips here round-trips there.  Rounding
is half away from zero everywhere (deterministic and sign-symmetric).

raw_from_digits() honours at most five fractional digits: the fifth digit
decides the final rounding and anything after it is ignored.  For finite
decimal inputs that is exactly half-away-from-zero at four decimals.
Digits are ASCII 0-9 only, as in the firmware's NUMERIC().
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FlawsimError

SCALE = 10_000
MAX_RAW = 2**31 - 1  # accumulator must fit 4 signed bytes
_MAX_INT_DIGITS = len(str(MAX_RAW // SCALE))

# Sign, integer digits, fraction digits: at least one ASCII digit, at most
# one point.  Python's \d would also take every Unicode decimal digit.
VALUE_PATTERN = r"([-+]?)(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?"
_FRAC_PAD = ("0000", "000", "00", "0", "")  # by number of fraction digits


class FixedPointOverflow(FlawsimError):
    pass


def div_round_half_away(numerator: int, denominator: int) -> int:
    """Round numerator/denominator to the nearest int, halves away from 0."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    # floor((|n| + d/2) / d), with the magnitude's sign
    if numerator < 0:
        return -((denominator - 2 * numerator) // (2 * denominator))
    return (2 * numerator + denominator) // (2 * denominator)


def raw_from_digits(sign: str, int_digits: str, frac_digits: str) -> int:
    """Raw value of a literal already split by VALUE_PATTERN (an absent
    group given as "").

    The fifth fraction digit rounds half away from zero; later digits are
    ignored.  Raises FixedPointOverflow past MAX_RAW.
    """
    if len(int_digits) > _MAX_INT_DIGITS:
        # leading zeros are legal; anything longer cannot fit (and int()
        # refuses strings past sys.get_int_max_str_digits())
        int_digits = int_digits.lstrip("0")
        if len(int_digits) > _MAX_INT_DIGITS:
            raise FixedPointOverflow("value exceeds the 32-bit budget")
    n_frac = len(frac_digits)
    if n_frac < 5:
        raw = int(int_digits + frac_digits + _FRAC_PAD[n_frac])
    else:
        raw = int(int_digits + frac_digits[:4])
        if frac_digits[4] >= "5":
            raw += 1
    if raw > MAX_RAW:
        raise FixedPointOverflow("value exceeds the 32-bit budget")
    return -raw if sign == "-" else raw


@dataclass(frozen=True)
class FixedPoint:
    """An audit total: the raw value, held to the 32-bit budget."""

    raw: int  # value * 10^4

    def __post_init__(self):
        if abs(self.raw) > MAX_RAW:
            raise FixedPointOverflow(f"raw magnitude {self.raw} exceeds 32-bit budget")

    def to_text(self) -> str:
        """Minimal-digit rendering: trailing zeros trimmed, <=4 decimals."""
        return format_raw(self.raw)


def format_raw(raw: int) -> str:
    digits = str(abs(raw)).zfill(5)  # four decimals after at least one integer digit
    sign = "-" if raw < 0 else ""
    frac = digits[-4:].rstrip("0")
    if not frac:
        return f"{sign}{digits[:-4]}"
    return f"{sign}{digits[:-4]}.{frac}"
