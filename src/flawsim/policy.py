"""Tamper policy: which payload runs and with what parameter."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class Mode(Enum):
    OFF = "off"
    REDUCTION = "reduction"
    RELOCATION = "relocation"


@dataclass(frozen=True)
class TamperPolicy:
    """Payload selection, as a Trojan build carries it.

    ``param`` is the one byte the interceptor stores: under reduction a
    whole percent in [0, 100], by which every extrusion value shrinks;
    under relocation n in 2-4, converting every n-th eligible move inside
    the progress window [window_lo, window_hi) to a travel move.
    Reduction ignores the window fields.  Both the stream and the
    whole-file transforms build their policy here, so they accept and
    refuse the same values.
    """

    mode: Mode = Mode.OFF
    param: int = 0
    window_lo: int = 25
    window_hi: int = 75

    def __post_init__(self):
        if type(self.param) is not int:
            raise ValueError(f"the payload parameter must be an integer, got {self.param!r}")
        if self.mode is Mode.REDUCTION and not 0 <= self.param <= 100:
            raise ValueError(f"reduction must be a whole percent in [0, 100], got {self.param}%")
        if self.mode is Mode.RELOCATION and self.param not in (2, 3, 4):
            raise ValueError(f"relocation n must be 2, 3 or 4, got {self.param}")
        if not 0 <= self.window_lo < self.window_hi <= 100:
            raise ValueError("window must satisfy 0 <= lo < hi <= 100")

    @classmethod
    def off(cls) -> "TamperPolicy":
        return cls(Mode.OFF)

    @classmethod
    def reduction(cls, fraction) -> "TamperPolicy":
        """Reduction by a Fraction, an int, a float or a decimal or
        fraction string ("0.3", "3/10"); a float reads as its shortest
        decimal.  ValueError unless it is a whole percent."""
        text = str(fraction)
        exponent = text.lower().partition("e")[2]
        try:  # no whole percent needs an exponent past len(text); Fraction never expands one
            percent = Fraction(text) * 100 if abs(int(exponent or 0)) <= len(text) else None
        except (ValueError, ZeroDivisionError):
            percent = None
        if percent is None or percent.denominator != 1:
            raise ValueError(f"reduction must be a whole percent in [0, 100], got {fraction}")
        return cls(Mode.REDUCTION, int(percent))

    @classmethod
    def relocation(cls, n: int, window_lo: int = window_lo, window_hi: int = window_hi) -> "TamperPolicy":
        return cls(Mode.RELOCATION, n, window_lo, window_hi)

    def param_byte(self) -> int:
        return self.param
