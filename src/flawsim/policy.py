"""Tamper policy: which payload runs and with what parameters."""

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
    """Payload selection.

    Reduction scales every extrusion value by (1 - reduction_fraction) and
    ignores the window fields.  Relocation converts every n-th eligible
    move inside the progress window [window_lo, window_hi) to a travel
    move.  The streaming implementation stores its one policy parameter in
    a single byte, so reduction fractions there must be whole percents.
    """

    mode: Mode = Mode.OFF
    reduction_fraction: Fraction = Fraction(0)
    relocation_n: int = 2
    window_lo: int = 25
    window_hi: int = 75

    def __post_init__(self):
        if not 0 <= self.reduction_fraction <= 1:
            raise ValueError("reduction_fraction must be in [0, 1]")
        if self.mode is Mode.RELOCATION and self.relocation_n not in (2, 3, 4):
            raise ValueError("relocation_n must be 2, 3 or 4")
        if not 0 <= self.window_lo < self.window_hi <= 100:
            raise ValueError("window must satisfy 0 <= lo < hi <= 100")

    @classmethod
    def off(cls) -> "TamperPolicy":
        return cls(Mode.OFF)

    @classmethod
    def reduction(cls, fraction) -> "TamperPolicy":
        return cls(Mode.REDUCTION, reduction_fraction=Fraction(fraction).limit_denominator(10**6))

    @classmethod
    def relocation(cls, n: int, window_lo: int = window_lo, window_hi: int = window_hi) -> "TamperPolicy":
        return cls(Mode.RELOCATION, relocation_n=n, window_lo=window_lo, window_hi=window_hi)

    def reduction_percent(self) -> int:
        """Whole-percent form used by the one-byte streaming parameter."""
        percent = self.reduction_fraction * 100
        if percent.denominator != 1:
            raise ValueError(
                f"streaming path needs a whole-percent reduction, got {self.reduction_fraction}"
            )
        return int(percent)

    def param_byte(self) -> int:
        if self.mode is Mode.REDUCTION:
            return self.reduction_percent()
        if self.mode is Mode.RELOCATION:
            return self.relocation_n
        return 0
