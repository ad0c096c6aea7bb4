"""The payload transforms as a step-by-step scan: the oracle that
tamper.transform_reduction and tamper.transform_relocation are checked
against; and the equivalence harness that checks the streaming
interceptor against those transforms.

It states the interceptor's token rule one call at a time.  A line's
code part runs from its head to its first ';' or its end; in it, each
token (' E' in a move, ' P' in a progress report) is found with
str.find, and the value after it is read with VALUE_PATTERN.  A token
with no digit after it ends the line's targets.  Heads are found as in
tamper, one multiline match per move, progress report or switch to
relative extrusion.  A switch to relative extrusion before the window
closes sends relocation dormant: the rest of the document passes through.
"""

import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from flawsim.fixedpoint import VALUE_PATTERN, FixedPointOverflow, div_round_half_away, format_raw, raw_from_digits
from flawsim.policy import TamperPolicy
from flawsim.tamper import apply_policy
from flawsim.uart import F_WINDOW_ACTIVE, F_WINDOW_DONE, UartSimulation, update_window

_VALUE = re.compile(VALUE_PATTERN)
_CODE = re.compile(r"[^;\n]*")  # up to the line's ';' or its end
# a move, whose command digit is group 1; a progress report or a switch to
# relative extrusion, told apart by group 2
_HEAD = re.compile(r"^ *(?:G0*(1) |M0*(73 |83(?![0-9])))", re.M)


def _values(doc: str, start: int, token: str) -> Iterator[re.Match]:
    """The value after each token (' E' or ' P') in the code part of the
    line whose head ends with the space at doc[start], up to the first
    token with no digit."""
    end = _CODE.match(doc, start).end()
    while (start := doc.find(token, start, end)) >= 0:
        value = _VALUE.match(doc, start + 2)
        if value is None:
            return
        yield value
        start = value.end()


def transform_reduction(doc: str, fraction) -> str:
    frac = Fraction(fraction)
    numerator = frac.denominator - frac.numerator
    denominator = frac.denominator
    out = []
    done = 0  # doc[:done] is in out
    for head in _HEAD.finditer(doc):
        if head[1] is None:
            continue
        for value in _values(doc, head.end() - 1, " E"):
            try:
                raw = raw_from_digits(*value.groups(""))
            except FixedPointOverflow:
                return "".join(out) + doc[done:]  # dormant
            scaled = div_round_half_away(raw * numerator, denominator)
            out += (doc[done : value.start()], format_raw(scaled))
            done = value.end()
    return "".join(out) + doc[done:]


def transform_relocation(doc: str, n: int, window_lo: int, window_hi: int) -> str:
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
            for value in _values(doc, start, " E"):
                counter += 1
                if counter < n:
                    continue
                counter = 0
                if done <= slot:  # the line's first conversion
                    out += (doc[done:slot], "0")
                    done = slot + 1
                out.append(doc[done : value.start() - 2])
                done = value.end()
        elif head[2] == "73 ":
            value = next(_values(doc, start, " P"), None)
            if value is not None:
                try:
                    raw = raw_from_digits(*value.groups(""))
                except FixedPointOverflow:
                    break  # dormant
                window = update_window(window, raw, window_lo, window_hi)
        elif not window & F_WINDOW_DONE:
            break  # dormant: relative extrusion
    return "".join(out) + doc[done:]


@dataclass
class EquivalenceReport:
    identical: bool
    divergence_offset: int | None
    sim_output: str
    ref_output: str

    def describe(self) -> str:
        if self.identical:
            return "identical"
        off = self.divergence_offset
        ctx = slice(max(0, off - 20), off + 20)
        return (
            f"first divergence at byte {off}: "
            f"stream {self.sim_output[ctx]!r} != reference {self.ref_output[ctx]!r}"
        )


def run_pipeline_equivalence(
    doc: str, policy: TamperPolicy, rx_buffer_size: int = 128
) -> EquivalenceReport:
    """Stream doc through the interceptor and diff against the transform.

    The consumer drains aggressively (UartSimulation.feed takes every line
    the moment it is complete), the most adversarial schedule for the
    hide/rewrite machinery.  Reports the first diverging byte offset, or
    identity.
    """
    sim = UartSimulation(policy, rx_buffer_size=rx_buffer_size)
    pieces = sim.feed(doc)
    pieces.append(sim.flush_residual())
    sim_output = "".join(pieces)
    ref_output = apply_policy(doc, policy)
    if sim_output == ref_output:
        return EquivalenceReport(True, None, sim_output, ref_output)
    offset = next(
        (i for i, (a, b) in enumerate(zip(sim_output, ref_output)) if a != b),
        min(len(sim_output), len(ref_output)),
    )
    return EquivalenceReport(False, offset, sim_output, ref_output)
