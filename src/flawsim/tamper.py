"""The two print-sabotage payloads as whole-file text transforms, plus the
equivalence harness that checks the streaming interceptor against them.

The transforms are the readable reference semantics; the interceptor in
uart.py implements the same edits one character at a time under its
15-byte state budget.  Both paths share the fixed-point arithmetic in
fixedpoint.py, so on documents written in the canonical dialect their
outputs are byte-identical - which is exactly what
run_pipeline_equivalence asserts.

Material reduction scales every extrusion value of every extruding move
by (1 - fraction), unconditionally.  Material relocation converts every
n-th extruding move inside the progress window to a travel move with the
extrusion dropped; with absolute extrusion values the following move
deposits the difference, so total material is conserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FlawsimError
from .fixedpoint import div_round_half_away, format_raw
from .gcode import drop_param_convert_travel, iter_lines
from .policy import Mode, TamperPolicy
from .uart import F_WINDOW_ACTIVE, F_WINDOW_DONE, UartSimulation, update_window


class RelativeExtrusionDetected(FlawsimError):
    """Relative extrusion mode seen before the window closed; conversions
    would no longer conserve total material, so the transform refuses."""


def transform_reduction(doc: str, fraction) -> str:
    """Scale the extrusion value of every extruding move by (1 - fraction).

    Everything else - other parameters, other lines, comments, whitespace,
    line endings - is reproduced byte-for-byte.  Edited values are written
    in canonical minimal form (trailing zeros trimmed, <= 4 decimals).
    """
    frac = Fraction(fraction)
    if not 0 <= frac <= 1:
        raise ValueError("fraction must be in [0, 1]")
    numerator = frac.denominator - frac.numerator
    denominator = frac.denominator
    out = []
    for line in iter_lines(doc):
        body = line.body
        if line.letter == "G" and line.number == 1:
            # right to left so earlier spans stay valid
            for letter, raw, _, value_start, value_end in reversed(line.params):
                if letter == "E":
                    scaled = format_raw(div_round_half_away(raw * numerator, denominator))
                    body = body[:value_start] + scaled + body[value_end:]
        out.append(body + line.eol)
    return "".join(out)


def transform_relocation(doc: str, n: int, window_lo: int = 25, window_hi: int = 75) -> str:
    """Convert every n-th extruding move inside the window to a travel move.

    Requires absolute extrusion: a relative-extrusion switch before the
    window has closed raises RelativeExtrusionDetected.  The eligible-move
    counter starts at the window and the n-th, 2n-th, ... eligible moves
    are converted; feedrate and coordinates are preserved, only the
    extrusion parameter (and one separating space) is dropped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    window = 0  # F_WINDOW_* flags, as in the interceptor
    counter = 0
    out = []
    for line in iter_lines(doc):
        if line.letter == "M" and line.number == 73:
            p = line.param("P")
            if p is not None:
                window = update_window(window, p[1], window_lo, window_hi)
        elif line.letter == "M" and line.number == 83:
            if not window & F_WINDOW_DONE:
                raise RelativeExtrusionDetected(
                    "relative extrusion before the window closed"
                )
        elif line.letter == "G" and line.number == 1 and window & F_WINDOW_ACTIVE:
            e = line.param("E")
            if e is not None:
                counter += 1
                if counter >= n:
                    counter = 0
                    out.append(drop_param_convert_travel(line, e) + line.eol)
                    continue
        out.append(line.text())
    return "".join(out)


def apply_policy(doc: str, policy: TamperPolicy) -> str:
    """Whole-file reference semantics for a policy."""
    if policy.mode is Mode.REDUCTION:
        return transform_reduction(doc, policy.reduction_fraction)
    if policy.mode is Mode.RELOCATION:
        return transform_relocation(doc, policy.relocation_n, policy.window_lo, policy.window_hi)
    return doc


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
