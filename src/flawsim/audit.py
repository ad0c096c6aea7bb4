"""G-code forensics: deposition accounting and tamper-signature detection.

Total deposited material (the sum of positive extrusion deltas, in mm of
filament) is the desk-scale stand-in for weighing a printed part.  The
relocation detector looks for the attack's hydraulic signature: a travel
move that deposits nothing, immediately followed by an extruding move
whose flow (filament per mm of travel) is far above the document median,
because the absolute extrusion axis makes the next move catch up.

A report holds its segments column-wise in a read-only ``Segments``
sequence, about 68 bytes per move: the command number (0 or 1) in a
bytearray, the start and end x, y and z in one ``array('d')`` (six
values per move), the travel in an ``array('d')`` and the extrusion
delta in an ``array('q')``.  Indexing or iterating builds a fresh
``SegmentRecord`` per access, so mutating a row changes nothing in the
report.

account makes one multiline scan over the document that stops only at
the heads it acts on: G0, G1, G92, M82 and M83, with any leading zeros.
Comments, M73 and every other command are passed over inside the regex
engine, so they cost nothing in Python.  The scan reads a visited line's
parameter region by the grammar of gcode.parse_line, in two runs.  The
plain run holds plain tokens only, whose values have at most five
integer digits and at most four decimals (every number format_raw writes
below 100,000): first any whose letter account never reads, then X, Y, Z
and E, each at most once and in that order and each value in a group of
its own, then more of the unread letters.  That is the shape slicers
write, with F before or after the coordinates.  The rest of the tokens
follow it: letters out of that order or repeated, and values outside the
plain subset.  Each letter takes its first value in the line; the plain
run comes first, so a letter found there is never looked for in the
rest.  A visited line the grammar refuses is a ParseError.

X, Y and Z are read as the double nearest raw / SCALE, E as raw itself.
A plain value is float(v) + 0.0: with at most four decimals the decimal
is exactly raw / SCALE, float() rounds it correctly, it cannot overflow
the 32-bit budget, and the + 0.0 turns the -0.0 of "-0" into 0.0.  A
plain E is round(float(v) * SCALE): for any raw in the budget the
product is within 2^-21 of raw, far from the 0.5 that round() would need
to go wrong.  Any other value is decoded by raw_from_digits(...), so
fifth-decimal rounding and the budget are decided as in parse_line; an
overflow is a ParseError.  A mode switch's values are decoded before the
switch takes effect, so one that overflows is a ParseError too.  Lines
are counted only to name the line of a ParseError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import statistics
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

from .errors import FlawsimError, ParseError
from .fixedpoint import MAX_RAW, SCALE, FixedPoint, FixedPointOverflow, format_raw, raw_from_digits
from .gcode import _PARAM_RE, _VALUE

RELOCATION_SIGNATURE = "RelocationSignature"
FLOW_OUTLIER = "FlowOutlier"

DEFAULT_FLOW_THRESHOLD = 1.8  # x median; below the 2x of 1-in-2 relocation
FILAMENT_DIAMETER_MM = 2.85
DENSITY_G_CM3 = 1.24  # PLA


_QUOTED_CHARS = 60  # of a line's body, in a ParseError message

# A plain value: at most five integer digits and four decimals, ending
# where the grammar lets a value end (whitespace, ';' or the line's end).
_PLAIN_VALUE = r"[-+]?(?=\.?[0-9])[0-9]{0,5}(?:\.[0-9]{0,4})?(?![^\s;])"
# A plain token whose letter account never reads (not E, X, Y or Z).
_UNREAD = r"(?: +[A-DF-W]" + _PLAIN_VALUE + ")"
# Searched in "\n" + doc: an LF (so the search jumps from line start to
# line start), an accounted head (its G or M number), then the parameter
# region as gcode._LINE_RE reads it, split in two.  The plain run (group
# 3) is unread plain tokens, then optional plain X, Y, Z and E tokens in
# that order (their values in groups 4 to 7), then more unread plain
# tokens; the rest of the tokens (group 8) follow it.  The lookahead and
# backreference make the plain run atomic, so a line is matched once, in
# linear time.  A region the grammar refuses leaves group 8 None.  Each
# optional part is spelled (?:...|), an empty alternative, which the
# regex engine tries faster than (?:...)?.
_ACCOUNTED_RE = re.compile(
    r"\n *(?:G0*([01]|92)|M0*(8[23]))(?![0-9])"
    r"(?:(?=(" + _UNREAD + "*"
    + "".join(f"(?: +{letter}({_PLAIN_VALUE})|)" for letter in "XYZE")
    + _UNREAD + r"*))\3((?: +[A-Z]" + _VALUE + r")*)[^\S\n]*(?:;|$)|)",
    re.M,
)
_NO_REST: dict[str, int] = {}  # the first values of a line with no rest run


class InsufficientData(FlawsimError):
    """An analysis has too little to run on: fewer than 8 extruding
    segments, no positive median flow, or a reference that deposits
    nothing."""


@dataclass(slots=True)
class SegmentRecord:
    index: int
    kind: str  # G0 / G1
    start: tuple[float, float, float]
    end: tuple[float, float, float]
    travel: float  # mm
    delta_raw: int  # mm of filament * 10^4
    flow: float | None  # filament / travel, None when travel is ~zero

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "start": list(self.start),
            "end": list(self.end),
            "travel": round(self.travel, 6),
            "delta_e": format_raw(self.delta_raw),
            "flow": None if self.flow is None else round(self.flow, 6),
        }


class Segments(Sequence):
    """The moves of one document, one column per field (see the module
    docstring); rows are built on access and never stored."""

    __slots__ = ("commands", "coords", "travels", "deltas")

    def __init__(self, commands: bytearray, coords: array, travels: array, deltas: array):
        self.commands = commands
        self.coords = coords
        self.travels = travels
        self.deltas = deltas

    def __len__(self) -> int:
        return len(self.deltas)

    def __getitem__(self, index: int) -> SegmentRecord:
        n = len(self.deltas)
        i = index + n if index < 0 else index
        if not 0 <= i < n:
            raise IndexError("segment index out of range")
        sx, sy, sz, ex, ey, ez = self.coords[6 * i : 6 * i + 6]
        travel = self.travels[i]
        delta = self.deltas[i]
        return SegmentRecord(
            i,
            _MOVE_KINDS[self.commands[i]],
            (sx, sy, sz),
            (ex, ey, ez),
            travel,
            delta,
            delta / SCALE / travel if travel > _TRAVEL_EPS else None,
        )


@dataclass(frozen=True)
class Anomaly:
    index: int  # segment index the finding anchors to
    kind: str
    ratio: float  # catch-up flow / median flow

    def to_dict(self) -> dict:
        return {"index": self.index, "kind": self.kind, "ratio": round(self.ratio, 4)}


@dataclass
class AuditReport:
    total_extrusion: FixedPoint
    segments: Segments
    anomalies: list[Anomaly] = field(default_factory=list)
    comparison: dict | None = None

    def mass_grams(self) -> float:
        """The length proxy converted to grams of 2.85 mm PLA filament."""
        area_mm2 = math.pi * (FILAMENT_DIAMETER_MM / 2) ** 2
        volume_cm3 = self.total_extrusion.raw / SCALE * area_mm2 / 1000.0
        return volume_cm3 * DENSITY_G_CM3

    def to_dict(self) -> dict:
        return self._fields([s.to_dict() for s in self.segments])

    def _fields(self, segments: list) -> dict:
        out = {
            "total_extrusion_mm": self.total_extrusion.to_text(),
            "mass_grams": round(self.mass_grams(), 4),
            "segments": segments,
            "anomalies": [a.to_dict() for a in self.anomalies],
        }
        if self.comparison is not None:
            out["comparison"] = self.comparison
        return out

    def to_json(self) -> str:
        """The text of json.dumps(self.to_dict(), indent=2), built with at
        most _JSON_BATCH segment dicts alive at a time: the segments array
        is encoded a batch of rows at a time, each batch indented to the
        array's depth in the document."""
        text = json.dumps(self._fields([]), indent=2)
        if not self.segments:
            return text
        head, _, tail = text.partition('"segments": []')
        parts = [head, '"segments": [']
        encoder = json.JSONEncoder(indent=2)  # as json.dumps(batch, indent=2)
        rows = (s.to_dict() for s in self.segments)
        while batch := list(islice(rows, _JSON_BATCH)):
            # "[" + the rows, each on a line of its own + "\n]"
            parts += (encoder.encode(batch)[1:-2].replace("\n", "\n  "), ",")
        parts[-1] = "\n  ]"
        parts.append(tail)
        return "".join(parts)

    def to_csv(self) -> str:
        rows = ["index,kind,start_x,start_y,start_z,end_x,end_y,end_z,travel,delta_e,flow"]
        for s in self.segments:
            flow = "" if s.flow is None else f"{s.flow:.6f}"
            rows.append(
                f"{s.index},{s.kind},"
                f"{s.start[0]:.4f},{s.start[1]:.4f},{s.start[2]:.4f},"
                f"{s.end[0]:.4f},{s.end[1]:.4f},{s.end[2]:.4f},"
                f"{s.travel:.6f},{format_raw(s.delta_raw)},{flow}"
            )
        return "\n".join(rows) + "\n"


_MOVE_KINDS = ("G0", "G1")  # by command number
_JSON_BATCH = 256  # segment rows per to_json encoder call
_TRAVEL_EPS = 1e-9


def _parse_error(doc: str, start: int, problem: str = "cannot parse") -> ParseError:
    """The error for the line of doc that starts at start, as ``line N:
    <problem> <body>``; lines are only counted here, once account has found
    a fault.  A body longer than 60 characters is quoted up to its 60th,
    then an ellipsis and the count of characters left out."""
    end = doc.find("\n", start)
    body = doc[start:] if end < 0 else doc[start:end]
    quoted = repr(body[:_QUOTED_CHARS])
    if len(body) > _QUOTED_CHARS:
        quoted += f"\u2026 ({len(body) - _QUOTED_CHARS} more characters)"
    return ParseError(doc.count("\n", 0, start) + 1, f"{problem} {quoted}")


def account(doc: str) -> AuditReport:
    """Walk a document and record one segment per linear move.

    Extrusion deltas honour absolute/relative mode (M82/M83) and G92
    re-zeroing.  Raises ParseError for a move or mode-switch line that
    does not fit the grammar, or for a move whose extrusion delta or the
    running total of deposited filament leaves the 32-bit budget;
    non-move noise (comments, status commands) is skipped.
    """
    x = y = z = 0.0
    e_logical = 0  # raw, as every extrusion figure below
    relative_e = False
    commands = bytearray()
    coords = array("d")
    travels = array("d")
    deltas = array("q")
    total_raw = 0
    for m in _ACCOUNTED_RE.finditer("\n" + doc):
        g_number, m_number, _, px, py, pz, pe, rest = m.groups()
        first = _NO_REST
        if rest:
            # the tokens after the plain run, which comes first in the
            # line: a letter it lacks takes its first value here
            first = {}
            try:
                for letter, sign, int_digits, frac_digits in _PARAM_RE.findall(rest):
                    first.setdefault(letter, raw_from_digits(sign, int_digits, frac_digits))
            except FixedPointOverflow:
                raise _parse_error(doc, m.start()) from None
        elif rest is None:
            raise _parse_error(doc, m.start())
        if m_number:  # only once its values are read: one that overflows is refused
            relative_e = m_number == "83"
            continue
        sx, sy, sz = x, y, z
        if px is not None:
            x = float(px) + 0.0
        elif "X" in first:
            x = first["X"] / SCALE
        if py is not None:
            y = float(py) + 0.0
        elif "Y" in first:
            y = first["Y"] / SCALE
        if pz is not None:
            z = float(pz) + 0.0
        elif "Z" in first:
            z = first["Z"] / SCALE
        pe = first.get("E") if pe is None else round(float(pe) * SCALE)
        if g_number == "92":
            if pe is not None:
                e_logical = pe
            continue
        # the same value as math.dist((sx, sy, sz), (x, y, z)), with no tuples
        travel = math.hypot(sx - x, sy - y, sz - z)
        if pe is None:
            delta = 0
        elif relative_e:
            delta = pe
        else:
            delta = pe - e_logical
            e_logical = pe
            # both ends fit the budget, their difference need not
            if not -MAX_RAW <= delta <= MAX_RAW:
                raise _parse_error(
                    doc, m.start(), f"extrusion delta {format_raw(delta)} exceeds the 32-bit budget in"
                )
        commands.append(g_number == "1")  # G0 is 0, G1 is 1
        coords.extend((sx, sy, sz, x, y, z))
        travels.append(travel)
        deltas.append(delta)
        if delta > 0:
            total_raw += delta
            if total_raw > MAX_RAW:
                raise _parse_error(
                    doc, m.start(), f"deposited total {format_raw(total_raw)} exceeds the 32-bit budget at"
                )
    return AuditReport(FixedPoint(total_raw), Segments(commands, coords, travels, deltas))


def detect_relocation(
    report: AuditReport, threshold: float = DEFAULT_FLOW_THRESHOLD
) -> list[Anomaly]:
    """Flag travel segments whose immediate successor extrudes at
    >= threshold x the median flow (the catch-up signature), plus any
    unexplained flow outliers.  Needs >= 8 extruding segments for the
    median to mean anything; ValueError unless threshold is finite and
    above 0, where every extruding segment would be flagged."""
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be finite and above 0, not {threshold}")
    travels = report.segments.travels
    deltas = report.segments.deltas
    # index -> flow of every extruding segment, by the expression a row uses
    flows = {
        i: delta / SCALE / travel
        for i, (travel, delta) in enumerate(zip(travels, deltas))
        if delta > 0 and travel > _TRAVEL_EPS
    }
    if len(flows) < 8:
        raise InsufficientData(f"{len(flows)} extruding segments; need >= 8")
    median_flow = statistics.median(flows.values())
    if median_flow <= 0:
        raise InsufficientData("median flow is not positive")
    limit = threshold * median_flow
    anomalies: list[Anomaly] = []
    for i, flow in flows.items():
        if flow < limit:
            continue
        # after a barren travel it is the catch-up, anchored to the travel;
        # the indices rise, since a travel's index is never an extruder's
        if i and deltas[i - 1] <= 0 and travels[i - 1] > _TRAVEL_EPS:
            anomalies.append(Anomaly(i - 1, RELOCATION_SIGNATURE, flow / median_flow))
        else:
            anomalies.append(Anomaly(i, FLOW_OUTLIER, flow / median_flow))
    report.anomalies = anomalies
    return anomalies


def compare(reference: AuditReport, suspect: AuditReport) -> float:
    """Reduction percentage of suspect relative to reference (by the
    deposited-length mass proxy); InsufficientData when the reference
    deposits nothing."""
    if reference.total_extrusion.raw == 0:
        raise InsufficientData("reference deposits no material")
    percent = 100.0 * (1.0 - suspect.total_extrusion.raw / reference.total_extrusion.raw)
    suspect.comparison = {
        "reference_total_mm": reference.total_extrusion.to_text(),
        "suspect_total_mm": suspect.total_extrusion.to_text(),
        "reduction_percent": round(percent, 4),
        "normalized_percent": round(100.0 - percent, 4),
    }
    return percent


def normalized_curve_csv(reference: AuditReport, suspects: list[tuple[str, AuditReport]]) -> str:
    """Mass-proxy curve as CSV: one row per suspect, normalized against the
    reference - the axes used to plot reduction sweeps.  A label is quoted
    by CSV rules where it needs to be."""
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(("label", "reduction_percent", "normalized_percent"))
    for label, suspect in suspects:
        percent = compare(reference, suspect)
        rows.writerow((label, f"{percent:.4f}", f"{100.0 - percent:.4f}"))
    return out.getvalue()
