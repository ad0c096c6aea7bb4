"""G-code forensics: deposition accounting and tamper-signature detection.

Total deposited material (the sum of positive extrusion deltas, in mm of
filament) is the desk-scale stand-in for weighing a printed part.  The
relocation detector looks for the attack's hydraulic signature: a travel
move that deposits nothing, immediately followed by an extruding move
whose flow (filament per mm of travel) is far above the document median,
because the absolute extrusion axis makes the next move catch up.

A report holds its segments column-wise in a read-only ``Segments``
sequence.  account fills two columns: the command number (0 or 1) in a
bytearray and the extrusion delta in an ``array('q')``, 9 bytes per
move, which is all the total, the segment count and compare need.  The
other two are cached properties, decoded from the document by the same
walk again the first time each is read:

- ``travels``, an ``array('d')`` of each move's travel, is what
  detect_relocation reads.  Reading it decodes that column alone; the
  report then holds 17 bytes per move and keeps the document.
- ``coords``, one ``array('d')`` of each move's start and end x, y and
  z, is read only by a row.  Reading it decodes that column, and travels
  too if still missing; the report then holds about 68 bytes per move
  and drops the document.

Indexing or iterating builds a fresh ``SegmentRecord`` per access, so
mutating a row changes nothing in the report.

account walks the document a block of lines at a time: about 32K
characters, cut after the line the 32,768th ends in, so what a walk
holds beyond its result does not grow with the document.  It keys each
line by its shape: the line with ASCII digits 1-9 written as 0 and its
comment (from the first ';') cut, made for the whole block by two C
passes.  The first line of a shape in a block is matched by the grammar
and read from its match.  At the second, that match's spans become
slices, which a dict that lives for the block keeps, and from then on
the shape's lines are read by the slices with no match.  The cache is
exact: no part of the grammar but the command number tells one digit
from another, and the comment never reaches the parameter region.  A
shape with no G or M head is kept as such and its lines skipped; one
whose region the grammar refuses is never kept, so each of its lines is
matched.  Everything that depends on the digits is read from the line
itself: the command number (G0, G1, G92, M82 and M83, with any leading
zeros; any other line is skipped), the plain values, the rest run's
values and the two budget checks below.  A shape met once costs about
what a line cost when every line was matched, plus two dict lookups and
its share of the C passes; a shape met again costs one lookup and the
slices.

The parameter region is read by the grammar of gcode.parse_line, in two
runs.  The plain run holds plain tokens only, whose values have at most
five integer digits and at most four decimals (every number format_raw
writes below 100,000): first any whose letter account never reads, then
X, Y, Z and E, each at most once and in that order, then more of the
unread letters.  That is the shape slicers write, with F before or after
the coordinates.  The rest run, the tokens after it, holds letters out of
that order or repeated, and values outside the plain subset.  Each letter
takes its first value in the line; the plain run comes first, so a letter
found there is never looked for in the rest.  An accounted line the
grammar refuses is a ParseError.

X, Y and Z are read as the double nearest raw / SCALE, E as raw itself.
A plain value is float(v) + 0.0: with at most four decimals the decimal
is exactly raw / SCALE, float() rounds it correctly, it cannot overflow
the 32-bit budget, and the + 0.0 turns the -0.0 of "-0" into 0.0.  A
plain E is round(float(v) * SCALE): for any raw in the budget the
product is within 2^-21 of raw, far from the 0.5 that round() would need
to go wrong.  Any other value is decoded by raw_from_digits(...), line by
line, so fifth-decimal rounding and the budget are decided as in
parse_line; an overflow is a ParseError.  A mode switch's values are
decoded before the switch takes effect, so one that overflows is a
ParseError too.
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
from functools import cached_property
from itertools import islice, starmap

from .errors import FlawsimError, ParseError
from .fixedpoint import MAX_RAW, SCALE, FixedPoint, FixedPointOverflow, format_raw, raw_from_digits
from .gcode import _PARAM_RE, _VALUE

RELOCATION_SIGNATURE = "RelocationSignature"
FLOW_OUTLIER = "FlowOutlier"

DEFAULT_FLOW_THRESHOLD = 1.8  # x median; below the 2x of 1-in-2 relocation
FILAMENT_DIAMETER_MM = 2.85
DENSITY_G_CM3 = 1.24  # PLA


_QUOTED_CHARS = 60  # of a line's body, in a ParseError message
_BLOCK = 32_768  # characters split into lines at a time, plus the line this ends in

# A line's shape: ASCII digits 1-9 written as 0, the comment cut
_ZERO_DIGITS = str.maketrans("123456789", "000000000")
_COMMENT_RE = re.compile(r";[^\n]*")
# A plain value: at most five integer digits and four decimals, ending
# where the grammar lets a value end (whitespace, ';' or the line's end).
_PLAIN_VALUE = r"[-+]?(?=\.?[0-9])[0-9]{0,5}(?:\.[0-9]{0,4})?(?![^\s;])"
_HEAD = r" *([GM][0-9]+)"  # a G or M head at the line's start
# A plain token whose letter account never reads (not E, X, Y or Z).
_UNREAD = r"(?: +[A-DF-W]" + _PLAIN_VALUE + ")"
# Matched at a line's start: the head (group 1, its letter and number),
# then the parameter region as gcode._LINE_RE reads it, split in two.  The
# plain run (group 2) is unread plain tokens, then optional plain X, Y, Z
# and E tokens in that order (their values in groups 3 to 6), then more
# unread plain tokens; the rest of the tokens (group 7) follow it.  The
# lookahead and backreference make the plain run atomic, so a line is
# matched in linear time.  A region the grammar refuses leaves group 7
# None.  Each optional part is spelled (?:...|), an empty alternative,
# which the regex engine tries faster than (?:...)?.  No atom but the
# head's number tells one digit from another, and none reads past the
# first ';', so lines of one shape match with the same spans.
_SHAPE_RE = re.compile(
    _HEAD + r"(?:(?=(" + _UNREAD + "*"
    + "".join(f"(?: +{letter}({_PLAIN_VALUE})|)" for letter in "XYZE")
    + _UNREAD + r"*))\2((?: +[A-Z]" + _VALUE + r")*)\s*(?:;|\Z)|)"
)
_GROUPS = tuple(range(8))  # a match indexed by these gives its groups
# the accounted heads, by their text with no leading zeros in the number
_HEADS = {"G0": 0, "G1": 1, "G92": 92, "M82": 82, "M83": 83}
_NO_REST: dict[str, int] = {}  # the first values of a line with no rest run


class InsufficientData(FlawsimError):
    """An analysis has too little to run on: fewer than 8 extruding
    segments, or a reference that deposits nothing."""


@dataclass(slots=True)
class SegmentRecord:
    index: int
    kind: str  # G0 / G1
    start: tuple[float, float, float]
    end: tuple[float, float, float]
    travel: float  # mm
    delta_raw: int  # mm of filament * 10^4
    flow: float | None  # filament / travel, None when travel is zero

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
    docstring); rows are built on access and never stored.  travels and
    coords are cached properties: travels is decoded from the document
    the first time it is read, alone; coords the first time it is read,
    with travels if that is still missing, after which the document is
    dropped."""

    def __init__(self, commands: bytearray, deltas: array, doc: str):
        self.commands = commands
        self.deltas = deltas
        self._doc = doc

    @cached_property
    def travels(self) -> array:
        return _geometry(self._doc)

    @cached_property
    def coords(self) -> array:
        coords = array("d")
        travels = _geometry(self._doc, coords)
        self.__dict__.setdefault("travels", travels)  # decoded already: keep that array
        del self._doc
        return coords

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
            delta / SCALE / travel if travel > 0.0 else None,
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


def _parse_error(doc: str, line_no: int, problem: str = "cannot parse") -> ParseError:
    """The error for line line_no of doc, as ``line N: <problem> <body>``.
    A body longer than 60 characters is quoted up to its 60th, then an
    ellipsis and the count of characters left out."""
    body = doc.split("\n", line_no)[line_no - 1]
    quoted = repr(body[:_QUOTED_CHARS])
    if len(body) > _QUOTED_CHARS:
        quoted += f"\u2026 ({len(body) - _QUOTED_CHARS} more characters)"
    return ParseError(line_no, f"{problem} {quoted}")


def _first_values(rest: str) -> dict[str, int]:
    """The first raw value of each letter in a line's rest run (the tokens
    after its plain run); FixedPointOverflow past the budget."""
    first: dict[str, int] = {}
    for letter, sign, int_digits, frac_digits in _PARAM_RE.findall(rest):
        first.setdefault(letter, raw_from_digits(sign, int_digits, frac_digits))
    return first


def _accounted_lines(doc: str):
    """Yield (number, text, spans, first, line_no) for each line of doc with
    an accounted head: its command number, text[spans[k]] for group k of
    its _SHAPE_RE match (the line and its shape's slices, or the match and
    _GROUPS; an absent plain value gives "" or None), the first values of
    its rest run and its line number.  ParseError for one whose region the
    grammar refuses or whose rest run leaves the budget."""
    line_no = 1  # of the block's first line
    start = 0
    while start < len(doc):
        end = doc.find("\n", start + _BLOCK)
        if end < 0:
            end = len(doc)
        block = doc[start:end]
        lines = block.split("\n")
        # for this block only: a shape's slices once a second line has it,
        # or () when it has no G or M head; the match of its first line
        shapes: dict[str, tuple] = {}
        firsts: dict[str, re.Match] = {}
        for i, key in enumerate(_COMMENT_RE.sub("", block).translate(_ZERO_DIGITS).split("\n")):
            spans = shapes.get(key)
            if spans:
                text = lines[i]
            elif spans is not None:
                continue
            elif (m := firsts.pop(key, None)) is not None:
                text = lines[i]
                spans = shapes[key] = tuple(starmap(slice, m.regs))
            else:
                m = _SHAPE_RE.match(lines[i])
                if m is None:
                    shapes[key] = ()
                    continue
                if m[7] is not None:  # a refused region is matched at every line
                    firsts[key] = m
                text, spans = m, _GROUPS
            head = text[spans[1]]
            number = _HEADS.get(head)
            if number is None:
                # leading zeros: G00, G01, M083 ...
                number = _HEADS.get(head[0] + (head[1:].lstrip("0") or "0"))
                if number is None:
                    continue
            first = _NO_REST
            if rest := text[spans[7]]:
                try:
                    first = _first_values(rest)
                except FixedPointOverflow:
                    raise _parse_error(doc, line_no + i) from None
            elif rest is None:
                raise _parse_error(doc, line_no + i)
            yield number, text, spans, first, line_no + i
        line_no += len(lines)
        start = end + 1


def account(doc: str) -> AuditReport:
    """Walk a document and record one segment per linear move.

    Extrusion deltas honour absolute/relative mode (M82/M83) and G92
    re-zeroing.  Raises ParseError for a move or mode-switch line that
    does not fit the grammar, or for a move whose extrusion delta or the
    running total of deposited filament leaves the 32-bit budget;
    non-move noise (comments, status commands) is skipped.
    """
    e_logical = 0  # raw, as every extrusion figure below
    relative_e = False
    commands = bytearray()
    deltas = array("q")
    total_raw = 0
    for number, text, spans, first, line_no in _accounted_lines(doc):
        if 82 <= number <= 83:  # M82 or M83, once its values are read: one that overflows is refused
            relative_e = number == 83
            continue
        plain_e = text[spans[6]]
        pe = round(float(plain_e) * SCALE) if plain_e else first.get("E")
        if number == 92:
            if pe is not None:
                e_logical = pe
            continue
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
                    doc, line_no, f"extrusion delta {format_raw(delta)} exceeds the 32-bit budget in"
                )
        commands.append(number)  # G0 is 0, G1 is 1
        deltas.append(delta)
        if delta > 0:
            total_raw += delta
            if total_raw > MAX_RAW:
                raise _parse_error(
                    doc, line_no, f"deposited total {format_raw(total_raw)} exceeds the 32-bit budget at"
                )
    return AuditReport(FixedPoint(total_raw), Segments(commands, deltas, doc))


def _geometry(doc: str, coords: array | None = None) -> array:
    """The travels column of a document account has read: the same walk
    again, folding X, Y and Z where account folded E.  Given coords, an
    empty array('d'), it also appends each move's start and end x, y and
    z there; without it no coordinate is stored."""
    x = y = z = 0.0
    travels = array("d")
    for number, text, spans, first, _ in _accounted_lines(doc):
        if 82 <= number <= 83:  # a mode switch
            continue
        sx, sy, sz = x, y, z
        if v := text[spans[3]]:
            x = float(v) + 0.0
        elif "X" in first:
            x = first["X"] / SCALE
        if v := text[spans[4]]:
            y = float(v) + 0.0
        elif "Y" in first:
            y = first["Y"] / SCALE
        if v := text[spans[5]]:
            z = float(v) + 0.0
        elif "Z" in first:
            z = first["Z"] / SCALE
        if number != 92:
            # the same value as math.dist((sx, sy, sz), (x, y, z)), with no tuples
            travels.append(math.hypot(sx - x, sy - y, sz - z))
            if coords is not None:
                coords.fromlist([sx, sy, sz, x, y, z])
    return travels


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
        # coordinates keep at most four decimals, so a travel is 0.0 or
        # at least 0.0001 mm: no tolerance is needed to tell a move
        if delta > 0 and travel > 0.0
    }
    if len(flows) < 8:
        raise InsufficientData(f"{len(flows)} extruding segments; need >= 8")
    median_flow = statistics.median(flows.values())
    limit = threshold * median_flow
    anomalies: list[Anomaly] = []
    for i, flow in flows.items():
        if flow < limit:
            continue
        # after a barren travel it is the catch-up, anchored to the travel;
        # the indices rise, since a travel's index is never an extruder's
        if i and deltas[i - 1] <= 0 and travels[i - 1] > 0.0:
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
