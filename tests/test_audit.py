import csv
import io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from fractions import Fraction

import pytest

from flawsim import audit, fixtures
from flawsim.audit import (
    FLOW_OUTLIER,
    RELOCATION_SIGNATURE,
    Anomaly,
    InsufficientData,
    SegmentRecord,
    account,
    compare,
    detect_relocation,
    normalized_curve_csv,
)
from flawsim.errors import ParseError
from flawsim.fixedpoint import MAX_RAW, SCALE, format_raw, raw_from_digits
from flawsim.gcode import parse_line
from flawsim.tamper import transform_reduction, transform_relocation
from conftest import PACKAGE_PATH, REPO
from test_fuzz_equivalence import random_document
from test_tamper import random_command_line

TAMPERED_THREE = "G1 X1 Y2 E3\nG0 X2 Y3\nG1 X3 Y4 E5\n"


def test_audit_loads_no_attack_chain_module():
    # the package root re-exports nothing, so the defender's import stays small
    probe = (
        "import sys, flawsim, flawsim.audit\n"
        "assert not hasattr(flawsim, '__all__')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('flawsim'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = [f"flawsim.{m}" for m in ("audit", "errors", "fixedpoint", "gcode")]
    assert done.stdout.split() == ["flawsim", *loaded], done.stdout


def test_tamper_loads_no_flash_model_module():
    # the interceptor names avr.RingBufferInfo only in annotations
    probe = "import sys, flawsim.tamper\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('flawsim'))))\n"
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = [f"flawsim.{m}" for m in ("errors", "fixedpoint", "policy", "tamper", "uart")]
    assert done.stdout.split() == ["flawsim", *loaded], done.stdout


# --- account ---------------------------------------------------------------


def test_account_three_move_sequence_after_tamper():
    report = account(TAMPERED_THREE)
    assert [s.delta_raw for s in report.segments] == [30_000, 0, 20_000]
    assert report.total_extrusion.raw == 50_000


def test_account_empty_document():
    report = account("")
    assert report.total_extrusion.raw == 0
    assert len(report.segments) == 0
    assert list(report.segments) == []


def test_account_g92_mid_stream_no_negative_spike():
    # hand-computed: 2.5 deposited, re-zero, then 1.5 more
    doc = "G1 X10 E2.5\nG92 E0\nG1 X20 E1\nG1 X30 E1.5\n"
    report = account(doc)
    assert [s.delta_raw for s in report.segments] == [25_000, 10_000, 5_000]
    assert report.total_extrusion.raw == 40_000


def test_account_relative_extrusion_mode():
    doc = "M83\nG1 X10 E0.5\nG1 X20 E0.5\nM82\nG92 E7\nG1 X30 E7.25\n"
    report = account(doc)
    assert [s.delta_raw for s in report.segments] == [5_000, 5_000, 2_500]


def test_account_retraction_not_counted_in_total():
    doc = "G1 X10 E2\nG1 E1.5\nG1 X20 E3\n"
    report = account(doc)
    assert [s.delta_raw for s in report.segments] == [20_000, -5_000, 15_000]
    assert report.total_extrusion.raw == 35_000  # positive deltas only


def test_account_travel_and_flow():
    doc = "G1 X3 Y4 E1\nG0 X3 Y14\n"
    report = account(doc)
    assert math.isclose(report.segments[0].travel, 5.0)
    assert math.isclose(report.segments[0].flow, 0.2 / 1)
    assert report.segments[1].flow is None or report.segments[1].delta_raw == 0
    assert math.isclose(report.segments[1].travel, 10.0)


def test_account_insensitive_to_comments_and_blank_lines():
    doc = "G1 X10 E2 ; wall\n\n; layer 2\nG1 X0 E4\n"
    stripped = "G1 X10 E2\nG1 X0 E4\n"
    assert account(doc).total_extrusion.raw == account(stripped).total_extrusion.raw


def test_account_parse_error_on_bad_move():
    # "\u0663" is an Arabic-Indic three: a digit to \d, not to the grammar
    for doc in ("G1 E4 X@3\n", "G1 X1 E\u0663\n", "G01 X1 E5 *12\n", "G01 X1 *1\n", "G092 E5 *1\n", "G00 X1 E\n"):
        with pytest.raises(ParseError):
            account(doc)
    # G010 is G10, not a move: its malformed tail is skipped like any noise
    assert account("G010 X1 *1\nG1 X1 E5\n").total_extrusion.raw == 50_000


def test_account_parse_error_on_bad_mode_switch():
    # a mode switch changes every later delta, so a malformed one is not noise
    # and one whose values leave the 32-bit budget is refused before it
    # switches, wherever the scan reads the value
    switches = ("M83 *12", "M83 E", "M83X", "M82 S", "M083 *1",
                "M83 E99999999999", "M82 X214749", "M083 E214748.36479")
    for switch in switches:
        with pytest.raises(ParseError, match=r"^line 1: cannot parse") as err:
            account(f"{switch}\nG1 X1 E1\nG1 X2 E1\n")
        assert err.value.line_no == 1
    assert account("M83\nG1 X1 E1\nG1 X2 E1\n").total_extrusion.raw == 20_000
    # M820 and M8 are other commands: their malformed tails are noise
    assert account("M820 *1\nM8 *1\nG1 X1 E5\n").total_extrusion.raw == 50_000


def test_parse_error_quotes_a_bounded_part_of_a_long_line():
    with pytest.raises(ParseError) as err:
        account("G1" + " " * 100_000 + "!\n")
    message = str(err.value)
    assert len(message) < 200
    assert message.startswith("line 1: cannot parse 'G1 ")
    assert message.endswith("'\u2026 (99943 more characters)")
    # a body of 60 characters or fewer is quoted whole
    with pytest.raises(ParseError, match=r"^line 1: cannot parse 'G1 X1 E5 \*12'$"):
        account("G1 X1 E5 *12\n")


def test_account_delta_past_budget_names_its_line():
    # each end fits the 32-bit budget, the delta between them does not
    with pytest.raises(ParseError, match=r"^line 2: extrusion delta -400000 exceeds") as err:
        account("G1 X1 E200000\nG1 X2 E-200000\n")
    assert err.value.line_no == 2
    # exactly at the budget is still a delta
    report = account("G1 X1 E0\nG1 X2 E214748.3647\n")
    assert report.segments[1].delta_raw == 2**31 - 1


def test_account_total_past_budget_names_its_line():
    # every delta fits; the running total crosses the budget on line 4
    doc = "G1 X0 E0\nG1 X1 E200000\nG1 X0 E0\nG1 X1 E200000\n"
    with pytest.raises(ParseError, match=r"^line 4: deposited total 400000 exceeds") as err:
        account(doc)
    assert err.value.line_no == 4
    assert account(doc[: doc.index("G1 X1 E200000") + 14]).total_extrusion.raw == 2_000_000_000
    # the budget itself is still a total; one step past it is not
    at_budget = "G1 X1 E214748.3647\nG92 E0\n"
    assert account(at_budget).total_extrusion.raw == 2**31 - 1
    with pytest.raises(ParseError, match=r"^line 3: deposited total 214748.3648 exceeds"):
        account(at_budget + "G1 X2 E0.0001\n")


def test_account_ignores_non_move_commands():
    report = account("M104 S200\nM73 P10\nT0\nG28 W\nG1 X5 E1\n")
    assert len(report.segments) == 1


# the accounting edge documents the CLI ledger also runs: repeated
# parameters, G92 on every axis, M82/M83 switches, retractions and G0 moves
EDGE_TOTALS = {"duplicate_params": "5", "g92_axes": "9", "extrusion_modes": "4.375", "retract_travel_g0": "3.8"}


@pytest.mark.parametrize("name", sorted(EDGE_TOTALS))
def test_account_totals_the_edge_documents(name):
    doc = (REPO / "tests" / "cli_edge" / f"{name}.gcode").read_text()
    assert account(doc).total_extrusion.to_text() == EDGE_TOTALS[name]


def test_mass_grams_conversion():
    report = account("G1 X100 E100\n")  # 100 mm of filament
    area = math.pi * (2.85 / 2) ** 2
    assert math.isclose(report.mass_grams(), 100 * area / 1000 * 1.24, rel_tol=1e-9)


def test_report_serialization():
    report = account(TAMPERED_THREE)
    js = report.to_json()
    assert '"total_extrusion_mm": "5"' in js
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("index,kind")
    assert len(csv.strip().splitlines()) == 4


def test_to_json_is_json_dumps_of_to_dict(gcode_corpus):
    reference = account(gcode_corpus["clean_small.gcode"])
    assert account("").to_json() == json.dumps(account("").to_dict(), indent=2)
    flagged = 0
    for name, doc in gcode_corpus.items():
        for text in (doc, transform_relocation(doc, 2)):
            report = account(text)
            try:
                flagged += bool(detect_relocation(report))
            except InsufficientData:
                pass
            compare(reference, report)
            assert report.to_json() == json.dumps(report.to_dict(), indent=2), name
    assert flagged >= 10  # anomalies were written, not only empty lists
    # segment arrays that end inside, at and just past a batch of rows
    for moves in (1, 255, 256, 257, 700):
        report = account("".join(f"G1 X{i} E{i / 8}\n" for i in range(moves)))
        assert report.to_json() == json.dumps(report.to_dict(), indent=2), moves


def test_to_json_peak_stays_within_three_times_its_output():
    report = account(fixtures.generate_gcode(segments=9_800, m73_step=5, travel_every=50))
    assert len(report.segments) >= 9_000
    tracemalloc.start()
    try:
        text = report.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == json.dumps(report.to_dict(), indent=2)
    # the text, the row strings it is joined from, and one row's dict
    assert peak < 3 * len(text)


def test_segments_sequence_contract():
    report = account(TAMPERED_THREE)
    segments = report.segments
    assert len(segments) == 3
    assert segments[-1] == SegmentRecord(
        2, "G1", (2.0, 3.0, 0.0), (3.0, 4.0, 0.0), math.sqrt(2), 20_000, 2 / math.sqrt(2)
    )
    assert segments[-3] == segments[0]
    for index in (3, -4):
        with pytest.raises(IndexError):
            segments[index]
    assert list(segments) == [segments[i] for i in range(len(segments))]
    # rows are built on access: mutating one leaves the report alone
    segments[0].delta_raw = 0
    assert segments[0].delta_raw == 30_000


def test_segments_footprint_per_move():
    doc = fixtures.generate_gcode(segments=1_800, m73_step=5, travel_every=50)
    tracemalloc.start()
    try:
        report = account(doc)
        # the mass proxy reads the total and the count, never the geometry
        assert report.total_extrusion.raw > 0 and len(report.segments) > 1_800
        assert compare(report, report) == 0
        mass_proxy_read, _ = tracemalloc.get_traced_memory()
        # the detector reads the travels and the deltas, never the coordinates
        detect_relocation(report)
        detected, _ = tracemalloc.get_traced_memory()
        report.segments[0]
        row_read, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    moves = len(report.segments)
    # 9 bytes of columns per move, the command and the delta
    assert mass_proxy_read / moves < 16
    # 17 once the travels are decoded
    assert detected / moves < 24
    # about 68 bytes per move once the geometry is decoded; a record per move took 377
    assert row_read / moves < 100


def test_geometry_follows_a_g92_and_a_first_x_in_the_rest_run():
    doc = "G1 X1 Y1 E1\nG92 X5 Y5\nG1 X6 E2\nG1 Y2 X3 X9 E2\nG0 Z1\n"
    assert account_outcome(doc) == oracle_outcome(doc)
    assert [(s.start, s.end) for s in account(doc).segments] == [
        ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0)),
        ((5.0, 5.0, 0.0), (6.0, 5.0, 0.0)),
        ((6.0, 5.0, 0.0), (3.0, 2.0, 0.0)),
        ((3.0, 2.0, 0.0), (3.0, 2.0, 1.0)),
    ]


def test_travels_then_coords_decode_as_coords_first(gcode_corpus):
    # the detector decodes the travels alone; a later row read decodes the
    # coordinates and keeps that travels array: both orders give the fold's
    rng = random.Random(4343)
    docs = list(gcode_corpus.values()) + [random_account_document(rng) for _ in range(1500)]
    checked = 0
    for doc in docs:
        expected = oracle_outcome(doc)
        if isinstance(expected, str):
            continue
        _, coords, travels, _, _ = expected
        travels_first = account(doc).segments
        held = travels_first.travels
        assert held.tobytes() == travels, ascii(doc)
        assert travels_first.coords.tobytes() == coords, ascii(doc)
        assert travels_first.travels is held
        coords_first = account(doc).segments
        assert coords_first.coords.tobytes() == coords, ascii(doc)
        assert coords_first.travels.tobytes() == travels, ascii(doc)
        checked += 1
    assert checked >= 500, checked


# --- account's scan against a fold over every line ----------------------------

ACCOUNTED = {("G", 0), ("G", 1), ("G", 92), ("M", 82), ("M", 83)}


def oracle_parse_error(line_no, body, problem="cannot parse"):
    """account's ParseError for a line: the problem, then the body quoted
    up to its 60th character and the count of characters left out."""
    quoted = repr(body[:60])
    if len(body) > 60:
        quoted += f"\u2026 ({len(body) - 60} more characters)"
    return ParseError(line_no, f"{problem} {quoted}")


def oracle_account(doc):
    """account as a fold over parse_line of every LF-split body: the
    reference the scan and its plain decode are checked against."""
    x = y = z = 0.0
    e_logical = total = 0
    relative = False
    commands, coords, travels, deltas = bytearray(), array("d"), array("d"), array("q")
    bodies = doc.split("\n")
    if not bodies[-1]:
        bodies.pop()
    for line_no, body in enumerate(bodies, 1):
        line = parse_line(body)
        if (line.letter, line.number) not in ACCOUNTED:
            continue
        if line.malformed:
            raise oracle_parse_error(line_no, body)
        if line.letter == "M":
            relative = line.number == 83
            continue
        values = dict(reversed(line.params))  # the first of duplicate letters
        sx, sy, sz = x, y, z
        x = values["X"] / SCALE if "X" in values else x
        y = values["Y"] / SCALE if "Y" in values else y
        z = values["Z"] / SCALE if "Z" in values else z
        pe = values.get("E")
        if line.number == 92:
            e_logical = e_logical if pe is None else pe
            continue
        if pe is None:
            delta = 0
        elif relative:
            delta = pe
        else:
            delta, e_logical = pe - e_logical, pe
            if abs(delta) > MAX_RAW:
                raise oracle_parse_error(
                    line_no, body, f"extrusion delta {format_raw(delta)} exceeds the 32-bit budget in"
                )
        commands.append(line.number)
        coords.extend((sx, sy, sz, x, y, z))
        travels.append(math.hypot(sx - x, sy - y, sz - z))
        deltas.append(delta)
        total += max(delta, 0)
        if total > MAX_RAW:
            raise oracle_parse_error(
                line_no, body, f"deposited total {format_raw(total)} exceeds the 32-bit budget at"
            )
    return bytes(commands), coords.tobytes(), travels.tobytes(), deltas.tolist(), total


def account_outcome(doc):
    try:
        report = account(doc)
    except ParseError as err:
        return str(err)
    # read outside the try: a column read never raises what account did not
    seg = report.segments
    assert len(seg.coords) == 6 * len(seg.deltas) and len(seg.travels) == len(seg.deltas)
    return (bytes(seg.commands), seg.coords.tobytes(), seg.travels.tobytes(),
            seg.deltas.tolist(), report.total_extrusion.raw)


def oracle_outcome(doc):
    try:
        return oracle_account(doc)
    except ParseError as err:
        return str(err)


def random_plain_value(rng):
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randrange(6)))
    if rng.random() < 0.7:
        digits += "." + "".join(rng.choice("0123456789") for _ in range(rng.choice((0, 1, 2, 4, 4, 5))))
    if not digits.strip("."):
        digits = rng.choice(("0", "-0", ".0", "00000"))
    return rng.choice(("", "", "", "-", "+")) + digits


def random_plain_move(rng):
    head = rng.choice(("G1", "G1", "G0", "G01", "G92", " G1"))
    tokens = "".join(
        rng.choice((" ", " ", "  ")) + letter + random_plain_value(rng)
        for letter in rng.sample("XYZEEF", rng.randrange(6))
    )
    return head + tokens + rng.choice(("", "", " ", "\t", " ; wall", ";E5"))


def random_account_document(rng):
    lines = []
    for _ in range(rng.randrange(1, 9)):
        roll = rng.random()
        if roll < 0.5:
            lines.append(random_plain_move(rng))
        elif roll < 0.65:
            lines.append(rng.choice(("M82", "M83", "M083", "G92 E0", "; layer", "", "M73 P5", "G28")))
        else:
            lines.append(random_command_line(rng))
    end = rng.choice(("\n", "\n", "\r\n"))
    return end.join(lines) + (end if rng.random() < 0.9 else "")


def test_account_matches_a_fold_over_every_line(gcode_corpus):
    docs = list(gcode_corpus.values()) + [random_document(seed) for seed in range(120)]
    for doc in docs:
        assert account_outcome(doc) == oracle_outcome(doc), repr(doc[:60])
    rng = random.Random(20217)
    outcomes = {"report": 0, "error": 0}
    for _ in range(8000):
        doc = random_account_document(rng)
        got = account_outcome(doc)
        assert got == oracle_outcome(doc), ascii(doc)
        outcomes["error" if isinstance(got, str) else "report"] += 1
    assert min(outcomes.values()) >= 2000, outcomes


def line_shape(line):
    """The groups account's walk reads a line by: the whole match, the
    head, the plain run, plain X, Y, Z and E, and the rest run ("" for an
    absent plain value).  The line is walked twice in one document, so it
    is read once from its own match and once by its shape's slices; both
    readings must agree."""
    readings = [
        [text[part] or "" for part in spans]
        for _, text, spans, _, _ in audit._accounted_lines(f"{line}\n{line}")
    ]
    assert readings[0] == readings[1]
    return readings[0]


def assert_decodes_to_raw(values, route):
    """Each (sign, int, frac) value v, written as the line "G1 X<v> E<v>",
    is decoded to its raw_from_digits value, as X and as a relative E.  The
    lines run on in M83 documents, each ended before its deposited total
    would pass MAX_RAW, so most of them are read by their shape's slices.
    Each line's own _SHAPE_RE match must hold the tokens where route says
    the walk reads them: "plain", a plain span for X and for E and no rest
    run; "rest", neither, and a rest run of both tokens."""
    docs = [[]]
    total = 0
    for digits in values:
        raw = raw_from_digits(*digits)
        deposit = max(raw, 0)
        if total + deposit > MAX_RAW:
            docs.append([])
            total = 0
        total += deposit
        sign, int_digits, frac_digits = digits
        value = f"{sign}{int_digits}{'.' + frac_digits if frac_digits else ''}"
        docs[-1].append((value, digits, raw))
    for moves in docs:
        lines = [f"G1 X{value} E{value}" for value, _, _ in moves]
        segments = account("M83\n" + "\n".join(lines) + "\n").segments
        assert len(segments) == len(moves)
        for line, segment, (value, digits, raw) in zip(lines, segments, moves):
            m = audit._SHAPE_RE.match(line)
            placed = (value, value, "") if route == "plain" else (None, None, f" X{value} E{value}")
            assert (m[3], m[6], m[7], segment.end[1:]) == (*placed, (0.0, 0.0)), digits
            assert segment.end[0].hex() == (raw / SCALE).hex(), digits  # a -0.0 would show here
            assert type(segment.delta_raw) is int and segment.delta_raw == raw, digits  # the raw value itself


def test_plain_decode_is_raw_from_digits():
    values = []
    for sign in ("", "+", "-"):
        for int_digits in ("", "0", "1", "9", "10", "99999", "00000"):
            if int_digits:
                values.append((sign, int_digits, ""))
            values += [(sign, int_digits, f"{frac:04d}") for frac in range(10_000)]
    assert_decodes_to_raw(values, "plain")


def test_exact_decode_is_raw_from_digits():
    # a fifth decimal (which rounds) or a sixth integer digit leaves the
    # plain run for rest; the value is decoded by raw_from_digits itself
    values = []
    for sign in ("", "+", "-"):
        for int_digits in ("", "0", "7", "99999", "100000", "0000214747"):
            values += [(sign, int_digits, f"{frac:05d}") for frac in range(0, 100_000, 7)]
            values += [(sign, int_digits, f"{frac:04d}67") for frac in range(0, 10_000, 13)]
        values += [(sign, "214748", "3647"), (sign, "214748", "36474"), (sign, "123456", "")]
    assert_decodes_to_raw(values, "rest")


# Where a token sits decides the span the walk reads it from: plain X,
# Y, Z and E in that order, with any other plain letters before and after
# them, get a plain span each; anything else goes to the rest run.  Either
# way a letter's value is its first in the line.
TOKEN_PLACEMENTS = [
    # line, (x, y, z, e_raw) as the fold reads them (None for a letter the
    # line lacks), rest
    pytest.param("G1 E5 X1", (1.0, None, None, 50_000), " X1", id="E-before-X"),
    pytest.param("G1 Y1 X2", (2.0, 1.0, None, None), " X2", id="Y-before-X"),
    pytest.param("G1 X1 Y2 X3", (1.0, 2.0, None, None), " X3", id="repeated-X"),
    pytest.param("G1 F1500 X1 Y2 E3", (1.0, 2.0, None, 30_000), "", id="cura-leading-F"),
    pytest.param("G1 X1 Y2 E3 F1800", (1.0, 2.0, None, 30_000), "", id="prusa-trailing-F"),
    pytest.param("G1 X1.00004 X2", (1.0, None, None, None), " X1.00004 X2", id="exact-then-plain-X"),
    pytest.param("G92 Z0.3", (None, None, 0.3, None), "", id="G92-Z"),
    pytest.param("G1 F123456.7 X1", (1.0, None, None, None), " F123456.7 X1", id="exact-F-before-X"),
]


@pytest.mark.parametrize("line, decoded, rest", TOKEN_PLACEMENTS)
def test_token_placement_matches_the_fold(line, decoded, rest):
    assert line_shape(line)[7] == rest
    doc = "G1 X7 Y8 Z9 E1\n" + line + "\nG1 X5 E9\n"
    # the next move starts where the line left the head, and its delta
    # counts from the line's E, or from E1 when the line has none
    x, y, z, e = decoded
    after = account(doc).segments[-1]
    assert after.start == (7.0 if x is None else x, 8.0 if y is None else y, 9.0 if z is None else z)
    assert after.delta_raw == 90_000 - (10_000 if e is None else e)
    assert account_outcome(doc) == oracle_outcome(doc)


# Lines whose digits differ share one shape, and the walk reads the grammar
# once per shape: what depends on the digits must still come from each line.
SHARED_SHAPES = [
    # doc, the error account raises (None for a report)
    pytest.param("G01 X1 E1\nG92 X5 E2\nG28 X9 E7\nG01 X2 E3\n", None, id="G01-G92-G28"),
    pytest.param(
        "G1 X1 E5\nM83\nG1 X2 E1\nM73 P50\nG1 X3 E1\nM82\nG1 X4 E9\n", None, id="M82-M83-M73"
    ),
    pytest.param(
        "G1 X100000 E1\nG1 X214749 E1\n", "line 2: cannot parse 'G1 X214749 E1'", id="X214749-overflows"
    ),
    pytest.param("G1 X214749 E1\nG1 X100000 E1\n", "line 1: cannot parse 'G1 X214749 E1'", id="X214749-first"),
    pytest.param("G1 X1 E1 ; wall\nG1 X2 E2 ;skin 7\nG1 X3 E3;\n", None, id="comments-differ"),
    pytest.param("G28 X1 !\nG1 X1 E1\nG92 X1 !\n", "line 3: cannot parse 'G92 X1 !'", id="refused-G28-then-G92"),
]


@pytest.mark.parametrize("doc, error", SHARED_SHAPES)
def test_lines_sharing_a_shape_are_read_by_their_own_digits(doc, error):
    bodies = doc.splitlines()
    shapes = {audit._COMMENT_RE.sub("", body).translate(audit._ZERO_DIGITS) for body in bodies}
    assert len(shapes) < len(bodies)
    assert account_outcome(doc) == oracle_outcome(doc)
    if error is None:
        assert len(account(doc).segments) > 0
    else:
        with pytest.raises(ParseError) as raised:
            account(doc)
        assert str(raised.value) == error


def slicer_document(style, moves, seed):
    """A print as a slicer writes one, on a random walk over a 200 mm bed,
    X and Y with three decimals and their trailing zeros cut.  "cura":
    M82, absolute E with five decimals, "G0 F9000 X.. Y.." travels after
    "G1 F1500 E.." retractions, ;LAYER: and ;TYPE: comments.  "prusa":
    M83, relative E with five decimals and no leading zero (E.01882),
    travels with a trailing F between "G1 E-.8 F2100" retractions, and
    "M73 P.. R.." progress lines."""

    def text(v):
        return f"{v:.5f}".rstrip("0").rstrip(".") if round(v, 5) else "0"

    rng = random.Random(seed)
    cura = style == "cura"
    out = ["M82 ;absolute extrusion mode", "G92 E0"] if cura else ["M83 ; relative extrusion", "G92 E0"]
    x = y = 100.0
    e = 0.0
    for n in range(moves):
        if n % 400 == 0:
            out += [f";LAYER:{n // 400}", f"G0 F9000 Z{text(0.2 * (n // 400 + 1))}", ";TYPE:WALL-OUTER"]
        step, turn = rng.uniform(0.2, 12.0), rng.uniform(0.0, 2 * math.pi)
        nx = text(round(min(max(x + step * math.cos(turn), 5.0), 195.0), 3))
        ny = text(round(min(max(y + step * math.sin(turn), 5.0), 195.0), 3))
        flow = math.dist((x, y), (float(nx), float(ny))) * 0.0333
        x, y = float(nx), float(ny)
        if rng.random() < 0.05:
            if cura:
                out += [f"G1 F1500 E{text(e - 6.5)}", f"G0 F9000 X{nx} Y{ny}", f"G1 F1500 E{text(e)}"]
            else:
                out += ["G1 E-.8 F2100", f"G1 X{nx} Y{ny} F9000", "G1 E.8 F2100"]
        elif cura:
            e += flow
            out.append(f"G1 X{nx} Y{ny} E{text(e)}")
        else:
            de = text(flow)
            out.append(f"G1 X{nx} Y{ny} E{de[1:] if de.startswith('0.') else de}")
        if not cura and n % 500 == 499:
            out.append(f"M73 P{100 * n // moves} R{(moves - n) // 100}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("style", ["cura", "prusa"])
def test_slicer_documents_are_read_as_the_fold_reads_them(style):
    doc = slicer_document(style, moves=6_000, seed=37)
    # within a 32K block most lines repeat a shape (about 94%), read by its
    # slices, and dozens are the first of theirs, read from their match
    keys = audit._COMMENT_RE.sub("", doc[: audit._BLOCK]).translate(audit._ZERO_DIGITS).split("\n")
    assert 20 < len(set(keys)) < len(keys) // 4
    outcome = account_outcome(doc)
    assert not isinstance(outcome, str), outcome  # a report, not an error
    assert outcome == oracle_outcome(doc)


def account_peak(doc):
    """account's report of doc and the most it held beyond what it kept."""
    tracemalloc.start()
    try:
        report = account(doc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak - kept


# What a walk holds beyond its report grows by under 2 bytes per character
# a document gains: the spare room of the report's columns.  The block the
# walk splits, its shapes and their cache do not grow: about 0.4 MB on a
# 44K- or a 176K-character generated print (0.7 MB for lines whose shapes
# all differ), on CPython 3.11.  Split whole, the larger print took
# 1.6 MB, 9 bytes per character more than the smaller.
GROWTH_PER_CHAR = 2


def test_account_peak_does_not_grow_with_the_document():
    small = fixtures.generate_gcode(segments=2_450, m73_step=5, travel_every=50)
    large = fixtures.generate_gcode(segments=9_800, m73_step=5, travel_every=50)
    account(small)  # what a first call sets up once is no part of either peak
    _, small_peak = account_peak(small)
    report, large_peak = account_peak(large)
    assert len(report.segments) > 9_800
    assert large_peak - small_peak < GROWTH_PER_CHAR * (len(large) - len(small))
    assert large_peak < 1024 * 1024


def distinct_shapes_document(lines):
    """M83, then up to 15,625 moves whose code parts all differ: each value
    has its own count of integer and fraction digits."""
    def value(digit, whole, fives):
        return digit * whole + "." + "5" * fives

    sizes = itertools.product(range(1, 6), range(5), range(1, 6), range(5), range(1, 6), range(5))
    moves = [
        f"G1 X{value('1', a, b)} Y{value('1', c, d)} E{value('0', e, f)}"
        for a, b, c, d, e, f in itertools.islice(sizes, lines)
    ]
    assert len({move.translate(audit._ZERO_DIGITS) for move in moves}) == lines
    return "M83\n" + "\n".join(moves) + "\n"


def test_the_shape_cache_is_bounded_when_no_shape_repeats():
    # every line is the first of its shape: the walk keeps one block's
    # first matches at a time, not one per line of the document
    small = distinct_shapes_document(2_500)
    large = distinct_shapes_document(10_000)
    account(small)
    _, small_peak = account_peak(small)
    report, large_peak = account_peak(large)
    assert large_peak - small_peak < GROWTH_PER_CHAR * (len(large) - len(small))
    assert large_peak < 1_536 * 1024
    assert account_outcome(large) == oracle_outcome(large)
    assert report.total_extrusion.raw > 0


LONG = 200_000
LONG_LINES = [
    pytest.param("G1" + " " * (LONG - 3) + "!", True, id="spaces-then-bang"),
    pytest.param("G1" + " " * (LONG - 3) + "X", True, id="spaces-then-X"),
    pytest.param("G1" + "\t " * (LONG // 2 - 1), False, id="tab-space-runs"),
    pytest.param("G1" + " X" * (LONG // 2 - 1), True, id="space-X-runs"),
    # plain tokens, then one the grammar refuses: the scan must not retry
    # each split of the run between plain tokens and the rest
    pytest.param("G1" + " X1" * (LONG // 3 - 1) + "!", True, id="plain-tokens-then-bang"),
    # the same through the unread runs before and after plain X, Y, Z, E
    pytest.param("G1" + " F1" * (LONG // 3 - 1) + "!", True, id="unread-tokens-then-bang"),
    pytest.param(
        "G1" + " F1" * (LONG // 6) + " X1" * (LONG // 6) + "!", True, id="unread-then-X-tokens-then-bang"
    ),
]


@pytest.mark.parametrize("body, malformed", LONG_LINES)
def test_long_lines_parse_in_linear_time(body, malformed):
    start = time.perf_counter()
    line = parse_line(body)
    assert time.perf_counter() - start < 2
    assert (line.letter, line.number, line.params, line.malformed) == ("G", 1, [], malformed)
    start = time.perf_counter()
    if malformed:
        with pytest.raises(ParseError, match=r"^line 1: cannot parse"):
            account(body + "\n")
    else:
        assert len(account(body + "\n").segments) == 1
    assert time.perf_counter() - start < 2


# --- detect_relocation ---------------------------------------------------------


def uniform_doc(segments=40) -> str:
    return fixtures.generate_gcode(segments=segments, m73_step=5)


def test_detect_flags_relocated_catch_up_segments():
    doc = uniform_doc(100)
    tampered = transform_relocation(doc, 2)
    report = account(tampered)
    anomalies = detect_relocation(report)
    relocation_flags = [a for a in anomalies if a.kind == RELOCATION_SIGNATURE]
    conversions = sum(
        1 for i, s in enumerate(report.segments)
        if s.kind == "G0" and s.delta_raw == 0 and i + 1 < len(report.segments)
        and report.segments[i + 1].delta_raw > 0
    )
    # uniform segments: every surviving extruder move doubles its flow
    assert len(relocation_flags) >= 0.95 * conversions
    for a in relocation_flags:
        assert a.ratio >= 1.8


def test_detect_clean_fixture_has_no_flags(gcode_corpus):
    for name, doc in gcode_corpus.items():
        report = account(doc)
        anomalies = detect_relocation(report)
        assert anomalies == [], f"{name}: {anomalies}"
        # a threshold at or below 0 would flag every extruding segment
        for threshold in (0, -1, math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold must be finite and above 0"):
                detect_relocation(report, threshold)


def test_detect_legitimate_travel_not_flagged():
    # constant flow; a travel reposition with no catch-up after it
    doc = fixtures.generate_gcode(segments=30, m73_step=None, travel_every=5)
    anomalies = detect_relocation(account(doc))
    assert anomalies == []


def test_detect_insufficient_data():
    with pytest.raises(InsufficientData):
        detect_relocation(account("G1 X10 E1\nG1 X0 E2\n"))


def unit_flows(moves: int) -> str:
    """moves extruding segments, each depositing 1 mm over 1 mm of travel."""
    return "".join(f"G1 X{i} E{i}\n" for i in range(1, moves + 1))


def test_detect_needs_eight_extruding_segments():
    with pytest.raises(InsufficientData, match="^7 extruding segments; need >= 8$"):
        detect_relocation(account(unit_flows(7)))
    assert detect_relocation(account(unit_flows(8))) == []
    # a segment depositing 0.0001 mm, a raw 1, is the eighth
    assert detect_relocation(account(unit_flows(7) + "G1 X8 E7.0001\n")) == []


@pytest.mark.parametrize("threshold, flagged", [
    (2.0, [(8, 2.0)]),  # a flow exactly at the limit is flagged
    (0.5, [(i, 1.0) for i in range(8)] + [(8, 2.0)]),  # a threshold in (0, 1] flags the median too
], ids=["at the limit", "below 1"])
def test_detect_flags_every_flow_at_or_above_the_limit(threshold, flagged):
    # eight flows of 1 and one of 2: the median is 1, and every figure is exact
    report = account(unit_flows(8) + "G1 X9 E10\n")
    assert detect_relocation(report, threshold) == [Anomaly(i, FLOW_OUTLIER, r) for i, r in flagged]


def test_detect_a_barren_segment_that_does_not_move_is_no_relocation():
    # the catch-up follows a barren G0 of zero travel: an outlier, not a relocation
    report = account(unit_flows(8) + "G0 X8\nG1 X9 E10\n")
    assert detect_relocation(report) == [Anomaly(9, FLOW_OUTLIER, 2.0)]


def test_detect_a_move_depositing_a_raw_1_is_no_barren_travel():
    # the catch-up follows a move that deposits 0.0001 mm: an outlier, not
    # a relocation
    report = account(unit_flows(8) + "G1 X9 E8.0001\nG1 X10 E10.0001\n")
    assert detect_relocation(report) == [Anomaly(9, FLOW_OUTLIER, 2.0)]


def test_detect_skips_a_prime_that_extrudes_over_no_travel():
    # a prime (an E with no axis) deposits over a travel of 0.0: its row has
    # no flow, and the detector leaves it out rather than divide by zero
    report = account(unit_flows(10) + "G1 E12\n")
    assert report.segments.travels[-1] == 0.0
    assert report.segments[-1].flow is None
    assert detect_relocation(report) == []


def reference_detect(segments: list[SegmentRecord], threshold: float) -> list[Anomaly]:
    """The record-at-a-time detector the column one replaced."""
    extruding = [s for s in segments if s.delta_raw > 0 and s.flow is not None]
    if len(extruding) < 8:
        raise InsufficientData(f"{len(extruding)} extruding segments; need >= 8")
    median_flow = statistics.median(s.flow for s in extruding)
    if median_flow <= 0:
        raise InsufficientData("median flow is not positive")
    anomalies = []
    flagged_successors = set()
    for seg in segments:
        if seg.delta_raw > 0 or seg.travel <= 1e-9:
            continue
        nxt_i = seg.index + 1
        if nxt_i >= len(segments):
            continue
        nxt = segments[nxt_i]
        if nxt.delta_raw > 0 and nxt.flow is not None and nxt.flow >= threshold * median_flow:
            anomalies.append(Anomaly(seg.index, RELOCATION_SIGNATURE, nxt.flow / median_flow))
            flagged_successors.add(nxt_i)
    for seg in extruding:
        if seg.index in flagged_successors:
            continue
        if seg.flow >= threshold * median_flow:
            anomalies.append(Anomaly(seg.index, FLOW_OUTLIER, seg.flow / median_flow))
    anomalies.sort(key=lambda a: a.index)
    return anomalies


def test_detect_matches_the_record_reference(gcode_corpus):
    docs = ["", "G1 X10 E1\nG1 X0 E2\n", "G0 X1\n" * 9]
    for doc in gcode_corpus.values():
        docs += [doc] + [transform_relocation(doc, n) for n in (2, 3, 4)]
    for doc in docs:
        report = account(doc)
        for threshold in (1.2, 1.5, 1.8, 2.5):
            try:
                expected = reference_detect(list(report.segments), threshold)
            except InsufficientData:
                with pytest.raises(InsufficientData):
                    detect_relocation(report, threshold)
                continue
            got = detect_relocation(report, threshold)
            # dataclass equality: index, kind and the exact ratio
            assert got == expected
            assert report.anomalies == expected


def test_detect_flow_outlier_kind():
    lines = [f"G1 X{10 * ((i % 2) == 0):d} E{i + 1}" for i in range(10)]
    doc = "\n".join(lines) + "\nG1 X5 E14\n"  # last: 3x deposit over half travel
    anomalies = detect_relocation(account(doc))
    assert any(a.kind == FLOW_OUTLIER for a in anomalies)


# --- compare ---------------------------------------------------------------------


def test_compare_identical_is_zero():
    report = account(uniform_doc())
    assert compare(report, account(uniform_doc())) == pytest.approx(0.0)


def test_compare_half_reduced_is_fifty_percent():
    doc = uniform_doc()
    reduced = transform_reduction(doc, Fraction(1, 2))
    percent = compare(account(doc), account(reduced))
    assert percent == pytest.approx(50.0, abs=1e-6)


def test_compare_relocated_within_tenth_percent():
    doc = uniform_doc(100)
    relocated = transform_relocation(doc, 2)
    percent = compare(account(doc), account(relocated))
    assert abs(percent) < 0.1


def test_compare_rounds_to_four_decimals():
    suspect = account("G1 X1 E2\n")
    assert compare(account("G1 X1 E3\n"), suspect) == pytest.approx(100 / 3)
    assert suspect.comparison == {"reference_total_mm": "3", "suspect_total_mm": "2",
                                  "reduction_percent": 33.3333, "normalized_percent": 66.6667}


def test_compare_zero_reference():
    with pytest.raises(InsufficientData):
        compare(account("G0 X1\n"), account("G1 X2 E1\n"))


def test_compare_fills_comparison_field():
    doc = uniform_doc()
    suspect = account(transform_reduction(doc, Fraction(3, 10)))
    compare(account(doc), suspect)
    assert suspect.comparison["reduction_percent"] == pytest.approx(30.0, abs=1e-6)
    assert suspect.comparison["normalized_percent"] == pytest.approx(70.0, abs=1e-6)


def test_normalized_curve_csv_reproduces_sweep():
    doc = uniform_doc()
    reference = account(doc)
    labels = ["r10", "r30", 'r50, "half"']  # the last is quoted by CSV rules
    suspects = [
        (label, account(transform_reduction(doc, Fraction(r, 100))))
        for label, r in zip(labels, (10, 30, 50))
    ]
    text = normalized_curve_csv(reference, suspects)
    assert text.splitlines()[0] == "label,reduction_percent,normalized_percent"
    assert text.splitlines()[1] == "r10,10.0000,90.0000"
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert [r[0] for r in rows] == labels
    assert [float(r[2]) for r in rows] == pytest.approx([90.0, 70.0, 50.0], abs=1e-3)
