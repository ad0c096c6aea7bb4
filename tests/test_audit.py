import csv
import io
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
from conftest import REPO
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
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    chain = {f"flawsim.{m}" for m in ("uart", "stk500", "avr", "memory", "policy")}
    assert not chain & set(done.stdout.split()), done.stdout


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
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 68 bytes of columns per move; a record per move took 377
    assert retained / len(report.segments) < 100


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
    seg = report.segments
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


def decoded_moves(values):
    """For each (sign, int, frac) value v, the one segment account makes
    of "M83\nG1 X<v> E<v>\n", and where the scan put the line's X and E
    values: "plain" when they reached groups 4 and 7 and nothing is left
    in rest (group 8), "rest" when both groups are empty and rest holds
    the tokens."""
    routes = {
        (True, True, False): "plain",
        (False, False, True): "rest",
    }
    for sign, int_digits, frac_digits in values:
        value = f"{sign}{int_digits}{'.' + frac_digits if frac_digits else ''}"
        line = f"G1 X{value} E{value}"
        (m,) = audit._ACCOUNTED_RE.finditer("\n" + line)
        (segment,) = account(f"M83\n{line}\n").segments
        yield segment, routes.get((m[4] is not None, m[7] is not None, bool(m[8])))


def assert_decodes_to_raw(values, route):
    for (segment, placed), digits in zip(decoded_moves(values), values):
        raw = raw_from_digits(*digits)
        assert (placed, segment.end[1:]) == (route, (0.0, 0.0)), digits
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


# Where a token sits decides the group the scan reads it from: plain X,
# Y, Z and E in that order, with any other plain letters before and after
# them, reach groups 4-7; anything else goes to rest (group 8).  Either
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
    (m,) = audit._ACCOUNTED_RE.finditer("\n" + line)
    assert m[8] == rest
    doc = "G1 X7 Y8 Z9 E1\n" + line + "\nG1 X5 E9\n"
    # the next move starts where the line left the head, and its delta
    # counts from the line's E, or from E1 when the line has none
    x, y, z, e = decoded
    after = account(doc).segments[-1]
    assert after.start == (7.0 if x is None else x, 8.0 if y is None else y, 9.0 if z is None else z)
    assert after.delta_raw == 90_000 - (10_000 if e is None else e)
    assert account_outcome(doc) == oracle_outcome(doc)


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
