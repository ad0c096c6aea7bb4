import math
import statistics
import tracemalloc
from fractions import Fraction

import pytest

from flawsim import fixtures
from flawsim.audit import (
    FLOW_OUTLIER,
    RELOCATION_SIGNATURE,
    Anomaly,
    InsufficientData,
    ParseError,
    SegmentRecord,
    ZeroReferenceTotal,
    account,
    compare,
    detect_relocation,
    normalized_curve_csv,
)
from flawsim.tamper import transform_reduction, transform_relocation

TAMPERED_THREE = "G1 X1 Y2 E3\nG0 X2 Y3\nG1 X3 Y4 E5\n"


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
    for doc in ("G1 E4 X@3\n", "G1 X1 E\u0663\n", "G01 X1 E5 *12\n", "G092 E5 *1\n", "G00 X1 E\n"):
        with pytest.raises(ParseError):
            account(doc)
    # G010 is G10, not a move: its malformed tail is skipped like any noise
    assert account("G010 X1 *1\nG1 X1 E5\n").total_extrusion.raw == 50_000


def test_account_parse_error_on_bad_mode_switch():
    # a mode switch changes every later delta, so a malformed one is not noise
    for switch in ("M83 *12", "M83 E", "M82 S", "M083 *1"):
        with pytest.raises(ParseError, match=r"^line 1: cannot parse") as err:
            account(f"{switch}\nG1 X1 E1\nG1 X2 E1\n")
        assert err.value.line_no == 1
    assert account("M83\nG1 X1 E1\nG1 X2 E1\n").total_extrusion.raw == 20_000
    # M820 and M8 are other commands: their malformed tails are noise
    assert account("M820 *1\nM8 *1\nG1 X1 E5\n").total_extrusion.raw == 50_000


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
    doc = fixtures.performance_document(2_000)
    tracemalloc.start()
    try:
        report = account(doc)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 68 bytes of columns per move; a record per move took 377
    assert retained / len(report.segments) < 100


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
    with pytest.raises(ZeroReferenceTotal):
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
    suspects = [
        (f"r{r}", account(transform_reduction(doc, Fraction(r, 100))))
        for r in (10, 30, 50)
    ]
    csv = normalized_curve_csv(reference, suspects)
    rows = [ln.split(",") for ln in csv.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["r10", "r30", "r50"]
    assert [float(r[2]) for r in rows] == pytest.approx([90.0, 70.0, 50.0], abs=1e-3)
