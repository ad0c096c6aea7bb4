import random
import re
from fractions import Fraction

import pytest

from flawsim import fixtures
from flawsim.audit import account
from flawsim.fixedpoint import FixedPoint, FixedPointOverflow
from flawsim.gcode import iter_lines, parse_document, parse_line
from flawsim.policy import TamperPolicy
from flawsim.tamper import (
    RelativeExtrusionDetected,
    run_pipeline_equivalence,
    transform_reduction,
    transform_relocation,
)

THREE_MOVES = "G1 X1 Y2 E3\nG1 X2 Y3 E4\nG1 X3 Y4 E5\n"


# --- lossless parsing ----------------------------------------------------------


def test_unedited_lines_reserialize_byte_for_byte(gcode_corpus):
    for name, doc in gcode_corpus.items():
        assert "".join(line.text() for line in parse_document(doc)) == doc, name


def naive_split(doc):
    """(body, terminator) pairs by str.split: CRLF and LF end a line, a
    lone CR is body text, and text after the last newline is a line with
    no terminator."""
    *ended, last = doc.split("\n")
    pairs = [(body[:-1], "\r\n") if body.endswith("\r") else (body, "\n") for body in ended]
    return pairs + [(last, "")] if last else pairs


def test_iter_lines_parses_one_line_at_a_time(gcode_corpus):
    edges = ["", "\n", "a", "a\r", "a\r\n", "\r", "\r\n\r\n", "x\ry\n",
             "G1 X1 E2\r\nG1 X2 E3", "G1 X1 E2\r\nG1 X2 E3\r"]
    for doc in edges + list(gcode_corpus.values()):
        lines = iter_lines(doc)
        assert iter(lines) is lines  # a generator, not a list
        expected = [parse_line(body, eol) for body, eol in naive_split(doc)]
        got = list(lines)
        assert got == expected, repr(doc[:40])
        assert "".join(line.text() for line in got) == doc, repr(doc[:40])
        assert parse_document(doc) == expected, repr(doc[:40])


def test_parse_line_structure():
    line = parse_line("G1 X2.5 Y-3 E4.1234 ; shell", "\n")
    assert (line.letter, line.number) == ("G", 1)
    assert [p[0] for p in line.params] == ["X", "Y", "E"]
    assert line.param("E") == ("E", 41_234, 11, 13, 19)
    assert line.body[line.comment_start :] == "; shell"


def test_parse_line_malformed_params():
    line = parse_line("G1 E4 X@3")
    assert line.letter is None
    assert line.malformed


NINES = "9" * 5000  # int() refuses strings this long; the parser must not raise


def cmd(params, number_span=(1, 2), comment_start=None):
    return ("G", 1, number_span, params, comment_start, False)


def other(comment_start=None, malformed=False):
    return (None, None, None, [], comment_start, malformed)


EDGE_CASES = [
    # values
    ("G1 E0000000000000001.5", cmd([("E", 15_000, 2, 4, 22)])),
    ("G1 E" + NINES, other(malformed=True)),
    ("G1 X214748.3647", cmd([("X", 2_147_483_647, 2, 4, 15)])),
    ("G1 X-214748.3647", cmd([("X", -2_147_483_647, 2, 4, 16)])),
    ("G1 X214748.36475", other(malformed=True)),
    ("G1 E0.41235", cmd([("E", 4_124, 2, 4, 11)])),
    ("G1 E-0.00005", cmd([("E", -1, 2, 4, 12)])),
    ("G1 E1.0000049", cmd([("E", 10_000, 2, 4, 13)])),
    ("G1 E-0", cmd([("E", 0, 2, 4, 6)])),
    ("G1 E+.5", cmd([("E", 5_000, 2, 4, 7)])),
    ("G1 E5.", cmd([("E", 50_000, 2, 4, 6)])),
    ("G1 E.", other(malformed=True)),
    ("G1 E-", other(malformed=True)),
    # trailing whitespace is anything str.isspace() accepts
    ("G1 X1\t", cmd([("X", 10_000, 2, 4, 5)])),
    ("G1 X1\r", cmd([("X", 10_000, 2, 4, 5)])),
    ("G1 X1\xa0", cmd([("X", 10_000, 2, 4, 5)])),
    ("G1 X1\t Y2", other(malformed=True)),
    # token shapes
    ("G1X5", other(malformed=True)),
    ("G1 X1.2.3", other(malformed=True)),
    ("G1 E5 *12", other(malformed=True)),
    ("G1 x1", other(malformed=True)),
    ("   G1 X1", cmd([("X", 10_000, 5, 7, 8)], number_span=(4, 5))),
    ("G1  X1  E2", cmd([("X", 10_000, 2, 5, 6), ("E", 20_000, 6, 9, 10)])),
    ("G1 X1 X2", cmd([("X", 10_000, 2, 4, 5), ("X", 20_000, 5, 7, 8)])),
    ("M73", ("M", 73, (1, 3), [], None, False)),
    # command numbers: leading zeros are legal, past 2**31 - 1 is malformed
    ("G" + "0" * 5000 + "1", ("G", 1, (1, 5002), [], None, False)),
    ("G2147483647", ("G", 2_147_483_647, (1, 11), [], None, False)),
    ("G2147483648 X1", other(malformed=True)),
    ("G" + "1" * 5000, other(malformed=True)),
    # comments and empty lines
    ("", other()),
    ("; layer 2", other(comment_start=0)),
    ("  ;G1 X1", other(comment_start=2)),
    ("G1 X1;E5", cmd([("X", 10_000, 2, 4, 5)], comment_start=5)),
    ("G1 X;1", other(comment_start=4, malformed=True)),
    # ASCII digits only: other Unicode digits are not digits here
    ("G1 E\u0663", other(malformed=True)),
    ("G1 E\xb2", other(malformed=True)),
    ("G1 X1 E5\u0663", other(malformed=True)),
    ("G\u0661 X1 E5", other()),
]


@pytest.mark.parametrize(
    "body, expected", [pytest.param(b, e, id=ascii(b)[:32]) for b, e in EDGE_CASES]
)
def test_parse_line_edge_table(body, expected):
    line = parse_line(body)
    got = (line.letter, line.number, line.number_span, list(line.params), line.comment_start, line.malformed)
    assert got == expected
    assert line.text() == body + "\n"


def test_param_returns_first_duplicate():
    assert parse_line("G1 X1 X2").param("X") == ("X", 10_000, 2, 4, 5)


# The grammar as one regex over the code part of a line, checked with
# fullmatch, and each value decoded by FixedPoint.parse: the reference the
# one-walk parser is cross-checked against.
_ORACLE_VALUE = r"[-+]?(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?"
_ORACLE_LINE = re.compile(rf" *([A-Z])([0-9]+)((?: +[A-Z]{_ORACLE_VALUE})*)\s*")
_ORACLE_PARAM = re.compile(rf" +([A-Z])({_ORACLE_VALUE})")
_ORACLE_CMD = re.compile(r" *[A-Z][0-9]")


def oracle_parse(body):
    comment = body.find(";")
    comment_start = None if comment < 0 else comment
    code = body if comment < 0 else body[:comment]
    m = _ORACLE_LINE.fullmatch(code)
    if m is None:
        return other(comment_start, malformed=_ORACLE_CMD.match(code) is not None)
    digits = m[2].lstrip("0") or "0"
    if len(digits) > 10 or int(digits) > 2**31 - 1:
        return other(comment_start, malformed=True)
    params = []
    for pm in _ORACLE_PARAM.finditer(code, m.start(3), m.end(3)):
        try:
            raw = FixedPoint.parse(pm[2]).raw
        except FixedPointOverflow:
            return other(comment_start, malformed=True)
        params.append((pm[1], raw, pm.start(), pm.start(2), pm.end()))
    return (m[1], int(digits), m.span(2), params, comment_start, False)


_NUMBERS = ["1", "1", "0", "01", "092", "73", "2147483647", "2147483648", "0000000000002147483647", ""]
_SEPARATORS = [" "] * 4 + ["  ", "\t ", " \t", "", "\t", "\xa0"]
_LETTERS = "XYZEFPx*"
_SIGNS = [""] * 6 + ["-", "+", "--"]
_INTS = ["", "0", "00", "5", "12", "214748", "214749", "0000214748", "2147483647", "\xb2"]
_FRACS = ["", "", ".", ".5", ".3647", ".3648", ".36475", ".36474", ".00005", ".1.2"]
_TAILS = ["", "", "", " ", "\t", "\xa0", "\r", "\x0b", "\x1c", "\x85", " \r", " *12", "*12", " ; wall", ";E5", "\t;x"]


def random_value_text(rng):
    if rng.random() < 0.4:
        int_part = str(rng.randrange(10 ** rng.randrange(1, 8)))
    else:
        int_part = rng.choice(_INTS)
    if rng.random() < 0.3:
        frac = "." + str(rng.randrange(10 ** rng.randrange(1, 7)))
    else:
        frac = rng.choice(_FRACS)
    return rng.choice(_SIGNS) + int_part + frac


def random_command_line(rng):
    # a noisy line draws separators and letters from the odd shapes too
    noisy = rng.random() < 0.4
    parts = [" " * rng.choice((0, 0, 0, 1, 3)), rng.choice("GGGGMMTg"), rng.choice(_NUMBERS)]
    for _ in range(rng.randrange(6)):
        separator = rng.choice(_SEPARATORS if noisy else (" ", " ", "  "))
        letter = rng.choice(_LETTERS if noisy else "XYZEEF")
        parts += (separator, letter, random_value_text(rng))
    parts.append(rng.choice(_TAILS))
    return "".join(parts)


def test_parse_line_matches_one_regex_oracle():
    rng = random.Random(20211)
    outcomes = {"command": 0, "malformed": 0, "other": 0}
    for _ in range(8000):
        body = random_command_line(rng)
        line = parse_line(body, "\r\n")
        got = (line.letter, line.number, line.number_span, list(line.params), line.comment_start, line.malformed)
        assert got == oracle_parse(body), ascii(body)
        assert line.text() == body + "\r\n"
        outcomes["command" if line.letter is not None else "malformed" if line.malformed else "other"] += 1
    # the generator reaches every outcome often enough to mean something
    assert min(outcomes.values()) >= 300, outcomes


# --- reduction -------------------------------------------------------------------


def test_reduction_worked_example():
    assert transform_reduction("G1 X2 Y3 E4", Fraction(1, 2)) == "G1 X2 Y3 E2"


def test_reduction_fraction_zero_is_identity(gcode_corpus):
    for name, doc in gcode_corpus.items():
        assert transform_reduction(doc, 0) == doc, name


def test_reduction_only_touches_extruding_moves():
    doc = "G0 X1 E5\nM204 E900\nG92 E0\nG1 Z2 F600\n; E9 comment\n"
    assert transform_reduction(doc, Fraction(1, 2)) == doc


def test_reduction_scales_audited_total_exactly():
    doc = fixtures.generate_gcode(segments=6, m73_step=None)
    reduced = transform_reduction(doc, Fraction(1, 10))
    assert account(reduced).total_extrusion.raw * 10 == account(doc).total_extrusion.raw * 9


def test_reduction_total_within_one_ulp_per_edited_line():
    # arbitrary-precision values: rounding error is bounded by one raw
    # unit per edited move, so the audited total stays inside that band
    lines = [f"G1 X{i} E{i}.00007" for i in range(1, 40)]
    doc = "\n".join(lines) + "\n"
    for num, den in ((1, 3), (1, 7), (13, 100)):
        reduced = transform_reduction(doc, Fraction(num, den))
        exact = account(doc).total_extrusion.raw * Fraction(den - num, den)
        got = account(reduced).total_extrusion.raw
        assert abs(got - exact) <= len(lines)


def test_reduction_leaves_non_ascii_digit_lines_alone():
    # "\u0663" and "\u0661" are Arabic-Indic digits: int() and \d accept
    # them, the firmware does not.  "E\u0663" makes its line malformed and
    # "G\u0661" is no command, so both pass through untouched.
    doc = "G1 X1 E4\nG1 X2 E\u0663\nG\u0661 X3 E5\n"
    assert transform_reduction(doc, Fraction(1, 2)) == "G1 X1 E2\nG1 X2 E\u0663\nG\u0661 X3 E5\n"


def test_reduction_preserves_non_target_bytes():
    doc = "G1  X2   Y3 E4 ; note\r\nG1 E8\n"
    out = transform_reduction(doc, Fraction(1, 2))
    assert out == "G1  X2   Y3 E2 ; note\r\nG1 E4\n"


# --- relocation ------------------------------------------------------------------


def in_window(doc: str) -> str:
    return f"M73 P30\n{doc}M73 P80\n"


def test_relocation_conserves_three_move_example():
    doc = in_window(THREE_MOVES)
    out = transform_relocation(doc, 2)
    assert "G0 X2 Y3\n" in out
    report = account(out)
    deposits = [s.delta_raw for s in report.segments]
    assert deposits == [30_000, 0, 20_000]  # 3mm, 0mm, 2mm caught up
    assert report.total_extrusion.raw == 50_000  # total stays 5mm
    assert account(doc).total_extrusion.raw == 50_000


def test_relocation_window_excludes_everything():
    doc = "M73 P10\n" + THREE_MOVES + "M73 P80\n" + "G1 X9 Y9 E9\n"
    assert transform_relocation(doc, 2) == doc


def test_relocation_counts_only_in_window():
    lines = [f"G1 X{i} E{i}" for i in range(1, 11)]
    doc = in_window("\n".join(lines) + "\n")
    out = transform_relocation(doc, 2)
    converted = [i for i, ln in enumerate(out.splitlines()) if ln.startswith("G0")]
    # eligible positions 2,4,6,8,10 -> doc lines 2,4,6,8,10 (body offset +1 for marker)
    assert converted == [2, 4, 6, 8, 10]
    assert len(converted) == 10 // 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relocation_counter_rule_brute_force(n):
    lines = [f"G1 X{i} E{i}" for i in range(1, 24)]
    doc = in_window("\n".join(lines) + "\n")
    out_lines = transform_relocation(doc, n).splitlines()
    eligible = 0
    expected_converted = []
    for i, body in enumerate(doc.splitlines()):
        if body.startswith("G1") and " E" in body:
            eligible += 1
            if eligible % n == 0:
                expected_converted.append(i)
    assert [i for i, ln in enumerate(out_lines) if ln.startswith("G0")] == expected_converted


def test_relocation_refuses_relative_extrusion():
    doc = "M83\n" + in_window(THREE_MOVES)
    with pytest.raises(RelativeExtrusionDetected):
        transform_relocation(doc, 2)


def test_relocation_allows_m83_after_window_closed():
    doc = in_window(THREE_MOVES) + "M83\nG1 E1\n"
    out = transform_relocation(doc, 2)
    assert out.endswith("M83\nG1 E1\n")


def test_relocation_total_conserved_on_uniform_fixture():
    doc = fixtures.generate_gcode(segments=100, m73_step=5)
    for n in (2, 3, 4):
        out = transform_relocation(doc, n)
        assert account(out).total_extrusion.raw == account(doc).total_extrusion.raw


# --- equivalence oracle -------------------------------------------------------------


POLICIES = [
    TamperPolicy.off(),
    TamperPolicy.reduction(Fraction(1, 2)),
    TamperPolicy.reduction(Fraction(3, 10)),
    TamperPolicy.relocation(2),
    TamperPolicy.relocation(3),
    TamperPolicy.relocation(4),
]


def test_equivalence_off_policy_is_identity(gcode_corpus):
    for name, doc in gcode_corpus.items():
        report = run_pipeline_equivalence(doc, TamperPolicy.off())
        assert report.identical, f"{name}: {report.describe()}"
        assert report.sim_output == doc


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: f"{p.mode.value}-{p.param_byte()}")
def test_equivalence_across_corpus(policy, gcode_corpus):
    for name, doc in gcode_corpus.items():
        report = run_pipeline_equivalence(doc, policy)
        assert report.identical, f"{name} under {policy.mode}: {report.describe()}"


def test_equivalence_relative_mode_reduction():
    doc = "M83\nG1 E0.5\nG1 E-1.5\nG1 E0.5\n"
    report = run_pipeline_equivalence(doc, TamperPolicy.reduction(Fraction(1, 2)))
    assert report.identical
    assert report.sim_output == "M83\nG1 E0.25\nG1 E-0.75\nG1 E0.25\n"


def test_equivalence_degenerate_double_extrusion_param():
    # not legal slicer output, but both paths must still agree on it
    doc = "G1 E4 E8\n"
    report = run_pipeline_equivalence(doc, TamperPolicy.reduction(Fraction(1, 2)))
    assert report.identical
    assert report.sim_output == "G1 E2 E4\n"


@pytest.mark.parametrize("doc", [
    "G1 E-\n",
    "G1 E- \n",
    "G1 E. X5\n",
    "G1 E+ F100\n",
    "G1 X1 E;c\n",
    "G1 E E5\n",
    "G1 E- E5\n",
    "G1 E. X1 E5\n",
])
def test_equivalence_valueless_tokens_pass_untouched(doc):
    # a target letter with no digits never becomes a value: both paths
    # leave the line byte-identical, an E value after it included, and do
    # not count it as eligible
    for policy in (TamperPolicy.reduction(Fraction(1, 2)), TamperPolicy.relocation(2)):
        report = run_pipeline_equivalence(doc, policy)
        assert report.identical, report.describe()
        assert report.sim_output == doc


@pytest.mark.parametrize("doc", [
    "G1 E\xb2\n",
    "G1 X1 E\xb3\nG1 X2 E5\n",
    "G\xb9 X1 E5\n",
    "M73 P\xb2\nM73 P30\nG1 X1 E5\nG1 X2 E6\nM73 P80\n",
])
def test_equivalence_latin1_superscripts_are_not_digits(doc):
    # superscript two, three and one are digits to str.isdigit(), not to
    # the firmware's NUMERIC(): neither path may fold them as byte - 48
    for policy in (TamperPolicy.reduction(Fraction(1, 2)), TamperPolicy.relocation(2)):
        report = run_pipeline_equivalence(doc, policy)
        assert report.identical, report.describe()


@pytest.mark.parametrize("doc", [
    "\rG1 X1 E5\n",
    "  \rG1 X1 E5\n",
    "M73 P30\nG1 X0 E1\n\rG1 X1 E5\nG1 X2 E6\n",
])
def test_equivalence_line_start_cr_skips_the_line(doc):
    # the transform sees no command in a line whose first byte after any
    # spaces is a CR: the stream must neither edit it nor count it
    for policy in (TamperPolicy.reduction(Fraction(1, 2)), TamperPolicy.relocation(2)):
        report = run_pipeline_equivalence(doc, policy)
        assert report.identical, report.describe()
        assert "\rG1 X1 E5\n" in report.sim_output


def test_equivalence_digitless_e_line_is_not_counted_for_relocation():
    # the malformed line is neither converted nor counted, so the second
    # well-formed move after it converts
    doc = "M73 P30\nG1 E E5\nG1 X1 E6\nG1 X2 E7\n"
    report = run_pipeline_equivalence(doc, TamperPolicy.relocation(2))
    assert report.identical, report.describe()
    assert report.sim_output == "M73 P30\nG1 E E5\nG1 X1 E6\nG0 X2\n"


def test_degenerate_token_does_not_shift_relocation_phase():
    doc = "M73 P30\nG1 X1 E1\nG1 E-\nG1 X2 E2\nG1 X3 E3\nM73 P80\n"
    report = run_pipeline_equivalence(doc, TamperPolicy.relocation(2))
    assert report.identical
    lines = report.sim_output.splitlines()
    assert lines[2] == "G1 E-"  # malformed: not converted, not counted
    assert lines[3] == "G0 X2"  # second *well-formed* value converts


def test_equivalence_report_pinpoints_divergence():
    # different policies give different bytes: compare manually via the report
    doc = "G1 E4\n"
    ref = run_pipeline_equivalence(doc, TamperPolicy.reduction(Fraction(1, 2)))
    assert ref.identical
    assert ref.sim_output != doc
