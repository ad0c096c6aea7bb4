import random
import re
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from flawsim import fixtures
from flawsim.audit import account
from flawsim.fixedpoint import FixedPointOverflow
from flawsim.gcode import parse_document, parse_line
from flawsim import policy as policy_mod
from flawsim.policy import TamperPolicy
from flawsim.tamper import apply_policy, transform_reduction, transform_relocation
from flawsim.uart import UartSimulation
from tamper_oracle import run_pipeline_equivalence
from test_fixedpoint import decode_literal

THREE_MOVES = "G1 X1 Y2 E3\nG1 X2 Y3 E4\nG1 X3 Y4 E5\n"


# --- lossless parsing ----------------------------------------------------------


def test_unedited_lines_reserialize_byte_for_byte(gcode_corpus):
    for name, doc in gcode_corpus.items():
        assert "".join(line.body + "\n" for line in parse_document(doc)) == doc, name


def naive_split(doc):
    """Line bodies by str.split: LF ends a line, a CR is body text, and
    text after the last newline is a line."""
    *ended, last = doc.split("\n")
    return ended + [last] if last else ended


def test_parse_document_splits_lines_at_lf(gcode_corpus):
    edges = ["", "\n", "a", "a\r", "a\r\n", "\r", "\r\n\r\n", "x\ry\n",
             "G1 X1 E2\r\nG1 X2 E3", "G1 X1 E2\r\nG1 X2 E3\r"]
    for doc in edges + list(gcode_corpus.values()):
        expected = [parse_line(body) for body in naive_split(doc)]
        assert parse_document(doc) == expected, repr(doc[:40])


def test_parse_line_structure():
    line = parse_line("G1 X2.5 Y-3 E4.1234 ; shell")
    assert (line.letter, line.number, line.malformed) == ("G", 1, False)
    assert line.params == [("X", 25_000), ("Y", -30_000), ("E", 41_234)]


def test_parse_line_malformed_params():
    # the head stays, so a caller can tell which command it could not read
    line = parse_line("G1 E4 X@3")
    assert (line.letter, line.number, line.params) == ("G", 1, [])
    assert line.malformed


NINES = "9" * 5000  # int() refuses strings this long; the parser must not raise


def cmd(params, letter="G", number=1):
    return (letter, number, params, False)


def bad(letter="G", number=1):
    return (letter, number, [], True)


def other(malformed=False):
    return (None, None, [], malformed)


EDGE_CASES = [
    # values
    ("G1 E0000000000000001.5", cmd([("E", 15_000)])),
    ("G1 E" + NINES, bad()),
    ("G1 X214748.3647", cmd([("X", 2_147_483_647)])),
    ("G1 X-214748.3647", cmd([("X", -2_147_483_647)])),
    ("G1 X214748.36475", bad()),
    ("G1 E0.41235", cmd([("E", 4_124)])),
    ("G1 E-0.00005", cmd([("E", -1)])),
    ("G1 E1.0000049", cmd([("E", 10_000)])),
    ("G1 E-0", cmd([("E", 0)])),
    ("G1 E+.5", cmd([("E", 5_000)])),
    ("G1 E5.", cmd([("E", 50_000)])),
    ("G1 E.", bad()),
    ("G1 E-", bad()),
    # trailing whitespace is anything str.isspace() accepts
    ("G1 X1\t", cmd([("X", 10_000)])),
    ("G1 X1\r", cmd([("X", 10_000)])),
    ("G1 X1\xa0", cmd([("X", 10_000)])),
    ("G1 X1\t Y2", bad()),
    # token shapes
    ("G1X5", bad()),
    ("G1 X1.2.3", bad()),
    ("G1 E5 *12", bad()),
    ("G1 x1", bad()),
    ("G01 X1 *1", bad()),
    ("M83X", bad("M", 83)),
    ("   G1 X1", cmd([("X", 10_000)])),
    ("G1  X1  E2", cmd([("X", 10_000), ("E", 20_000)])),
    ("G1 X1 X2", cmd([("X", 10_000), ("X", 20_000)])),
    ("M73", cmd([], "M", 73)),
    # command numbers: leading zeros are legal, past 2**31 - 1 is malformed
    ("G" + "0" * 5000 + "1", cmd([])),
    ("G2147483647", cmd([], "G", 2_147_483_647)),
    ("G2147483648 X1", other(malformed=True)),
    ("G" + "1" * 5000, other(malformed=True)),
    # comments and empty lines
    ("", other()),
    ("; layer 2", other()),
    ("  ;G1 X1", other()),
    ("G1 X1;E5", cmd([("X", 10_000)])),
    ("G1 X;1", bad()),
    # ASCII digits only: other Unicode digits are not digits here
    ("G1 E\u0663", bad()),
    ("G1 E\xb2", bad()),
    ("G1 X1 E5\u0663", bad()),
    ("G\u0661 X1 E5", other()),
]


@pytest.mark.parametrize(
    "body, expected", [pytest.param(b, e, id=ascii(b)[:32]) for b, e in EDGE_CASES]
)
def test_parse_line_edge_table(body, expected):
    line = parse_line(body)
    assert (line.letter, line.number, line.params, line.malformed) == expected
    assert line.body == body


def test_param_returns_first_duplicate():
    assert parse_line("G1 X1 X2").params == [("X", 10_000), ("X", 20_000)]
    # account reads the first of duplicate letters
    assert account("G1 X1 X2 E1\n").segments[0].end == (1.0, 0.0, 0.0)


# The grammar as one regex over the code part of a line, checked with
# fullmatch, and each value decoded by decode_literal: the reference the
# one-walk parser is cross-checked against.
_ORACLE_VALUE = r"[-+]?(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?"
_ORACLE_LINE = re.compile(rf" *([A-Z])([0-9]+)((?: +[A-Z]{_ORACLE_VALUE})*)\s*")
_ORACLE_PARAM = re.compile(rf" +([A-Z])({_ORACLE_VALUE})")
_ORACLE_HEAD = re.compile(r" *([A-Z])([0-9]+)")


def oracle_parse(body):
    code = body.split(";", 1)[0]
    head = _ORACLE_HEAD.match(code)
    if head is None:
        return other()
    digits = head[2].lstrip("0") or "0"
    if len(digits) > 10 or int(digits) > 2**31 - 1:
        return other(malformed=True)
    letter, number = head[1], int(digits)
    m = _ORACLE_LINE.fullmatch(code)
    if m is None:
        return bad(letter, number)
    params = []
    for pm in _ORACLE_PARAM.finditer(code, m.start(3), m.end(3)):
        try:
            params.append((pm[1], decode_literal(pm[2])))
        except FixedPointOverflow:
            return bad(letter, number)
    return cmd(params, letter, number)


_COMMAND_NUMBERS = ["1", "1", "0", "01", "092", "73", "2147483647", "2147483648", "0000000000002147483647", ""]
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
    parts = [" " * rng.choice((0, 0, 0, 1, 3)), rng.choice("GGGGMMTg"), rng.choice(_COMMAND_NUMBERS)]
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
        line = parse_line(body)
        got = (line.letter, line.number, line.params, line.malformed)
        assert got == oracle_parse(body), ascii(body)
        outcomes["malformed" if line.malformed else "command" if line.letter is not None else "other"] += 1
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
    for percent in (33, 14, 13):
        reduced = transform_reduction(doc, Fraction(percent, 100))
        exact = account(doc).total_extrusion.raw * Fraction(100 - percent, 100)
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


def test_relocation_goes_dormant_on_relative_extrusion():
    # a switch before the window opens: nothing after it is converted
    doc = "M83\n" + in_window(THREE_MOVES)
    assert transform_relocation(doc, 2) == doc
    report = run_pipeline_equivalence(doc, TamperPolicy.relocation(2))
    assert report.identical, report.describe()


def test_relocation_allows_m83_after_window_closed():
    doc = in_window(THREE_MOVES) + "M83\nG1 E1\n"
    out = transform_relocation(doc, 2)
    assert out.endswith("M83\nG1 E1\n")


CAUGHT_UP = "M73 P30\nG1 X1 E1\nG1 X2 E2\n"


@pytest.mark.parametrize("doc, before, after", [
    # the converted E2 is followed by an M83, a G92 or the end of the
    # print before any absolute target: its 1 mm is lost
    (CAUGHT_UP + "M83\nG1 X3 E1\nG1 X4 E1\n", 40_000, 30_000),
    (CAUGHT_UP + "G92 E0\nG1 X3 E1\nG1 X4 E2\n", 40_000, 20_000),  # E2 twice
    (CAUGHT_UP, 20_000, 10_000),
    # E3 catches up the first conversion; the second ends the print
    (CAUGHT_UP + "G1 X3 E3\nG1 X4 E4\n", 40_000, 30_000),
])
def test_relocation_loses_a_target_nothing_catches_up(doc, before, after):
    out = transform_relocation(doc, 2)
    assert (account(doc).total_extrusion.raw, account(out).total_extrusion.raw) == (before, after)
    report = run_pipeline_equivalence(doc, TamperPolicy.relocation(2))
    assert report.identical, report.describe()


def test_relocation_total_conserved_on_uniform_fixture():
    doc = fixtures.generate_gcode(segments=100, m73_step=5)
    for n in (2, 3, 4):
        out = transform_relocation(doc, n)
        assert account(out).total_extrusion.raw == account(doc).total_extrusion.raw


# --- the payload parameter ------------------------------------------------------

# (payload, arguments, the param byte a build stores, or None where no build
# could carry it); the policy and the transform of each payload take the
# same arguments and refuse the same ones alike
PARAMETER_RULE = [
    ("reduction", (0,), 0),
    ("reduction", (Fraction(1, 100),), 1),
    ("reduction", (Fraction(3, 10),), 30),
    ("reduction", ("0.3",), 30),
    ("reduction", (0.3,), 30),
    ("reduction", (1,), 100),
    ("reduction", (Fraction(1, 3),), None),
    ("reduction", (Fraction(333, 1000),), None),
    ("reduction", (Fraction(-1, 100),), None),
    ("reduction", (Fraction(101, 100),), None),
    ("reduction", ("30e-2",), 30),
    ("reduction", ("0.003e2",), 30),
    ("reduction", ("1/0",), None),
    ("reduction", ("1e-3000000",), None),
    ("relocation", (3, 25, 75), 3),
    ("relocation", (1, 25, 75), None),
    ("relocation", (5, 25, 75), None),
    ("relocation", (2.0, 25, 75), None),
    ("relocation", (2, 50, 50), None),
    ("relocation", (2, 80, 20), None),
    ("relocation", (2, 0, 101), None),
]
TRANSFORMS = {"reduction": transform_reduction, "relocation": transform_relocation}


@pytest.mark.parametrize("payload, args, param", PARAMETER_RULE,
                         ids=[f"{p}{a!r}" for p, a, _ in PARAMETER_RULE])
def test_policy_and_transform_share_the_parameter_rule(payload, args, param):
    build, transform = getattr(TamperPolicy, payload), TRANSFORMS[payload]
    doc = "M73 P30\nG1 X1 E5\nG1 X2 E6\nG1 X3 E7\n"
    if param is not None:
        assert build(*args).param == param
        assert transform(doc, *args) == apply_policy(doc, build(*args))
        return
    with pytest.raises(ValueError) as policy_refused:
        build(*args)
    with pytest.raises(ValueError) as transform_refused:
        transform(doc, *args)
    assert str(transform_refused.value) == str(policy_refused.value)


def test_reduction_refuses_an_exponent_before_expanding_it(monkeypatch):
    # a whole percent needs no exponent above the length of its text;
    # Fraction("1e-3000000") alone takes about a second
    expanded = []
    monkeypatch.setattr(policy_mod, "Fraction", expanded.append)
    for text in ("1e-3000000", "1E+3000000", "0.3e99"):
        with pytest.raises(ValueError, match=r"^reduction must be a whole percent in \[0, 100\], got "):
            TamperPolicy.reduction(text)
    assert expanded == []


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


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: f"{p.mode.value}-{p.param}")
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


@pytest.mark.parametrize("doc, policy", [
    ("G2147483648\nG1 X1 E5\n", TamperPolicy.reduction(Fraction(1, 2))),
    ("G1G1 E5\n", TamperPolicy.reduction(Fraction(1, 2))),
    ("G1M73 E5\n", TamperPolicy.reduction(Fraction(1, 2))),
    ("G1X1 E5\n", TamperPolicy.reduction(Fraction(1, 2))),
    ("G01X1 E5\n", TamperPolicy.reduction(Fraction(1, 2))),
    ("G1\rG1 X2 E6\n", TamperPolicy.reduction(Fraction(1, 2))),
    ("M73 P30\nM99999999999\nG1 X1 E5\nG1 X2 E6\n", TamperPolicy.relocation(2)),
    ("M73 P30\nM73X P80\nG1 X1 E5\nG1 X2 E6\n", TamperPolicy.relocation(2)),
])
def test_equivalence_malformed_command_heads_skip_the_line(doc, policy):
    # a command number past 2**31 - 1, or a head glued to the next byte, is
    # no command to the transform: the stream skips that line too, and
    # stays live for the lines after it
    sim = UartSimulation(policy)
    streamed = "".join(sim.feed(doc)) + sim.flush_residual()
    assert streamed == apply_policy(doc, policy)
    assert sim.stats.dormant_events == 0


def test_divergence_search_reports_every_policy():
    # every document of up to three tokens streams byte-identical to the
    # transform under every policy the tool runs, followed by complete
    # lines and by a last line with no newline
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "divergence_search.py"))
    found = tool["search"](3)
    assert len(found) == len(tool["TAILS"]) * len(tool["POLICIES"])
    assert found == [[]] * len(found)


@pytest.mark.parametrize("doc, policy, expected", [
    # a percentage past the 32-bit budget: dormant, the rest passes unchanged
    ("M73 P30\nM73 P99999999999\nG1 X1 E5\nG1 X2 E6\n", TamperPolicy.relocation(2),
     "M73 P30\nM73 P99999999999\nG1 X1 E5\nG1 X2 E6\n"),
    # a percentage is read up to its first non-digit: 5% closes the window
    ("M73 P30\nM73 P5x\nG1 X1 E5\nG1 X2 E6\n", TamperPolicy.relocation(2),
     "M73 P30\nM73 P5x\nG1 X1 E5\nG1 X2 E6\n"),
    # a lone CR is body text: both E values are targets of the one move
    ("G1 X1 E5\rG1 X2 E6\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 X1 E2.5\rG1 X2 E3\n"),
    ("M73 P30\nG1 X1 E5\rG1 X2 E6\n", TamperPolicy.relocation(2), "M73 P30\nG0 X1 E5\rG1 X2\n"),
    # what precedes or follows a target does not matter
    ("G1 P E5\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 P E2.5\n"),
    ("G1 *1 E5\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 *1 E2.5\n"),
    ("G1 E5G1\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 E2.5G1\n"),
    # each E is a target: the second is the second eligible one
    ("M73 P30\nG1 E5 E5\nG1 X8 E8\n", TamperPolicy.relocation(2), "M73 P30\nG0 E5\nG1 X8 E8\n"),
    # an E after any run of spaces is a target, one after a tab or glued
    # to a value is not, and nor is one after a ';'
    ("G1  E5\n", TamperPolicy.reduction(Fraction(1, 2)), "G1  E2.5\n"),
    ("G1 X1\tE5\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 X1\tE5\n"),
    ("G1 E5E6\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 E2.5E6\n"),
    ("G1 X1 ;E5\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 X1 ;E5\n"),
    ("G1 X1; E5\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 X1; E5\n"),
    # a digitless E ends the line's targets
    ("G1 E E5\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 E E5\n"),
    # a CR before the LF is body text after the last value
    ("G1 E5 E6\r\n", TamperPolicy.reduction(Fraction(1, 2)), "G1 E2.5 E3\r\n"),
    # a target past the budget: dormant, the value and the rest as written
    ("G1 E5 E99999999999 E4\nG1 E4\n", TamperPolicy.reduction(Fraction(1, 2)),
     "G1 E2.5 E99999999999 E4\nG1 E4\n"),
], ids=["P-overflow", "P5x", "CR-reduction", "CR-relocation", "P-before-E", "star-before-E",
        "glued-G1", "second-E", "two-spaces", "tab-before-E", "glued-E", "E-in-comment",
        "E-after-comment", "digitless-E", "CRLF", "E-overflow"])
def test_equivalence_follows_the_token_rule(doc, policy, expected):
    report = run_pipeline_equivalence(doc, policy)
    assert report.identical, report.describe()
    assert report.sim_output == expected


def test_relocation_of_a_second_e_conserves_material():
    doc = "M73 P30\nG1 E5 E5\nG1 X8 E8\nG1 X9 E9\nG1 X10 E10\n"
    out = transform_relocation(doc, 2)
    assert out == "M73 P30\nG0 E5\nG1 X8 E8\nG0 X9\nG1 X10 E10\n"
    assert account(out).total_extrusion.raw == account(doc).total_extrusion.raw == 100_000


@pytest.mark.parametrize("switch", ["M83X", "M83 E"])
def test_relocation_goes_dormant_on_a_malformed_relative_switch(switch):
    # the head alone switches the stream and the transform to relative
    # extrusion, and both pass the rest of the document through
    doc = f"M73 P30\n{switch}\nG1 X1 E5\nG1 X2 E6\n"
    assert transform_relocation(doc, 2) == doc
    sim = UartSimulation(TamperPolicy.relocation(2))
    assert "".join(sim.feed(doc)) == doc
    assert sim.stats.dormant_events == 1


def test_reduction_goes_dormant_on_a_value_past_the_budget():
    # from the overflowing value on the document passes through unchanged
    doc = "G1 X1 E4\nG1 X2 E99999999999 E4\nG1 X3 E4\n"
    assert transform_reduction(doc, Fraction(1, 2)) == "G1 X1 E2\nG1 X2 E99999999999 E4\nG1 X3 E4\n"


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
