import re
from fractions import Fraction

import pytest
from tamper_oracle import run_pipeline_equivalence
from test_fuzz_equivalence import POLICIES, random_document

from flawsim import uart
from flawsim.avr import RingBufferInfo
from flawsim.fixedpoint import MAX_RAW, VALUE_PATTERN, FixedPointOverflow, raw_from_digits
from flawsim.policy import TamperPolicy
from flawsim.tamper import apply_policy
from flawsim.uart import (
    F_DORMANT,
    ST_G1_MID,
    ST_G1_TOK,
    ST_G_NUM,
    ST_G_ONE,
    ST_LINE_START,
    ST_M73_MID,
    ST_M73_TOK,
    ST_M_7,
    ST_M_8,
    ST_M_73,
    ST_M_83,
    ST_M_NUM,
    ST_SKIP,
    ST_V_INT,
    RingBufferState,
    SimStats,
    TrojanState,
    UartSimulation,
    consumer_readline,
)

OFF = TamperPolicy.off()
HALF = TamperPolicy.reduction(Fraction(1, 2))


# --- ring buffer / ISR -------------------------------------------------------


def received(text: str, size: int = 128, start: int = 0) -> RingBufferState:
    """The ring after text arrives one byte at a time, the policy off, the
    ring empty at index start before the first byte."""
    sim = UartSimulation(OFF, rx_buffer_size=size)
    sim.ring.head = sim.ring.tail = start
    for ch in text:
        sim.feed_char(ch)
    assert sim.stats.dropped == 0
    return sim.ring


def test_isr_stores_and_advances():
    ring = received("G")
    assert ring.head == 1 and ring.storage[0] == ord("G")


def test_isr_wraps_at_end():
    sim = UartSimulation(OFF)
    sim.ring.head, sim.ring.tail = 127, 10
    sim.feed_char("x")
    assert sim.ring.head == 0
    assert sim.ring.storage[127] == ord("x")
    assert sim.stats == SimStats(chars_in=1)


def test_capacity_is_size_minus_one():
    sim = UartSimulation(OFF)
    ring = sim.ring
    for i in range(127):
        sim.feed_char("a")
    assert sim.stats.dropped == 0
    full = bytes(ring.storage)
    sim.feed_char("b")  # the 128th unconsumed write drops
    assert sim.stats.dropped == 1
    assert ring.head == 127 and bytes(ring.storage) == full
    consumer_readline(ring)  # no newline: frees nothing
    sim.feed_char("b")
    assert sim.stats.dropped == 2
    assert ring.head == 127 and bytes(ring.storage) == full


def test_readline_complete_line():
    ring = received("G0\n")
    assert consumer_readline(ring) == "G0\n"
    assert ring.tail == 3
    assert consumer_readline(ring) == ""


def test_readline_fifo_order():
    ring = received("G0\nG1\n")
    assert consumer_readline(ring) == "G0\n"
    assert consumer_readline(ring) == "G1\n"


def test_readline_across_wrap():
    ring = received("ab\n", size=8, start=6)
    assert consumer_readline(ring) == "ab\n"


def test_visible_across_wrap():
    ring = received("ab\ncd", size=8, start=5)
    assert (ring.head, ring.tail) == (2, 5)
    assert bytes(ring.storage) == b"cd" + bytes(3) + b"ab\n"
    assert ring.visible() == b"ab\ncd"


def test_prefilled_ring_yields_its_lines():
    storage = bytearray(b"\nxy" + bytes(3) + b"ab")
    ring = RingBufferState(8, head=3, tail=6, storage=storage)
    assert ring.visible() == b"ab\nxy"
    assert consumer_readline(ring) == "ab\n"
    assert (ring.head, ring.tail) == (3, 1)
    assert consumer_readline(ring) == ""
    assert ring.visible() == b"xy"


def test_readline_on_an_empty_ring_answers_nothing():
    for tail in (0, 5, 7):
        ring = RingBufferState(8, head=tail, tail=tail, storage=bytearray(b"\n" * 8))
        assert consumer_readline(ring) == ""
        assert (ring.head, ring.tail) == (tail, tail)


def test_readline_without_a_newline_leaves_the_ring_unchanged():
    # published spans with no newline, one slice and wrapped past index 0;
    # the newline cells outside them are stale, and the consumer must not see them
    for head, tail in ((5, 1), (2, 5), (0, 1), (7, 0)):
        storage = bytearray(b"\n" * 8)
        i = tail
        while i != head:
            storage[i] = ord("x")
            i = (i + 1) % 8
        ring = RingBufferState(8, head=head, tail=tail, storage=storage)
        before = (bytes(ring.storage), ring.head, ring.tail)
        assert consumer_readline(ring) == "", (head, tail)
        assert (bytes(ring.storage), ring.head, ring.tail) == before, (head, tail)


# --- state budget -------------------------------------------------------------


def test_trojan_state_serializes_to_fifteen_bytes():
    state = TrojanState.for_policy(HALF, RingBufferInfo(0x324, 0x323, 0x2A3))
    blob = state.to_bytes()
    assert len(blob) == 15
    assert state.head_copy == 0x324 and state.tail_copy == 0x323 and state.root_addr == 0x2A3


def test_state_round_trips_through_its_fifteen_bytes_after_every_byte(gcode_corpus):
    # the interceptor lives in 15 bytes between two receive interrupts:
    # rebuilt from them after every byte, it streams exactly as it would
    docs = list(gcode_corpus.values()) + [random_document(seed) for seed in range(120)]
    for doc in docs:
        for policy in POLICIES:
            ref = UartSimulation(policy)
            ref_lines = ref.feed(doc)
            sim = UartSimulation(policy)
            lines = []
            for byte in doc.encode():
                sim.feed_char(byte)
                blob = sim.trojan.to_bytes()
                sim.trojan = TrojanState.from_bytes(blob)
                assert len(blob) == 15 and sim.trojan.to_bytes() == blob
                lines += sim.drain()
            where = f"{doc[:20]!r} / {policy.mode.value}-{policy.param}"
            assert lines == ref_lines, where
            assert sim.flush_residual() == ref.flush_residual(), where
            assert sim.stats == ref.stats, where


def test_trojan_state_has_no_room_for_python_side_state():
    # slotted: no attribute beyond the fifteen packed bytes can appear
    state = TrojanState.for_policy(HALF)
    assert not hasattr(state, "__dict__")
    with pytest.raises(AttributeError):
        state.spare = 0


def test_budget_holds_after_every_char():
    sim = UartSimulation(TamperPolicy.relocation(2))
    doc = "M73 P30\n" + "".join(f"G1 X{i} E{i}.125\n" for i in range(1, 30)) + "M73 P80\n"
    for ch in doc:
        sim.feed_char(ch)
        assert len(sim.trojan.to_bytes()) <= 15
        sim.drain()


# --- interception: reduction ---------------------------------------------------


def test_reduction_worked_example():
    sim = UartSimulation(HALF)
    assert sim.feed("G1 X2 Y3 E4\n") == ["G1 X2 Y3 E2\n"]


def test_reduction_rounding_example():
    sim = UartSimulation(TamperPolicy.reduction(Fraction(1, 10)))
    assert sim.feed("G1 E4.1234\n") == ["G1 E3.7111\n"]


def test_reduction_negative_value():
    sim = UartSimulation(HALF)
    assert sim.feed("G1 E-1.5 F2400\n") == ["G1 E-0.75 F2400\n"]


def test_reduction_param_after_target_and_crlf():
    sim = UartSimulation(HALF)
    assert sim.feed("G1 E4 F200\r\nG1 E6;c\n") == ["G1 E2 F200\r\n", "G1 E3;c\n"]


def test_reduction_leaves_g0_and_others_alone():
    sim = UartSimulation(HALF)
    doc = "G0 X1 E4\nM73 P10\nG92 E8\n;c E4\nN7 G1 E4\n"
    assert "".join(sim.feed(doc)) == doc


def test_zero_percent_reduction_engages_but_conserves():
    sim = UartSimulation(TamperPolicy.reduction(0))
    doc = "G1 X2 Y3 E4\nG1 E4.1234\nG1 E-0.5\n"
    assert "".join(sim.feed(doc)) == doc
    assert sim.stats.edits == 3  # machinery ran on every value


def test_pass_through_off_policy_trajectories():
    doc = "G1 X2 Y3 E4\nG1 E4.1234\n"
    sim = UartSimulation(OFF)
    for i, ch in enumerate(doc):
        sim.feed_char(ch)
        assert (sim.ring.head, sim.ring.tail) == (i + 1, 0)  # stored, nothing taken back
    assert "".join(sim.drain()) == doc
    assert sim.trojan == TrojanState.for_policy(OFF)


# --- interception: relocation ---------------------------------------------------


def test_relocation_middle_command_example():
    doc = "M73 P30\nG1 X1 Y2 E3\nG1 X2 Y3 E4\nG1 X3 Y4 E5\nM73 P80\n"
    sim = UartSimulation(TamperPolicy.relocation(2))
    out = sim.feed(doc)
    assert out == ["M73 P30\n", "G1 X1 Y2 E3\n", "G0 X2 Y3\n", "G1 X3 Y4 E5\n", "M73 P80\n"]


def test_relocation_inactive_outside_window():
    doc = "M73 P10\nG1 E1\nG1 E2\nM73 P80\nG1 E3\nG1 E4\n"
    sim = UartSimulation(TamperPolicy.relocation(2))
    assert "".join(sim.feed(doc)) == doc


def test_relocation_preserves_feedrate_and_following_params():
    doc = "M73 P30\nG1 X1 E3 F100\nG1 X2 E4 F100\n"
    sim = UartSimulation(TamperPolicy.relocation(2))
    assert sim.feed(doc)[-1] == "G0 X2 F100\n"


def test_relocation_m83_goes_dormant():
    doc = "M83\nM73 P30\nG1 E1\nG1 E2\nG1 E3\nG1 E4\n"
    sim = UartSimulation(TamperPolicy.relocation(2))
    assert "".join(sim.feed(doc)) == doc
    assert sim.stats.dormant_events == 1


def test_relocation_window_reactivation_blocked_after_done():
    doc = "M73 P30\nG1 E1\nG1 E2\nM73 P80\nM73 P40\nG1 E3\nG1 E4\n"
    sim = UartSimulation(TamperPolicy.relocation(2))
    out = "".join(sim.feed(doc))
    assert "G0" in out.splitlines()[2]  # second eligible converted in window
    assert out.splitlines()[5] == "G1 E3"  # no edits after the window closed
    assert out.splitlines()[6] == "G1 E4"


def test_progress_token_without_digit_leaves_the_window_alone():
    # the line is skipped as the transform skips it: the window stays open
    # and the second move is converted, on both paths
    for token in ("x", "\u00b2", "", "-", "+", ".", "+-5"):
        doc = f"M73 P30\nM73 P{token}\nG1 X1 E5\nG1 X2 E6\n"
        report = run_pipeline_equivalence(doc, TamperPolicy.relocation(2))
        assert report.identical, (token, report.describe())
        assert report.sim_output.endswith("G1 X1 E5\nG0 X2\n"), token


# --- hiding contract -----------------------------------------------------------


def test_partial_target_token_never_observable():
    sim = UartSimulation(HALF)
    observed = []
    for ch in "G1 E4":
        sim.feed_char(ch)
        observed.append(sim.ring.visible().decode())
    assert observed == ["G", "G1", "G1 ", "G1 E", "G1 E"]  # the digit is hidden
    assert consumer_readline(sim.ring) == ""


def test_consumer_atomicity_aggressive_drain():
    doc = "G1 X2 Y3 E4\nG1 E4.1234\nM73 P50\nG1 E-1.5\n"
    expected = apply_policy(doc, HALF).splitlines(keepends=True)
    sim = UartSimulation(HALF)
    seen = []
    for ch in doc:
        sim.feed_char(ch)
        line = consumer_readline(sim.ring)
        if line:
            seen.append(line)
    assert seen == expected


def test_visible_bytes_never_show_partially_edited_token():
    doc = "G1 X1 E41.25\n"
    sim = UartSimulation(HALF)
    for ch in doc:
        sim.feed_char(ch)
        visible = sim.ring.visible().decode()
        assert "E4" not in visible or visible.endswith("E") or "E20.625" in visible


def test_consumer_atomicity_exhaustive_schedules():
    # every subset of read positions over a short stream sees the same,
    # fully edited lines in order - never a partial token
    doc = "G1 E4\nG1 E-2\n"
    expected = apply_policy(doc, HALF).splitlines(keepends=True)
    n = len(doc)
    for schedule in range(1 << n):
        sim = UartSimulation(HALF)
        seen = []
        for i, ch in enumerate(doc):
            sim.feed_char(ch)
            if schedule & (1 << i):
                line = consumer_readline(sim.ring)
                if line:
                    seen.append(line)
        seen.extend(sim.drain())
        assert seen == expected, f"schedule {schedule:#x}"


# --- line completion -------------------------------------------------------------

COUNT_POLICIES = [OFF, TamperPolicy.reduction(Fraction(3, 10)), TamperPolicy.relocation(2)]


def published_line_ends(ring: RingBufferState) -> set[int]:
    """The storage slots of the published newline bytes, tail to head."""
    count = (ring.head - ring.tail) & ring.mask
    slots = ((ring.tail + i) & ring.mask for i in range(count))
    return {slot for slot in slots if ring.storage[slot] == 0x0A}


def test_a_line_completes_only_on_the_step_that_stores_its_newline(gcode_corpus, monkeypatch):
    # The producer loop dequeues one line after the step that stores a
    # newline and none after any other.  So an ISR-and-epilogue step must
    # leave every published newline in its slot, and publish one more, in
    # the slot before head, exactly when it stores a newline.  Two
    # schedules: every line taken at once, and a slow reader that lets
    # lines pile up (and the ring overflow now and then).  The head
    # rewinds that commit a value must never take back a newline.
    decide = uart._decide_on_first_digit
    taken_back = []

    def recording_decide(trojan, ring, policy, digit, in_frac):
        head = ring.head
        decide(trojan, ring, policy, digit, in_frac)
        rewound = (head - ring.head) & ring.mask
        taken_back.append(bytes(ring.storage[(ring.head + i) & ring.mask] for i in range(rewound)))

    monkeypatch.setattr(uart, "_decide_on_first_digit", recording_decide)
    docs = [random_document(seed) for seed in range(40)] + list(gcode_corpus.values())
    for doc in docs:
        for policy in COUNT_POLICIES:
            for slow in (False, True):
                sim = UartSimulation(policy)
                ring = sim.ring
                for i, ch in enumerate(doc):
                    before = published_line_ends(ring)
                    dropped = sim.stats.dropped
                    sim.feed_char(ch)
                    stored = ch == "\n" and sim.stats.dropped == dropped
                    if stored:
                        before.add((ring.head - 1) & ring.mask)
                    assert published_line_ends(ring) == before, (doc[:20], i)
                    if not slow:
                        assert len(sim.drain()) == stored, (doc[:20], i)
                    elif i % 16 == 0:
                        uart.consumer_readline(ring)
    assert len(taken_back) > 1000
    assert all(b"\n" not in cells for cells in taken_back)


def test_lines_straddling_index_zero(gcode_corpus, monkeypatch):
    # A 64-byte ring wraps every few lines: the consumer's two-slice path
    # must reassemble them byte-identically, with nothing dropped.
    readline = uart.consumer_readline
    wrapped = []

    def recording_readline(ring):
        tail = ring.tail
        line = readline(ring)
        wrapped.append(0 < ring.tail < tail)
        return line

    monkeypatch.setattr(uart, "consumer_readline", recording_readline)
    for name, doc in gcode_corpus.items():
        for policy in (TamperPolicy.reduction(Fraction(3, 10)), TamperPolicy.relocation(2)):
            sim = UartSimulation(policy, rx_buffer_size=64)
            out = sim.feed(doc)
            out.append(sim.flush_residual())
            assert "".join(out) == apply_policy(doc, policy), name
            assert sim.stats.dropped == 0, name
    assert sum(wrapped) > 100


def test_edit_write_back_wraps_past_index_zero():
    # A 32-byte ring wraps every couple of lines, so some edits write their
    # text and re-emitted delimiter across index 0, in two slices.  Stepping
    # the bytes one at a time on feed's schedule (one line read per stored
    # newline) sees where each write-back starts and ends.
    doc = "".join(f"G1 X{i} E{i}.2345\n" for i in range(1, 40))
    assert run_pipeline_equivalence(doc, HALF, rx_buffer_size=32).identical
    sim = UartSimulation(HALF, rx_buffer_size=32)
    stepped = UartSimulation(HALF, rx_buffer_size=32)
    ring = stepped.ring
    lines, wrapped = [], 0
    for byte in doc.encode():
        start, edits = ring.head, stepped.stats.edits  # the delimiter's cell, where a write-back begins
        stepped.feed_char(byte)
        if stepped.stats.edits > edits:
            wrapped += start + ((ring.head - start) & ring.mask) > ring.size
        if byte == 0x0A:
            lines.append(consumer_readline(ring))
    assert lines == sim.feed(doc)
    assert sim.stats.dropped == 0 and sim.stats.edits == 39
    assert stepped.stats == sim.stats
    assert wrapped >= 1


# --- failure modes ---------------------------------------------------------------


def test_accumulator_overflow_goes_dormant_for_session():
    sim = UartSimulation(HALF)
    sim.feed("G1 E99999999999999\n")
    assert sim.stats.overflows == 1
    assert "".join(sim.feed("G1 E4\n")) == "G1 E4\n"  # untouched: dormant


def test_every_overflow_route_goes_dormant_within_budget():
    # a value far past 32 bits, one its sixth integer digit carries past
    # the budget, and a fifth decimal that rounds past MAX_RAW: each
    # overflows at that digit, the overflowing line streams as received,
    # and so does the rest
    tail = "G1 X2 E5\nG1 X3 E6\nG1 X4 E7\n"
    for value in ("99999999999", "214749", "214748.36475"):
        for head, policy in (
            (f"G1 X1 E{value}\n", HALF),
            (f"M73 P10\nM73 P{value}\n", TamperPolicy.relocation(2, 0, 100)),
        ):
            sim = UartSimulation(policy)
            lines = []
            for ch in head + tail:
                sim.feed_char(ch)
                assert len(sim.trojan.to_bytes()) == 15, (head, ch)
                lines += sim.drain()
            assert sim.stats.overflows == 1, head
            assert "".join(lines) == head + tail  # dormant: passed unedited


@pytest.mark.parametrize("value", ["214748.3647", "214748.3648", "214748.36475"])
def test_fold_overflows_exactly_past_max_raw(value):
    # MAX_RAW itself is edited; one unit more overflows at the digit that
    # carries it there, a fourth decimal or the fifth's rounding, before
    # any delimiter arrives, and the line keeps the value as received
    assert int("2147483647") == MAX_RAW
    sim = UartSimulation(HALF)
    lines = sim.feed(f"G1 X1 E{value}")
    overflows = value != "214748.3647"
    assert bool(sim.trojan.flags_window & F_DORMANT) == overflows
    lines += sim.feed("\nG1 X2 E5\n")
    doc = f"G1 X1 E{value}\nG1 X2 E5\n"
    assert "".join(lines) == apply_policy(doc, HALF)
    if overflows:
        assert sim.stats == SimStats(chars_in=len(doc), overflows=1, dormant_events=1)
    else:
        assert sim.stats == SimStats(chars_in=len(doc), edits=2)


def over_budget(text: str) -> bool:
    """Whether raw_from_digits refuses a value so far (a sign alone fits)."""
    match = re.fullmatch(VALUE_PATTERN, text)
    if match is None:
        return False
    try:
        raw_from_digits(*match.groups(""))
    except FixedPointOverflow:
        return True
    return False


@pytest.mark.parametrize("value", ["214749", "214748.3648", "214748.36475", "99999999999", "-214748.9", "+214749."])
@pytest.mark.parametrize("head, policy", [
    ("G1 X1 E", HALF),
    ("M73 P30\nM73 P", TamperPolicy.relocation(2, 0, 100)),
])
def test_overflow_arrives_at_the_digit_that_crosses_the_budget(head, policy, value):
    # the value scaled to 1e-4 never falls as digits arrive, so the fold
    # reports the overflow on the first byte after which the value so far
    # no longer fits 32 bits, and on no other byte
    doc = f"{head}{value}\n"
    crossing = len(head) + next(i for i in range(len(value)) if over_budget(value[: i + 1]))
    sim = UartSimulation(policy)
    overflowed = []
    for at, byte in enumerate(doc.encode()):
        overflows = sim.stats.overflows
        sim.feed_char(byte)
        if sim.stats.overflows > overflows:
            overflowed.append(at)
    assert overflowed == [crossing]
    assert sim.stats.dormant_events == 1


@pytest.mark.parametrize("doc", [
    # overflow at a folded digit: the hidden text goes back before it
    "G1 X1 E99999999999\nG1 X2 E5\n",
    "G1 X1 E214748.36479\n",
    "G1 E-2147483.648 X1\n",
    "G1 E5 E99999999999 E4\nG1 E4\n",
    # values whose digits alone fit 32 bits but not once scaled: they
    # overflow at the integer digit that carries them past 214748, and
    # the digits, point and delimiter after it stream as received
    "G1 E214749\n",
    "G1 X1 E+214749. E4\n",
    "G1 E-2147483647.;c\nG1 E4\n",
    # on a 32-byte ring these two write back across index 0
    "G1 X12345678901234\nG1 E-214748.36479\n",
    "G1 X12345678901234\nG1 E-2147483647.;c\n",
])
@pytest.mark.parametrize("size", [128, 32])
def test_an_overflowing_target_streams_as_received(doc, size):
    # the transform keeps the value as written, and so does the stream
    sim = UartSimulation(HALF, rx_buffer_size=size)
    assert "".join(sim.feed(doc)) == apply_policy(doc, HALF)
    assert sim.stats.overflows == 1
    assert sim.stats.dropped == 0


def test_an_overflowing_target_loses_its_leading_zeros():
    # the fold keeps no count of the zeros before a value's first nonzero
    # digit, so the text written back on overflow starts at that digit;
    # the transform keeps the value as written
    doc = "G1 X1 E0099999999999\nG1 X2 E-00214749\n"
    sim = UartSimulation(HALF)
    assert "".join(sim.feed(doc)) == "G1 X1 E99999999999\nG1 X2 E-00214749\n"
    assert apply_policy(doc, HALF) == doc


@pytest.mark.parametrize("doc, policy, expected, counts", [
    # a value cut off by the end of the stream is finished as its
    # delimiter would finish it, with no delimiter re-emitted
    ("G1 X1 E5", HALF, "G1 X1 E2.5", {"edits": 1}),
    ("G1 X1 E-1.25", HALF, "G1 X1 E-0.625", {"edits": 1}),
    ("G1 X1 E5\nG1 X2 E.5", HALF, "G1 X1 E2.5\nG1 X2 E0.25", {"edits": 2}),
    ("M73 P30\nG1 X1 E5\nG1 X2 E6", TamperPolicy.relocation(2),
     "M73 P30\nG1 X1 E5\nG0 X2", {"conversions": 1}),
    # nothing hidden yet, or nothing captured: the tail stays as received
    ("G1 X1 E-", HALF, "G1 X1 E-", {}),
    ("M73 P30\nM73 P5", TamperPolicy.relocation(2), "M73 P30\nM73 P5", {}),
    ("G1 X1 E5", OFF, "G1 X1 E5", {}),
    # one past the budget overflows at the digit that carries it there,
    # before the stream ends: its hidden text goes back before that digit
    ("G1 X1 E214749", HALF, "G1 X1 E214749", {"overflows": 1, "dormant_events": 1}),
    ("G1 X1 E5 E-214748.9", HALF, "G1 X1 E2.5 E-214748.9",
     {"edits": 1, "overflows": 1, "dormant_events": 1}),
    ("G1 E+99999999.9", HALF, "G1 E+99999999.9", {"overflows": 1, "dormant_events": 1}),
    # so does a percentage, which is read and never hidden
    ("M73 P30\nM73 P214749", TamperPolicy.relocation(2), "M73 P30\nM73 P214749",
     {"overflows": 1, "dormant_events": 1}),
])
def test_flush_residual_finishes_a_value_the_stream_cut_off(doc, policy, expected, counts):
    sim = UartSimulation(policy)
    assert "".join(sim.feed(doc)) + sim.flush_residual() == expected == apply_policy(doc, policy)
    assert sim.stats == SimStats(chars_in=len(doc), **counts)
    assert sim.ring.head == sim.ring.tail


def test_edit_skipped_when_no_room_to_rewrite():
    # the first digit finds 3 of the 13 cells an edit needs, so the value
    # passes verbatim; the ring then fills before the newline, and the line
    # consumer, which takes whole lines only, stalls on it
    sim = UartSimulation(HALF, rx_buffer_size=8)
    out = sim.feed("G1 E123.4567\n")
    assert out == []
    assert sim.stats.edits_skipped == 1
    assert sim.stats.dropped == 6
    assert sim.flush_residual() == "G1 E123"


@pytest.mark.parametrize("size, doc, out, counts", [
    # neither first digit finds 13 free cells: both values pass verbatim
    (16, "G1 X1234 E1.25\nG1 X1 E4\n", ["G1 X1234 E1.25\n", "G1 X1 E4\n"], {"edits_skipped": 2}),
    (32, "G1 X12345 E1.25\nG1 X1 E4\n", ["G1 X12345 E0.625\n", "G1 X1 E2\n"], {"edits": 2}),
    # the first digit finds exactly 13 cells, then 12
    (32, "G1 X123456789012 E1.25\n", ["G1 X123456789012 E0.625\n"], {"edits": 1}),
    (32, "G1 X1234567890123 E1.25\n", ["G1 X1234567890123 E1.25\n"], {"edits_skipped": 1}),
    # the room is for the longest edit, so a long prefix passes where
    # this edit's 6 cells would have fitted
    (32, "G1 X12345678901234567 E1.25\n", ["G1 X12345678901234567 E1.25\n"], {"edits_skipped": 1}),
])
def test_edit_commits_only_with_room_for_the_longest_edit(size, doc, out, counts):
    sim = UartSimulation(HALF, rx_buffer_size=size)
    assert sim.feed(doc) == out
    assert sim.stats == SimStats(chars_in=len(doc), **counts)


def test_epilogue_requires_per_char_contract():
    # the epilogue view steps the byte the ISR view just stored; with the
    # policy off the pair stores it and leaves the interceptor as it was
    ring, trojan = RingBufferState(128), TrojanState.for_policy(OFF)
    assert uart.marlin_rx_isr(ring, "G") is True
    assert uart.trojan_epilogue(trojan, ring, OFF) is None
    assert trojan == TrojanState.for_policy(OFF)
    assert ring.head == 1 and ring.storage[0] == ord("G")


def test_ring_size_cap():
    with pytest.raises(ValueError):
        UartSimulation(HALF, rx_buffer_size=512)


# --- feed against the same step one byte at a time ----------------------------

# a 200-character comment (of 3-byte characters) that no ring here can hold
# before its newline: the line-only consumer never frees the ring again
OVERFLOW_DOC = "G1 X1 E1\n;" + "\u20ac" * 67 + "\nG1 X2 E2\nG1 X3 E3\n"

# dormant for the rest of the session: by overflow under reduction, by M83
# under relocation
DORMANT_DOC = "G1 X1 E2\nM83\nM73 P30\nG1 E99999999999999\nG1 X2 E4\nG1 X3 E5\n"

NON_ASCII_DOC = (
    "; caf\u00e9 \u20ac \u00b2 \U0001f5a8\nM73 P30 ; \u00fcber\nG1 X1 E5 ; \u00e9\n"
    "G1 X2 E6\nG1 X3 E7 ;\u00bd\nM73 P80\n;\u00e9nde"
)


def drain_into(lines: list[str], ring: RingBufferState) -> None:
    while line := consumer_readline(ring):
        lines.append(line)


def replay_full_schedule(doc: str, policy: TamperPolicy, size: int):
    """The wire bytes one at a time through feed_char, the consumer called
    after every byte (perfbench's ``full`` schedule)."""
    sim = UartSimulation(policy, rx_buffer_size=size)
    lines = []
    for byte in doc.encode():
        sim.feed_char(byte)
        drain_into(lines, sim.ring)
    return lines, sim


def replay_views(doc: str, policy: TamperPolicy, size: int):
    """The same schedule through marlin_rx_isr and trojan_epilogue, the
    views perfbench's replay times; ASCII bytes go in as characters, the
    rest as ints.  Returns the lines, the count of dropped bytes, the
    interceptor and the ring."""
    ring, trojan = RingBufferState(size), TrojanState.for_policy(policy)
    lines, dropped = [], 0
    for byte in doc.encode():
        if uart.marlin_rx_isr(ring, chr(byte) if byte < 0x80 else byte):
            assert uart.trojan_epilogue(trojan, ring, policy) is None
        else:
            dropped += 1
        drain_into(lines, ring)
    return lines, dropped, trojan, ring


def same_ring(ring: RingBufferState, ref: RingBufferState) -> bool:
    return (ring.head, ring.tail, ring.storage) == (ref.head, ref.tail, ref.storage)


def test_feed_matches_single_character_replay(gcode_corpus):
    docs = [random_document(seed) for seed in range(40)] + list(gcode_corpus.values())
    # longer than one of feed's slices: the whole corpus, and non-ASCII text
    docs += ["".join(gcode_corpus.values()), NON_ASCII_DOC * 50, OVERFLOW_DOC, DORMANT_DOC]
    for doc in docs:
        for policy in COUNT_POLICIES:
            for size in (128, 64):
                sim = UartSimulation(policy, rx_buffer_size=size)
                lines = sim.feed(doc)
                ref_lines, ref = replay_full_schedule(doc, policy, size)
                where = f"{doc[:20]!r} / {policy.mode.value} / ring {size}"
                assert lines == ref_lines, where
                assert sim.stats == ref.stats, where
                assert sim.trojan == ref.trojan, where
                assert same_ring(sim.ring, ref.ring), where
                assert sim.ring.visible() == ref.ring.visible(), where
    sim = UartSimulation(OFF)
    sim.feed(OVERFLOW_DOC)
    assert sim.stats.dropped > 0  # the overflow case really overflowed
    for policy in COUNT_POLICIES[1:]:
        sim = UartSimulation(policy)
        sim.feed(DORMANT_DOC)
        assert sim.stats.dormant_events == 1


def test_the_public_views_replay_as_feed(gcode_corpus):
    # marlin_rx_isr and trojan_epilogue are _produce on one byte: the
    # store, then the step of the byte just stored; in pairs they give
    # feed's lines, drops, interceptor and ring
    docs = [random_document(seed) for seed in range(10)] + list(gcode_corpus.values())[:6]
    docs += [NON_ASCII_DOC, OVERFLOW_DOC, DORMANT_DOC]
    for doc in docs:
        for policy in COUNT_POLICIES:
            for size in (128, 64):
                sim = UartSimulation(policy, rx_buffer_size=size)
                lines = sim.feed(doc)
                ref_lines, dropped, trojan, ring = replay_views(doc, policy, size)
                where = f"{doc[:20]!r} / {policy.mode.value} / ring {size}"
                assert lines == ref_lines, where
                assert sim.stats.dropped == dropped, where
                assert sim.trojan == trojan, where
                assert same_ring(sim.ring, ring), where
    ring = RingBufferState(8, head=7, tail=0)  # full: the byte is dropped
    assert uart.marlin_rx_isr(ring, "x") is False
    assert (ring.head, ring.storage) == (7, bytearray(8))


# the command head read so far, by parser state
HEADS = {ST_G_NUM: "G", ST_G_ONE: "G1", ST_M_NUM: "M", ST_M_7: "M7", ST_M_73: "M73",
         ST_M_8: "M8", ST_M_83: "M83"}
HEAD_STATES = {text: state for state, text in HEADS.items()}


def walk_rule(state, byte):
    """The line walk as README's payload rule states it, written out apart
    from _STEP: the next parser state, or _CALL where the interceptor must
    act."""
    skip = ST_LINE_START if byte == 0x0A else ST_SKIP
    if state == ST_LINE_START:
        if byte in b"\n ":
            return ST_LINE_START
        return {ord("G"): ST_G_NUM, ord("M"): ST_M_NUM}.get(byte, skip)
    if state == ST_SKIP:
        return skip
    if state in HEADS:
        head, char = HEADS[state], chr(byte)
        if char == "0" and len(head) == 1:
            return state  # a leading zero
        if char.isascii() and char.isdigit():
            if head + char == "G1":
                return uart._CALL  # G1's '1'
            # every head text is on the way to G1, M73 or M83
            return HEAD_STATES.get(head + char, skip)
        if head == "G1" and char == " ":
            return ST_G1_TOK
        if (head == "M73" and char == " ") or head == "M83":
            return uart._CALL
        return skip
    for mid, tok, target in ((ST_G1_MID, ST_G1_TOK, ord("E")), (ST_M73_MID, ST_M73_TOK, ord("P"))):
        if state in (mid, tok):
            if byte == 0x0A:
                return ST_LINE_START
            if byte == ord(";"):
                return ST_SKIP
            if byte == ord(" "):
                return tok
            if state == tok and byte == target:
                return uart._CALL
            return mid
    return uart._CALL  # a captured value


def test_pass_through_pairs_leave_everything_unchanged():
    # Every (parser state, byte) pair the step passes through _STEP instead
    # of handing to _act must store the byte and change nothing else but
    # the parser state, which it sets to the table's entry, whatever the
    # rest of the state holds.
    assert len(uart._STEP) == 256 and {len(row) for row in uart._STEP} == {256}
    # the table is also held against the walk's rules as the module
    # docstring states them
    for state, row in enumerate(uart._STEP):
        assert list(row) == [walk_rule(state, byte) for byte in range(256)], state
    pairs = [(state, byte, step) for state, row in enumerate(uart._STEP)
             for byte, step in enumerate(row) if step != uart._CALL]
    # still stepped: the pairs that left everything, the parser state
    # included, as it was (a comment byte other than its newline, a leading
    # zero of a command number, a byte that keeps a G1 or M73 line mid-token)
    unchanged = {(ST_SKIP, byte) for byte in range(256) if byte != 0x0A}
    unchanged |= {(ST_G_NUM, ord("0")), (ST_M_NUM, ord("0"))}
    for mid in (ST_G1_MID, ST_M73_MID):
        unchanged |= {(mid, byte) for byte in range(256) if uart._STEP[mid][byte] == mid}
    assert unchanged < {(state, byte) for state, byte, _ in pairs}
    flag_sets = [f for f in range(256) if not f & F_DORMANT]
    others = [  # accumulator, gcode_counter, cmd_slot, policy
        (0, 0, 0, TamperPolicy.reduction(Fraction(3, 10))),
        (1, 1, 127, TamperPolicy.relocation(2)),
        (123_456, 254, 63, TamperPolicy.relocation(3)),
        (MAX_RAW, 255, 255, HALF),
    ]
    sims = [UartSimulation(policy) for *_, policy in others]
    steps = 0
    for state, byte, step in pairs:
        storage = bytearray(range(128))
        storage[99] = byte
        after = (bytes(storage), 100, 3)  # stored at 99, nothing else moved
        storage[99] = byte ^ 0xFF
        for sim in sims:
            sim.ring = RingBufferState(128, head=99, tail=3, storage=bytearray(storage))
        for flags in flag_sets:
            for (acc, counter, slot, policy), sim in zip(others, sims):
                sim.trojan = trojan = TrojanState(
                    parser_state=state, accumulator=acc, flags_window=flags,
                    gcode_counter=counter, cmd_slot=slot, policy_param=policy.param)
                blob = trojan.to_bytes()
                ring = sim.ring
                sim.feed_char(byte)
                assert trojan.parser_state == step, (state, byte, flags)
                trojan.parser_state = state  # every other field must be as it was
                assert trojan.to_bytes() == blob, (state, byte, flags)
                assert (bytes(ring.storage), ring.head, ring.tail) == after, (state, byte, flags)
                ring.head = 99
        steps += len(flag_sets)
    for sim in sims:  # no step counted an event
        assert sim.stats == SimStats(chars_in=steps)


def test_walk_is_a_class_table_of_438_bytes():
    width = len(uart._COLUMNS) + 1
    assert len(uart._CLASS) == 256 and len(uart._WALK) == len(uart._STEPPED) * width == 182
    named = {byte for chars in uart._COLUMNS for byte in chars}
    assert len(named) == 17
    for column, chars in enumerate(uart._COLUMNS):
        assert all(uart._CLASS[byte] == column for byte in chars), chars
    # every byte outside the named columns maps to the last column
    assert all(uart._CLASS[byte] == width - 1 for byte in range(256) if byte not in named)
    # no two columns could be merged: each pair differs in some stepped state
    rows = [uart._WALK[i : i + width] for i in range(0, len(uart._WALK), width)]
    for a in range(width):
        for b in range(a):
            assert any(row[a] != row[b] for row in rows), (a, b)
    # the states the grid leaves out share one all-_CALL row
    call_rows = {id(row) for state, row in enumerate(uart._STEP) if state not in uart._STEPPED}
    assert len(call_rows) == 1 and set(uart._STEP[ST_V_INT]) == {uart._CALL}


def test_feed_takes_complete_lines_first():
    sim = UartSimulation(OFF, rx_buffer_size=8)
    for ch in "ab\ncdef":
        sim.feed_char(ch)
    assert sim.ring.free_space() == 0  # full, with one complete line
    assert sim.feed("g\n") == ["ab\n", "cdefg\n"]
    assert sim.stats.dropped == 0


# --- the wire carries UTF-8 -------------------------------------------------------


def test_non_ascii_comments_stream_like_the_transform():
    for policy in (HALF, TamperPolicy.relocation(2)):
        report = run_pipeline_equivalence(NON_ASCII_DOC, policy)
        assert report.identical, report.describe()
        assert "\u20ac" in report.sim_output and "\u00e9nde" in report.sim_output
    sim = UartSimulation(OFF)
    sim.feed(NON_ASCII_DOC)
    assert sim.stats.chars_in == len(NON_ASCII_DOC.encode())


def test_ring_overflow_cuts_a_multibyte_character_visibly():
    sim = UartSimulation(OFF, rx_buffer_size=8)
    sim.feed("ab\u20ac\u20ac\u20ac")  # 11 bytes into 7 cells: the second euro is cut
    assert sim.stats.dropped == 4
    assert sim.flush_residual() == "ab\u20ac\ufffd"
