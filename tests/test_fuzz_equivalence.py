"""Seeded randomized cross-checks: documents drawn from the supported
dialect, streamed and transformed, must agree byte-for-byte under every
policy; the interceptor state budget must hold throughout.
"""

import random
from fractions import Fraction

from flawsim.policy import Mode, TamperPolicy
from flawsim.tamper import apply_policy
from flawsim.uart import SimStats, UartSimulation
from tamper_oracle import run_pipeline_equivalence

POLICIES = [
    TamperPolicy.off(),
    TamperPolicy.reduction(Fraction(0)),
    TamperPolicy.reduction(Fraction(1, 100)),
    TamperPolicy.reduction(Fraction(1, 4)),
    TamperPolicy.reduction(Fraction(1, 2)),
    TamperPolicy.reduction(Fraction(99, 100)),
    TamperPolicy.reduction(Fraction(1)),
    TamperPolicy.relocation(2),
    TamperPolicy.relocation(3),
    TamperPolicy.relocation(4),
    TamperPolicy.relocation(2, window_lo=10, window_hi=90),
]


def random_value(rng: random.Random, allow_negative=True) -> str:
    units = rng.randrange(0, 500)
    text = str(units)
    if rng.random() < 0.3:
        text = "0" * rng.randrange(1, 3) + text  # leading zeros
    if rng.random() < 0.7:
        digits = rng.randrange(1, 7)  # up to six: exercises capture rounding
        text += "." + "".join(str(rng.randrange(10)) for _ in range(digits))
    if allow_negative and rng.random() < 0.15:
        text = "-" + text
    elif rng.random() < 0.05:
        text = "+" + text
    return text


def random_head(heads: random.Random, command: str) -> str:
    """The command as written: now and then with a leading zero (G01 is
    G1), or with a number past 2**31 - 1, which makes the line no command."""
    roll = heads.random()
    if roll < 0.06:
        return command[0] + "0" + command[1:]
    if roll < 0.09:
        return command[0] + heads.choice(["2147483648", "99999999999", "4294967297"])
    return command


# what may follow a value: each makes the line malformed to the strict
# grammar, and the payloads edit the value before it all the same
VALUE_TAILS = ["x", "G1", "M73", " *12", " P", " E", "5.5.5"]


def mutate_targets(tails: random.Random, parts: list[str]) -> None:
    """Now and then mutate one E token of the move: give it a tail, put a
    digitless token before it, or add a second E after it."""
    for i, part in enumerate(parts[1:], 1):
        if part[0] == "E" and tails.random() < 0.25:
            roll = tails.random()
            if roll < 0.5:
                parts[i] += tails.choice(VALUE_TAILS)
            elif roll < 0.75:
                parts[i] = tails.choice(["P ", "*1 ", "X "]) + part
            else:
                parts.insert(i + 1, f"E{random_value(tails)}")
            return


def random_move(rng: random.Random, heads: random.Random, tails: random.Random) -> str:
    command = rng.choice(["G1", "G1", "G1", "G0"])
    parts = [random_head(heads, command)]
    for letter in "XYZ":
        if rng.random() < 0.6:
            parts.append(f"{letter}{random_value(rng)}")
    if command == "G1" and rng.random() < 0.8:
        if rng.random() < 0.08:
            parts.append("E" + rng.choice(["-", "+", "."]))  # valueless: opaque
            if rng.random() < 0.5:  # the line stays opaque to a later E
                parts.append(f"E{random_value(rng)}")
        else:
            parts.append(f"E{random_value(rng)}")
    if rng.random() < 0.3:
        parts.append(f"F{rng.randrange(100, 9000)}")
    mutate_targets(tails, parts)
    if len(parts) > 1 and heads.random() < 0.05:  # glued head (G1X1): no command
        parts[:2] = [parts[0] + parts[1]]
    sep = " " if rng.random() < 0.9 else "  "
    line = sep.join(parts)
    if rng.random() < 0.15:
        line += rng.choice([" ; wall", ";infill", " ;"])
    return line


def random_document(seed: int) -> str:
    # head and tail mutations draw from their own streams, so they leave
    # the rest of each seed's document as it was before they were added
    rng = random.Random(seed)
    heads = random.Random(f"heads {seed}")
    tails = random.Random(f"tails {seed}")
    lines = []
    if rng.random() < 0.5:
        lines.append(";FLAVOR:fuzz")
    if rng.random() < 0.5:
        lines.append("M82")
    percent = 0
    for _ in range(rng.randrange(10, 60)):
        roll = rng.random()
        if roll < 0.75:
            move = random_move(rng, heads, tails)
            if rng.random() < 0.04:  # a CR at line start: no command, skipped
                move = rng.choice(["\r", "  \r"]) + move
            if lines and tails.random() < 0.03:  # a lone CR joins two lines
                lines[-1] += "\r" + move
            else:
                lines.append(move)
        elif roll < 0.85:
            pick = rng.random()
            if pick < 0.1:  # no digit: the line is skipped, the window left alone
                value = rng.choice(["", "-", "+", ".", "x", "²", "+-5"])
            elif pick < 0.3:  # signed, decimal, zero-padded
                value = random_value(rng)
            else:
                percent = min(100, percent + rng.randrange(0, 30))
                value = str(percent)
            if tails.random() < 0.1:
                value += tails.choice(VALUE_TAILS)
            marker = f"{random_head(heads, 'M73')} P{value}"
            if heads.random() < 0.05:  # glued head (M73X): no command
                marker = marker.replace(" ", "X ", 1)
            if rng.random() < 0.3:
                marker += f" R{rng.randrange(60)}"
            lines.append(marker)
        elif roll < 0.9:
            lines.append("G92 E0")
        elif roll < 0.95:
            lines.append(rng.choice(["; comment only", "", "M104 S200", "G28 W"]))
        else:
            lines.append(f"M117 status {rng.randrange(10)}")
    eol = "\r\n" if rng.random() < 0.25 else "\n"
    return eol.join(lines) + eol


def test_fuzzed_documents_agree_under_every_policy():
    for seed in range(120):
        doc = random_document(seed)
        for policy in POLICIES:
            report = run_pipeline_equivalence(doc, policy)
            assert report.identical, (
                f"seed {seed} / {policy.mode.value}-{policy.param}: "
                f"{report.describe()}"
            )


RELATIVE_SWITCHES = ["M83", "M83 E", "M083\r"]


def test_fuzzed_documents_with_a_relative_switch_agree_under_every_policy():
    # random_document writes no M83: each switch goes in at one seeded line
    for seed in range(120):
        lines = random_document(seed).split("\n")
        at = random.Random(f"switch {seed}").randrange(len(lines))
        for switch in RELATIVE_SWITCHES:
            doc = "\n".join(lines[:at] + [switch] + lines[at:])
            for policy in POLICIES:
                report = run_pipeline_equivalence(doc, policy)
                assert report.identical, (
                    f"seed {seed} / {switch!r} / {policy.mode.value}-{policy.param}: "
                    f"{report.describe()}"
                )


def test_fuzzed_documents_respect_state_budget():
    for seed in range(0, 120, 10):
        doc = random_document(seed)
        for policy in POLICIES[::3]:
            sim = UartSimulation(policy)
            for ch in doc:
                sim.feed_char(ch)
                assert len(sim.trojan.to_bytes()) <= 15
                sim.drain()


def room_boundary_document(seed: int, room: int) -> tuple[str, list[bool]]:
    """Moves for a 32-byte ring (31 usable cells) whose E value's first
    digit finds exactly ``room`` free cells once its sign, point and digit
    are taken back, between short moves with room to spare.  feed drains
    each line as it completes, so the ring holds only the line so far,
    and the cells left are 31 less the line through its 'E'.  LF only, so
    every line, edited or not, fits the ring with its newline.  Returns
    the document and which of its lines sit at the boundary."""
    rng = random.Random(f"room {seed}")
    head = 31 - room  # the line through its 'E'
    lines, at_boundary = [], []
    for _ in range(rng.randrange(4, 12)):
        value = random_value(rng)
        while len(value) >= room:  # the whole line with its newline fits
            value = random_value(rng)
        if rng.random() < 0.3:
            lines.append(f"G1 X{rng.randrange(10)} E{value}")
            at_boundary.append(False)
            continue
        params = rng.choice(["X", "XY", "FX"])  # each takes a letter and a space
        digits = "".join(str(rng.randrange(10)) for _ in range(head - 4 - 2 * len(params)))
        cut = rng.randrange(1, len(digits)) if len(params) == 2 else len(digits)
        values = (digits[:cut], digits[cut:])
        text = "G1 " + "".join(f"{p}{v} " for p, v in zip(params, values)) + "E"
        assert len(text) == head, text
        lines.append(text + value)
        at_boundary.append(True)
    return "".join(line + "\n" for line in lines), at_boundary


REDUCTIONS = [policy for policy in POLICIES if policy.mode is Mode.REDUCTION]


def test_an_edit_commits_at_exactly_thirteen_free_cells():
    # the room an edit needs is 13 cells: the longest reduced value and the
    # delimiter written again after it
    for seed in range(20):
        doc, at_boundary = room_boundary_document(seed, 13)
        for policy in REDUCTIONS:
            report = run_pipeline_equivalence(doc, policy, rx_buffer_size=32)
            assert report.identical, f"seed {seed} / {policy.param}%: {report.describe()}"
            sim = UartSimulation(policy, rx_buffer_size=32)
            sim.feed(doc)
            assert sim.stats == SimStats(chars_in=len(doc), edits=len(at_boundary)), seed


def test_a_value_at_twelve_free_cells_streams_verbatim_as_a_skipped_edit():
    for seed in range(20):
        doc, at_boundary = room_boundary_document(seed, 12)
        lines = doc.splitlines(keepends=True)
        for policy in REDUCTIONS:
            expected = [line if edge else apply_policy(line, policy)
                        for line, edge in zip(lines, at_boundary)]
            sim = UartSimulation(policy, rx_buffer_size=32)
            assert sim.feed(doc) == expected, f"seed {seed} / {policy.param}%"
            skipped = sum(at_boundary)
            assert sim.stats == SimStats(chars_in=len(doc), edits=len(lines) - skipped,
                                         edits_skipped=skipped), seed
