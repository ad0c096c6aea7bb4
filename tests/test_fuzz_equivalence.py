"""Seeded randomized cross-checks: documents drawn from the supported
dialect, streamed and transformed, must agree byte-for-byte under every
policy; the interceptor state budget must hold throughout.
"""

import random
from fractions import Fraction

from flawsim.policy import TamperPolicy
from flawsim.tamper import run_pipeline_equivalence
from flawsim.uart import UartSimulation

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


def random_move(rng: random.Random) -> str:
    parts = [rng.choice(["G1", "G1", "G1", "G0"])]
    for letter in "XYZ":
        if rng.random() < 0.6:
            parts.append(f"{letter}{random_value(rng)}")
    if parts[0] == "G1" and rng.random() < 0.8:
        if rng.random() < 0.08:
            parts.append("E" + rng.choice(["-", "+", "."]))  # valueless: opaque
            if rng.random() < 0.5:  # the line stays opaque to a later E
                parts.append(f"E{random_value(rng)}")
        else:
            parts.append(f"E{random_value(rng)}")
    if rng.random() < 0.3:
        parts.append(f"F{rng.randrange(100, 9000)}")
    sep = " " if rng.random() < 0.9 else "  "
    line = sep.join(parts)
    if rng.random() < 0.15:
        line += rng.choice([" ; wall", ";infill", " ;"])
    return line


def random_document(seed: int) -> str:
    rng = random.Random(seed)
    lines = []
    if rng.random() < 0.5:
        lines.append(";FLAVOR:fuzz")
    if rng.random() < 0.5:
        lines.append("M82")
    percent = 0
    for _ in range(rng.randrange(10, 60)):
        roll = rng.random()
        if roll < 0.75:
            move = random_move(rng)
            if rng.random() < 0.04:  # a CR at line start: no command, skipped
                move = rng.choice(["\r", "  \r"]) + move
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
            marker = f"M73 P{value}"
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
                f"seed {seed} / {policy.mode.value}-{policy.param_byte()}: "
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
