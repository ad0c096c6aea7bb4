#!/usr/bin/env python3
"""Bounded-exhaustive search for documents on which the streaming
interceptor and the whole-file transform disagree.

Every document of one to three tokens from a fixed alphabet is followed by
two well-formed moves, so state the document leaves behind shows in
them, and run under three policies: reduction 1/2, relocation 2 and
relocation 3 with window 0-100 (both relocations after ``M73 P30``, so
their window is open).  A second pass follows each document with one
move and no final newline instead, so a value the stream still holds at
the end shows.  The script prints the count and the first few divergent
documents per pass and policy.  The test suite runs search(3) and
requires no divergent document on any pass under any policy.  Run from
the repository root:

    python tools/divergence_search.py
"""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from flawsim.policy import TamperPolicy  # noqa: E402
from tamper_oracle import run_pipeline_equivalence  # noqa: E402

TOKENS = [
    "G1", "M73", "M82", "M83", " X1", " E5", " E0", " E", " E-", " E.5", " E5x",
    " P30", " P5x", " P", " *1", "\r", ";c", " ", "\n",
    # command heads: leading zeros, other numbers, overflow, glued
    "G01", "G10", "G0", "G2147483648", "M073", "M730", "G1X1", "M83X", "\t",
    # values past the budget: at a digit, when scaled at the delimiter,
    # and by the fifth decimal's rounding
    " E99999999999", " E214749", " E214748.36479",
]
TAILS = [
    ("terminated", "\nG1 X8 E8\nG1 X9 E9\n"),
    ("unterminated", "\nG1 X8 E8"),
]
MAX_TOKENS = 3
EXAMPLES = 5
POLICIES = [
    ("reduction 1/2", "", TamperPolicy.reduction(Fraction(1, 2))),
    ("relocation 2", "M73 P30\n", TamperPolicy.relocation(2)),
    ("relocation 3, window 0-100", "M73 P30\n", TamperPolicy.relocation(3, 0, 100)),
]


def documents(max_tokens: int):
    for count in range(1, max_tokens + 1):
        for tokens in itertools.product(TOKENS, repeat=count):
            yield "".join(tokens)


def search(max_tokens: int) -> list[list[str]]:
    """For each of TAILS, and within it each of POLICIES: the divergent
    documents, without head or tail."""
    found = []
    for _, tail in TAILS:
        for _, head, policy in POLICIES:
            found.append([doc for doc in documents(max_tokens)
                          if not run_pipeline_equivalence(head + doc + tail, policy).identical])
    return found


def main() -> int:
    total = sum(len(TOKENS) ** n for n in range(1, MAX_TOKENS + 1))
    found = iter(search(MAX_TOKENS))
    for tail_name, tail in TAILS:
        for name, head, policy in POLICIES:
            divergent = next(found)
            print(f"{tail_name}, {name}: {len(divergent)} of {total} documents diverge")
            for doc in divergent[:EXAMPLES]:
                print(f"  {doc!r}: {run_pipeline_equivalence(head + doc + tail, policy).describe()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
