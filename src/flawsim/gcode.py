"""Strict g-code line parsing: the defender's grammar.

audit.account reads documents through this module.  The grammar is the
strict slicer dialect: one command per line, parameters as LETTER
immediately followed by a decimal value, tokens separated by runs of
spaces, ';' starts a comment that runs to end of line.  Digits are ASCII
0-9 only, as in the firmware's NUMERIC(); any other digit (Python's \\d
would take every Unicode decimal digit) makes the region malformed.  The
payload transforms in tamper.py do not use it: they follow the
interceptor's token rule, which edits many lines this grammar refuses.

A command line is checked by one anchored match of the grammar before
any value is decoded: the command, then each parameter, each starting
exactly where the last one ended, then nothing but whitespace (anything
str.isspace accepts) up to the comment.  The check takes time linear in
the line, however long its runs of spaces.  A line with no command head
(blank, comment-only) has no letter.  A command whose parameters do not
fit the grammar or overflow the 32-bit budget is malformed: it keeps its
letter and number, so the caller can tell which command it could not
read.  A command number past the budget leaves the line malformed with
no letter.

A parameter is a plain tuple ``(letter, raw)``: the letter and the value
as a raw fixed-point integer (value * 10^4).

Lines end at LF only, as on the wire; a CRLF line's CR stays in its body,
where the grammar reads it as trailing whitespace.  parse_document parses
every line of a document.

audit.account does not parse every line.  accounted_lines makes one
multiline scan over the document that stops only at the heads account
acts on: G0, G1, G92, M82 and M83, with any leading zeros.  Comments,
M73 and every other command are passed over inside the regex engine.
The scan reads a visited line's parameter region by the same grammar as
parse_line, in two runs: the longest run of plain tokens, whose values
have at most five integer digits and at most four decimals (every
number format_raw writes below 100,000), then the rest of the tokens.
A line the grammar refuses is malformed.

Every value comes out as the double nearest raw / SCALE.  A plain value
is float(v) + 0.0: with at most four decimals the decimal is exactly
raw / SCALE, float() rounds it correctly, it cannot overflow the 32-bit
budget, and the + 0.0 turns the -0.0 of "-0" into 0.0.  Any other value
is raw_from_digits(...) / SCALE, so fifth-decimal rounding and the
budget are decided as in parse_line; an overflow makes the line
malformed.  account takes an E value back to its raw integer as
round(value * SCALE): for any raw in the budget the product is within
2^-21 of raw, far from the 0.5 that round() would need to go wrong.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from .fixedpoint import MAX_RAW, SCALE, VALUE_PATTERN, FixedPointOverflow, raw_from_digits

# a value, as VALUE_PATTERN with no groups of its own
_VALUE = re.sub(r"\((?!\?)", "(?:", VALUE_PATTERN)
# A plain value: at most five integer digits and four decimals, ending
# where the grammar lets a value end (whitespace, ';' or the line's end).
_PLAIN_VALUE = r"[-+]?(?=\.?[0-9])[0-9]{0,5}(?:\.[0-9]{0,4})?(?![^\s;])"

# the command head, then the parameter region when it fits the grammar:
# its tokens, then nothing but whitespace up to the comment
_LINE_RE = re.compile(r" *([A-Z])([0-9]+)(?:((?: +[A-Z]" + _VALUE + r")*)\s*(?:;|\Z))?")
# letter, then the value's sign, integer and fraction digits
_PARAM_RE = re.compile(r" +([A-Z])" + VALUE_PATTERN)

# Searched in "\n" + doc: an LF (so the search jumps from line start to
# line start), an accounted head (its G or M number), then the parameter
# region as _LINE_RE reads it, split in two: the longest run of plain
# tokens, then the rest of the tokens.  The lookahead and backreference
# make the plain run atomic, so a line is matched once, in linear time.
# A region the grammar refuses leaves both token groups None.
_ACCOUNTED_RE = re.compile(
    r"\n *(?:G0*([01]|92)|M0*(8[23]))(?![0-9])"
    r"(?:(?=((?: +[A-Z]" + _PLAIN_VALUE + r")*))\3((?: +[A-Z]" + _VALUE + r")*)[^\S\n]*(?:;|$))?",
    re.M,
)
_NUMBERS = {"0": 0, "1": 1, "92": 92, "82": 82, "83": 83}


@dataclass(slots=True)
class ParsedLine:
    """One source line: its body (the text before its LF) and the command
    it holds."""

    body: str
    letter: str | None = None
    number: int | None = None
    params: list[tuple[str, int]] = field(default_factory=list)
    malformed: bool = False  # a command the grammar could not read


def parse_line(body: str) -> ParsedLine:
    m = _LINE_RE.match(body)
    if m is None:
        return ParsedLine(body)
    try:
        number = int(m[2])
    except ValueError:
        # int() refuses 4,300+ digits, leading zeros included; eleven
        # significant digits are already past MAX_RAW
        number = int(m[2].lstrip("0")[:11] or "0")
    if number > MAX_RAW:  # the same 32-bit budget as every value in the line
        return ParsedLine(body, malformed=True)
    if m[3] is None:
        return ParsedLine(body, m[1], number, malformed=True)
    try:
        params = [
            (letter, raw_from_digits(sign, int_digits, frac_digits))
            for letter, sign, int_digits, frac_digits in _PARAM_RE.findall(m[3])
        ]
    except FixedPointOverflow:
        return ParsedLine(body, m[1], number, malformed=True)
    return ParsedLine(body, m[1], number, params)


def parse_document(doc: str) -> list[ParsedLine]:
    """Parse every line of doc: a ragged end is a line, the empty text
    after a final LF is none."""
    bodies = doc.split("\n")
    if not bodies[-1]:
        bodies.pop()
    return list(map(parse_line, bodies))


def accounted_lines(doc: str) -> Iterator[tuple[int, int | None, dict[str, float]]]:
    """Yield (start, number, values) for each line of doc whose head
    account acts on, in order (see the module docstring).

    start is the line's offset in doc.  number is the command's: 0, 1 and
    92 are G commands, 82 and 83 are M (no two share a number), and None
    marks a line the grammar refuses or a value past the 32-bit budget
    (values is then empty).  values maps each parameter letter
    to its first value in the line, as the double nearest raw / SCALE.
    """
    for m in _ACCOUNTED_RE.finditer("\n" + doc):
        g_number, m_number, plain, rest = m.groups()
        if rest is None:
            yield m.start(), None, {}
            continue
        # each letter's first value: a dict built from the reversed plain
        # run keeps its first, and the rest of the line comes after the run
        values = {token[0]: float(token[1:]) + 0.0 for token in reversed(plain.split())}
        if rest:
            try:
                for letter, sign, int_digits, frac_digits in _PARAM_RE.findall(rest):
                    values.setdefault(letter, raw_from_digits(sign, int_digits, frac_digits) / SCALE)
            except FixedPointOverflow:
                yield m.start(), None, {}
                continue
        yield m.start(), _NUMBERS[g_number or m_number], values
