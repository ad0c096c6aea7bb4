"""Strict g-code line parsing: the defender's grammar.

The grammar is the strict slicer dialect: one command per line,
parameters as LETTER immediately followed by a decimal value, tokens
separated by runs of spaces, ';' starts a comment that runs to end of
line.  Digits are ASCII 0-9 only, as in the firmware's NUMERIC(); any
other digit (Python's \\d would take every Unicode decimal digit) makes
the region malformed.  audit.account reads a document by this grammar
(see the audit module docstring), and parse_document is its test
oracle.  The payload transforms in tamper.py do not use it: they follow
the interceptor's token rule, which edits many lines this grammar
refuses.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .fixedpoint import MAX_RAW, VALUE_PATTERN, FixedPointOverflow, raw_from_digits

# a value, as VALUE_PATTERN with no groups of its own
_VALUE = re.sub(r"\((?!\?)", "(?:", VALUE_PATTERN)
# the command head, then the parameter region when it fits the grammar:
# its tokens, then nothing but whitespace up to the comment
_LINE_RE = re.compile(r" *([A-Z])([0-9]+)(?:((?: +[A-Z]" + _VALUE + r")*)\s*(?:;|\Z))?")
# letter, then the value's sign, integer and fraction digits
_PARAM_RE = re.compile(r" +([A-Z])" + VALUE_PATTERN)


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
