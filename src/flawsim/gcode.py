"""Strict g-code line parsing: the defender's grammar.

audit.account reads documents through this module.  The grammar is the
strict slicer dialect: one command per line, parameters as LETTER
immediately followed by a decimal value, tokens separated by runs of
spaces, ';' starts a comment that runs to end of line.  Digits are ASCII
0-9 only, as in the firmware's NUMERIC(); any other digit (Python's \\d
would take every Unicode decimal digit) makes the region malformed.  The
payload transforms in tamper.py do not use it: they follow the
interceptor's token rule, which edits many lines this grammar refuses.

A command line is checked and decoded in one walk: the command, then
each parameter, each starting exactly where the last one ended, then
nothing but whitespace (anything str.isspace accepts) up to the comment.
A line with no command head (blank, comment-only) has no letter.  A
command whose parameters do not fit the grammar or overflow the 32-bit
budget is malformed: it keeps its letter and number, so the caller can
tell which command it could not read.  A command number past the budget
leaves the line malformed with no letter.

A parameter is a plain tuple ``(letter, raw)``: the letter and the value
as a raw fixed-point integer (value * 10^4).

Lines end at LF only, as on the wire; a CRLF line's CR stays in its body,
where the grammar reads it as trailing whitespace.  audit.account streams
the document through iter_lines and drops each parsed line before taking
the next, so a pass keeps no parsed document alive for the cyclic garbage
collector to walk.  parse_document builds the whole list for callers that
index it.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from .fixedpoint import MAX_RAW, VALUE_PATTERN, FixedPointOverflow, raw_from_digits

_CMD_RE = re.compile(r" *([A-Z])([0-9]+)")
# separator and letter, letter, value, then the value's sign, integer and
# fraction digits
_PARAM_RE = re.compile(r"( +([A-Z]))(" + VALUE_PATTERN + ")")


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
    comment = body.find(";")
    code = body if comment < 0 else body[:comment]
    m = _CMD_RE.match(code)
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
    pos = m.end()
    params = []
    try:
        # pos is counted on as if each match started where the last one
        # ended.  After a gap it runs short of the last match, whose final
        # character is never a space, so the tail check below fails: a gap
        # is malformed, as it must be.
        for head, letter, value, sign, int_digits, frac_digits in _PARAM_RE.findall(code, pos):
            params.append((letter, raw_from_digits(sign, int_digits, frac_digits)))
            pos += len(head) + len(value)
    except FixedPointOverflow:
        return ParsedLine(body, m[1], number, malformed=True)
    if pos < len(code) and not code[pos:].isspace():
        return ParsedLine(body, m[1], number, malformed=True)
    return ParsedLine(body, m[1], number, params)


def iter_lines(doc: str) -> Iterator[ParsedLine]:
    """Parse doc one line at a time: a ragged end is a line, the empty
    text after a final LF is none.

    Each line is parsed only when the caller asks for the next one, so a
    caller that lets each line go before taking the next never holds more
    than one ParsedLine (the document's split bodies are plain strings,
    which the cyclic garbage collector does not track).
    """
    bodies = doc.split("\n")
    if not bodies[-1]:
        bodies.pop()
    return map(parse_line, bodies)


def parse_document(doc: str) -> list[ParsedLine]:
    return list(iter_lines(doc))
