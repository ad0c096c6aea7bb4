"""Lossless g-code line parsing.

A parsed line keeps the original text and byte spans of everything it
understood, so unedited lines re-serialize byte-for-byte and edits are
local string surgery.  The grammar is the strict slicer dialect the
streaming interceptor also speaks: one command per line, parameters as
LETTER immediately followed by a decimal value, tokens separated by runs
of spaces, ';' starts a comment that runs to end of line.  Digits are
ASCII 0-9 only, as in the firmware's NUMERIC(); any other digit (Python's
\\d would take every Unicode decimal digit) makes the region malformed.

A command line is checked and decoded in one walk: the command, then
each parameter, each starting exactly where the last one ended, then
nothing but whitespace (anything str.isspace accepts) up to the comment.
Lines that are not commands (blank, comment-only) or whose parameter
region does not fit the grammar are classified OTHER and passed through
untouched.  So are command lines whose number or a parameter value
overflows the 32-bit budget (a command number past 2**31 - 1 also
overflows the streaming interceptor's accumulator).

A parameter is a plain tuple ``(letter, raw, ws_start, value_start,
value_end)``: the letter, the value as a raw fixed-point integer (value *
10^4), the offset of the separating spaces before the letter, the offset
of the first value character and one past the last.

The hot callers (audit.account and the transforms in tamper.py) stream
the document through iter_lines and drop each parsed line before taking
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
    """One source line: body text (no newline) plus its line terminator."""

    body: str
    eol: str
    letter: str | None = None
    number: int | None = None
    number_span: tuple[int, int] | None = None
    params: list[tuple[str, int, int, int, int]] = field(default_factory=list)
    comment_start: int | None = None
    malformed: bool = False  # looked like a command but params did not parse

    def param(self, letter: str) -> tuple[str, int, int, int, int] | None:
        for p in self.params:
            if p[0] == letter:
                return p
        return None

    def text(self) -> str:
        return self.body + self.eol


def parse_line(body: str, eol: str = "\n") -> ParsedLine:
    comment = body.find(";")
    if comment < 0:
        code, comment_start = body, None
    else:
        code, comment_start = body[:comment], comment
    m = _CMD_RE.match(code)
    if m is None:
        return ParsedLine(body, eol, comment_start=comment_start)
    pos = m.end()
    params = []
    try:
        # Spans are counted on from pos, as if each match started where the
        # last one ended.  After a gap they run short of the last match,
        # whose final character is never a space, so the tail check below
        # fails: a gap is malformed, as it must be.
        for head, letter, value, sign, int_digits, frac_digits in _PARAM_RE.findall(code, pos):
            value_start = pos + len(head)
            end = value_start + len(value)
            raw = raw_from_digits(sign, int_digits, frac_digits)
            params.append((letter, raw, pos, value_start, end))
            pos = end
    except FixedPointOverflow:
        return ParsedLine(body, eol, comment_start=comment_start, malformed=True)
    if pos < len(code) and not code[pos:].isspace():
        return ParsedLine(body, eol, comment_start=comment_start, malformed=True)
    try:
        number = int(m[2])
    except ValueError:
        # int() refuses 4,300+ digits, leading zeros included; eleven
        # significant digits are already past MAX_RAW
        number = int(m[2].lstrip("0")[:11] or "0")
    if number > MAX_RAW:  # the stream's 32-bit accumulator overflows here too
        return ParsedLine(body, eol, comment_start=comment_start, malformed=True)
    return ParsedLine(body, eol, m[1], number, m.span(2), params, comment_start)


def iter_lines(doc: str) -> Iterator[ParsedLine]:
    """Parse doc one line at a time, keeping LF, CRLF and a ragged end.

    Each line is parsed only when the caller asks for the next one, so a
    caller that lets each line go before taking the next never holds more
    than one ParsedLine (the document's split bodies are plain strings,
    which the cyclic garbage collector does not track).
    """
    bodies = doc.split("\n")
    last = bodies.pop()  # text after the final newline: a ragged end or ""
    for body in bodies:
        if body[-1:] == "\r":
            yield parse_line(body[:-1], "\r\n")
        else:
            yield parse_line(body, "\n")
    if last:
        yield parse_line(last, "")


def parse_document(doc: str) -> list[ParsedLine]:
    return list(iter_lines(doc))


def drop_param_convert_travel(line: ParsedLine, param: tuple) -> str:
    """Body text converted to a travel move: command number's last digit
    becomes 0 and the parameter is removed along with exactly one
    separating space (the same surgery the in-stream editor performs)."""
    _, num_end = line.number_span
    body = line.body
    _, _, _, value_start, value_end = param
    letter_pos = value_start - 1
    return body[: num_end - 1] + "0" + body[num_end : letter_pos - 1] + body[value_end :]
