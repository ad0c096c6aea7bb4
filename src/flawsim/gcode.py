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
overflows the streaming interceptor's accumulator).  Parameter values
stay raw fixed-point integers; ``Param.value`` wraps one on demand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .fixedpoint import MAX_RAW, VALUE_PATTERN, FixedPoint, FixedPointOverflow, raw_from_digits

_CMD_RE = re.compile(r" *([A-Z])([0-9]+)")
_PARAM_RE = re.compile(r" +([A-Z])" + VALUE_PATTERN)


@dataclass(slots=True)
class Param:
    letter: str
    raw: int  # value * 10^4
    ws_start: int  # offset of the separating spaces before the letter
    value_start: int  # offset of the first value character
    value_end: int  # one past the last value character

    @property
    def value(self) -> FixedPoint:
        return FixedPoint(self.raw)


@dataclass(slots=True)
class ParsedLine:
    """One source line: body text (no newline) plus its line terminator."""

    body: str
    eol: str
    letter: str | None = None
    number: int | None = None
    number_span: tuple[int, int] | None = None
    params: list[Param] = field(default_factory=list)
    comment_start: int | None = None
    malformed: bool = False  # looked like a command but params did not parse

    @property
    def is_command(self) -> bool:
        return self.letter is not None

    def param(self, letter: str) -> Param | None:
        for p in self.params:
            if p.letter == letter:
                return p
        return None

    def text(self) -> str:
        return self.body + self.eol


def split_lines(doc: str) -> list[tuple[str, str]]:
    """Split into (body, terminator) pairs, preserving LF/CRLF/ragged EOF."""
    bodies = doc.split("\n")
    last = bodies.pop()  # text after the final newline: a ragged EOF or ""
    out = [(body[:-1], "\r\n") if body[-1:] == "\r" else (body, "\n") for body in bodies]
    if last:
        out.append((last, ""))
    return out


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
        for pm in _PARAM_RE.finditer(code, pos):
            start, end = pm.span()
            if start != pos:
                break  # a gap: the rest is not whitespace, checked below
            letter, sign, int_digits, frac_digits = pm.groups("")
            params.append(
                Param(letter, raw_from_digits(sign, int_digits, frac_digits), start, pm.start(2), end)
            )
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


def parse_document(doc: str) -> list[ParsedLine]:
    return [parse_line(body, eol) for body, eol in split_lines(doc)]


def drop_param_convert_travel(line: ParsedLine, param: Param) -> str:
    """Body text converted to a travel move: command number's last digit
    becomes 0 and the parameter is removed along with exactly one
    separating space (the same surgery the in-stream editor performs)."""
    _, num_end = line.number_span
    body = line.body
    letter_pos = param.value_start - 1
    return body[: num_end - 1] + "0" + body[num_end : letter_pos - 1] + body[param.value_end :]
