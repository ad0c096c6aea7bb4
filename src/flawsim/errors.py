"""Common exception base for the package, and the one parse error.

Everything derives from FlawsimError so callers can catch the whole
family.  ParseError is shared: every input the package cannot read (a
g-code line account rejects, an Intel HEX record, bytes that are not
UTF-8 text) raises it, naming the line.  The other error types live next
to the code that raises them.
"""


class FlawsimError(Exception):
    """Base class for all errors raised by flawsim."""


class ParseError(FlawsimError):
    """An input that cannot be read, as ``line N: <problem>``."""

    def __init__(self, line_no: int, problem: str):
        super().__init__(f"line {line_no}: {problem}")
        self.line_no = line_no
