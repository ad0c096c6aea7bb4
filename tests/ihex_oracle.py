"""An Intel HEX loader written from the grammar that load_ihex states:
the oracle that tests/test_ihex_differential.py checks load_ihex against.

Lines end at CRLF, a lone CR or LF; a final line break ends the last line
and starts none.  One regular expression reads a whole record, and its
bytes go into a dict keyed by address.  A line the expression does not
read is named by the first fault that holds, in this order: no ':' after
the leading blanks, a character that is not part of a pair of hex digits,
fewer than five bytes.  A read record is then checked for a count that
disagrees with its bytes, a byte sum that is not 0 mod 256, then what its
type needs:

- 00: every byte lands below flash_size, and under a type-02 base the
  offset plus the count stays within 0x10000;
- 01: the record is ``:00000001FF`` in either case, and ends the load;
- 02 and 04: two data bytes, the paragraph (x16) or the upper 16 bits of
  the addresses that follow;
- no other type.

A document that ends before a type-01 record fails on the line after its
last.
"""

import re

_HEX = "[0-9A-Fa-f]"
RECORD = re.compile(
    rf"\s*:(?P<count>{_HEX}{{2}})(?P<offset>{_HEX}{{4}})(?P<type>{_HEX}{{2}})"
    rf"(?P<data>(?:{_HEX}{{2}})*)(?P<check>{_HEX}{{2}})\s*"
)
_PAIRS = re.compile(rf"\s*:(?:{_HEX}{{2}})*\s*")
_START = re.compile(r"\s*:")
_BLANK = re.compile(r"\s*")
_BREAK = re.compile(r"\r\n|\r|\n")


class OracleError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line, self.message = line, message


def load(text: str, flash_size: int) -> dict[int, int]:
    """Address to byte for every data byte the document loads."""
    lines = _BREAK.split(text)
    if lines[-1] == "":
        lines.pop()
    memory = {}
    base, segment_end = 0, None  # segment_end is set under a type-02 base only
    for number, line in enumerate(lines, 1):
        if _BLANK.fullmatch(line):
            continue
        m = RECORD.fullmatch(line)
        if m is None:
            if not _START.match(line):
                raise OracleError(number, "missing ':' start code")
            if not _PAIRS.fullmatch(line):
                raise OracleError(number, "invalid hex digits")
            raise OracleError(number, "record too short")
        count, offset, kind = int(m["count"], 16), int(m["offset"], 16), int(m["type"], 16)
        data = bytes.fromhex(m["data"])
        if len(data) != count:
            raise OracleError(number, "length field disagrees with record size")
        if (count + offset // 256 + offset % 256 + kind + sum(data) + int(m["check"], 16)) % 256:
            raise OracleError(number, "record checksum mismatch")
        if kind == 0:
            start = base + offset
            if start + count > flash_size:
                raise OracleError(number, f"data record ends at {start + count:#x}, flash is {flash_size:#x}")
            if segment_end is not None and offset + count > 0x10000:
                raise OracleError(
                    number, f"data record ends at {start + count:#x}, past its type-02 segment's end {segment_end:#x}"
                )
            for i, byte in enumerate(data):
                memory[start + i] = byte
        elif kind == 1:
            if line.strip().upper() != ":00000001FF":
                raise OracleError(number, "type-01 record must be :00000001FF")
            return memory
        elif kind in (2, 4):
            if count != 2:
                raise OracleError(number, f"type-0{kind} record needs 2 data bytes")
            if kind == 2:
                base = int(m["data"], 16) * 16
                segment_end = base + 0x10000
            else:
                base, segment_end = int(m["data"], 16) * 0x10000, None
        else:
            raise OracleError(number, f"unsupported record type {m['type'].upper()}")
    raise OracleError(len(lines) + 1, "missing EOF record")


def image(memory: dict[int, int], flash_size: int) -> bytes:
    """The flash a loaded document leaves: erased (0xFF) where no record wrote."""
    flash = bytearray(b"\xff" * flash_size)
    for address, byte in memory.items():
        flash[address] = byte
    return bytes(flash)
