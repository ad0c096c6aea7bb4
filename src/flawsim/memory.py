"""Controller memory model: flash layout, flash images, Intel HEX I/O.

Addresses in every public API are byte addresses.  Word addresses (the
AVR's program-counter unit) appear only inside instruction decode and are
converted explicitly there.

Erased flash reads 0xFF (NOR convention); dump_ihex elides rows that are
entirely erased, so fixtures stay small and load(dump(img)) == img.
"""

from __future__ import annotations

from binascii import unhexlify
from dataclasses import dataclass, field

from .errors import FlawsimError, ParseError


class AddressOutOfRange(FlawsimError):
    pass


@dataclass(frozen=True)
class MemoryLayout:
    """Geometry of the modeled controller (defaults: a 256 KiB-flash AVR).

    The boot section occupies the top of flash; everything below it is
    application space.  rx_buffer_size must be a power of two because the
    serial ring buffer wraps with a bit mask.
    """

    flash_size: int = 256 * 1024
    boot_section_size: int = 8192
    rx_buffer_size: int = 128
    page_size: int = 256

    def __post_init__(self):
        if not 0 < self.flash_size <= 8 << 20 or self.flash_size % 2:  # a 22-bit jmp's reach
            raise ValueError("flash_size must be positive, even and at most 8 MiB")
        if not 0 < self.boot_section_size < self.flash_size:
            raise ValueError("boot_section_size must be in (0, flash_size)")
        if self.rx_buffer_size < 2 or self.rx_buffer_size & (self.rx_buffer_size - 1):
            raise ValueError("rx_buffer_size must be a power of two")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")

    @property
    def boot_start(self) -> int:
        return self.flash_size - self.boot_section_size

    def in_app_region(self, addr: int) -> bool:
        return 0 <= addr < self.boot_start


@dataclass
class FlashImage:
    """A full flash image: plain value, no hidden state.

    Reads and writes are strictly bounds-checked and never wrap.
    """

    layout: MemoryLayout
    data: bytearray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.data is None:
            self.data = bytearray(b"\xff" * self.layout.flash_size)
        elif len(self.data) != self.layout.flash_size:
            raise ValueError("image data must be exactly flash_size bytes")

    def _check(self, addr: int, count: int):
        if addr < 0 or count < 0 or addr + count > self.layout.flash_size:
            raise AddressOutOfRange(
                f"[{addr:#06x}, {addr + count:#06x}) outside flash of "
                f"{self.layout.flash_size:#x} bytes"
            )

    def read(self, addr: int, count: int) -> bytes:
        self._check(addr, count)
        return bytes(self.data[addr : addr + count])

    def write(self, addr: int, payload: bytes):
        self._check(addr, len(payload))
        self.data[addr : addr + len(payload)] = payload

    def read_word(self, addr: int) -> int:
        """Little-endian 16-bit read (flash stores instruction words LE)."""
        self._check(addr, 2)
        return self.data[addr] | (self.data[addr + 1] << 8)

    def write_word(self, addr: int, word: int):
        self._check(addr, 2)
        self.data[addr] = word & 0xFF
        self.data[addr + 1] = (word >> 8) & 0xFF


# --- Intel HEX ----------------------------------------------------------

_REC_DATA = 0x00
_REC_EOF = 0x01
_REC_EXT_SEGMENT = 0x02
_REC_EXT_LINEAR = 0x04
_EOF_RECORD = b"\x00\x00\x00\x01\xff"  # :00000001FF decoded


def load_ihex(text: str, layout: MemoryLayout) -> FlashImage:
    """Parse an Intel HEX document into a fresh (erased) image.

    The grammar follows Intel's "Hexadecimal Object File Format
    Specification" (rev. A, 1988), record types 00/01/02/04 only:

    - A record is ``:`` and an even number of hex digits in either case,
      with nothing between them; blanks around a record are ignored.  A
      record ends at LF, CRLF or a lone CR, and a blank line is skipped.
    - The EOF record is exactly ``:00000001FF``; later lines are never
      read.  A document without one was cut short, and is refused on the
      line after its last (a final line break ends that line).
    - Records load in file order, so where two data records overlap the
      later one's bytes stand.  The specification sets no rule against
      overlap; this is what a programmer filling its buffer in order does.
    - A data record's 16-bit offset plus its count may pass 0xFFFF.
      Under a type-04 base it carries on into the next 64 KiB, as the
      specification's linear address does.  Under a type-02 base the
      specification wraps it to the segment's start, which would write
      below the record's own address; such a record is refused.

    Any record that cannot be loaded, a bad checksum or a data record
    that runs past flash among them, raises ParseError naming its line.
    """
    image = FlashImage(layout)
    data = image.data
    flash_size = layout.flash_size
    base = 0
    limit = flash_size  # where the current base lets a data record end
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line[0] != ":":
            raise ParseError(line_no, "missing ':' start code")
        try:
            rec = unhexlify(line[1:])
        except ValueError:  # an odd length, a blank, a non-hex or non-ASCII character
            raise ParseError(line_no, "invalid hex digits") from None
        size = len(rec)
        if size < 5:
            raise ParseError(line_no, "record too short")
        count = rec[0]
        if size != count + 5:
            raise ParseError(line_no, "length field disagrees with record size")
        if sum(rec) & 0xFF:
            raise ParseError(line_no, "record checksum mismatch")
        rectype = rec[3]
        if rectype == _REC_DATA:
            addr = base + ((rec[1] << 8) | rec[2])
            end = addr + count
            if end > limit:
                if end > flash_size:
                    raise ParseError(line_no, f"data record ends at {end:#x}, flash is {flash_size:#x}")
                raise ParseError(line_no, f"data record ends at {end:#x}, past its type-02 segment's end {limit:#x}")
            data[addr:end] = rec[4:-1]
        elif rectype == _REC_EOF:
            if rec != _EOF_RECORD:
                raise ParseError(line_no, "type-01 record must be :00000001FF")
            return image
        elif rectype == _REC_EXT_SEGMENT:
            if count != 2:
                raise ParseError(line_no, "type-02 record needs 2 data bytes")
            base = ((rec[4] << 8) | rec[5]) << 4
            limit = min(base + 0x10000, flash_size)
        elif rectype == _REC_EXT_LINEAR:
            if count != 2:
                raise ParseError(line_no, "type-04 record needs 2 data bytes")
            base = ((rec[4] << 8) | rec[5]) << 16
            limit = flash_size
        else:
            raise ParseError(line_no, f"unsupported record type {rectype:02X}")
    raise ParseError(len(lines) + (lines[-1] != ""), "missing EOF record")


def _record(offset: int, rectype: int, payload: bytes) -> str:
    """One record in lowercase hex; dump_ihex upper-cases the document.

    dump_ihex builds its data rows inline in this same layout."""
    rec = bytearray((len(payload), (offset >> 8) & 0xFF, offset & 0xFF, rectype))
    rec += payload
    rec.append(-sum(rec) & 0xFF)
    return ":" + rec.hex()


def dump_ihex(image: FlashImage) -> str:
    """Serialize the whole image as canonical 16-byte data records.

    Rows on the 16-byte grid that are entirely 0xFF are elided; a
    flash_size that is not a multiple of 16 leaves a short last row.  A
    type-04 extended linear address record precedes the first data record
    of every 64 KiB segment that contains data.  Always ends with the
    type-01 EOF record and a trailing newline.
    """
    data = image.data
    lines = []
    segment = None
    for row in range(0, len(data), 16):
        chunk = data[row : row + 16]
        if chunk.strip(b"\xff"):
            seg = row >> 16
            if seg != segment:
                lines.append(_record(0, _REC_EXT_LINEAR, seg.to_bytes(2, "big")))
                segment = seg
            rec = bytearray((len(chunk), (row >> 8) & 0xFF, row & 0xFF, _REC_DATA))
            rec += chunk
            rec.append(-sum(rec) & 0xFF)
            lines.append(":" + rec.hex())
    lines.append(":00000001ff\n")
    return "\n".join(lines).upper()
