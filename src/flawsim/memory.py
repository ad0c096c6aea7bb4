"""Controller memory model: flash layout, flash images, Intel HEX I/O.

Addresses in every public API are byte addresses.  Word addresses (the
AVR's program-counter unit) appear only inside instruction decode and are
converted explicitly there.

Erased flash reads 0xFF (NOR convention); dump_ihex elides rows that are
entirely erased, so fixtures stay small and load(dump(img)) == img.
"""

from __future__ import annotations

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

    Reads and writes are strictly bounds-checked and never wrap.  Share
    freely read-only; copy() before mutating a shared image.
    """

    layout: MemoryLayout
    data: bytearray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.data is None:
            self.data = bytearray(b"\xff" * self.layout.flash_size)
        elif len(self.data) != self.layout.flash_size:
            raise ValueError("image data must be exactly flash_size bytes")

    def copy(self) -> "FlashImage":
        return FlashImage(self.layout, bytearray(self.data))

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


def load_ihex(text: str, layout: MemoryLayout) -> FlashImage:
    """Parse an Intel HEX document into a fresh (erased) image.

    Record types 00/01/02/04 only.  A record ends at LF, CRLF or a lone
    CR.  Any record that cannot be loaded, a bad checksum or a data
    record that runs past flash among them, raises ParseError naming its
    line.
    """
    image = FlashImage(layout)
    base = 0
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        if not line.startswith(":"):
            raise ParseError(line_no, "missing ':' start code")
        try:
            rec = bytes.fromhex(line[1:])
        except ValueError:
            raise ParseError(line_no, "invalid hex digits") from None
        if len(rec) < 5:
            raise ParseError(line_no, "record too short")
        count, addr_hi, addr_lo, rectype = rec[0], rec[1], rec[2], rec[3]
        if len(rec) != count + 5:
            raise ParseError(line_no, "length field disagrees with record size")
        if sum(rec) & 0xFF:
            raise ParseError(line_no, "record checksum mismatch")
        payload = rec[4 : 4 + count]
        offset = (addr_hi << 8) | addr_lo
        if rectype == _REC_DATA:
            addr = base + offset
            if addr + count > layout.flash_size:
                raise ParseError(
                    line_no, f"data record ends at {addr + count:#x}, flash is {layout.flash_size:#x}"
                )
            image.data[addr : addr + count] = payload
        elif rectype == _REC_EOF:
            break
        elif rectype == _REC_EXT_SEGMENT:
            if count != 2:
                raise ParseError(line_no, "type-02 record needs 2 data bytes")
            base = ((payload[0] << 8) | payload[1]) << 4
        elif rectype == _REC_EXT_LINEAR:
            if count != 2:
                raise ParseError(line_no, "type-04 record needs 2 data bytes")
            base = ((payload[0] << 8) | payload[1]) << 16
        else:
            raise ParseError(line_no, f"unsupported record type {rectype:02X}")
    return image


def _record(offset: int, rectype: int, payload: bytes) -> str:
    """One record in lowercase hex; dump_ihex upper-cases the document."""
    rec = bytearray((len(payload), (offset >> 8) & 0xFF, offset & 0xFF, rectype))
    rec += payload
    rec.append(-sum(rec) & 0xFF)
    return ":" + rec.hex()


def dump_ihex(image: FlashImage) -> str:
    """Serialize the whole image as canonical 16-byte data records.

    Rows on the 16-byte grid that are entirely 0xFF are elided.  A type-04
    extended linear address record precedes the first data record of
    every 64 KiB segment that contains data.  Always ends with the type-01
    EOF record and a trailing newline.
    """
    data = image.data
    lines = []
    segment = None
    for row in range(0, len(data), 16):
        chunk = data[row : row + 16]
        if chunk.strip(b"\xff"):
            seg = row >> 16
            if seg != segment:
                lines.append(_record(0, _REC_EXT_LINEAR, bytes([(seg >> 8) & 0xFF, seg & 0xFF])))
                segment = seg
            lines.append(_record(row & 0xFFFF, _REC_DATA, chunk))
    lines.append(":00000001ff\n")
    return "\n".join(lines).upper()
