"""Framed programming protocol: a five-command subset of the STK500v2
wire format, a bootloader-side session that can patch firmware on upload
and spoof the read-back, and the naive programmer client that uploads,
downloads and verifies through it.

Frame layout (all integers big-endian):

    0x1B  sequence  size_hi size_lo  0x0E  body...  checksum

where checksum is the XOR of every preceding byte.  Responses echo the
request sequence number.

The XOR is folded, not looped: the bytes are read as one little-endian
integer, which is folded in halves (its top half XORed onto its bottom
half) while it is wider than 8 bytes, then by 32, 16 and 8 bits, leaving
the XOR in the low byte.  frame_encode appends the checksum byte from a
256-entry table; a received frame is folded whole, checksum included,
and is good when that leaves 0.  A decoded frame is an Stk500Frame, the
named tuple (sequence, body), built by tuple.__new__ in C rather than by
the named tuple's own Python-level __new__.  Command bodies:

    SIGN_ON         01                     -> 01 00 08 'AVRISP_2'
    LOAD_ADDRESS    06 a3 a2 a1 a0         -> 06 status      (byte address)
    PROGRAM_FLASH   13 n_hi n_lo data...   -> 13 status
    READ_FLASH      14 n_hi n_lo           -> 14 00 data... 00
    LEAVE_PROGMODE  11                     -> 11 00

The transport is any byte stream; no reader assumes message boundaries
line up with reads.  The session is fed whatever bytes it is written and
reassembles frames from them; the client pulls each response, asking the
transport for no byte past the end its checked header states.  One session
is strictly lockstep request/response; independent sessions share nothing.

Every fault of the exchange raises ProtocolError: a malformed frame, a
response out of sequence or cut short, a command the session refuses,
firmware that reaches into the boot section, and a page size no frame
can carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from . import avr
from .avr import SpInitSite, apply_stack_steal
from .errors import FlawsimError
from .memory import FlashImage, MemoryLayout

MESSAGE_START = 0x1B
TOKEN = 0x0E

CMD_SIGN_ON = 0x01
CMD_LOAD_ADDRESS = 0x06
CMD_LEAVE_PROGMODE = 0x11
CMD_PROGRAM_FLASH = 0x13
CMD_READ_FLASH = 0x14

STATUS_CMD_OK = 0x00
STATUS_CMD_FAILED = 0xC0

SIGNATURE = b"AVRISP_2"

# a page travels after three bytes (command and size, or command and
# status plus the trailing status) in a body of at most 0xFFFF bytes
_MAX_PAGE_SIZE = 0xFFFF - 3
# bytes of an 8-byte SP init sequence that can lie outside the write holding one of its bytes
_FRINGE = 7

_LOAD_ADDRESS_OK = bytes((CMD_LOAD_ADDRESS, STATUS_CMD_OK))
_PROGRAM_FLASH_OK = bytes((CMD_PROGRAM_FLASH, STATUS_CMD_OK))
_READ_FLASH_OK = bytes((CMD_READ_FLASH, STATUS_CMD_OK))
_STATUS_OK = bytes((STATUS_CMD_OK,))


class ProtocolError(FlawsimError):
    pass


class Stk500Frame(NamedTuple):
    sequence: int
    body: bytes


# builds a frame in C; NamedTuple's own __new__ is a Python function
_new_frame = tuple.__new__


def _xor(data: bytes) -> int:
    """XOR of every byte of data: the bytes as one integer, folded in halves."""
    x = int.from_bytes(data, "little")
    # halving a power-of-two byte width keeps each fold's low bits exact,
    # so no step needs a mask: the bits above them are never read
    if len(data) > 8:
        shift = 4 << (len(data) - 1).bit_length()
        while shift > 32:
            x ^= x >> shift
            shift >>= 1
    x ^= x >> 32
    x ^= x >> 16
    x ^= x >> 8
    return x & 0xFF


# the checksum byte of a frame, by its value
_CHECKSUM_BYTE = [bytes((i,)) for i in range(256)]


def frame_encode(body: bytes, sequence: int = 0) -> bytes:
    if len(body) > 0xFFFF:
        raise ValueError("body exceeds 65535 bytes")
    payload = bytes((MESSAGE_START, sequence & 0xFF, len(body) >> 8, len(body) & 0xFF, TOKEN)) + body
    return payload + _CHECKSUM_BYTE[_xor(payload)]


def frame_decode(data: bytes) -> Stk500Frame:
    """Decode exactly one frame occupying the whole buffer."""
    total = _frame_length(data)
    if len(data) < total:
        raise ProtocolError(f"need {total} bytes, have {len(data)}")
    frame = _checked_frame(data, total)
    if total != len(data):
        raise ProtocolError(f"{len(data) - total} bytes after frame end")
    return frame


def _frame_length(data: bytes) -> int:
    """Length of the frame at the start of data, from its checked header."""
    if len(data) < 6:
        raise ProtocolError("frame header incomplete")
    if data[0] != MESSAGE_START:
        raise ProtocolError(f"expected {MESSAGE_START:#04x}, got {data[0]:#04x}")
    if data[4] != TOKEN:
        raise ProtocolError(f"expected {TOKEN:#04x}, got {data[4]:#04x}")
    return 6 + ((data[2] << 8) | data[3])


def _checked_frame(data: bytes, total: int) -> Stk500Frame:
    """The frame in data[:total], whose header _frame_length has checked."""
    # the XOR of a frame including its checksum byte is 0
    residue = _xor(data if len(data) == total else data[:total])
    if residue:
        stated = data[total - 1]
        raise ProtocolError(f"computed {residue ^ stated:#04x}, frame says {stated:#04x}")
    return _new_frame(Stk500Frame, (data[1], bytes(data[5 : total - 1])))


class FrameReader:
    """Incremental reassembly over an arbitrarily-chunked byte stream.

    Bytes arrive by one of two entry points.  ``feed`` is pushed any number
    of bytes (the 7-byte cap on reads belongs to PipeTransport) and returns
    every frame they complete, reading each frame's length from its
    buffered header.  ``read_frame`` pulls through ``read(n)``, asking for at
    most the bytes the buffered frame still lacks (6 for the header, then up
    to the end it states), and returns that one frame; an empty read raises
    ProtocolError "transport closed mid-response".

    Both share the buffer and its errors.  A frame is decoded once all of it
    is buffered.  A bad start byte or token raises ProtocolError once the
    buffered frame reaches 6 bytes; a bad checksum raises it once the frame
    is complete.  The bad bytes stay buffered, so every later call, however
    short its input, raises the same error.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Stk500Frame]:
        buf = self._buf
        buf += data
        frames = []
        while len(buf) >= 6:
            total = _frame_length(buf)
            if len(buf) < total:
                break
            frames.append(_checked_frame(buf, total))
            del buf[:total]
        return frames

    def read_frame(self, read) -> Stk500Frame:
        self._fill(read, 6)
        total = _frame_length(self._buf)
        self._fill(read, total)
        frame = _checked_frame(self._buf, total)
        del self._buf[:total]
        return frame

    def _fill(self, read, size: int):
        buf = self._buf
        need = size - len(buf)
        while need > 0:
            chunk = read(need)
            if not chunk:
                raise ProtocolError("transport closed mid-response")
            buf += chunk
            need -= len(chunk)


@dataclass
class BootSession:
    """One bootloader programming session over a fresh or preloaded image.

    Every page, and the patch, is written into ``image`` itself: the object
    the session was built with holds the stored flash throughout.  With
    trojan_enabled the session scans each arriving page (plus a
    7-byte fringe into previously received bytes) for the stack-pointer
    init sequence and lowers the SPL immediate by avr.DEFAULT_STEAL_BYTES
    the moment the whole 8-byte pattern is resident.  Read-back requests
    overlapping the patched word are reverted on the fly, so a verify pass
    sees exactly the uploaded bytes.  The first site to be wholly received
    decides for the whole session (the lowest offset, if one write
    completes several, as in avr.find_sp_init), and no write is scanned
    after it: if its immediate cannot take the subtraction the session
    stays dormant, ``sp_site`` stays None and nothing is patched or
    spoofed.  The session patches at most once.  A later write covering
    either patched byte clears ``sp_site`` and ``_patch`` (the bytes it
    replaced): ``sp_site`` is set exactly while the patch is in flash.
    """

    image: FlashImage
    trojan_enabled: bool = False
    load_address: int = field(default=0, init=False)
    sp_site: SpInitSite | None = field(default=None, init=False)
    _patch: bytes | None = field(default=None, init=False)
    # while a trojan session is undecided, one byte per application-region
    # address, nonzero once the session has received that byte; else None
    _received: bytearray | None = field(init=False, repr=False)

    def __post_init__(self):
        self._received = bytearray(self.layout.boot_start) if self.trojan_enabled else None

    @property
    def layout(self) -> MemoryLayout:
        return self.image.layout

    # -- command handlers --

    def _handle_load_address(self, body: bytes) -> bytes:
        if len(body) != 5:
            return bytes([CMD_LOAD_ADDRESS, STATUS_CMD_FAILED])
        addr = int.from_bytes(body[1:5], "big")
        if addr >= self.layout.flash_size:
            return bytes([CMD_LOAD_ADDRESS, STATUS_CMD_FAILED])
        self.load_address = addr
        return _LOAD_ADDRESS_OK

    def _handle_program_flash(self, body: bytes) -> bytes:
        if len(body) < 3:
            return bytes([CMD_PROGRAM_FLASH, STATUS_CMD_FAILED])
        size = (body[1] << 8) | body[2]
        data = body[3:]
        if len(data) != size:
            return bytes([CMD_PROGRAM_FLASH, STATUS_CMD_FAILED])
        start = self.load_address
        end = start + size
        if end > self.layout.boot_start:  # the bootloader protects itself
            return bytes([CMD_PROGRAM_FLASH, STATUS_CMD_FAILED])
        self.image.write(start, data)
        self.load_address = end
        if self._patch is not None and start - 2 < self.sp_site.offset < end:
            self._patch = self.sp_site = None  # the patched word was overwritten: no patch to hide
        if self._received is not None:
            self._received[start:end] = b"\x01" * size
            self._scan_for_sp_init(start, end)
        return _PROGRAM_FLASH_OK

    def _scan_for_sp_init(self, page_start: int, page_end: int):
        # Only a site holding a byte of the new page can have been completed
        # by it, so a fringe on each side covers page-straddling layouts;
        # _sp_init_sites skips the odd offsets.
        lo = max(0, page_start - _FRINGE)
        hi = min(self.layout.boot_start, page_end + _FRINGE)
        for site in avr._sp_init_sites(self.image.data, lo, hi):
            if 0 in self._received[site.offset : site.offset + 8]:
                continue
            self._received = None
            try:
                self._patch = apply_stack_steal(self.image, site)
            except avr.DormantAbort:
                return  # dormant: immediate too small to take the theft
            self.sp_site = site
            return

    def _handle_read_flash(self, body: bytes) -> bytes:
        if len(body) != 3:
            return bytes([CMD_READ_FLASH, STATUS_CMD_FAILED])
        size = (body[1] << 8) | body[2]
        start = self.load_address
        if start + size > self.layout.flash_size:
            return bytes([CMD_READ_FLASH, STATUS_CMD_FAILED])
        data = self.image.data[start : start + size]  # a copy, in bounds as checked
        if self._patch is not None:
            self._spoof_window(data, start)
        self.load_address = start + size
        return _READ_FLASH_OK + data + _STATUS_OK

    def _spoof_window(self, data: bytearray, start: int):
        """Present the pre-patch bytes wherever the window overlaps the
        patched instruction word."""
        offset = self.sp_site.offset
        for i, byte in enumerate(self._patch):
            pos = offset + i - start
            if 0 <= pos < len(data):
                data[pos] = byte

    def handle(self, body: bytes) -> bytes:
        if not body:
            return bytes([0x00, STATUS_CMD_FAILED])
        cmd = body[0]
        if cmd == CMD_SIGN_ON:
            return bytes([CMD_SIGN_ON, STATUS_CMD_OK, len(SIGNATURE)]) + SIGNATURE
        if cmd == CMD_LOAD_ADDRESS:
            return self._handle_load_address(body)
        if cmd == CMD_PROGRAM_FLASH:
            return self._handle_program_flash(body)
        if cmd == CMD_READ_FLASH:
            return self._handle_read_flash(body)
        if cmd == CMD_LEAVE_PROGMODE:
            return bytes([CMD_LEAVE_PROGMODE, STATUS_CMD_OK])
        return bytes([cmd, STATUS_CMD_FAILED])


# --- transports -------------------------------------------------------------


class PipeTransport:
    """In-process byte-stream transport to a session.

    Writes are parsed incrementally.  Responses queue as ``bytes`` in
    ``pending``, read from offset ``_at`` (each write drops the read part).
    The pipe caps every read at 7 bytes, so no message boundary survives.
    """

    def __init__(self, session: BootSession, transcript: list | None = None):
        self.session = session
        self.reader = FrameReader()
        self.pending = b""
        self._at = 0
        self.transcript = transcript

    def write(self, data: bytes):
        if self.transcript is not None:
            self.transcript.append((">>", bytes(data)))
        pending = self.pending[self._at :]
        for frame in self.reader.feed(data):
            response = frame_encode(self.session.handle(frame.body), frame.sequence)
            if self.transcript is not None:
                self.transcript.append(("<<", response))
            pending += response
        self.pending, self._at = pending, 0

    def read(self, n: int) -> bytes:
        at = self._at
        end = at + (7 if n > 7 else n)
        self._at = end  # may pass the end of pending: write drops what was read
        return self.pending[at:end]


# --- programmer client ------------------------------------------------------


@dataclass
class VerifyOutcome:
    verified: bool  # read-back matched what the tool uploaded
    mismatches: list[tuple[int, int, int]] = field(default_factory=list)  # vs stored

    @property
    def stored_differs(self) -> bool:
        """The session's flash actually differs from the read-back."""
        return bool(self.mismatches)


class ProgrammerClient:
    """A deliberately naive programming tool: upload, read back, compare.

    It trusts the bootloader for both directions, exactly like the stock
    toolchains do.  Each round trip writes one request and pulls exactly
    one response frame, never reading past its end: a second response
    queued behind it stays in the transport, and the next round trip
    raises "response sequence mismatch" on it.
    """

    def __init__(self, transport):
        self.transport = transport
        self.reader = FrameReader()
        self.sequence = 0

    def roundtrip(self, body: bytes) -> bytes:
        seq = self.sequence
        self.sequence = (self.sequence + 1) & 0xFF
        self.transport.write(frame_encode(body, seq))
        frame = self.reader.read_frame(self.transport.read)
        if frame.sequence != seq:
            raise ProtocolError("response sequence mismatch")
        return frame.body

    def expect_ok(self, body: bytes) -> bytes:
        response = self.roundtrip(body)
        if len(response) < 2 or response[1] != STATUS_CMD_OK:
            raise ProtocolError(f"command {body[0]:#04x} failed: {response.hex()}")
        return response

    def sign_on(self) -> bytes:
        return self.expect_ok(bytes([CMD_SIGN_ON]))[3:]

    def load_address(self, addr: int):
        self.expect_ok(bytes([CMD_LOAD_ADDRESS]) + addr.to_bytes(4, "big"))

    def program_flash(self, data: bytes):
        self.expect_ok(bytes([CMD_PROGRAM_FLASH, len(data) >> 8, len(data) & 0xFF]) + data)

    def read_flash(self, size: int) -> bytes:
        response = self.expect_ok(bytes([CMD_READ_FLASH, size >> 8, size & 0xFF]))
        return response[2:-1]

    def leave_progmode(self):
        self.expect_ok(bytes([CMD_LEAVE_PROGMODE]))


def used_span(firmware: FlashImage, page_size: int | None = None) -> tuple[int, int]:
    """[start, end) of the non-erased content, aligned to page_size."""
    if page_size is None:
        page_size = firmware.layout.page_size
    data = firmware.data
    last = len(data.rstrip(b"\xff")) - 1
    if last < 0:
        return (0, 0)
    first = len(data) - len(data.lstrip(b"\xff"))
    start = (first // page_size) * page_size
    end = ((last // page_size) + 1) * page_size
    return start, end


def program_and_verify(
    firmware: FlashImage,
    session: BootSession,
    transcript: list | None = None,
) -> VerifyOutcome:
    """Full naive install cycle against a session: upload every used page
    (pages of session.layout.page_size), read the same span back, compare.
    On a page size that does not divide boot_start the last page stops at
    boot_start, shorter than the others.

    verified: read-back equals the uploaded bytes (the tool's view).
    stored_differs: read-back differs from the session's actual flash.
    ProtocolError before anything is sent for a page_size above 0xFFFC
    or firmware with a programmed byte in the boot section.
    """
    page_size = session.layout.page_size
    if page_size > _MAX_PAGE_SIZE:
        raise ProtocolError(f"page_size {page_size} exceeds the {_MAX_PAGE_SIZE} bytes a frame carries")
    start, end = used_span(firmware, page_size)
    boot_start = session.layout.boot_start
    if end > boot_start:  # the page-rounded end: only a byte programmed at boot_start or past it is refused
        if firmware.data[boot_start:end].rstrip(b"\xff"):
            raise ProtocolError("firmware does not fit in the application region")
        end = boot_start
    client = ProgrammerClient(PipeTransport(session, transcript=transcript))
    client.sign_on()
    for page in range(start, end, page_size):
        client.load_address(page)
        client.program_flash(firmware.read(page, min(page_size, end - page)))
    client.load_address(start)
    readback = bytearray()
    for page in range(start, end, page_size):
        readback += client.read_flash(min(page_size, end - page))
    client.leave_progmode()
    uploaded = firmware.read(start, end - start)
    stored = session.image.read(start, end - start)
    mismatches = [
        (start + i, readback[i], stored[i])
        for page in range(0, len(readback), page_size)
        if readback[page : page + page_size] != stored[page : page + page_size]
        for i in range(page, min(page + page_size, len(readback)))
        if readback[i] != stored[i]
    ]
    return VerifyOutcome(verified=bytes(readback) == uploaded, mismatches=mismatches)
