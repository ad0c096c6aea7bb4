"""Minimal AVR instruction decode plus every binary pattern operation:
stack-pointer-init patching, serial ring-buffer discovery by control-flow
walk, and the defensive bootloader audit.

Only the handful of encodings the tooling needs are decoded.  They include
all four 32-bit ones (LDS, STS, JMP, CALL), so everything else is a
16-bit OTHER16 and walkers still advance correctly.
Instruction words are little-endian in flash.  Jump/call targets are word
addresses in the encoding and are converted to byte addresses here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import FlawsimError
from .memory import AddressOutOfRange, FlashImage, MemoryLayout

SPL_IO_ADDR = 0x3D
SPH_IO_ADDR = 0x3E
MCUCR_IO_ADDR = 0x35
IVCE_BIT = 0x01
IVSEL_BIT = 0x02

# the RX slot is the 644P's and 1284P's USART0_RX_vect, _VECTOR(20); on the 2560
# it is _VECTOR(25) and slot 20 is TIMER1_OVF_vect (recalled from avr-libc's
# avr/iom1284p.h and avr/iomxx0_1.h, and the datasheets' "Reset and Interrupt Vectors" tables)
DEFAULT_RX_VECTOR_INDEX = 20
DEFAULT_STEAL_BYTES = 15
RING_WALK_BUDGET = 256
# the ATmega2560's data memory: 512 B of registers and I/O, then 8 KiB of SRAM at 0x200-0x21FF
# (recalled from its datasheet's "Data Memory Map" figure)
_DATA_MEMORY_SIZE = 0x2200
# the root offset under the default layout; find_ring_buffer reads the image's
HEAD_TAIL_TO_ROOT = MemoryLayout.rx_buffer_size


class PatternNotFound(FlawsimError):
    pass


class DormantAbort(FlawsimError):
    """The attack cannot take hold on this image: no plausible ring buffer,
    or an SPL immediate too small to steal from.  Callers go dormant."""


class Kind(Enum):
    LDI = "ldi"
    OUT = "out"
    LDS = "lds"
    STS = "sts"
    JMP = "jmp"
    RJMP = "rjmp"
    CALL = "call"
    CLI = "cli"
    RETI = "reti"
    OTHER16 = "other16"


@dataclass(frozen=True)
class DecodedInsn:
    kind: Kind
    byte_offset: int
    length: int  # 2 or 4
    reg: int | None = None
    value: int | None = None  # LDI immediate
    io_addr: int | None = None  # OUT port
    mem_addr: int | None = None  # LDS/STS data address
    target: int | None = None  # JMP/RJMP/CALL byte address


@dataclass(frozen=True)
class SpInitSite:
    """Location of the startup LDI/LDI/OUT-SPH/OUT-SPL sequence (8 bytes)."""

    offset: int
    spl_immediate: int
    sph_immediate: int


@dataclass(frozen=True)
class RingBufferInfo:
    head_addr: int
    tail_addr: int
    root_addr: int


# --- encoders (used by fixtures and by the patch) -------------------------


def enc_ldi(reg: int, value: int) -> int:
    if not 16 <= reg <= 31:
        raise ValueError("ldi needs r16..r31")
    return 0xE000 | ((value & 0xF0) << 4) | ((reg - 16) << 4) | (value & 0x0F)


def enc_out(io_addr: int, reg: int) -> int:
    return 0xB800 | ((io_addr & 0x30) << 5) | ((reg & 0x1F) << 4) | (io_addr & 0x0F)


def enc_lds(reg: int, mem_addr: int) -> tuple[int, int]:
    return 0x9000 | ((reg & 0x1F) << 4), mem_addr & 0xFFFF


def enc_sts(mem_addr: int, reg: int) -> tuple[int, int]:
    return 0x9200 | ((reg & 0x1F) << 4), mem_addr & 0xFFFF


def _enc_22bit(base: int, byte_target: int) -> tuple[int, int]:
    word_addr = byte_target >> 1
    hi = base | (((word_addr >> 17) & 0x1F) << 4) | ((word_addr >> 16) & 1)
    return hi, word_addr & 0xFFFF


def enc_jmp(byte_target: int) -> tuple[int, int]:
    return _enc_22bit(0x940C, byte_target)


def enc_call(byte_target: int) -> tuple[int, int]:
    return _enc_22bit(0x940E, byte_target)


def enc_rjmp(word_displacement: int) -> int:
    if not -2048 <= word_displacement <= 2047:
        raise ValueError("rjmp displacement out of range")
    return 0xC000 | (word_displacement & 0xFFF)


CLI_WORD = 0x94F8
RETI_WORD = 0x9518


def words_to_bytes(*words: int) -> bytes:
    out = bytearray()
    for w in words:
        out += bytes([w & 0xFF, (w >> 8) & 0xFF])
    return bytes(out)


# --- decode ---------------------------------------------------------------


def decode(image: FlashImage, offset: int) -> DecodedInsn:
    """Decode one instruction at an even byte offset; an odd offset, or
    one whose instruction runs past flash, raises AddressOutOfRange."""
    if offset % 2:
        raise AddressOutOfRange(f"instruction offset {offset:#x} is odd")
    if not 0 <= offset <= image.layout.flash_size - 2:
        raise AddressOutOfRange(f"offset {offset:#x} outside flash")
    word = image.read_word(offset)

    def second_word() -> int:
        if offset + 4 > image.layout.flash_size:
            raise AddressOutOfRange(f"32-bit insn at {offset:#x} runs past flash end")
        return image.read_word(offset + 2)

    if (word & 0xF000) == 0xE000:
        reg = 16 + ((word >> 4) & 0x0F)
        value = ((word >> 4) & 0xF0) | (word & 0x0F)
        return DecodedInsn(Kind.LDI, offset, 2, reg=reg, value=value)
    if (word & 0xF800) == 0xB800:
        io_addr = ((word >> 5) & 0x30) | (word & 0x0F)
        reg = (word >> 4) & 0x1F
        return DecodedInsn(Kind.OUT, offset, 2, reg=reg, io_addr=io_addr)
    if (word & 0xFE0F) == 0x9000:
        return DecodedInsn(Kind.LDS, offset, 4, reg=(word >> 4) & 0x1F, mem_addr=second_word())
    if (word & 0xFE0F) == 0x9200:
        return DecodedInsn(Kind.STS, offset, 4, reg=(word >> 4) & 0x1F, mem_addr=second_word())
    if (word & 0xFE0E) == 0x940C or (word & 0xFE0E) == 0x940E:
        kind = Kind.JMP if (word & 0xFE0E) == 0x940C else Kind.CALL
        word_addr = ((((word >> 4) & 0x1F) << 17) | ((word & 1) << 16) | second_word())
        return DecodedInsn(kind, offset, 4, target=word_addr * 2)
    if (word & 0xF000) == 0xC000:
        disp = word & 0xFFF
        if disp >= 0x800:
            disp -= 0x1000
        return DecodedInsn(Kind.RJMP, offset, 2, target=offset + 2 + disp * 2)
    if word == CLI_WORD:
        return DecodedInsn(Kind.CLI, offset, 2)
    if word == RETI_WORD:
        return DecodedInsn(Kind.RETI, offset, 2)
    return DecodedInsn(Kind.OTHER16, offset, 2)


def format_insn(insn: DecodedInsn) -> str:
    k = insn.kind
    if k is Kind.LDI:
        return f"ldi r{insn.reg}, 0x{insn.value:02X}"
    if k is Kind.OUT:
        return f"out 0x{insn.io_addr:02x}, r{insn.reg}"
    if k is Kind.LDS:
        return f"lds r{insn.reg}, 0x{insn.mem_addr:04X}"
    if k is Kind.STS:
        return f"sts 0x{insn.mem_addr:04X}, r{insn.reg}"
    if k in (Kind.JMP, Kind.CALL, Kind.RJMP):
        return f"{k.value} 0x{insn.target:x}"
    if k in (Kind.CLI, Kind.RETI):
        return k.value
    return f".word ; {k.value}"


# --- stack-steal pattern ---------------------------------------------------

# ldi r28, <any>; ldi r29, <any>; out SPH, r29; out SPL, r28 as flash bytes
# (little-endian words): each ldi is 0xE<hi><reg-16><lo>.
_SP_INIT_RE = re.compile(
    rb"[\xc0-\xcf][\xe0-\xef][\xd0-\xdf][\xe0-\xef]"
    + re.escape(words_to_bytes(enc_out(SPH_IO_ADDR, 29), enc_out(SPL_IO_ADDR, 28)))
)


def _sp_init_sites(data: bytes, start: int, end: int):
    """Yield every stack-pointer-init sequence lying wholly inside
    data[start:end] at an even offset, lowest first."""
    search = _SP_INIT_RE.search
    m = search(data, start, end)
    while m is not None:
        offset = m.start()
        if offset % 2 == 0:  # an odd hit straddles two instruction words
            spl = ((data[offset + 1] & 0x0F) << 4) | (data[offset] & 0x0F)
            sph = ((data[offset + 3] & 0x0F) << 4) | (data[offset + 2] & 0x0F)
            yield SpInitSite(offset, spl, sph)
        m = search(data, offset + 1, end)


def find_sp_init(image: FlashImage, start: int = 0, end: int | None = None) -> SpInitSite:
    """Locate the first stack-pointer-init sequence in [start, end).

    The two LDI immediates are wildcards (compilers vary them by RAM
    size); the register/port shape is exact.  Lowest even offset wins.
    A window that starts below 0, or runs past the end of flash with no
    sequence before it, raises AddressOutOfRange.
    """
    size = image.layout.flash_size
    if end is None:
        end = size
    if start < 0:
        raise AddressOutOfRange(f"scan window starts at {start:#x}, below flash")
    for site in _sp_init_sites(image.data, start + (start % 2), end):
        return site
    if end > size:
        raise AddressOutOfRange(f"scan window ends at {end:#x}, past flash of {size:#x} bytes")
    raise PatternNotFound("no stack-pointer init sequence found")


def apply_stack_steal(image: FlashImage, site: SpInitSite) -> bytes:
    """Lower the initial SPL immediate in image by DEFAULT_STEAL_BYTES,
    freeing that many bytes above the stack, and return the two bytes the
    patch replaced.

    Only the immediate nibbles of the first LDI word change.  Raises
    PatternNotFound for a site that holds no ldi r28, and DormantAbort
    rather than borrow into SPH; either way the image is left as it was.
    """
    word = image.read_word(site.offset)
    if (word & 0xF0F0) != 0xE0C0:
        raise PatternNotFound(f"no ldi r28 at {site.offset:#x}; stale site?")
    current = ((word >> 4) & 0xF0) | (word & 0x0F)
    if current < DEFAULT_STEAL_BYTES:
        raise DormantAbort(f"SPL immediate {current:#04x} - {DEFAULT_STEAL_BYTES} would borrow into SPH")
    image.write_word(site.offset, enc_ldi(28, current - DEFAULT_STEAL_BYTES))
    return word.to_bytes(2, "little")


# --- ring-buffer discovery -------------------------------------------------


def find_ring_buffer(image: FlashImage) -> RingBufferInfo:
    """Walk the serial-receive ISR looking for back-to-back LDS loads.

    The modeled chip's RX vector slot, DEFAULT_RX_VECTOR_INDEX, must hold
    a JMP; the walk follows JMP/RJMP, steps over CALL, and falls through
    everything else.  Two consecutive LDS give the head/tail pointer
    addresses; the buffer root sits the layout's rx_buffer_size bytes
    below the smaller one.  Budget: 256 decoded instructions.  A walk that
    runs out of budget or leaves flash, or a head, tail or root outside
    the modeled chip's data memory, raises DormantAbort.
    """
    slot = DEFAULT_RX_VECTOR_INDEX
    try:
        entry = decode(image, slot * 4)
    except AddressOutOfRange as exc:
        raise DormantAbort(f"vector slot {slot} unreadable: {exc}") from exc
    if entry.kind is not Kind.JMP:
        raise DormantAbort(f"vector slot {slot} is not a jmp")

    pc = entry.target
    prev: DecodedInsn | None = None
    for _ in range(RING_WALK_BUDGET):
        try:
            insn = decode(image, pc)
        except AddressOutOfRange as exc:
            raise DormantAbort(f"walk left flash at {pc:#x}") from exc
        if insn.kind is Kind.LDS and prev is not None and prev.kind is Kind.LDS:
            head, tail = prev.mem_addr, insn.mem_addr
            root = min(head, tail) - image.layout.rx_buffer_size
            if root < 0 or max(head, tail) >= _DATA_MEMORY_SIZE:
                raise DormantAbort(
                    f"head {head:#06x} / tail {tail:#06x} / root {root:#06x} "
                    f"not all inside {_DATA_MEMORY_SIZE:#x} bytes of data memory"
                )
            return RingBufferInfo(head_addr=head, tail_addr=tail, root_addr=root)
        prev = insn
        if insn.kind in (Kind.JMP, Kind.RJMP):
            pc = insn.target
        else:  # CALL assumed to return; conditional branches fall through
            pc = insn.byte_offset + insn.length
    raise DormantAbort(f"no LDS pair within {RING_WALK_BUDGET} instructions")


# --- defensive bootloader audit ---------------------------------------------

IVSEL_TAKEOVER = "IvselTakeover"
ISR_TRAMPOLINE = "IsrTrampoline"

_AUDIT_WINDOW = 16  # max instructions between the paired MCUCR writes


@dataclass(frozen=True)
class Finding:
    kind: str
    offset: int
    related_offset: int
    snippet: str


def audit_bootloader(image: FlashImage) -> list[Finding]:
    """Statically audit the boot region for takeover signatures.

    IvselTakeover: consecutive stores to MCUCR where the first written
    value has the vector-change-enable bit set and the second the
    vector-select bit, at most 16 instructions apart.  Written values are
    resolved through the most recent LDI into the source register.

    IsrTrampoline: a CALL into the application region immediately
    followed by CLI (the wrapped-ISR idiom).

    Empty list means clean.  One forward linear sweep that keeps only the
    latest LDI value per register, the previous instruction, and the last
    MCUCR write whose value is known, paired with each new one as it
    arrives; data embedded in code can in principle desync the sweep,
    which is acceptable for fixture-scale audits.

    The sweep starts no instruction past the last programmed (non-0xFF)
    byte of the section, though it always starts the first.  Decoding is
    still bounded by the end of flash, so a 32-bit instruction there reads
    its erased second word, and one that runs past flash raises
    AddressOutOfRange.  Nothing past that point can be a finding: erased
    words decode as OTHER16 and come after every MCUCR write and every
    CALL, so they neither write MCUCR nor follow a CALL as its CLI.
    """
    layout = image.layout
    offset = layout.boot_start
    programmed = len(image.data[offset:].rstrip(b"\xff"))
    # at least one word, so an odd section start still raises AddressOutOfRange
    stop = min(layout.flash_size - 1, offset + max(programmed, 1))
    findings: list[Finding] = []
    reg_imm: dict[int, int] = {}
    # the last MCUCR write of known value, as (insn index, offset, value);
    # the starting value 0 has no IVCE bit, so it pairs with nothing
    last_write = (0, 0, 0)
    prev: DecodedInsn | None = None
    idx = 0
    while offset < stop:
        insn = decode(image, offset)
        if insn.kind is Kind.LDI:
            reg_imm[insn.reg] = insn.value
        elif insn.kind is Kind.OUT and insn.io_addr == MCUCR_IO_ADDR and insn.reg in reg_imm:
            value = reg_imm[insn.reg]
            i1, off1, val1 = last_write
            if idx - i1 <= _AUDIT_WINDOW and (val1 & IVCE_BIT) and (value & IVSEL_BIT):
                snippet = f"out 0x{MCUCR_IO_ADDR:02x}, #0x{val1:02X} ; out 0x{MCUCR_IO_ADDR:02x}, #0x{value:02X}"
                findings.append(Finding(IVSEL_TAKEOVER, off1, offset, snippet))
            last_write = (idx, offset, value)
        elif insn.kind is Kind.CLI and prev is not None and prev.kind is Kind.CALL:
            if layout.in_app_region(prev.target):
                snippet = f"{format_insn(prev)} ; {format_insn(insn)}"
                findings.append(Finding(ISR_TRAMPOLINE, prev.byte_offset, offset, snippet))
        prev = insn
        idx += 1
        offset += insn.length

    findings.sort(key=lambda f: f.offset)
    return findings
