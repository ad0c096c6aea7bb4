"""Deterministic fixture builders: synthetic firmware images that exhibit
(or deliberately lack) the patterns the scanners look for, and slicer-style
g-code documents for the tampering and forensics pipelines.

Everything here is reproducible from parameters alone; the shipped fixture
files under fixtures/ are regenerated by tools/make_fixtures.py.
"""

from __future__ import annotations

import random

from . import avr
from .avr import (
    CLI_WORD,
    RETI_WORD,
    enc_call,
    enc_jmp,
    enc_ldi,
    enc_lds,
    enc_out,
    enc_rjmp,
    enc_sts,
    words_to_bytes,
)
from .fixedpoint import MAX_RAW, SCALE, FixedPointOverflow, format_raw
from .memory import FlashImage, MemoryLayout
from .stk500 import BootSession

DEFAULT_LAYOUT = MemoryLayout()

# Addresses mirrored by the synthetic application firmware.
APP_SP_INIT_OFFSET = 0x39E0
APP_RX_ISR_OFFSET = 0x1076E
RX_HEAD_ADDR = 0x0324
RX_TAIL_ADDR = 0x0323

_EOR_R1_R1 = 0x2411  # classified OTHER16 by the decoder
_PUSH_R18 = 0x932F
_PUSH_R30 = 0x93EF
_NOP = 0x0000


def build_app_image(
    layout: MemoryLayout = DEFAULT_LAYOUT,
    sp_offset: int = APP_SP_INIT_OFFSET,
    isr_offset: int = APP_RX_ISR_OFFSET,
    spl: int = 0xFF,
) -> FlashImage:
    """A printer-firmware-shaped application image.

    Reset vector jumps to startup code whose stack-pointer init (SPH 0x21,
    the given SPL) sits at sp_offset; the RX vector jumps to an ISR that
    loads RX_HEAD_ADDR and RX_TAIL_ADDR back to back a few instructions in.
    """
    image = FlashImage(layout)
    startup = sp_offset - 4
    image.write(0, words_to_bytes(*enc_jmp(startup)))
    image.write(avr.DEFAULT_RX_VECTOR_INDEX * 4, words_to_bytes(*enc_jmp(isr_offset)))
    image.write(
        startup,
        words_to_bytes(
            _EOR_R1_R1,
            enc_out(0x3F, 1),  # clear SREG
            enc_ldi(28, spl),
            enc_ldi(29, 0x21),
            enc_out(avr.SPH_IO_ADDR, 29),
            enc_out(avr.SPL_IO_ADDR, 28),
            enc_rjmp(-1),  # spin
        ),
    )
    isr = [_PUSH_R18, _PUSH_R30] + [_EOR_R1_R1] * 4
    isr += [*enc_lds(18, RX_HEAD_ADDR), *enc_lds(30, RX_TAIL_ADDR)]
    isr += [*enc_sts(RX_TAIL_ADDR, 30), RETI_WORD]
    image.write(isr_offset, words_to_bytes(*isr))
    return image


def build_clean_bootloader(layout: MemoryLayout = DEFAULT_LAYOUT) -> FlashImage:
    """A benign bootloader: sets up its own stack, pokes the UART config,
    calls a boot-local helper (followed by cli, which must NOT be flagged:
    the call stays inside the boot region)."""
    image = FlashImage(layout)
    boot = layout.boot_start
    helper = boot + 0x40
    words = [
        enc_ldi(28, 0xFF),
        enc_ldi(29, 0x21),
        enc_out(avr.SPH_IO_ADDR, 29),
        enc_out(avr.SPL_IO_ADDR, 28),
        enc_ldi(24, 0x18),
        enc_out(0x0A, 24),  # UART control, nowhere near MCUCR
        *enc_call(helper),
        CLI_WORD,
        enc_rjmp(-1),
    ]
    image.write(boot, words_to_bytes(*words))
    image.write(helper, words_to_bytes(_NOP, RETI_WORD))
    return image


def build_trojan_bootloader(layout: MemoryLayout = DEFAULT_LAYOUT) -> FlashImage:
    """A bootloader carrying both takeover signatures: the two-step vector
    relocation writes and a wrapped-ISR trampoline into application space."""
    image = build_clean_bootloader(layout)
    boot = layout.boot_start
    takeover = boot + 0x80
    wrapper = boot + 0xA0
    image.write(
        takeover,
        words_to_bytes(
            enc_ldi(24, avr.IVCE_BIT),
            enc_out(avr.MCUCR_IO_ADDR, 24),
            enc_ldi(24, avr.IVSEL_BIT),
            enc_out(avr.MCUCR_IO_ADDR, 24),
            enc_rjmp(-1),
        ),
    )
    image.write(
        wrapper,
        words_to_bytes(
            _PUSH_R18,
            *enc_call(avr.DEFAULT_RX_VECTOR_INDEX * 4),
            CLI_WORD,
            _EOR_R1_R1,
            RETI_WORD,
        ),
    )
    return image


def build_session(trojan: bool, layout: MemoryLayout = DEFAULT_LAYOUT) -> BootSession:
    """A programming session over the matching (clean or trojanized)
    bootloader's image: the boot section carries the bootloader and the
    application region is still erased."""
    boot = build_trojan_bootloader(layout) if trojan else build_clean_bootloader(layout)
    return BootSession(image=boot, trojan_enabled=trojan)


# --- g-code documents --------------------------------------------------------


LAYER_HEIGHT_RAW = 2_000  # 0.2 mm


def _number(raw: int) -> str:
    """A raw value as fixture text, refused past the 32-bit budget."""
    if abs(raw) > MAX_RAW:
        raise FixedPointOverflow(f"raw magnitude {raw} exceeds 32-bit budget")
    return format_raw(raw)


def generate_gcode(
    segments: int = 40,
    segment_mm: float = 10.0,
    extrusion_per_mm: float = 0.05,
    m73_step: int | None = 5,
    layers: int = 1,
    travel_every: int | None = None,
    comments: bool = False,
    crlf: bool = False,
    g92_reset_at: int | None = None,
    flow_jitter: float = 0.0,
    seed: int = 0,
    header: bool = True,
) -> str:
    """A slicer-flavoured document: a serpentine path with absolute
    extrusion, optional progress markers, travels, comments and resets.

    All numbers are emitted in canonical minimal form: positions with at
    most two decimals (segment_mm is rounded to hundredths), E with at most
    three, so scaling by whole percents stays exact in fixed point.  A
    value past the 32-bit budget raises FixedPointOverflow, and an
    m73_step below 1 raises ValueError.
    """
    if m73_step is not None and m73_step < 1:
        raise ValueError(f"m73_step must be at least 1, got {m73_step}")
    rng = random.Random(seed)
    eol = "\r\n" if crlf else "\n"
    lines: list[str] = []
    if header:
        lines += [";FLAVOR:Marlin", ";Generated fixture", "M82", "G92 E0"]
    if m73_step is not None:
        lines.append("M73 P0")
    x_raw = round(round(segment_mm, 2) * 100) * 100  # X alternates between this and 0
    y_raw = 0
    e_raw = 0
    total = segments * layers
    emitted = 0
    seg_e_raw = round(segment_mm * extrusion_per_mm * SCALE)
    seg_e_raw -= seg_e_raw % 10  # keep three decimals: exact under /100 scaling
    next_marker = m73_step
    for layer in range(layers):
        y = _number(y_raw)
        lines.append(f"G0 X0 Y{y} Z{_number((layer + 1) * LAYER_HEIGHT_RAW)}")
        for s in range(segments):
            emitted += 1
            jitter = 1.0
            if flow_jitter:
                jitter = 1.0 + rng.uniform(-flow_jitter, flow_jitter)
            delta_raw = max(10, round(seg_e_raw * jitter))
            delta_raw -= delta_raw % 10
            e_raw += delta_raw
            x = _number(x_raw) if s % 2 == 0 else "0"
            body = f"G1 X{x} Y{y} E{_number(e_raw)}"
            if comments and s % 7 == 0:
                body += " ; perimeter"
            lines.append(body)
            if travel_every and emitted % travel_every == 0:
                y_raw += SCALE
                y = _number(y_raw)
                lines.append(f"G0 X{x} Y{y}")
            if g92_reset_at is not None and emitted == g92_reset_at:
                lines.append("G92 E0")
                e_raw = 0
            if next_marker is not None:
                progress = 100 * emitted // total
                while next_marker <= progress:
                    lines.append(f"M73 P{next_marker}")
                    next_marker += m73_step
        y_raw += 2 * SCALE
    if next_marker is not None:
        while next_marker <= 100:
            lines.append(f"M73 P{next_marker}")
            next_marker += m73_step
    if comments:
        lines.append("; end of print")
    return eol.join(lines) + eol


def corpus_documents() -> dict[str, str]:
    """The shipped streaming/transform test corpus: 22 clean documents in
    assorted shapes.  Names are stable; content is deterministic."""
    docs: dict[str, str] = {}
    docs["clean_small.gcode"] = generate_gcode(segments=12, m73_step=None, header=False)
    docs["clean_serpentine.gcode"] = generate_gcode(segments=40)
    docs["clean_two_layers.gcode"] = generate_gcode(segments=24, layers=2)
    docs["clean_dense_markers.gcode"] = generate_gcode(segments=60, m73_step=5)
    docs["clean_sparse_markers.gcode"] = generate_gcode(segments=40, m73_step=25)
    docs["clean_comments.gcode"] = generate_gcode(segments=30, comments=True)
    docs["clean_crlf.gcode"] = generate_gcode(segments=30, crlf=True)
    docs["clean_travels.gcode"] = generate_gcode(segments=36, travel_every=6)
    docs["clean_g92_reset.gcode"] = generate_gcode(segments=30, g92_reset_at=15)
    docs["clean_jitter.gcode"] = generate_gcode(segments=48, flow_jitter=0.3, seed=7)
    docs["clean_fine_flow.gcode"] = generate_gcode(segments=32, extrusion_per_mm=0.033)
    docs["clean_long.gcode"] = generate_gcode(segments=120, layers=2, travel_every=10)
    docs["clean_uniform_n2.gcode"] = generate_gcode(segments=100, m73_step=5)
    docs["clean_uniform_n3.gcode"] = generate_gcode(segments=90, m73_step=5)
    docs["clean_uniform_n4.gcode"] = generate_gcode(segments=80, m73_step=5)
    docs["clean_short_segments.gcode"] = generate_gcode(segments=50, segment_mm=2.5)
    docs["clean_heavy_flow.gcode"] = generate_gcode(segments=30, extrusion_per_mm=0.2)
    docs["clean_three_layers.gcode"] = generate_gcode(segments=20, layers=3, comments=True)
    docs["clean_mixed.gcode"] = generate_gcode(
        segments=45, travel_every=9, comments=True, g92_reset_at=20, seed=3, flow_jitter=0.2
    )
    docs["clean_mixed_crlf.gcode"] = generate_gcode(
        segments=36, crlf=True, comments=True, travel_every=12
    )
    docs["clean_decimals.gcode"] = generate_gcode(segments=28, segment_mm=7.3, extrusion_per_mm=0.041)
    docs["clean_wide.gcode"] = generate_gcode(segments=64, segment_mm=25.0)
    return docs

