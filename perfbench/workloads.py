"""The benchmark's four workloads: seeded inputs, one pass each, and the
referee checks every pass must satisfy.

Inputs come only from the workload seed, through flawsim.fixtures, and
stay inside the shipped slicer grammar: no malformed parameter tails and
no line longer than the ring's 127 usable bytes (see NOTES.md for what
that leaves unmeasured).  Passes call flawsim through module attributes
(``audit.account``, not a bound name) so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from flawsim import audit, avr, fixtures, memory, stk500, tamper
from flawsim.memory import FlashImage, MemoryLayout
from flawsim.policy import Mode, TamperPolicy
from flawsim.uart import UartSimulation

LAYOUT = MemoryLayout()
EXPECTED_RING = avr.RingBufferInfo(
    head_addr=fixtures.RX_HEAD_ADDR,
    tail_addr=fixtures.RX_TAIL_ADDR,
    root_addr=min(fixtures.RX_HEAD_ADDR, fixtures.RX_TAIL_ADDR) - avr.HEAD_TAIL_TO_ROOT,
)
STOLEN_SPL = 0xFF - avr.DEFAULT_STEAL_BYTES  # build_app_image's SPL after the steal
REDUCTIONS = (10, 20, 30, 40, 50)  # percent, acceptance criterion 1
RELOCATIONS = (2, 3, 4)  # every n-th move, acceptance criteria 2 and 9
WINDOW = (25, 75)
INSTALL_FILL_END = 240 * 1024  # seeded filler covers [0, 240 KiB) of the app region


class Referee:
    """Counts checked operations and the ones that failed or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, op: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(op)

    def crash(self, op: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{op}: {type(exc).__name__}: {exc}")


# --- independent references ------------------------------------------------


def deposited_raw(doc: str) -> int:
    """Total deposited filament in 1e-4 mm, computed without flawsim's
    parser: absolute E axis, re-zeroed by ``G92 E``.  The generated
    documents never switch to relative extrusion."""
    e = total = 0
    for line in doc.splitlines():
        words = line.split(";", 1)[0].split()
        if not words or words[0] not in ("G0", "G1", "G92"):
            continue
        for word in words[1:]:
            if word[0] != "E":
                continue
            value = int(Decimal(word[1:]) * 10_000)
            if words[0] != "G92" and value > e:
                total += value - e
            e = value
    return total


def changed_lines(before: str, after: str) -> int:
    """Lines a line-for-line transform rewrote."""
    return sum(a != b for a, b in zip(before.splitlines(), after.splitlines()))


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _trojan_install_ok(outcome: stk500.VerifyOutcome, session: stk500.BootSession) -> bool:
    """The naive verify passes while exactly the sp-init word differs."""
    site = session.sp_site
    return (
        outcome.verified
        and outcome.stored_differs
        and site is not None
        and site.offset == fixtures.APP_SP_INIT_OFFSET
        and {addr & ~1 for addr, _, _ in outcome.mismatches} == {site.offset}
    )


def _clean_install_ok(outcome: stk500.VerifyOutcome) -> bool:
    return outcome.verified and not outcome.stored_differs and not outcome.mismatches


# --- inputs -----------------------------------------------------------------


@dataclass
class Inputs:
    """Everything one workload's passes read, plus the references they are
    checked against.  ``texts`` is what the program is given (and what the
    digest covers); ``props`` are the input properties layer costs depend
    on."""

    texts: list[str]
    docs: list[str] = field(default_factory=list)
    totals: list[int] = field(default_factory=list)
    policy: TamperPolicy | None = None
    references: list[str] = field(default_factory=list)
    hex_text: str = ""
    firmware: FlashImage | None = None
    props: dict = field(default_factory=dict)

    @property
    def chars(self) -> int:
        """What chars_per_s counts: the g-code where there is any, else the
        Intel HEX text."""
        return sum(len(t) for t in (self.docs or self.texts))

    @property
    def digest(self) -> str:
        return digest(*self.texts)


def _doc_props(docs: list[str], references: list[str]) -> dict:
    lengths = [len(line) for doc in docs for line in doc.splitlines()]
    props = {
        "documents": len(docs),
        "lines": len(lengths),
        "mean_line_len": round(sum(lengths) / len(lengths), 2),
        "max_line_len": max(lengths),
        "m73_markers": sum(doc.count("M73 ") for doc in docs),
    }
    if references:
        changed = sum(changed_lines(d, r) for d, r in zip(docs, references))
        props["edited_or_converted_share"] = round(changed / len(lengths), 4)
    return props


def _stream_firmware(props: dict) -> tuple[str, FlashImage]:
    image = fixtures.build_app_image(LAYOUT)
    start, end = stk500.used_span(image)
    props["firmware_bytes"] = end - start
    return memory.dump_ihex(image), image


def setup_stream_reduce(seed: int, small: bool) -> Inputs:
    """One ~10k-line print in performance_document's short-line shape; the
    seed picks the flow jitter.  Every extruding move is edited."""
    segments = 800 if small else 9800
    doc = fixtures.generate_gcode(
        segments=segments, m73_step=5, travel_every=50, flow_jitter=0.2, seed=seed
    )
    policy = TamperPolicy.reduction(Fraction(30, 100))
    reference = tamper.apply_policy(doc, policy)
    props = _doc_props([doc], [reference])
    hex_text, image = _stream_firmware(props)
    return Inputs(
        texts=[doc, hex_text], docs=[doc], totals=[deposited_raw(doc)], policy=policy,
        references=[reference], hex_text=hex_text, firmware=image, props=props,
    )


def setup_stream_relocate(seed: int, small: bool) -> Inputs:
    """A commented CRLF print with travels, one G92 reset and an M73 marker
    every percent; a quarter of the extruding moves are converted.  The
    reset sits before the window so conversions conserve material."""
    rng = random.Random(seed)
    per_layer = 200 if small else 2400
    layers = 4
    doc = fixtures.generate_gcode(
        segments=per_layer, layers=layers, m73_step=1, travel_every=10, comments=True,
        crlf=True, g92_reset_at=rng.randrange(per_layer // 4, per_layer * 3 // 4),
        flow_jitter=0.1, seed=seed,
    )
    policy = TamperPolicy.relocation(2, *WINDOW)
    reference = tamper.apply_policy(doc, policy)
    props = _doc_props([doc], [reference])
    hex_text, image = _stream_firmware(props)
    return Inputs(
        texts=[doc, hex_text], docs=[doc], totals=[deposited_raw(doc)], policy=policy,
        references=[reference], hex_text=hex_text, firmware=image, props=props,
    )


def setup_forensics(seed: int, small: bool) -> Inputs:
    """Three documents in the corpus's mixed shapes (clean_mixed,
    clean_mixed_crlf, clean_decimals over three layers), a few thousand
    lines each; the seed picks jitter and the G92 reset position."""
    rng = random.Random(seed)
    n = 180 if small else 1800
    docs = [
        fixtures.generate_gcode(
            segments=n, travel_every=9, comments=True, g92_reset_at=rng.randrange(n // 20, n // 5),
            flow_jitter=0.2, seed=rng.randrange(1 << 30),
        ),
        fixtures.generate_gcode(
            segments=n, crlf=True, comments=True, travel_every=12, flow_jitter=0.1,
            seed=rng.randrange(1 << 30),
        ),
        fixtures.generate_gcode(
            segments=n // 3, layers=3, segment_mm=7.3, extrusion_per_mm=0.041,
            flow_jitter=0.15, seed=rng.randrange(1 << 30),
        ),
    ]
    props = _doc_props(docs, [])
    moves = sum(line.startswith("G1 ") and " E" in line for d in docs for line in d.splitlines())
    props["extruding_line_share"] = round(moves / props["lines"], 4)  # what a reduction edits
    props["firmware_bytes"] = 0
    return Inputs(texts=docs, docs=docs, totals=[deposited_raw(d) for d in docs], props=props)


def _filler(rng: random.Random, size: int) -> bytes:
    """Random instruction words below 0x9000.  Every encoding the scanners
    look for (ldi, out, lds/sts, jmp/call, rjmp, cli, reti) and erased
    0xFFFF lie above it, so the filler never forms the sp-init or lds
    pattern nor a jump the ring walk could follow."""
    data = bytearray(rng.randbytes(size))
    data[1::2] = bytes(b % 0x90 for b in data[1::2])  # high byte of each LE word
    return bytes(data)


def setup_install(seed: int, small: bool) -> Inputs:
    """A printer-sized application: build_app_image with seeded filler in
    every erased word of [0, 240 KiB), written as Intel HEX."""
    app = fixtures.build_app_image(LAYOUT)
    fill_end = 32 * 1024 if small else INSTALL_FILL_END
    filled = bytearray(_filler(random.Random(seed), fill_end))
    data = app.data
    for off in range(0, fill_end, 2):
        if data[off] != 0xFF or data[off + 1] != 0xFF:
            filled[off : off + 2] = data[off : off + 2]
    data[:fill_end] = filled
    hex_text = memory.dump_ihex(app)
    start, end = stk500.used_span(app)
    props = {
        "hex_records": hex_text.count("\n"),
        "firmware_bytes": end - start,
        "m73_markers": 0,
    }
    return Inputs(texts=[hex_text], hex_text=hex_text, firmware=app, props=props)


# --- passes -----------------------------------------------------------------


def stream_pass(inp: Inputs, ref: Referee):
    """The calls ``flawsim pipeline`` makes: install through the trojan
    session, discover the ring, stream the print, account before/after."""
    firmware = memory.load_ihex(inp.hex_text, LAYOUT)
    session = fixtures.build_session(trojan=True, layout=LAYOUT)
    outcome = stk500.program_and_verify(firmware, session)
    ref.check("stream install", firmware == inp.firmware and _trojan_install_ok(outcome, session))
    info = avr.find_ring_buffer(session.image)
    ref.check("ring discovery", info == EXPECTED_RING)
    doc = inp.docs[0]
    sim = UartSimulation(inp.policy, rx_buffer_size=LAYOUT.rx_buffer_size, ring_info=info)
    consumed = sim.feed(doc)
    consumed.append(sim.flush_residual())
    output = "".join(consumed)
    ref.check("stream == transform", output == inp.references[0])
    before = audit.account(doc)
    after = audit.account(output)
    percent = audit.compare(before, after)
    total = inp.totals[0]
    kept = 100 - inp.policy.param_byte() if inp.policy.mode is Mode.REDUCTION else 100
    ref.check(
        "stream totals",
        before.total_extrusion.raw == total
        and after.total_extrusion.raw * 100 == total * kept
        and abs(percent - (100 - kept)) < 1e-9,
    )


def forensics_pass(inp: Inputs, ref: Referee):
    """Per document: the `flawsim tamper` payloads and the `flawsim audit
    --detect --reference` steps of acceptance criteria 1, 2 and 9."""
    for doc, total in zip(inp.docs, inp.totals):
        before = audit.account(doc)
        ref.check(
            "clean accounting",
            before.total_extrusion.raw == total and audit.detect_relocation(before) == [],
        )
        for percent in REDUCTIONS:
            out = tamper.apply_policy(doc, TamperPolicy.reduction(Fraction(percent, 100)))
            after = audit.account(out)
            measured = audit.compare(before, after)
            ref.check(
                f"reduce {percent}%",
                after.total_extrusion.raw * 100 == total * (100 - percent)
                and abs(measured - percent) < 1e-9,
            )
        for n in RELOCATIONS:
            out = tamper.apply_policy(doc, TamperPolicy.relocation(n, *WINDOW))
            after = audit.account(out)
            measured = audit.compare(before, after)
            anomalies = audit.detect_relocation(after)
            ref.check(
                f"relocate 1-in-{n}",
                after.total_extrusion.raw == total
                and measured == 0
                and any(a.kind == audit.RELOCATION_SIGNATURE for a in anomalies),
            )


def install_pass(inp: Inputs, ref: Referee):
    """Load the image, install it through a trojan and a clean session,
    scan and audit both results, write the image back out."""
    firmware = memory.load_ihex(inp.hex_text, LAYOUT)
    ref.check("load", firmware == inp.firmware)
    trojan = fixtures.build_session(trojan=True, layout=LAYOUT)
    ref.check("trojan install", _trojan_install_ok(stk500.program_and_verify(firmware, trojan), trojan))
    clean = fixtures.build_session(trojan=False, layout=LAYOUT)
    outcome = stk500.program_and_verify(firmware, clean)
    ref.check("clean install", _clean_install_ok(outcome))
    site = avr.find_sp_init(firmware)
    stolen = avr.find_sp_init(trojan.image)
    try:
        avr.find_sp_init(firmware, site.offset + 2, LAYOUT.boot_start)
        unique = False
    except avr.PatternNotFound:
        unique = True
    ref.check(
        "sp-init scan",
        unique
        and site.offset == stolen.offset == fixtures.APP_SP_INIT_OFFSET
        and site.spl_immediate == 0xFF
        and stolen.spl_immediate == STOLEN_SPL,
    )
    ref.check("ring discovery", avr.find_ring_buffer(trojan.image) == EXPECTED_RING)
    ref.check(
        "audit trojan boot",
        {f.kind for f in avr.audit_bootloader(trojan.image)}
        == {avr.IVSEL_TAKEOVER, avr.ISR_TRAMPOLINE},
    )
    ref.check("audit clean boot", avr.audit_bootloader(clean.image) == [])
    ref.check("hex round trip", memory.dump_ihex(firmware) == inp.hex_text)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], Inputs]
    run_pass: Callable[[Inputs, Referee], None]
    streams: bool  # runs the uart layer: the traced run splits it
    installs: tuple[bool, ...]  # trojan flag of each install a pass makes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream_reduce", setup_stream_reduce, stream_pass, True, (True,)),
        Workload("stream_relocate", setup_stream_relocate, stream_pass, True, (True,)),
        Workload("forensics", setup_forensics, forensics_pass, False, ()),
        Workload("install", setup_install, install_pass, False, (True, False)),
    )
}
