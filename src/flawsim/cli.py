"""Command-line front end.

Exit codes are a contract for CI gating:
    0  success / nothing suspicious
    1  usage error, or a path that cannot be read or written
    2  tampering detected (differing stored image, audit findings,
       deposition anomalies)
    3  parse error: an input could not be read (the message names its
       line); error: an analysis or an install cannot run on it

Output: stdout and every file are UTF-8 bytes, whatever the locale.
stdout holds a command's whole report, written once at its end, or
nothing when it exits 1 or 3; a report written with -o has the same
bytes.  Files (tamper's output, -o, --transcript) are written as soon
as they are complete, and pipeline's --trace as the stream runs, a line
per stored byte, so pipeline keeps both when accounting then exits 3.
--window without --relocate, --threshold without --detect, and an empty
path for any file argument are usage errors.  scan --json prints JSON in
every case: null when there is no stack-pointer init, {"dormant_abort":
REASON} when ring-buffer discovery goes dormant.

A memory layout JSON (fields of MemoryLayout) can be supplied with
--layout.  flawsim pipeline streams its input verbatim when the install
chain went dormant: no stack steal, or no plausible ring buffer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import audit as audit_mod
from . import avr, fixtures, memory, stk500, tamper
from .errors import FlawsimError, ParseError
from .memory import MemoryLayout
from .policy import TamperPolicy
from .uart import UartSimulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TAMPER = 2
EXIT_PARSE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _path(text: str) -> str:
    """The argparse type of every path argument: an empty one names no file."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def load_layout(path: str | None) -> MemoryLayout:
    """The layout a JSON object of MemoryLayout fields gives; ValueError
    for anything else, naming the field at fault."""
    if path is None:
        return MemoryLayout()
    try:
        fields = json.loads(Path(path).read_bytes())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"layout {path}: {exc}") from None
    if not isinstance(fields, dict):
        raise ValueError(f"layout {path}: expected a JSON object of MemoryLayout fields")
    known = {f.name for f in dataclasses.fields(MemoryLayout)}
    for name, value in fields.items():
        if name not in known:
            raise ValueError(f"layout {path}: unknown field {name!r}")
        if type(value) is not int:
            raise ValueError(f"layout {path}: field {name!r} must be an integer, not {value!r}")
    try:
        return MemoryLayout(**fields)
    except ValueError as exc:  # a value out of range
        raise ValueError(f"layout {path}: {exc}") from None


def _policy_from_args(args) -> TamperPolicy:
    if args.relocate is not None:
        return TamperPolicy.relocation(args.relocate, *(args.window or ()))
    if args.window is not None:
        raise ValueError("--window needs --relocate")
    if args.reduce is not None:
        return TamperPolicy.reduction(args.reduce)
    return TamperPolicy.off()


def _add_policy_flags(parser: _Parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--reduce", metavar="FRACTION",
                       help="scale extrusion by 1-FRACTION, a whole percent (0.3 or 3/10)")
    group.add_argument("--relocate", metavar="N", type=int, choices=(2, 3, 4),
                       help="convert every N-th extruding move in the window")
    group.add_argument("--off", action="store_true", help="pass-through policy")
    parser.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"),
                        help="relocation progress window (default "
                             f"{TamperPolicy.window_lo} {TamperPolicy.window_hi})")


def _read_text(path: str) -> str:
    """The file decoded as UTF-8, line endings kept verbatim; ParseError
    for bytes that are not UTF-8 text."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"byte {data[exc.start]:#04x} is not UTF-8 text in {path}") from None


def _emit(text: str, path: str | None = None):
    """The one writer of whole text: UTF-8 bytes to path, or to stdout."""
    data = text.encode()
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(path).write_bytes(data)


def cmd_tamper(args) -> int:
    policy = _policy_from_args(args)
    doc = _read_text(args.input)
    _emit(tamper.apply_policy(doc, policy), args.output)
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.threshold is not None and not args.detect:
        raise ValueError("--threshold needs --detect")
    doc = _read_text(args.input)
    report = audit_mod.account(doc)
    code = EXIT_OK
    if args.detect:
        threshold = audit_mod.DEFAULT_FLOW_THRESHOLD if args.threshold is None else args.threshold
        if audit_mod.detect_relocation(report, threshold):
            code = EXIT_TAMPER
    lines = []
    if args.reference:
        ref_report = audit_mod.account(_read_text(args.reference))
        percent = audit_mod.compare(ref_report, report)
        lines.append(f"reduction: {percent:.1f}%")
    if args.csv and args.reference:
        text = audit_mod.normalized_curve_csv(ref_report, [(args.input, report)])
    elif args.csv:
        text = report.to_csv()
    elif args.json:
        text = report.to_json() + "\n"
    else:
        lines.insert(0, f"total extrusion: {report.total_extrusion.to_text()} mm "
                        f"({report.mass_grams():.3f} g at default filament)")
        lines.append(f"segments: {len(report.segments)}")
        if args.detect:
            lines.append(f"anomalies: {len(report.anomalies)}")
            for a in report.anomalies:
                lines.append(f"  segment {a.index}: {a.kind} ratio {a.ratio:.2f}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return code


def cmd_flash_sim(args) -> int:
    layout = load_layout(args.layout)
    firmware = memory.load_ihex(_read_text(args.firmware), layout)
    session = fixtures.build_session(trojan=args.trojan, layout=layout)
    transcript: list | None = [] if args.transcript else None
    outcome = stk500.program_and_verify(firmware, session, transcript=transcript)
    if args.transcript:
        _emit("".join(f"{d} {frame.hex()}\n" for d, frame in transcript), args.transcript)
    lines = [f"verified: {outcome.verified}", f"stored differs: {outcome.stored_differs}"]
    for addr, seen, stored in outcome.mismatches[:16]:
        lines.append(f"  {addr:#07x}: read-back {seen:#04x} stored {stored:#04x}")
    if outcome.stored_differs and session.sp_site is not None:
        site = session.sp_site
        word = session.image.read_word(site.offset)
        insn = avr.decode(session.image, site.offset)
        lines.append(f"patched word at {site.offset:#07x}: {word:#06x} ({avr.format_insn(insn)})")
    _emit("\n".join(lines) + "\n")
    return EXIT_TAMPER if outcome.stored_differs else EXIT_OK


def cmd_scan(args) -> int:
    layout = load_layout(args.layout)
    image = memory.load_ihex(_read_text(args.image), layout)
    code = EXIT_OK
    if args.find_sp:
        try:
            site = avr.find_sp_init(image)
        except avr.PatternNotFound:
            text = json.dumps(None) if args.json else "stack-pointer init sequence: not found"
        else:
            text = (json.dumps(dataclasses.asdict(site)) if args.json else
                    f"sp-init at {site.offset:#07x}: SPL={site.spl_immediate:#04x} "
                    f"SPH={site.sph_immediate:#04x}")
    elif args.find_ringbuffer:
        try:
            info = avr.find_ring_buffer(image)
        except avr.DormantAbort as exc:
            text = (json.dumps({"dormant_abort": str(exc)}) if args.json else
                    f"ring buffer: dormant abort ({exc})")
        else:
            text = (json.dumps(dataclasses.asdict(info)) if args.json else
                    f"ring buffer: head @{info.head_addr:#06x} tail @{info.tail_addr:#06x} "
                    f"root @{info.root_addr:#06x}")
    else:
        findings = avr.audit_bootloader(image)
        if findings:
            code = EXIT_TAMPER
        if args.json:
            text = json.dumps([dataclasses.asdict(f) for f in findings], indent=2)
        else:
            text = "\n".join([f"{f.kind} at {f.offset:#07x}: {f.snippet}" for f in findings]
                             or ["bootloader audit: clean"])
    _emit(text + "\n")
    return code


# a trace line's "char" for each byte value
_TRACE_CHAR = [json.dumps(chr(byte)).encode() for byte in range(256)]


def cmd_pipeline(args) -> int:
    layout = load_layout(args.layout)
    policy = _policy_from_args(args)
    doc = _read_text(args.gcode)
    firmware = memory.load_ihex(_read_text(args.firmware), layout)
    session = fixtures.build_session(trojan=True, layout=layout)
    outcome = stk500.program_and_verify(firmware, session)
    lines = [f"install verified by naive tool: {outcome.verified} "
             f"(stored image differs: {outcome.stored_differs})"]
    info = None
    if session.sp_site is None:
        lines.append("stack steal failed, interceptor dormant: no stack-pointer init was patched")
    else:
        try:
            info = avr.find_ring_buffer(session.image)
        except avr.DormantAbort as exc:
            lines.append(f"ring-buffer discovery failed, interceptor dormant: {exc}")
    if info is None:
        policy = TamperPolicy.off()
    sim = UartSimulation(policy, rx_buffer_size=layout.rx_buffer_size, ring_info=info)
    consumed = [] if args.trace else sim.feed(doc)
    if args.trace:  # feed, a byte at a time, writing a line per stored byte as it goes
        with open(args.trace, "wb") as trace:
            for byte in doc.encode():
                dropped = sim.stats.dropped
                sim.feed_char(byte)
                if sim.stats.dropped == dropped:
                    trace.write(b'{"char": %s, "head": %d, "tail": %d, "parser_state": %d}\n' % (
                        _TRACE_CHAR[byte], sim.ring.head, sim.ring.tail, sim.trojan.parser_state))
                    if byte == 0x0A:
                        consumed += sim.drain()
    consumed.append(sim.flush_residual())
    output = "".join(consumed)
    if args.output:
        _emit(output, args.output)
    before = audit_mod.account(doc)
    after = audit_mod.account(output)
    percent = audit_mod.compare(before, after)
    lines += [
        f"sent:     {before.total_extrusion.to_text()} mm over {len(before.segments)} segments",
        f"printed:  {after.total_extrusion.to_text()} mm over {len(after.segments)} segments",
        f"material reduction: {percent:.2f}%",
        f"stream edits: {sim.stats.edits} edited, {sim.stats.conversions} converted, "
        f"{sim.stats.edits_skipped} skipped, {sim.stats.dropped} dropped",
    ]
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flawsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tamper", help="apply a payload to a g-code file")
    p.add_argument("input", type=_path)
    p.add_argument("output", type=_path)
    _add_policy_flags(p)
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("audit", help="deposition accounting and anomaly detection")
    p.add_argument("input", type=_path)
    p.add_argument("--reference", type=_path, help="control g-code to compare against")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--detect", action="store_true", help="run relocation detection")
    p.add_argument("--threshold", type=float,
                   help="with --detect, the multiple of the median flow that is flagged "
                        f"(default {audit_mod.DEFAULT_FLOW_THRESHOLD})")
    p.add_argument("-o", "--output", type=_path)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("flash-sim", help="install firmware through a boot session")
    p.add_argument("firmware", type=_path)
    p.add_argument("--trojan", action="store_true", help="enable the malicious bootloader")
    p.add_argument("--transcript", type=_path, help="write wire transcript (hex lines)")
    p.add_argument("--layout", type=_path)
    p.set_defaults(func=cmd_flash_sim)

    p = sub.add_parser("scan", help="binary pattern scans over a flash image")
    p.add_argument("image", type=_path)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--find-sp", action="store_true")
    which.add_argument("--find-ringbuffer", action="store_true")
    which.add_argument("--audit-boot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--layout", type=_path)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("pipeline", help="full demo: install, discover, intercept, audit")
    p.add_argument("gcode", type=_path)
    p.add_argument("firmware", type=_path)
    _add_policy_flags(p)
    p.add_argument("--trace", type=_path, help="write a JSONL line per stored byte as the stream runs")
    p.add_argument("-o", "--output", type=_path, help="write the intercepted stream")
    p.add_argument("--layout", type=_path)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, ValueError) as exc:  # unreadable paths, bad flag values, bad layout JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FlawsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
