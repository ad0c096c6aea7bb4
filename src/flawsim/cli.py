"""Command-line front end.

Exit codes are a contract for CI gating:
    0  success / nothing suspicious
    1  usage error
    2  tampering detected (differing stored image, audit findings,
       deposition anomalies)
    3  parse error: an input could not be read (the message names its
       line); error: an analysis or an install cannot run on it

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


def load_layout(path: str | None) -> MemoryLayout:
    """The layout a JSON object of MemoryLayout fields gives; ValueError
    for anything else, naming the field at fault."""
    if not path:
        return MemoryLayout()
    with open(path) as fh:
        fields = json.load(fh)
    if not isinstance(fields, dict):
        raise ValueError(f"layout {path}: expected a JSON object of MemoryLayout fields")
    known = {f.name for f in dataclasses.fields(MemoryLayout)}
    for name, value in fields.items():
        if name not in known:
            raise ValueError(f"layout {path}: unknown field {name!r}")
        if type(value) is not int:
            raise ValueError(f"layout {path}: field {name!r} must be an integer, not {value!r}")
    return MemoryLayout(**fields)


def _policy_from_args(args) -> TamperPolicy:
    if args.reduce is not None:
        return TamperPolicy.reduction(args.reduce)
    if args.relocate is not None:
        return TamperPolicy.relocation(args.relocate, args.window[0], args.window[1])
    return TamperPolicy.off()


def _add_policy_flags(parser: _Parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--reduce", metavar="FRACTION",
                       help="scale extrusion by 1-FRACTION, a whole percent (0.3 or 3/10)")
    group.add_argument("--relocate", metavar="N", type=int, choices=(2, 3, 4),
                       help="convert every N-th extruding move in the window")
    group.add_argument("--off", action="store_true", help="pass-through policy")
    window = (TamperPolicy.window_lo, TamperPolicy.window_hi)
    parser.add_argument("--window", nargs=2, type=int, default=window, metavar=("LO", "HI"),
                        help=f"relocation progress window (default {window[0]} {window[1]})")


def _read_text(path: str) -> str:
    """The file decoded as UTF-8, line endings kept verbatim; ParseError
    for bytes that are not UTF-8 text."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"byte {data[exc.start]:#04x} is not UTF-8 text in {path}") from None


def _out(args, text: str):
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_tamper(args) -> int:
    policy = _policy_from_args(args)
    doc = _read_text(args.input)
    result = tamper.apply_policy(doc, policy)
    Path(args.output).write_bytes(result.encode())
    return EXIT_OK


def cmd_audit(args) -> int:
    doc = _read_text(args.input)
    report = audit_mod.account(doc)
    code = EXIT_OK
    if args.detect:
        anomalies = audit_mod.detect_relocation(report, threshold=args.threshold)
        if anomalies:
            code = EXIT_TAMPER
    lines = []
    if args.reference:
        ref_report = audit_mod.account(_read_text(args.reference))
        percent = audit_mod.compare(ref_report, report)
        lines.append(f"reduction: {percent:.1f}%")
    if args.csv:
        out = report.to_csv()
        if args.reference:
            out += audit_mod.normalized_curve_csv(ref_report, [(args.input, report)])
        _out(args, out)
        return code
    if args.json:
        _out(args, report.to_json())
        return code
    lines.insert(0, f"total extrusion: {report.total_extrusion.to_text()} mm "
                    f"({report.mass_grams():.3f} g at default filament)")
    lines.append(f"segments: {len(report.segments)}")
    if args.detect:
        lines.append(f"anomalies: {len(report.anomalies)}")
        for a in report.anomalies:
            lines.append(f"  segment {a.index}: {a.kind} ratio {a.ratio:.2f}")
    _out(args, "\n".join(lines))
    return code


def cmd_flash_sim(args) -> int:
    layout = load_layout(args.layout)
    firmware = memory.load_ihex(_read_text(args.firmware), layout)
    session = fixtures.build_session(trojan=args.trojan, layout=layout)
    transcript: list | None = [] if args.transcript else None
    outcome = stk500.program_and_verify(firmware, session, transcript=transcript)
    if args.transcript:
        with open(args.transcript, "w") as fh:
            for direction, frame in transcript:
                fh.write(f"{direction} {frame.hex()}\n")
    print(f"verified: {outcome.verified}")
    print(f"stored differs: {outcome.stored_differs}")
    for addr, seen, stored in outcome.mismatches[:16]:
        print(f"  {addr:#07x}: read-back {seen:#04x} stored {stored:#04x}")
    if outcome.stored_differs and session.sp_site is not None:
        site = session.sp_site
        word = session.image.read_word(site.offset)
        insn = avr.decode(session.image, site.offset)
        print(f"patched word at {site.offset:#07x}: {word:#06x} ({avr.format_insn(insn)})")
    return EXIT_TAMPER if outcome.stored_differs else EXIT_OK


def cmd_scan(args) -> int:
    layout = load_layout(args.layout)
    image = memory.load_ihex(_read_text(args.image), layout)
    if args.find_sp:
        try:
            site = avr.find_sp_init(image)
        except avr.PatternNotFound:
            print("stack-pointer init sequence: not found")
            return EXIT_OK
        if args.json:
            print(json.dumps(dataclasses.asdict(site)))
        else:
            print(f"sp-init at {site.offset:#07x}: SPL={site.spl_immediate:#04x} "
                  f"SPH={site.sph_immediate:#04x}")
        return EXIT_OK
    if args.find_ringbuffer:
        try:
            info = avr.find_ring_buffer(image)
        except avr.DormantAbort as exc:
            print(f"ring buffer: dormant abort ({exc})")
            return EXIT_OK
        if args.json:
            print(json.dumps(dataclasses.asdict(info)))
        else:
            print(f"ring buffer: head @{info.head_addr:#06x} tail @{info.tail_addr:#06x} "
                  f"root @{info.root_addr:#06x}")
        return EXIT_OK
    findings = avr.audit_bootloader(image)
    if args.json:
        print(json.dumps([dataclasses.asdict(f) for f in findings], indent=2))
    else:
        if not findings:
            print("bootloader audit: clean")
        for f in findings:
            print(f"{f.kind} at {f.offset:#07x}: {f.snippet}")
    return EXIT_TAMPER if findings else EXIT_OK


def cmd_pipeline(args) -> int:
    layout = load_layout(args.layout)
    policy = _policy_from_args(args)
    doc = _read_text(args.gcode)
    firmware = memory.load_ihex(_read_text(args.firmware), layout)
    session = fixtures.build_session(trojan=True, layout=layout)
    outcome = stk500.program_and_verify(firmware, session)
    print(f"install verified by naive tool: {outcome.verified} "
          f"(stored image differs: {outcome.stored_differs})")
    info = None
    if session.sp_site is None:
        print("stack steal failed, interceptor dormant: no stack-pointer init was patched")
    else:
        try:
            info = avr.find_ring_buffer(session.image)
        except avr.DormantAbort as exc:
            print(f"ring-buffer discovery failed, interceptor dormant: {exc}")
    if info is None:
        policy = TamperPolicy.off()
    trace: list | None = [] if args.trace else None
    sim = UartSimulation(policy, rx_buffer_size=layout.rx_buffer_size, ring_info=info,
                         trace=trace)
    consumed = sim.feed(doc)
    consumed.append(sim.flush_residual())
    output = "".join(consumed)
    if args.trace:
        with open(args.trace, "w") as fh:
            for entry in trace:
                fh.write(json.dumps(entry) + "\n")
    if args.output:
        Path(args.output).write_bytes(output.encode())
    before = audit_mod.account(doc)
    after = audit_mod.account(output)
    percent = audit_mod.compare(before, after)
    print(f"sent:     {before.total_extrusion.to_text()} mm over {len(before.segments)} segments")
    print(f"printed:  {after.total_extrusion.to_text()} mm over {len(after.segments)} segments")
    print(f"material reduction: {percent:.2f}%")
    print(f"stream edits: {sim.stats.edits} edited, {sim.stats.conversions} converted, "
          f"{sim.stats.edits_skipped} skipped")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="flawsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tamper", help="apply a payload to a g-code file")
    p.add_argument("input")
    p.add_argument("output")
    _add_policy_flags(p)
    p.set_defaults(func=cmd_tamper)

    p = sub.add_parser("audit", help="deposition accounting and anomaly detection")
    p.add_argument("input")
    p.add_argument("--reference", help="control g-code to compare against")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--detect", action="store_true", help="run relocation detection")
    p.add_argument("--threshold", type=float, default=audit_mod.DEFAULT_FLOW_THRESHOLD)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("flash-sim", help="install firmware through a boot session")
    p.add_argument("firmware")
    p.add_argument("--trojan", action="store_true", help="enable the malicious bootloader")
    p.add_argument("--transcript", help="write wire transcript (hex lines)")
    p.add_argument("--layout")
    p.set_defaults(func=cmd_flash_sim)

    p = sub.add_parser("scan", help="binary pattern scans over a flash image")
    p.add_argument("image")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--find-sp", action="store_true")
    which.add_argument("--find-ringbuffer", action="store_true")
    which.add_argument("--audit-boot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--layout")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("pipeline", help="full demo: install, discover, intercept, audit")
    p.add_argument("gcode")
    p.add_argument("firmware")
    _add_policy_flags(p)
    p.add_argument("--trace", help="write a JSONL trace, one entry per stored byte")
    p.add_argument("-o", "--output", help="write the intercepted stream")
    p.add_argument("--layout")
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
    except (FileNotFoundError, ValueError) as exc:  # bad flag values, bad layout JSON
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FlawsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
