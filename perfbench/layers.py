"""Per-layer measurement for the traced run.

Three instruments, all installed from here and none inside ``src/``:

* Spans.  A wrapper around each coarse public entry point of a layer
  records (name, start, end, parent span, pass id).  Self time is a span's
  duration minus its child spans.
* Counters.  In one untimed pass, wrappers record deterministic counts
  at the same boundaries, including fine-grained calls (``avr.decode``,
  ``uart.consumer_readline``, ``FrameReader.feed``) whose own cost a span
  would exceed.
* Replays.  The per-character stream layers and the install's codec and
  session are split by whole-run loops over the same inputs that add one
  layer at a time, because a span per character or per 7-byte chunk
  costs more than the call it times.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from flawsim import fixtures, stk500, uart
from workloads import changed_lines

# (module, attribute) of every call that gets a span in the traced pass,
# and the self-time metric it feeds.
SPANS = {
    ("memory", "load_ihex"): "memory.load_ihex_s",
    ("memory", "dump_ihex"): "memory.dump_ihex_s",
    ("stk500", "program_and_verify"): "stk500.program_and_verify_s",
    ("avr", "find_sp_init"): "avr.find_sp_init_s",
    ("avr", "find_ring_buffer"): "avr.find_ring_buffer_s",
    ("avr", "audit_bootloader"): "avr.audit_bootloader_s",
    ("uart", "UartSimulation.feed"): "uart.feed_s",
    ("uart", "UartSimulation.flush_residual"): "uart.feed_s",
    ("gcode", "parse_document"): "gcode.parse_document_s",
    ("tamper", "transform_reduction"): "tamper.transform_reduction_s",
    ("tamper", "transform_relocation"): "tamper.transform_relocation_s",
    ("audit", "account"): "audit.account_s",
    ("audit", "detect_relocation"): "audit.detect_relocation_s",
}

# Times that come from replays rather than spans.
REPLAYED = ("uart.isr_s", "uart.epilogue_s", "uart.consumer_s", "stk500.session_s", "stk500.codec_s")

_SIM_STATS = ("chars_in", "dropped", "edits", "conversions", "edits_skipped", "dormant_events")


def _count_parse(c, args, kwargs, result):
    c["gcode.parse_document_calls"] += 1
    c["gcode.lines_parsed"] += len(result)


def _count_transform(c, args, kwargs, result):
    c["tamper.lines_changed"] += changed_lines(args[0], result)


def _count_feed(c, args, kwargs, result):
    stats = args[0].stats
    for name in _SIM_STATS:
        c["uart." + name] += getattr(stats, name)


def _count_consumer(c, args, kwargs, result):
    c["uart.consumer_calls"] += 1
    c["uart.consumer_lines"] += bool(result)


def _count_reader(c, args, kwargs, result):
    c["stk500.reader_feed_calls"] += 1
    c["stk500.wire_bytes"] += len(args[1])
    c["stk500.frames"] += len(result)


def _count_hex_in(c, args, kwargs, result):
    c["memory.hex_records"] += sum(1 for line in args[0].splitlines() if line.strip())


COUNTERS = {
    ("gcode", "parse_document"): _count_parse,
    ("tamper", "transform_reduction"): _count_transform,
    ("tamper", "transform_relocation"): _count_transform,
    ("audit", "account"): lambda c, a, k, r: c.update({"audit.segments": len(r.segments)}),
    ("audit", "detect_relocation"): lambda c, a, k, r: c.update({"audit.anomalies": len(r)}),
    ("avr", "decode"): lambda c, a, k, r: c.update({"avr.decode_calls": 1}),
    ("avr", "audit_bootloader"): lambda c, a, k, r: c.update({"avr.findings": len(r)}),
    ("memory", "load_ihex"): _count_hex_in,
    ("memory", "dump_ihex"): lambda c, a, k, r: c.update({"memory.hex_records": r.count("\n")}),
    ("uart", "UartSimulation.feed"): _count_feed,
    ("uart", "consumer_readline"): _count_consumer,
    ("stk500", "FrameReader.feed"): _count_reader,
}


@contextmanager
def patched(wrappers: dict):
    """Swap each (module, attribute) for ``make(original)`` everywhere
    flawsim holds a reference to it, and restore on exit."""
    undo = []
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "flawsim"]
    try:
        for (module, attr), make in wrappers.items():
            owner = sys.modules["flawsim." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, make(original))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = make(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        undo.append((m, key, original))
        yield
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


class Tracer:
    """Spans kept in memory; written out when the run ends."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.pass_id = 0

    def wrappers(self) -> dict:
        return {key: self._span(metric, key[1]) for key, metric in SPANS.items()}

    def _span(self, metric: str, name: str):
        def make(fn):
            spans, stack = self.spans, self._stack

            def traced(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[sid] = (name, metric, start, end, parent, self.pass_id)

            return traced

        return make

    def self_times(self, pass_id: int, ticks: list[tuple[float, float]]) -> tuple[dict, float]:
        """Self time per metric, and the summed time of root spans, with
        the calibration probes that interrupted the pass (``ticks``) taken
        out of every span they fell in."""

        def net(start, end):
            return (end - start) - sum(
                min(end, b) - max(start, a) for a, b in ticks if a < end and b > start
            )

        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == pass_id]
        own = {i: net(start, end) for i, (_, _, start, end, _, _) in spans}
        child = Counter()
        for i, (_, _, _, _, parent, _) in spans:
            if parent >= 0:
                child[parent] += own[i]
        out: Counter = Counter()
        rooted = 0.0
        for i, (_, metric, _, _, parent, _) in spans:
            out[metric] += own[i] - child[i]
            if parent < 0:
                rooted += own[i]
        return dict(out), rooted

    def records(self):
        for i, (name, metric, start, end, parent, pass_id) in enumerate(self.spans):
            yield {"id": i, "name": name, "layer": metric.split(".")[0], "start": start,
                   "end": end, "parent": parent, "pass": pass_id}


def counting_wrappers(counts: Counter) -> dict:
    def make_for(hook):
        def make(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counts, args, kwargs, result)
                return result

            return counted

        return make

    return {key: make_for(hook) for key, hook in COUNTERS.items()}


def derived_counts(counts: Counter) -> dict:
    """The per-layer counts and ratios the benchmark prints."""
    calls = counts["uart.consumer_calls"]
    feeds = counts["stk500.reader_feed_calls"]
    out = {k: counts[k] for k in (
        "uart.consumer_calls", "gcode.parse_document_calls", "gcode.lines_parsed",
        "tamper.lines_changed", "audit.segments", "audit.anomalies",
        "stk500.reader_feed_calls", "stk500.wire_bytes", "avr.decode_calls", "avr.findings",
        "memory.hex_records", *("uart." + s for s in _SIM_STATS),
    )}
    out["uart.consumer_hit_ratio"] = counts["uart.consumer_lines"] / calls if calls else 0.0
    out["stk500.roundtrips"] = counts["stk500.frames"] // 2  # one request + one response each
    out["stk500.reader_frame_ratio"] = counts["stk500.frames"] / feeds if feeds else 0.0
    return out


# --- replays ----------------------------------------------------------------


def uart_split(doc: str, policy, ring_info, size: int, timed) -> tuple[dict, str]:
    """Self times of ISR, epilogue and consumer over one whole document.

    Four loops over the same characters: bare iteration, ISR only, ISR and
    epilogue, and the ``feed`` schedule (consumer drained after every
    character).  The first three release the ring at each newline, which
    the interceptor never hides, so it cannot fill.  ``timed(fn)`` runs one
    loop and returns its time and result; each loop is timed and scaled on
    its own, so a host-speed switch between loops does not leak into the
    differences.  Each layer's time is the difference to the loop before
    it.  Returns the times and the full loop's output, which the caller
    checks.
    """
    isr, epilogue, readline = uart.marlin_rx_isr, uart.trojan_epilogue, uart.consumer_readline

    def fresh():
        ring = uart.RingBufferState(size, root_addr=ring_info.root_addr)
        return ring, uart.TrojanState.for_policy(policy, ring_info)

    def bare():
        ring, _ = fresh()
        for ch in doc:
            if ch == "\n":
                ring.tail = ring.head

    def isr_only():
        ring, _ = fresh()
        for ch in doc:
            isr(ring, ch)
            if ch == "\n":
                ring.tail = ring.head

    def with_epilogue():
        ring, trojan = fresh()
        for ch in doc:
            isr(ring, ch)
            epilogue(trojan, ring, policy)
            if ch == "\n":
                ring.tail = ring.head

    def full():
        ring, trojan = fresh()
        out = []
        for ch in doc:
            isr(ring, ch)
            epilogue(trojan, ring, policy)
            line = readline(ring)
            while line:
                out.append(line)
                line = readline(ring)
        out.append(ring.visible().decode("latin-1"))
        return "".join(out)

    loop = timed(bare)[0]
    with_isr = timed(isr_only)[0]
    with_epi = timed(with_epilogue)[0]
    full_s, output = timed(full)
    times = {
        "uart.isr_s": with_isr - loop,
        "uart.epilogue_s": with_epi - with_isr,
        "uart.consumer_s": full_s - with_epi,
    }
    return times, output


def record_install(firmware, trojan: bool) -> list:
    """Wire transcript of one install, for the stk500 replay."""
    transcript: list = []
    stk500.program_and_verify(firmware, fixtures.build_session(trojan=trojan), transcript=transcript)
    return transcript


def stk500_split(transcripts: list[tuple[bool, list]], timed) -> tuple[dict, bool]:
    """Session and codec time of recorded installs, replayed.

    The session replay hands every request body to a fresh BootSession.
    The codec replay encodes every frame and decodes it the way the pipe
    delivers it: requests whole to the session's reader, responses in
    7-byte chunks to the client's.  ``timed(fn)`` runs and times one
    replay, as in uart_split.  Returns the times and whether both replays
    reproduced the recording.
    """
    session_s = codec_s = 0.0
    faithful = True
    for trojan, transcript in transcripts:
        requests = [data for way, data in transcript if way == ">>"]
        responses = [data for way, data in transcript if way == "<<"]
        req_frames = [stk500.frame_decode(r) for r in requests]
        resp_frames = [stk500.frame_decode(r) for r in responses]
        chunks = [[r[i : i + 7] for i in range(0, len(r), 7)] for r in responses]
        handle = fixtures.build_session(trojan=trojan).handle

        def session():
            return [handle(f.body) for f in req_frames]

        def codec():
            server, client = stk500.FrameReader(), stk500.FrameReader()
            decoded = []
            for f, raw in zip(req_frames, requests):
                stk500.frame_encode(f.body, f.sequence)
                decoded += server.feed(raw)
            for f, pieces in zip(resp_frames, chunks):
                stk500.frame_encode(f.body, f.sequence)
                for piece in pieces:
                    decoded += client.feed(piece)
            return decoded

        t, replies = timed(session)
        session_s += t
        t, decoded = timed(codec)
        codec_s += t
        faithful = faithful and replies == [f.body for f in resp_frames]
        faithful = faithful and decoded == req_frames + resp_frames
    return {"stk500.session_s": session_s, "stk500.codec_s": codec_s}, faithful
