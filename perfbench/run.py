"""flawsim benchmark: one workload, one process, closed loop.

    python3 perfbench/run.py --workload stream_reduce --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; flawsim is imported from its
``src/``.  One client runs one pass at a time with no threads.  After
set-up (repeated, median reported) and one untimed counting pass that also
warms up, passes repeat for ``--seconds``.  Every pass is refereed (see
workloads.py); a failed check or an exception counts as a failed op, and
any failure makes the exit code 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (spans, counts and replays from layers.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Timings are in reference-host seconds: host time scaled by a fixed
pure-Python probe (``calibrate``) that runs before, during and after each
timed call (see Clock).  Raw host times are printed beside the scaled
ones.  NOTES.md says why and shows the spread with and without scaling.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUPS = 5  # set-up repetitions per run; setup_s is their median
MIN_PASSES = 3
CAL_REF_S = 0.00125  # probe time on the reference host (2-core x86-64 VM, CPython 3.11)
SAMPLE_S = 0.05  # probe interval while a call runs

_rng = random.Random(0)
_CAL_TEXT = "".join(
    _rng.choice(("G1 X", "Y", "E", ".", " ", "\n", ";c", "M73 P")) + str(_rng.randrange(1000))
    for _ in range(1200)
)


class _Probe:
    __slots__ = ("state", "acc")

    def __init__(self):
        self.state = 0
        self.acc = 0

    def step(self, ch: str, b: int) -> int:
        if ch.isdigit():
            self.acc = (self.acc * 10 + b - 48) & 0xFFFFFFF
            return 0
        self.state = (self.state + b) & 15
        return self.acc


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter work that never touches
    flawsim: ring-buffer stores, digit folding, method calls, dict and
    string operations over a fixed text."""
    t0 = perf_counter()
    ring = bytearray(128)
    head = 0
    probe = _Probe()
    tally: dict[int, int] = {}
    for ch in _CAL_TEXT:
        b = ord(ch)
        ring[head] = b
        head = (head + 1) & 127
        key = probe.step(ch, b) & 255
        if b == 10:
            tally[key] = tally.get(key, 0) + 1
    " ".join(_CAL_TEXT.split()[:2000]).count("E")
    return perf_counter() - t0


class Timing(NamedTuple):
    raw: float  # host wall seconds, probe time taken out
    cpu: float  # process CPU seconds, probe time taken out
    scaled: float  # reference-host seconds


class Clock:
    """Times a call in reference-host seconds.

    Host speed on a shared machine swings by up to 1.8x within seconds,
    faster than a pass lasts, so it is sampled during the call: a SIGALRM
    handler runs the calibration probe every SAMPLE_S.  The call's own time
    (handler time taken out) is scaled by CAL_REF_S times the mean of
    1 / probe over the probes just before, during and just after it.

    ``ticks`` keeps the (start, end) of each in-call probe so spans can
    take them out too.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.ticks: list[tuple[float, float]] = []
        self._tick_cpu = 0.0

    def _tick(self, signum, frame):
        t0, c0 = perf_counter(), process_time()
        self.probes.append(calibrate())
        self.ticks.append((t0, perf_counter()))
        self._tick_cpu += process_time() - c0

    def measure(self, fn, *args) -> tuple[Timing, object]:
        gc.collect()
        first = len(self.probes)
        self.probes.append(calibrate())
        self.ticks = []
        self._tick_cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        t0, c0 = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed, cpu = perf_counter() - t0, process_time() - c0
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(b - a for a, b in self.ticks)
        self.probes.append(calibrate())
        window = self.probes[first:]
        scaled = raw * CAL_REF_S * statistics.fmean(1 / p for p in window)
        return Timing(raw, cpu - self._tick_cpu, scaled), result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true", help="small inputs, for the self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flawsim" / "__init__.py").is_file():
        print(f"error: no flawsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    ref = workloads.Referee()

    def checked(inp):
        try:
            w.run_pass(inp, ref)
            return True
        except Exception as exc:  # every exception is a failed op, reported below
            ref.crash(w.name, exc)
            return False

    clock = Clock()
    setup_times, digests = [], set()
    for _ in range(SETUPS):
        timing, inp = clock.measure(w.setup, args.seed, args.small)
        setup_times.append(timing.scaled)
        digests.add(inp.digest)
    ref.check("deterministic set-up", len(digests) == 1)

    counts: Counter = Counter()
    with layers.patched(layers.counting_wrappers(counts)):
        checked(inp)
    counted = layers.derived_counts(counts)
    props = dict(inp.props, chars=inp.chars, wire_bytes=counted["stk500.wire_bytes"])

    lines = [
        f"workload: {w.name}  seed: {args.seed}  trace: {args.trace}  small: {args.small}",
        f"host: python {platform.python_version()}  nproc {os.cpu_count()}",
        f"input sha256: {inp.digest}",
        "input: " + "  ".join(f"{k}={v}" for k, v in props.items()),
    ]
    if args.trace:
        metrics = traced_run(args, w, inp, ref, clock, checked, counted, layers, workloads, lines)
    else:
        metrics = plain_run(args, w, inp, clock, checked, setup_times, lines)

    ops = ref.attempted
    lines.append(f"failed_ratio: {ref.failed / ops if ops else 1.0:.6g} ratio "
                 f"({ref.failed} of {ops} ops)")
    for failure in ref.failures[:20]:
        lines.append(f"FAILED: {failure}")
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    correct = ref.failed == 0 and ops > 0
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": ops, "failed": ref.failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def plain_run(args, w, inp, clock, checked, setup_times, lines) -> dict:
    timings = []
    deadline = perf_counter() + args.seconds
    tries = 0
    while perf_counter() < deadline or tries < MIN_PASSES:
        tries += 1
        timing, ok = clock.measure(checked, inp)
        if ok:
            timings.append(timing)
    if not timings:  # every pass failed; the run reports correct: false
        timings = [Timing(0.0, 0.0, 0.0)]
    q1, p50, q3 = quartiles([t.scaled for t in timings])
    lines.append(f"pass (scaled): n={len(timings)}  q1={q1 * 1e3:.2f} ms  p50={p50 * 1e3:.2f} ms  "
                 f"q3={q3 * 1e3:.2f} ms")
    lines.append(f"pass (host): wall_p50={statistics.median(t.raw for t in timings) * 1e3:.2f} ms  "
                 f"cpu_p50={statistics.median(t.cpu for t in timings) * 1e3:.2f} ms  "
                 f"calibration probe p50={statistics.median(clock.probes) * 1e3:.3f} ms "
                 f"(reference {CAL_REF_S * 1e3:.3f} ms)")
    installed = inp.props.get("firmware_bytes", 0) * len(w.installs)
    if installed and p50:
        lines.append(f"fw_bytes_per_s: {installed / p50:.6g} bytes/s (installed and verified)")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "chars_per_s": {"value": inp.chars / p50 if p50 else 0.0, "unit": "chars/s"},
        "pass_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def traced_run(args, w, inp, ref, clock, checked, counted, layers, workloads, lines) -> dict:
    tracer = layers.Tracer()
    transcripts = [(t, layers.record_install(inp.firmware, t)) for t in w.installs]
    samples: dict[str, list[float]] = defaultdict(list)
    untraced, traced, unattributed = [], [], []
    deadline = perf_counter() + args.seconds
    tries = 0
    def timed(fn):  # each replay loop on its own clock, so scaling follows the host per loop
        timing, result = clock.measure(fn)
        return timing.scaled, result

    while perf_counter() < deadline or tries < MIN_PASSES:
        tries += 1
        timing, ok = clock.measure(checked, inp)
        if ok:
            untraced.append(timing.scaled)
        tracer.pass_id += 1
        with layers.patched(tracer.wrappers()):
            timing, ok = clock.measure(checked, inp)
        if ok:
            traced.append(timing.scaled)
            selfs, rooted = tracer.self_times(tracer.pass_id, clock.ticks)
            for metric in set(layers.SPANS.values()):
                samples[metric].append(selfs.get(metric, 0.0) * timing.scaled / timing.raw)
            unattributed.append(1 - rooted / timing.raw)
        if w.streams:
            times, output = layers.uart_split(inp.docs[0], inp.policy, workloads.EXPECTED_RING,
                                              workloads.LAYOUT.rx_buffer_size, timed)
            ref.check("uart replay == transform", output == inp.references[0])
            for k, v in times.items():
                samples[k].append(v)
        if transcripts:
            times, faithful = layers.stk500_split(transcripts, timed)
            ref.check("stk500 replay", faithful)
            for k, v in times.items():
                samples[k].append(v)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for record in tracer.records():
            fh.write(json.dumps(record) + "\n")

    overhead = (statistics.median(traced) / statistics.median(untraced) - 1
                if traced and untraced else 0.0)
    lines.append(f"traced passes: n={len(traced)}  replays: n={tries}  "
                 f"spans written to {spans_path.relative_to(ROOT)}")
    metrics = {}
    for name in sorted({*layers.SPANS.values(), *layers.REPLAYED}):
        metrics[name] = {"value": statistics.median(samples[name]) if samples[name] else 0.0,
                         "unit": "s"}
    for name, value in counted.items():
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.unattributed_share"] = {
        "value": statistics.median(unattributed) if unattributed else 0.0, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
