"""Measure the baseline: every workload over ten seeds, one process each.

    python3 perfbench/baseline.py

Runs run.py with --trace 0 for seeds 1..10 and with --trace 1 for seed 1,
using BENCHMARK.json's workloads and run_seconds, and writes
perfbench/baseline.json.  For each end-to-end metric it records the ten
values, their quartiles and the spread (q3 - q1) / median that the
metric's bound is judged against.  Beside them it records the same spread
for the unscaled pass medians (host wall time and process CPU time), which
is what the calibrated clock is judged against.  Prints one row per
workload and metric.  Stops with the run's output if any run fails.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def invoke(workload: str, seed: int, trace: int, seconds: float,
           *extra: str) -> tuple[dict, list[str]]:
    """Run run.py once; return its JSON result and its report lines.
    Raises RuntimeError, with the output, unless it exits 0 with a result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def host_medians(lines: list[str]) -> dict:
    """The unscaled pass medians from run.py's ``pass (host):`` line."""
    line = next(line for line in lines if line.startswith("pass (host):"))
    words = dict(w.split("=") for w in line.split() if w.startswith(("wall_p50=", "cpu_p50=")))
    return {f"host_{k}_ms": {"value": float(v)} for k, v in words.items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "end_to_end": {},
        "unscaled": {},
        "per_layer_seed1": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        rows = []
        for seed in SEEDS:
            result, lines = invoke(name, seed, 0, seconds)
            rows.append({**result["metrics"], **host_medians(lines)})
        table = out["end_to_end"][name] = {}
        for spec in bench["end_to_end"]:
            row = table[spec["name"]] = summary([r[spec["name"]]["value"] for r in rows])
            row.update(unit=spec["unit"], bound=spec["bound"])
            print(f"{name:16s} {spec['name']:18s} median {row['median']:12.6g} {spec['unit']:8s} "
                  f"spread {row['spread']:.3f} (bound {spec['bound']})", flush=True)
        host = out["unscaled"][name] = {}
        for key in ("host_wall_p50_ms", "host_cpu_p50_ms"):
            row = host[key] = summary([r[key]["value"] for r in rows])
            print(f"{name:16s} {key:18s} median {row['median']:12.6g} ms       "
                  f"spread {row['spread']:.3f}", flush=True)
        traced = invoke(name, 1, 1, seconds)[0]["metrics"]
        out["per_layer_seed1"][name] = {k: v["value"] for k, v in traced.items()}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        sys.exit(1)
