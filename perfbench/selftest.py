"""Self-tests of the benchmark, on small inputs.

    python3 perfbench/selftest.py

For every workload, runs run.py with --small and checks that every metric
BENCHMARK.json names is printed with its unit, that no op failed, that
the deterministic per-layer counts repeat exactly for one seed, and that
another seed changes the input digest while every check still passes.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys

from baseline import ROOT, invoke


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    result, lines = invoke(workload, seed, trace, 0.5, "--small")
    digest = next(line.split()[-1] for line in lines if line.startswith("input sha256:"))
    return result, digest


def expect(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)


def check_metrics(result: dict, spec: list[dict], label: str):
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{label}: failed {result['failed']} of {result['attempted']} ops")
    printed = result["metrics"]
    expect(set(printed) == {m["name"] for m in spec}, f"{label}: metric names differ from spec")
    for m in spec:
        got = printed[m["name"]]
        expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        expect(isinstance(got["value"], (int, float)), f"{label}: {m['name']} is not a number")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    deterministic = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "ratio")
                     and not m["name"].startswith("trace.")]
    for w in (wl["name"] for wl in bench["workloads"]):
        plain, digest = run(w, 1, 0)
        check_metrics(plain, bench["end_to_end"], f"{w} trace 0")
        first, digest_again = run(w, 1, 1)
        second, _ = run(w, 1, 1)
        check_metrics(first, bench["per_layer"], f"{w} trace 1")
        expect(digest == digest_again, f"{w}: one seed gave two input digests")
        for name in deterministic:
            expect(first["metrics"][name]["value"] == second["metrics"][name]["value"],
                   f"{w}: {name} differs between two runs of seed 1")
        other, other_digest = run(w, 2, 0)
        check_metrics(other, bench["end_to_end"], f"{w} seed 2")
        expect(other_digest != digest, f"{w}: seeds 1 and 2 gave the same inputs")
        print(f"ok  {w}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, RuntimeError) as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        sys.exit(1)
