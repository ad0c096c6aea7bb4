#!/usr/bin/env python3
"""The CLI ledger: what every case of a fixed matrix of ``flawsim`` command
lines prints and writes, as sha256 digests.

Each case runs ``flawsim.cli.main`` in-process, in a scratch directory that
holds copies of ``fixtures/gcode``, ``fixtures/hex`` and ``tests/cli_edge``
and the layout files, so every path in an argv, and so in every message,
is relative to it.  A case's entry records the digests of its stdout and
its stderr bytes, its exit code, and the digest of each file it wrote
(every file lands under ``out/``, which is emptied between cases).

``tests/cli_ledger.json`` maps each case's argv, joined with spaces, to its
entry, and ``tests/test_cli_ledger.py`` compares a fresh run against it.  A
change that alters CLI output on purpose regenerates the ledger and names
every case that changed.  Run from the repository root:

    python tools/cli_ledger.py          # compare, print each differing case
    python tools/cli_ledger.py --write  # regenerate tests/cli_ledger.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
LEDGER = REPO / "tests" / "cli_ledger.json"
_INPUTS = {"gcode": REPO / "fixtures" / "gcode", "hex": REPO / "fixtures" / "hex", "edge": REPO / "tests" / "cli_edge"}
# page sizes that do not divide boot_start, so the last page is short
_LAYOUTS = {"layout_p200.json": {"page_size": 200}, "layout_p96_r32.json": {"page_size": 96, "rx_buffer_size": 32}}
# the install transcript's page sizes, each installed clean and trojan
_PAGE_LAYOUTS = {f"layout_p{size}.json": {"page_size": size} for size in (64, 128, 256)}
_AUDIT_FLAGS = [
    [], ["--json"], ["--csv"], ["--detect"], ["--detect", "--json"],
    ["--detect", "--threshold", "1.2", "--json"],
    ["--reference", "gcode/clean_small.gcode"], ["--reference", "gcode/clean_small.gcode", "--csv"],
]
_POLICIES = [["--reduce", "0.3"], ["--relocate", "2"], ["--off"]]
_APP = "hex/marlin_app.hex"


def cases(workdir: Path) -> list[list[str]]:
    """The ledger's argv lists, in the order they run."""
    gcode = sorted(f"gcode/{p.name}" for p in (workdir / "gcode").glob("*.gcode"))
    edge = sorted(f"edge/{p.name}" for p in (workdir / "edge").glob("*.gcode"))
    hexes = sorted(f"hex/{p.name}" for p in (workdir / "hex").glob("*.hex"))
    out = []
    for doc in gcode + edge:
        out += [["audit", doc, *flags] for flags in _AUDIT_FLAGS]
    for doc in gcode + edge:
        stem = Path(doc).stem
        for i, policy in enumerate(_POLICIES):
            out.append(["tamper", doc, f"out/{stem}.{i}.gcode", *policy])
            out.append(["pipeline", doc, _APP, *policy, "-o", f"out/{stem}.{i}.gcode",
                        "--trace", f"out/{stem}.{i}.jsonl"])
    for image in hexes:
        stem = Path(image).stem
        out.append(["flash-sim", image, "--transcript", f"out/{stem}.txt"])
        out.append(["flash-sim", image, "--trojan", "--transcript", f"out/{stem}.txt"])
        for mode in ("--find-sp", "--find-ringbuffer", "--audit-boot"):
            out += [["scan", image, mode], ["scan", image, mode, "--json"]]
    for layout in _PAGE_LAYOUTS:
        out.append(["flash-sim", _APP, "--layout", layout, "--transcript", "out/app.txt"])
        out.append(["flash-sim", _APP, "--trojan", "--layout", layout, "--transcript", "out/app.txt"])
    for layout in _LAYOUTS:
        out.append(["flash-sim", _APP, "--trojan", "--layout", layout, "--transcript", "out/app.txt"])
        for policy in _POLICIES:
            out.append(["pipeline", "gcode/clean_mixed_crlf.gcode", _APP, *policy, "--layout", layout,
                        "-o", "out/mixed.gcode", "--trace", "out/mixed.jsonl"])
    out.append(["pipeline", "gcode/clean_small.gcode", _APP, "--relocate", "3", "--window", "0", "100",
                "-o", "out/small.gcode"])
    return out


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(argv: list[str]) -> dict:
    from flawsim.cli import main

    stdout, stderr = io.BytesIO(), io.BytesIO()
    out_text = io.TextIOWrapper(stdout, encoding="utf-8", newline="", write_through=True)
    err_text = io.TextIOWrapper(stderr, encoding="utf-8", newline="", write_through=True)
    with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err_text):
        code = main(argv)
    files = {}
    for path in sorted(Path("out").iterdir()):
        files[path.as_posix()] = _digest(path.read_bytes())
        path.unlink()
    return {"exit": code, "stdout": _digest(stdout.getvalue()), "stderr": _digest(stderr.getvalue()),
            "files": files}


def run_ledger(workdir: Path) -> dict[str, dict]:
    """Run every case in workdir (an empty directory) and return the ledger."""
    for name, source in _INPUTS.items():
        shutil.copytree(source, workdir / name)
    for name, fields in {**_LAYOUTS, **_PAGE_LAYOUTS}.items():
        (workdir / name).write_text(json.dumps(fields))
    (workdir / "out").mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return {" ".join(argv): _run_case(argv) for argv in cases(workdir)}
    finally:
        os.chdir(cwd)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help=f"regenerate {LEDGER.relative_to(REPO)}")
    args = parser.parse_args()
    sys.path.insert(0, str(REPO / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        ledger = run_ledger(Path(tmp))
    if args.write:
        LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"wrote {len(ledger)} cases to {LEDGER.relative_to(REPO)}")
        return 0
    pinned = json.loads(LEDGER.read_text())
    differing = sorted(key for key in pinned.keys() | ledger.keys() if pinned.get(key) != ledger.get(key))
    for key in differing:
        print(f"differs: {key}")
    print(f"{len(ledger)} cases, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
