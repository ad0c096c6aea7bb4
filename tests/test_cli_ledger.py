import json
import runpy

from conftest import REPO

LEDGER_TOOL = runpy.run_path(str(REPO / "tools" / "cli_ledger.py"))


def test_every_cli_case_prints_and_writes_what_the_ledger_pins(tmp_path):
    # regenerate with tools/cli_ledger.py --write, naming each changed case in CHANGES.md
    pinned = json.loads((REPO / "tests" / "cli_ledger.json").read_text())
    ledger = LEDGER_TOOL["run_ledger"](tmp_path)
    assert ledger.keys() == pinned.keys()
    differing = [argv for argv, entry in ledger.items() if entry != pinned[argv]]
    assert not differing, f"{len(differing)} cases differ, first: {differing[:5]}"


def test_the_ledger_covers_every_command_and_outcome():
    pinned = json.loads((REPO / "tests" / "cli_ledger.json").read_text())
    assert {argv.split()[0] for argv in pinned} == {"audit", "tamper", "pipeline", "flash-sim", "scan"}
    assert {entry["exit"] for entry in pinned.values()} == {0, 2, 3}
    # every path is relative to the directory the cases run in
    assert not any(token.startswith("/") for argv in pinned for token in argv.split())
