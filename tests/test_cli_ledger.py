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
    # the documents, traces and transcripts whose digests only the ledger keeps
    for name in ["duplicate_params", "g92_axes", "extrusion_modes", "retract_travel_g0"]:
        assert f"audit edge/{name}.gcode --csv" in pinned
    assert "out/utf8_comments.0.jsonl" in pinned[
        "pipeline edge/utf8_comments.gcode hex/marlin_app.hex --reduce 0.3"
        " -o out/utf8_comments.0.gcode --trace out/utf8_comments.0.jsonl"]["files"]
    assert "out/mixed.jsonl" in pinned[
        "pipeline gcode/clean_mixed_crlf.gcode hex/marlin_app.hex --relocate 2 --layout layout_p96_r32.json"
        " -o out/mixed.gcode --trace out/mixed.jsonl"]["files"]
    assert LEDGER_TOOL["_LAYOUTS"]["layout_p96_r32.json"]["rx_buffer_size"] == 32
    for size in [64, 128, 256]:
        assert LEDGER_TOOL["_PAGE_LAYOUTS"][f"layout_p{size}.json"] == {"page_size": size}
        for trojan in ["", "--trojan "]:
            entry = pinned[f"flash-sim hex/marlin_app.hex {trojan}--layout layout_p{size}.json --transcript out/app.txt"]
            assert list(entry["files"]) == ["out/app.txt"]
