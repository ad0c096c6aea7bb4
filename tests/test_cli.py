import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from flawsim import fixtures
from flawsim.cli import main
from flawsim.memory import FlashImage, MemoryLayout, dump_ihex
from flawsim.tamper import transform_reduction

from conftest import FIXTURES, PACKAGE_PATH, REPO

APP_HEX = str(FIXTURES / "hex" / "marlin_app.hex")
BOOT_CLEAN_HEX = str(FIXTURES / "hex" / "boot_clean.hex")
BOOT_TROJAN_HEX = str(FIXTURES / "hex" / "boot_trojan.hex")


@pytest.fixture
def gcode_file(tmp_path):
    path = tmp_path / "in.gcode"
    path.write_text(fixtures.generate_gcode(segments=40))
    return path


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_tamper_then_audit_closed_loop(tmp_path, capsys, gcode_file):
    out = tmp_path / "out.gcode"
    code, _ = run(capsys, "tamper", gcode_file, out, "--reduce", "0.5")
    assert code == 0
    code, text = run(capsys, "audit", out, "--reference", gcode_file)
    assert code == 0
    assert "reduction: 50.0%" in text


def test_tamper_relocate_flag(tmp_path, capsys, gcode_file):
    out = tmp_path / "out.gcode"
    code, _ = run(capsys, "tamper", gcode_file, out, "--relocate", "2")
    assert code == 0
    assert "G0 X" in out.read_text()


def test_audit_json_and_csv(tmp_path, capsys, gcode_file):
    code, text = run(capsys, "audit", gcode_file, "--json")
    assert code == 0
    payload = json.loads(text)
    assert "total_extrusion_mm" in payload
    code, text = run(capsys, "audit", gcode_file, "--csv")
    assert text.startswith("index,kind")


def test_audit_csv_curve_row_quotes_its_label(tmp_path, capsys, gcode_file):
    # -o is written as UTF-8, and the curve row keeps its 3 fields
    suspect = tmp_path / "a,\u00e9.gcode"
    suspect.write_text(transform_reduction(gcode_file.read_text(), Fraction(1, 2)))
    out = tmp_path / "curve.csv"
    code, _ = run(capsys, "audit", suspect, "--reference", gcode_file, "--csv", "-o", out)
    assert code == 0
    *_, header, row = csv.reader(io.StringIO(out.read_bytes().decode()))
    assert header == ["label", "reduction_percent", "normalized_percent"]
    assert row == [str(suspect), "50.0000", "50.0000"]


@pytest.mark.parametrize("encoding", ["utf-8", "latin-1", "ascii"])
def test_stdout_is_the_output_files_utf8_bytes_under_any_locale(tmp_path, encoding):
    # a fresh interpreter whose text streams use the given encoding
    reference = FIXTURES / "gcode" / "clean_small.gcode"
    (tmp_path / "a,\u00e9.gcode").write_text(
        transform_reduction(reference.read_text(), Fraction(1, 2)), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH, "PYTHONIOENCODING": encoding}
    argv = [sys.executable, "-m", "flawsim.cli", "audit", "a,\u00e9.gcode",
            "--reference", str(reference), "--csv"]
    printed = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)
    written = subprocess.run(argv + ["-o", "curve.csv"], cwd=tmp_path, env=env, capture_output=True)
    assert (printed.returncode, printed.stderr, written.returncode, written.stdout) == (0, b"", 0, b"")
    expected = 'label,reduction_percent,normalized_percent\n"a,\u00e9.gcode",50.0000,50.0000\n'
    assert printed.stdout == (tmp_path / "curve.csv").read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]], ids=["text", "json", "csv"])
def test_audit_output_file_holds_the_stdout_bytes(tmp_path, capsys, gcode_file, fmt):
    out = tmp_path / "report"
    code, text = run(capsys, "audit", gcode_file, "--detect", *fmt)
    assert code == 0 and text.endswith("\n")
    code, printed = run(capsys, "audit", gcode_file, "--detect", *fmt, "-o", out)
    assert code == 0 and printed == ""
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("reference", [False, True], ids=["segments", "curve"])
def test_audit_csv_writes_one_table(tmp_path, capsys, gcode_file, reference):
    suspect = tmp_path / "half.gcode"
    suspect.write_text(transform_reduction(gcode_file.read_text(), Fraction(1, 2)))
    argv = ["audit", suspect, "--csv"] + (["--reference", gcode_file] if reference else [])
    code, text = run(capsys, *argv)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(text))
    assert rows and all(len(row) == len(header) for row in rows)
    assert (header[0] == "label") == reference


def test_audit_detect_sets_exit_code(tmp_path, capsys, gcode_file):
    doc = gcode_file.read_text()
    tampered = tmp_path / "reloc.gcode"
    code, _ = run(capsys, "tamper", gcode_file, tampered, "--relocate", "2")
    code, text = run(capsys, "audit", tampered, "--detect")
    assert code == 2
    assert "RelocationSignature" in text
    code, _ = run(capsys, "audit", gcode_file, "--detect")
    assert code == 0
    # a threshold at or below 0 would flag every extruding move of a clean print
    for threshold in ("0", "-1", "nan", "inf"):
        code, _ = run(capsys, "audit", gcode_file, "--detect", "--threshold", threshold)
        assert code == 1, threshold
    assert run(capsys, "audit", FIXTURES / "gcode" / "clean_uniform_n2.gcode",
               "--detect", "--threshold", "0")[0] == 1


def test_flash_sim_clean_exits_zero(capsys):
    code, text = run(capsys, "flash-sim", APP_HEX)
    assert code == 0
    assert text == "verified: True\nstored differs: False\n"


def test_flash_sim_trojan_exits_two_with_diff(capsys, tmp_path):
    transcript = tmp_path / "wire.log"
    code, text = run(capsys, "flash-sim", "--trojan", APP_HEX, "--transcript", transcript)
    assert code == 2
    assert text.splitlines()[:3] == ["verified: True", "stored differs: True",
                                     "  0x039e0: read-back 0xcf stored 0xc0"]
    assert "ldi r28, 0xF0" in text
    lines = transcript.read_text().splitlines()
    assert lines and all(ln.split()[0] in (">>", "<<") for ln in lines)
    assert all(ln.split()[1].startswith("1b") for ln in lines)


def test_scan_find_sp(capsys):
    code, text = run(capsys, "scan", APP_HEX, "--find-sp", "--json")
    assert code == 0
    payload = json.loads(text)
    assert payload == {"offset": 0x39E0, "spl_immediate": 0xFF, "sph_immediate": 0x21}
    assert run(capsys, "scan", APP_HEX, "--find-sp") == (0, "sp-init at 0x039e0: SPL=0xff SPH=0x21\n")


def test_scan_find_ringbuffer(capsys):
    code, text = run(capsys, "scan", APP_HEX, "--find-ringbuffer", "--json")
    payload = json.loads(text)
    assert payload == {"head_addr": 0x324, "tail_addr": 0x323, "root_addr": 0x2A3}


@pytest.mark.parametrize("layout, root", [(None, "0x02a3"), ({"rx_buffer_size": 32}, "0x0303")],
                         ids=["default ring", "32-byte ring"])
def test_scan_find_ringbuffer_root_follows_the_layout(tmp_path, capsys, layout, root):
    argv = ["scan", APP_HEX, "--find-ringbuffer"]
    if layout is not None:
        (tmp_path / "ring.json").write_text(json.dumps(layout))
        argv += ["--layout", tmp_path / "ring.json"]
    code, text = run(capsys, *argv)
    assert code == 0
    assert text == f"ring buffer: head @0x0324 tail @0x0323 root @{root}\n"


def implausible_ring_image():
    """The application image with its ISR's first LDS reading 0x4000,
    past the end of data memory."""
    image = fixtures.build_app_image()
    image.write(fixtures.APP_RX_ISR_OFFSET + 14, b"\x00\x40")
    return image


def no_rx_jmp_image():
    """The application image with its RX vector slot zeroed: no JMP to follow."""
    image = fixtures.build_app_image()
    image.write(20 * 4, bytes(4))
    return image


def test_scan_implausible_ring_is_a_dormant_abort(tmp_path, capsys):
    hex_path = tmp_path / "implausible.hex"
    hex_path.write_text(dump_ihex(implausible_ring_image()))
    code, text = run(capsys, "scan", hex_path, "--find-ringbuffer")
    assert code == 0
    assert text == ("ring buffer: dormant abort (head 0x4000 / tail 0x0323 / root 0x02a3 "
                    "not all inside 0x2200 bytes of data memory)\n")


def test_scan_find_sp_json_is_null_when_not_found(tmp_path, capsys):
    erased = tmp_path / "erased.hex"
    erased.write_text(dump_ihex(FlashImage(MemoryLayout())))
    code, text = run(capsys, "scan", erased, "--find-sp", "--json")
    assert code == 0
    assert json.loads(text) is None
    code, text = run(capsys, "scan", erased, "--find-sp")
    assert (code, text) == (0, "stack-pointer init sequence: not found\n")


@pytest.mark.parametrize("hex_text, reason", [
    (lambda: Path(BOOT_CLEAN_HEX).read_text(), "vector slot 20 is not a jmp"),
    (lambda: dump_ihex(no_rx_jmp_image()), "vector slot 20 is not a jmp"),
    (lambda: dump_ihex(implausible_ring_image()),
     "head 0x4000 / tail 0x0323 / root 0x02a3 not all inside 0x2200 bytes of data memory"),
], ids=["boot_clean.hex", "no rx jmp", "implausible ring"])
def test_scan_find_ringbuffer_json_names_a_dormant_abort(tmp_path, capsys, hex_text, reason):
    hex_path = tmp_path / "image.hex"
    hex_path.write_text(hex_text())
    code, text = run(capsys, "scan", hex_path, "--find-ringbuffer", "--json")
    assert code == 0
    assert json.loads(text) == {"dormant_abort": reason}
    code, text = run(capsys, "scan", hex_path, "--find-ringbuffer")
    assert (code, text) == (0, f"ring buffer: dormant abort ({reason})\n")


def test_scan_audit_boot_exit_codes(capsys):
    code, text = run(capsys, "scan", BOOT_TROJAN_HEX, "--audit-boot")
    assert code == 2
    assert "IvselTakeover" in text and "IsrTrampoline" in text
    code, text = run(capsys, "scan", BOOT_CLEAN_HEX, "--audit-boot")
    assert code == 0
    assert "clean" in text


def test_scan_audit_boot_json(capsys):
    code, text = run(capsys, "scan", BOOT_TROJAN_HEX, "--audit-boot", "--json")
    assert code == 2
    assert json.loads(text) == [
        {"kind": "IvselTakeover", "offset": 0x3E082, "related_offset": 0x3E086,
         "snippet": "out 0x35, #0x01 ; out 0x35, #0x02"},
        {"kind": "IsrTrampoline", "offset": 0x3E0A2, "related_offset": 0x3E0A6,
         "snippet": "call 0x50 ; cli"},
    ]
    code, text = run(capsys, "scan", BOOT_CLEAN_HEX, "--audit-boot", "--json")
    assert code == 0
    assert json.loads(text) == []


def test_pipeline_end_to_end(capsys, tmp_path, gcode_file):
    out = tmp_path / "printed.gcode"
    trace = tmp_path / "trace.jsonl"
    code, text = run(
        capsys, "pipeline", gcode_file, APP_HEX, "--reduce", "0.3",
        "--trace", trace, "-o", out,
    )
    assert code == 0
    assert "material reduction: 30.00%" in text
    assert out.read_bytes().decode() == transform_reduction(
        gcode_file.read_text(), Fraction(3, 10)
    )
    first = json.loads(trace.read_text().splitlines()[0])
    assert {"char", "head", "tail", "parser_state"} <= set(first)


def test_pipeline_relocation_conserves_material(capsys, tmp_path, gcode_file):
    out = tmp_path / "printed.gcode"
    code, text = run(capsys, "pipeline", gcode_file, APP_HEX, "--relocate", "2", "-o", out)
    assert code == 0
    assert "material reduction: 0.00%" in text  # relocated, not removed
    assert "converted" in text
    printed = out.read_bytes().decode()
    assert printed != gcode_file.read_text()
    assert sum(1 for ln in printed.splitlines() if ln.startswith("G0") and "Z" not in ln) > 0


def test_pipeline_streams_non_ascii_comments(capsys, tmp_path):
    doc = tmp_path / "utf8.gcode"
    doc.write_bytes("G21 ; café €\nG1 X1 E2\nG1 X2 E4\n".encode())
    out = tmp_path / "printed.gcode"
    code, text = run(capsys, "pipeline", doc, APP_HEX, "--reduce", "0.5", "-o", out)
    assert code == 0
    assert "material reduction: 50.00%" in text
    assert out.read_bytes().decode() == "G21 ; café €\nG1 X1 E1\nG1 X2 E2\n"


@pytest.mark.parametrize("argv, err", [
    (["tamper", "{gcode}", "{out}", "--reduce", "1/0"],
     "error: reduction must be a whole percent in [0, 100], got 1/0\n"),
    (["scan", APP_HEX, "--find-sp", "--layout", "{flash_1tib}"],
     "error: layout {flash_1tib}: flash_size must be positive, even and at most 8 MiB\n"),
    (["scan", APP_HEX, "--find-sp", "--layout", "{ring_100}"],
     "error: layout {ring_100}: rx_buffer_size must be a power of two\n"),
    (["flash-sim", APP_HEX, "--layout", "{flash_1tib}"],
     "error: layout {flash_1tib}: flash_size must be positive, even and at most 8 MiB\n"),
], ids=["reduce 1/0", "1 TiB flash", "100-byte ring", "1 TiB flash install"])
def test_out_of_range_values_exit_one_without_a_traceback(tmp_path, capsys, gcode_file, argv, err):
    # refused before any work: no division, no flash image
    paths = {"gcode": gcode_file, "out": tmp_path / "out.gcode",
             "flash_1tib": tmp_path / "flash_1tib.json", "ring_100": tmp_path / "ring_100.json"}
    paths["flash_1tib"].write_text(json.dumps({"flash_size": 1 << 40}))
    paths["ring_100"].write_text(json.dumps({"rx_buffer_size": 100}))
    assert main([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr() == ("", err.format(**paths))
    assert not paths["out"].exists()


def test_usage_errors_exit_one(capsys, tmp_path, gcode_file):
    assert main(["tamper", "missing-out.gcode"]) == 1
    assert main(["scan"]) == 1
    assert main(["frobnicate"]) == 1
    out = tmp_path / "o.gcode"
    assert main(["tamper", str(gcode_file), str(out), "--reduce", "abc"]) == 1
    assert main(["tamper", str(gcode_file), str(out), "--reduce", "1.5"]) == 1
    # a reduction no Trojan build carries: not a whole percent
    assert main(["tamper", str(gcode_file), str(out), "--reduce", "0.333"]) == 1
    assert main(["tamper", str(gcode_file), str(out), "--reduce", "1/3"]) == 1
    # a flag that would have no effect is refused, naming itself
    window, threshold = "error: --window needs --relocate\n", "error: --threshold needs --detect\n"
    for argv, err in (
        (["tamper", gcode_file, out, "--reduce", "0.3", "--window", "90", "10"], window),
        (["tamper", gcode_file, out, "--off", "--window", "0", "101"], window),
        (["pipeline", gcode_file, APP_HEX, "--reduce", "0.3", "--window", "25", "75"], window),
        (["audit", gcode_file, "--threshold", "-5"], threshold),
        (["audit", gcode_file, "--threshold", "1.8", "--json"], threshold),
    ):
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 1, argv
        assert capsys.readouterr() == ("", err), argv
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["tamper", "", "out.gcode", "--off"], "input"),
    (["tamper", "{gcode}", "", "--off"], "output"),
    (["audit", ""], "input"),
    (["audit", "{gcode}", "--reference", ""], "--reference"),
    (["audit", "{gcode}", "-o", ""], "-o/--output"),
    (["flash-sim", ""], "firmware"),
    (["flash-sim", APP_HEX, "--transcript", ""], "--transcript"),
    (["flash-sim", APP_HEX, "--layout", ""], "--layout"),
    (["scan", "", "--find-sp"], "image"),
    (["scan", APP_HEX, "--find-sp", "--layout", ""], "--layout"),
    (["pipeline", "", APP_HEX, "--reduce", "0.5"], "gcode"),
    (["pipeline", "{gcode}", "", "--reduce", "0.5"], "firmware"),
    (["pipeline", "{gcode}", APP_HEX, "--reduce", "0.5", "--trace", ""], "--trace"),
    (["pipeline", "{gcode}", APP_HEX, "--reduce", "0.5", "-o", ""], "-o/--output"),
    (["pipeline", "{gcode}", APP_HEX, "--reduce", "0.5", "--layout", ""], "--layout"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_an_empty_path_is_a_usage_error(tmp_path, capsys, monkeypatch, gcode_file, argv, name):
    # '' would otherwise name no file, or the working directory
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main([a.format(gcode=gcode_file) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f": error: argument {name}: an empty path names no file\n"), err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["flash-sim", APP_HEX, "--steal", "3"],
    ["scan", APP_HEX, "--find-ringbuffer", "--rx-vector", "20"],
    ["pipeline", "in.gcode", APP_HEX, "--reduce", "0.5", "--rx-vector", "20"],
], ids=["steal", "scan rx-vector", "pipeline rx-vector"])
def test_fixed_install_settings_are_not_options(capsys, argv):
    # the steal size is the interceptor's state and the RX vector is the chip's
    assert main(argv) == 1


def test_pipeline_passes_values_without_room_for_their_edit(tmp_path, capsys):
    doc = tmp_path / "in.gcode"
    doc.write_text("G1 X1234 E1.25\nG1 X1 E4\n")
    layout = tmp_path / "ring16.json"
    layout.write_text(json.dumps({"rx_buffer_size": 16}))
    out = tmp_path / "out.gcode"
    code, text = run(capsys, "pipeline", doc, APP_HEX, "--reduce", "0.5", "--layout", layout, "-o", out)
    assert code == 0
    assert "stream edits: 0 edited, 0 converted, 2 skipped" in text
    assert out.read_text() == doc.read_text()


def test_pipeline_names_the_bytes_a_full_ring_dropped(tmp_path, capsys):
    # the payload is off: the whole loss is bytes the 16-byte ring dropped
    doc = tmp_path / "in.gcode"
    doc.write_text("G1 X43 E1 F8838\nG1 X1 E2\nG1 X2 E3\n")
    layout = tmp_path / "ring16.json"
    layout.write_text(json.dumps({"rx_buffer_size": 16}))
    code, text = run(capsys, "pipeline", doc, APP_HEX, "--off", "--layout", layout)
    assert code == 0
    assert "material reduction: 66.67%" in text
    assert "stream edits: 0 edited, 0 converted, 0 skipped, 19 dropped" in text


# --- the trace: one JSON line per stored byte, written as the stream runs --------

UTF8_COMMENTS = "G21 ; caf\u00e9 \u20ac \U0001f5a8\nM73 P30 ; \u00fcber\nG1 X1 E5 ; \u00e9\nG1 X2 E6\nG1 X3 E7 ;\u00bd\n;\u00e9nde"


@pytest.mark.parametrize("doc, argv, digest", [
    ("clean_small.gcode", ["--reduce", "0.3"],
     "578d3538fe9ea9a04098f5ede72a59df2e17aad3c3f3f9677c0bc2724d0c543f"),
    ("clean_mixed_crlf.gcode", ["--relocate", "2"],
     "6be36d9c7827b982bc4e4cb8025b3b77c37ac0a2377335ad1f0a052c1bbdfcc5"),
    (UTF8_COMMENTS, ["--reduce", "0.3"],
     "b815c9fbcc6c55b209de35317c51250cbaa54c3d80695cb00d6901cbb26a9bbb"),
    ("clean_mixed_crlf.gcode", ["--relocate", "2", "--layout", {"rx_buffer_size": 32}],
     "4759450d386ce87738620163278be59c7160fd683b55b054b0819dbbf720850b"),
], ids=["small reduce", "crlf relocate", "utf-8 comments", "32-byte ring wraps"])
def test_pipeline_trace_bytes_are_pinned(tmp_path, capsys, doc, argv, digest):
    # each line: the byte ("char", as json.dumps(chr(byte))), then the ring's
    # head and tail and the parser state after the byte's step
    path = FIXTURES / "gcode" / doc
    if doc == UTF8_COMMENTS:
        path = tmp_path / "utf8.gcode"
        path.write_bytes(doc.encode())
    if isinstance(argv[-1], dict):
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], layout]
    trace = tmp_path / "trace.jsonl"
    code, _ = run(capsys, "pipeline", path, APP_HEX, *argv, "--trace", trace)
    assert code == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


def test_pipeline_trace_has_no_line_for_a_dropped_byte(tmp_path, capsys):
    # the 16-byte ring is full before the first newline arrives: that
    # newline and every byte after it are dropped, 19 of the 34
    doc = tmp_path / "in.gcode"
    doc.write_text("G1 X43 E1 F8838\nG1 X1 E2\nG1 X2 E3\n")
    layout = tmp_path / "ring16.json"
    layout.write_text(json.dumps({"rx_buffer_size": 16}))
    trace = tmp_path / "trace.jsonl"
    code, text = run(capsys, "pipeline", doc, APP_HEX, "--off", "--layout", layout, "--trace", trace)
    assert code == 0
    assert "0 skipped, 19 dropped" in text
    entries = [json.loads(line) for line in trace.read_text().splitlines()]
    assert entries == [{"char": char, "head": head, "tail": 0, "parser_state": 0}
                       for head, char in enumerate("G1 X43 E1 F8838", 1)]


@pytest.mark.parametrize("policy", [["--reduce", "0.3"], ["--relocate", "2"]], ids=["reduce", "relocate"])
def test_a_traced_pipeline_prints_and_reports_what_an_untraced_one_does(tmp_path, capsys, policy):
    for doc in sorted((FIXTURES / "gcode").glob("*.gcode")):
        runs = []
        for traced in ([], ["--trace", tmp_path / "trace.jsonl"]):
            out = tmp_path / "out.gcode"
            code, text = run(capsys, "pipeline", doc, APP_HEX, *policy, "-o", out, *traced)
            runs.append((code, text, out.read_bytes()))
        assert runs[0] == runs[1], doc.name


def test_the_trace_is_written_as_the_stream_runs(tmp_path, capsys):
    # no entry is held: a traced run peaks at what an untraced one does
    doc = tmp_path / "print.gcode"
    doc.write_text(fixtures.generate_gcode(segments=2000))
    argv = ["pipeline", doc, APP_HEX, "--reduce", "0.3", "-o", tmp_path / "out.gcode"]
    peaks = []
    for traced in ([], ["--trace", tmp_path / "trace.jsonl"], []):  # the first run warms caches
        tracemalloc.start()
        try:
            assert main([str(a) for a in argv + traced]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        capsys.readouterr()
    assert peaks[1] <= peaks[2] + 64 * 1024, peaks


@pytest.mark.parametrize("firmware, reason", [
    (no_rx_jmp_image, "ring-buffer discovery failed, interceptor dormant: vector slot 20 is not a jmp"),
    (implausible_ring_image, "ring-buffer discovery failed, interceptor dormant: head 0x4000"),
    (lambda: fixtures.build_app_image(spl=0x05),
     "stack steal failed, interceptor dormant: no stack-pointer init was patched"),
], ids=["no rx jmp", "implausible ring", "steal dormant"])
def test_pipeline_streams_verbatim_when_the_chain_is_dormant(tmp_path, capsys, firmware, reason):
    hex_path = tmp_path / "firmware.hex"
    hex_path.write_text(dump_ihex(firmware()))
    doc = tmp_path / "in.gcode"
    doc.write_text("G1 X1 E2\nG1 X2 E4\n")
    out = tmp_path / "out.gcode"
    code, text = run(capsys, "pipeline", doc, hex_path, "--reduce", "0.5", "-o", out)
    assert code == 0
    assert reason in text
    assert "material reduction: 0.00%" in text
    assert "stream edits: 0 edited, 0 converted, 0 skipped" in text
    assert out.read_bytes() == doc.read_bytes()
    # a fraction the stream cannot carry stays a usage error on a dormant chain
    assert main(["pipeline", str(doc), str(hex_path), "--reduce", "0.333"]) == 1


@pytest.mark.parametrize("argv", [
    ["audit", "{dir}"],
    ["audit", "{gcode}", "-o", "{dir}"],
    ["flash-sim", APP_HEX, "--transcript", "{dir}"],
    ["scan", APP_HEX, "--find-sp", "--layout", "{dir}"],
], ids=["input", "-o", "--transcript", "--layout"])
def test_a_directory_for_a_file_exits_one(tmp_path, capsys, gcode_file, argv):
    argv = [a.format(dir=tmp_path, gcode=gcode_file) for a in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.hex"
    bad.write_text(":deadbeef\n:00000001FF\n")
    assert main(["scan", str(bad), "--find-sp"]) == 3
    capsys.readouterr()
    # line 1 moves the base to 0x40000, the end of the default flash
    bad.write_text(":020000040004F6\n:01000000AA55\n:00000001FF\n")
    assert main(["scan", str(bad), "--find-sp"]) == 3
    assert capsys.readouterr().err.startswith("parse error: line 2: data record ends at 0x40001")
    bad_gcode = tmp_path / "bad.gcode"
    bad_gcode.write_text("G1 E4 X@3\n")
    assert main(["audit", str(bad_gcode)]) == 3


def test_firmware_reaching_into_the_boot_section_exits_three(tmp_path, capsys):
    image = tmp_path / "boot.hex"
    image.write_text(":020000040003F7\n:01E00000AA75\n:00000001FF\n")  # one byte at 0x3e000
    assert main(["flash-sim", str(image)]) == 3
    assert capsys.readouterr().err == "error: firmware does not fit in the application region\n"


def test_firmware_ending_at_boot_start_installs_on_a_page_size_that_does_not_divide_it(tmp_path, capsys):
    layout = MemoryLayout(page_size=384)
    layout_json = tmp_path / "page384.json"
    layout_json.write_text(json.dumps({"page_size": 384}))
    firmware = FlashImage(layout)
    firmware.write(layout.boot_start - 1, b"\xaa")
    image = tmp_path / "last_app_byte.hex"
    image.write_text(dump_ihex(firmware))
    code, text = run(capsys, "flash-sim", image, "--layout", layout_json)
    assert code == 0
    assert text == "verified: True\nstored differs: False\n"


def test_pipeline_writes_its_output_before_accounting(tmp_path, capsys):
    # the stream is complete before account reads it: a document account
    # rejects, or a reference with no material, still leaves the output
    trace = tmp_path / "t.jsonl"
    for text, streamed, err in (
        ("G1 X1 E4\nG1 X2 E8x\n", "G1 X1 E2\nG1 X2 E4x\n",
         "parse error: line 2: cannot parse 'G1 X2 E8x'\n"),
        ("G0 X1\nG0 X2\n", "G0 X1\nG0 X2\n", "error: reference deposits no material\n"),
    ):
        doc, out = tmp_path / "in.gcode", tmp_path / "out.gcode"
        doc.write_text(text)
        out.unlink(missing_ok=True)
        argv = ["pipeline", doc, APP_HEX, "--reduce", "0.5", "-o", out, "--trace", trace]
        assert main([str(a) for a in argv]) == 3
        assert capsys.readouterr() == ("", err)  # no install line before the error
        assert out.read_bytes() == streamed.encode()
        assert trace.stat().st_size


def test_input_that_is_not_utf8_exits_three_with_line(tmp_path, capsys):
    doc = tmp_path / "latin1.gcode"
    doc.write_bytes(b"G1 X1 E2\nG21 ; 200\xb0C\n")
    out = tmp_path / "out.gcode"
    for argv in (
        ["audit", doc],
        ["tamper", doc, out, "--reduce", "0.5"],
        ["pipeline", doc, APP_HEX, "--reduce", "0.3"],
    ):
        assert main([str(a) for a in argv]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 2: byte 0xb0"), (argv, err)
    image = tmp_path / "binary.hex"
    image.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe")
    for argv in (["flash-sim", image], ["scan", image, "--find-sp"]):
        assert main([str(a) for a in argv]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 1: byte 0xff"), (argv, err)
    assert not out.exists()


def test_audit_extrusion_overflow_exits_three_with_line(tmp_path, capsys):
    doc = tmp_path / "overflow.gcode"
    doc.write_text("G1 X1 E200000\nG1 X2 E-200000\n")
    assert main(["audit", str(doc)]) == 3
    assert "line 2:" in capsys.readouterr().err


def test_layout_flag_reads_a_small_layout(tmp_path, capsys):
    layout_json = tmp_path / "layout.json"
    layout_json.write_text(json.dumps({"flash_size": 0x8000, "boot_section_size": 0x1000}))
    small_app = fixtures.build_app_image(
        fixtures.MemoryLayout(flash_size=0x8000, boot_section_size=0x1000),
        sp_offset=0x1000,
        isr_offset=0x2000,
    )
    hex_path = tmp_path / "small.hex"
    hex_path.write_text(dump_ihex(small_app))
    code, text = run(capsys, "scan", hex_path, "--find-sp", "--json", "--layout", layout_json)
    assert code == 0
    assert json.loads(text)["offset"] == 0x1000


@pytest.mark.parametrize("fields, named", [
    ({"boot_sectio_size": 4096}, "'boot_sectio_size'"),
    ([1, 2], "JSON object"),
    ({"flash_size": "big"}, "'flash_size'"),
    ({"app_vector_base": 0}, "'app_vector_base'"),
    ({"data_memory_size": 0x2200}, "'data_memory_size'"),
    (b"", "Expecting value"),
    (b"\xff{}", "can't decode byte 0xff"),
], ids=["unknown field", "not an object", "not an integer", "app_vector_base", "data_memory_size",
        "empty", "not utf-8"])
def test_malformed_layout_exits_one_naming_the_field(tmp_path, capsys, fields, named):
    layout_json = tmp_path / "bad.json"
    layout_json.write_bytes(fields if isinstance(fields, bytes) else json.dumps(fields).encode())
    assert main(["scan", APP_HEX, "--find-sp", "--layout", str(layout_json)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: layout {layout_json}: ") and named in err, err


@pytest.mark.parametrize("page_size, code, err", [
    (0xFFFC, 2, ""),
    (0xFFFD, 3, "error: page_size 65533 exceeds the 65532 bytes a frame carries\n"),
], ids=["65532 installs", "65533 refused"])
def test_flash_sim_takes_the_pages_a_frame_carries(tmp_path, capsys, page_size, code, err):
    layout_json = tmp_path / "layout.json"
    layout_json.write_text(json.dumps({"page_size": page_size}))
    transcript = tmp_path / "wire.log"
    argv = ["flash-sim", "--trojan", APP_HEX, "--layout", layout_json, "--transcript", transcript]
    assert main([str(a) for a in argv]) == code
    out, seen = capsys.readouterr()
    assert seen == err
    if code == 2:
        assert "stored differs: True" in out and transcript.exists()
    else:  # refused before the first frame: no report, no transcript
        assert out == "" and not transcript.exists()


def test_determinism_identical_runs(capsys, tmp_path, gcode_file):
    results = []
    for i in range(2):
        out = tmp_path / f"out{i}.gcode"
        code, text = run(capsys, "tamper", gcode_file, out, "--relocate", "3")
        results.append((code, text, out.read_bytes()))
    assert results[0] == results[1]


def test_tamper_custom_window(tmp_path, capsys, gcode_file):
    narrow = tmp_path / "narrow.gcode"
    wide = tmp_path / "wide.gcode"
    run(capsys, "tamper", gcode_file, narrow, "--relocate", "2", "--window", "40", "60")
    run(capsys, "tamper", gcode_file, wide, "--relocate", "2", "--window", "10", "90")

    def conversions(path):  # converted moves are G0 without the layer-change Z
        return sum(
            1 for ln in path.read_text().splitlines()
            if ln.startswith("G0") and "Z" not in ln
        )

    assert 0 < conversions(narrow) < conversions(wide)


def test_audit_output_file_flag(tmp_path, capsys, gcode_file):
    out = tmp_path / "report.json"
    code, text = run(capsys, "audit", gcode_file, "--json", "-o", out)
    assert code == 0 and text == ""
    assert json.loads(out.read_text())["total_extrusion_mm"]


def test_mutually_exclusive_policy_flags_rejected(capsys, gcode_file, tmp_path):
    out = tmp_path / "x.gcode"
    assert main(["tamper", str(gcode_file), str(out), "--reduce", "0.5", "--off"]) == 1


# --- whole commands on the shipped fixtures and small documents ----------------

RING32 = {"rx_buffer_size": 32}
TOKEN_RULE_DOC = ("M73 P30\nG1 X1 Y1 E1 E2\nG1 X2 Y1  E3\nG1 X3 Y1 E4 ; E9\r\nG01 X4 Y1 E5\n"
                  "G1 X5 Y1  E6 E7 ; note E8\nM73 P80\nG1 X6 Y1 E9\n")


def layout_args(tmp_path, fields) -> list:
    if fields is None:
        return []
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(fields))
    return ["--layout", layout]


def test_readme_tour_prints_what_it_says(tmp_path):
    # a fresh interpreter outside the checkout: the tour's imports name the package's modules
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.S)[1]
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    done = subprocess.run([sys.executable, "-c", tour], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "['G1 X2 Y3 E2\\n']\n"


def test_audit_report_formats_count_every_move(capsys):
    long = FIXTURES / "gcode" / "clean_long.gcode"
    code, text = run(capsys, "audit", long)
    assert code == 0 and "segments: 266" in text.splitlines()
    code, text = run(capsys, "audit", long, "--csv")
    assert code == 0 and len(text.splitlines()) == 267
    code, text = run(capsys, "audit", long, "--json")
    assert code == 0 and len(json.loads(text)["segments"]) == 266


def test_audit_detect_reads_a_relocated_fixtures_geometry(tmp_path, capsys):
    tampered = tmp_path / "reloc.gcode"
    clean = FIXTURES / "gcode" / "clean_uniform_n2.gcode"
    assert run(capsys, "tamper", clean, tampered, "--relocate", "2") == (0, "")
    code, text = run(capsys, "audit", tampered, "--detect")
    assert code == 2
    assert "anomalies: 25" in text.splitlines() and "RelocationSignature" in text


def test_scan_audit_boot_finds_a_trampoline_in_the_last_six_bytes(tmp_path, capsys):
    image = FlashImage(MemoryLayout())
    end = len(image.data)
    image.write(end - 6, bytes.fromhex("0E942800F894"))
    hex_path = tmp_path / "boot_tail.hex"
    hex_path.write_text(dump_ihex(image))
    code, text = run(capsys, "scan", hex_path, "--audit-boot", "--json")
    assert code == 2
    assert json.loads(text) == [{"kind": "IsrTrampoline", "offset": end - 6, "related_offset": end - 2,
                                 "snippet": "call 0x50 ; cli"}]


@pytest.mark.parametrize("doc, argv, layout, lines, printed", [
    ("clean_small.gcode", ["--reduce", "0.3"], None, ["material reduction: 30.00%"], None),
    ("clean_small.gcode", ["--reduce", "0.5"], RING32,
     ["material reduction: 50.00%", "stream edits: 12 edited, 0 converted, 0 skipped"], None),
    ("G2147483648\nG1 X1 E2\nG1 X2 E4\n", ["--reduce", "0.5"], None,
     ["material reduction: 50.00%", "stream edits: 2 edited, 0 converted, 0 skipped"], None),
    ("G1 X1 E5", ["--reduce", "0.5"], None, ["stream edits: 1 edited"], "G1 X1 E2.5"),
], ids=["clean_small", "32-byte ring", "command number past 2**31 - 1", "no last newline"])
def test_pipeline_report_lines(tmp_path, capsys, doc, argv, layout, lines, printed):
    path = FIXTURES / "gcode" / doc
    if not doc.endswith(".gcode"):
        path = tmp_path / "in.gcode"
        path.write_text(doc)
    out = tmp_path / "out.gcode"
    code, text = run(capsys, "pipeline", path, APP_HEX, *argv, *layout_args(tmp_path, layout), "-o", out)
    assert code == 0
    assert [line for line in lines if line not in text] == []
    assert printed is None or out.read_text() == printed


@pytest.mark.parametrize("doc, policy, layout, reduction, written", [
    ("".join(f"G1 X{i} E{i}.2345\n" for i in range(1, 40)), ["--reduce", "0.5"], RING32, 50, None),
    (TOKEN_RULE_DOC, ["--reduce", "0.5"], None, 50, None),
    (TOKEN_RULE_DOC, ["--relocate", "2"], None, 0, None),
    ("M73 P30\nG1 X1 E1\nG1 X2 E2\nM83\nG1 X3 E1\nG1 X4 E1\n", ["--relocate", "2"], None, 25,
     "M73 P30\nG1 X1 E1\nG0 X2\nM83\nG1 X3 E1\nG1 X4 E1\n"),  # dormant from the M83 on
    ("M73 P30\nG1 X1 E1\nG1 X2 E2\nG92 E0\nG1 X3 E1\nG1 X4 E2\n", ["--relocate", "2"], None, 50,
     "M73 P30\nG1 X1 E1\nG0 X2\nG92 E0\nG1 X3 E1\nG0 X4\n"),  # the G92 loses X2's material
], ids=["writes back across index 0 of a 32-byte ring", "token rule reduce", "token rule relocate",
        "relative-extrusion switch", "G92 before a catch-up"])
def test_the_stream_prints_what_tamper_writes(tmp_path, capsys, doc, policy, layout, reduction, written):
    source, tampered, streamed = (tmp_path / name for name in ("in.gcode", "tampered.gcode", "streamed.gcode"))
    source.write_text(doc)
    assert run(capsys, "tamper", source, tampered, *policy) == (0, "")
    code, text = run(capsys, "pipeline", source, APP_HEX, *policy, *layout_args(tmp_path, layout), "-o", streamed)
    assert code == 0 and f"material reduction: {reduction:.2f}%" in text.splitlines()
    assert streamed.read_bytes() == tampered.read_bytes()
    assert written is None or tampered.read_text() == written
    code, text = run(capsys, "audit", tampered, "--reference", source)
    assert code == 0 and f"reduction: {reduction:.1f}%" in text.splitlines()


def test_tamper_edits_a_value_with_a_tail_as_the_stream_does(tmp_path, capsys):
    # the payload follows the stream's token rule; audit refuses the first line
    doc, out = tmp_path / "tails.gcode", tmp_path / "out.gcode"
    doc.write_text("G1 X1 E5x\nG1 P E6\n")
    assert run(capsys, "tamper", doc, out, "--reduce", "0.5") == (0, "")
    assert out.read_text() == "G1 X1 E2.5x\nG1 P E3\n"


@pytest.mark.parametrize("argv, text, line", [
    (["audit"], b"G21 ; 200\xb0C\n", 1),
    (["audit"], b"G1 X1 E1\nM83 E99999999999\n", 2),
    (["audit"], b"G1 X1 E5x\nG1 P E6\n", 1),
    (["audit"], b"G1" + b" " * 100_000 + b"!\n", 1),
    (["scan", "--find-sp"], b":020000040004F6\n:0400000001020304F3\n:00000001FF\n", 2),
    (["flash-sim"], b":020000040000FA\n:0400000001020304F2\n", 3),  # cut short before its EOF record
], ids=["not utf-8", "over-budget mode switch", "a value with a tail", "100,000 spaces", "hex checksum",
        "truncated hex"])
def test_an_unreadable_input_exits_three_naming_its_line(tmp_path, capsys, argv, text, line):
    path = tmp_path / "input"
    path.write_bytes(text)
    assert main([argv[0], str(path), *argv[1:]]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"parse error: line {line}: ") and len(err) < 1024, err[:200]


@pytest.mark.parametrize("doc, plain", [
    ("G01  X1.00004 E000002.00000\t\nG0001 X2 E4.50000\n", "G1 X1 E2\nG1 X2 E4.5\n"),
    ("G1 F1500 X1 Y2 E3\nG1 X2 Y2 E4 F1800\n", "G1 X1 Y2 E3\nG1 X2 Y2 E4\n"),
], ids=["values outside the plain subset", "slicer F tokens"])
def test_audit_totals_a_spelling_as_its_plain_form(tmp_path, capsys, doc, plain):
    summaries = []
    for name, text in (("doc", doc), ("plain", plain)):
        path = tmp_path / f"{name}.gcode"
        path.write_text(text)
        code, report = run(capsys, "audit", path)
        assert code == 0
        summaries.append([ln for ln in report.splitlines() if ln.startswith(("total extrusion:", "segments:"))])
    assert len(summaries[0]) == 2 and summaries[0] == summaries[1]
