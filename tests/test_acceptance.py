"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so a run of `pytest tests/test_acceptance.py -v -s` reads
as a checklist.  Tolerances are pinned here and nowhere else.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from flawsim import fixtures
from flawsim.audit import account, detect_relocation
from flawsim.avr import (
    DormantAbort,
    audit_bootloader,
    enc_jmp,
    enc_lds,
    find_ring_buffer,
    words_to_bytes,
)
from flawsim.memory import FlashImage, MemoryLayout
from flawsim.policy import TamperPolicy
from flawsim.stk500 import program_and_verify
from flawsim.tamper import transform_reduction, transform_relocation
from flawsim.uart import UartSimulation
from tamper_oracle import run_pipeline_equivalence

LAYOUT = MemoryLayout()

# Published mass-proxy curve coordinates (normalized %, printers A and B)
# for reduction levels 10..50%; the model must land within +-4 points.
PRINTER_A_MASS = {10: 91.43, 20: 82.52, 30: 73.62, 40: 62.68, 50: 53.36}
PRINTER_B_MASS = {10: 89.69, 20: 79.72, 30: 69.81, 40: 59.68, 50: 49.94}
MASS_TOLERANCE_POINTS = 4.0

RELOCATION_CONSERVATION_PCT = 0.1
RUNTIME_BUDGET_S = 1.0
STATE_BUDGET_BYTES = 15
DETECTION_RECALL = 0.95
FLOW_THRESHOLD = 1.8


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title}")


def equivalence_corpus(gcode_corpus: dict[str, str]) -> dict[str, str]:
    """Clean + reduced + relocated + mixed documents (>= 20 streams)."""
    docs = dict(gcode_corpus)
    base = gcode_corpus["clean_uniform_n2.gcode"]
    docs["derived_reduced_r20.gcode"] = transform_reduction(base, Fraction(1, 5))
    docs["derived_reduced_r50.gcode"] = transform_reduction(base, Fraction(1, 2))
    docs["derived_relocated_n2.gcode"] = transform_relocation(base, 2)
    docs["derived_relocated_n3.gcode"] = transform_relocation(base, 3)
    mixed = transform_relocation(transform_reduction(base, Fraction(1, 10)), 4)
    docs["derived_mixed.gcode"] = mixed
    return docs


def test_criterion_1_reduction_curve(gcode_corpus):
    with criterion(1, "reduction curve: exact model within 4 points of published mass data"):
        control = fixtures.generate_gcode(segments=9_800, m73_step=5, travel_every=50)
        assert control.count("\n") >= 10_000
        started = time.perf_counter()
        control_total = account(control).total_extrusion.raw
        for r in (10, 20, 30, 40, 50):
            tampered = transform_reduction(control, Fraction(r, 100))
            suspect_total = account(tampered).total_extrusion.raw
            # exact in the model: totals scale by (100 - r)%
            assert suspect_total * 100 == control_total * (100 - r), f"r={r} not exact"
            normalized = 100.0 * suspect_total / control_total
            assert abs(normalized - PRINTER_A_MASS[r]) <= MASS_TOLERANCE_POINTS
            assert abs(normalized - PRINTER_B_MASS[r]) <= MASS_TOLERANCE_POINTS
        elapsed = time.perf_counter() - started
        assert elapsed < RUNTIME_BUDGET_S * 6, f"6 passes took {elapsed:.2f}s"
        single = time.perf_counter()
        account(transform_reduction(control, Fraction(1, 2)))
        assert time.perf_counter() - single < RUNTIME_BUDGET_S


def test_criterion_2_relocation_conservation():
    with criterion(2, "relocation conserves total extrusion within 0.1%"):
        control = fixtures.generate_gcode(segments=120, m73_step=5)
        control_total = account(control).total_extrusion.raw
        for n in (2, 3, 4):
            tampered = transform_relocation(control, n)
            total = account(tampered).total_extrusion.raw
            deviation = 100.0 * abs(total - control_total) / control_total
            assert deviation <= RELOCATION_CONSERVATION_PCT, f"n={n}: {deviation:.4f}%"
            assert total == control_total  # the model is exact


def test_criterion_3_trigger_window():
    with criterion(3, "window gating: no conversions outside [P25, P75), floor(eligible/n) inside"):
        control = fixtures.generate_gcode(segments=100, m73_step=5)
        in_lines = control.splitlines()
        open_i = next(
            i for i, ln in enumerate(in_lines)
            if ln.startswith("M73 P") and int(ln.split("P")[1]) >= 25
        )
        close_i = next(
            i for i, ln in enumerate(in_lines)
            if ln.startswith("M73 P") and int(ln.split("P")[1]) >= 75
        )
        eligible = sum(
            1 for ln in in_lines[open_i:close_i] if ln.startswith("G1") and " E" in ln
        )
        assert eligible >= 12
        for n in (2, 3, 4):
            out_lines = transform_relocation(control, n).splitlines()
            converted = [
                i for i, (a, b) in enumerate(zip(in_lines, out_lines)) if a != b
            ]
            assert all(b.startswith("G0") for i, b in enumerate(out_lines) if i in converted)
            assert all(open_i < i < close_i for i in converted), f"n={n}: edit outside window"
            assert len(converted) == eligible // n, f"n={n}"


def test_criterion_4_install_spoofing():
    with criterion(4, "naive install verifies while the stored image differs by one word"):
        firmware = fixtures.build_app_image()
        trojan_session = fixtures.build_session(trojan=True)
        outcome = program_and_verify(firmware, trojan_session)
        assert outcome.verified is True
        assert outcome.stored_differs is True
        assert [a for a, _, _ in outcome.mismatches] == [0x39E0]
        assert outcome.mismatches[0][1:] == (0xCF, 0xC0)  # 0xFF -> 0xF0 immediate
        clean_session = fixtures.build_session(trojan=False)
        outcome = program_and_verify(firmware, clean_session)
        assert outcome.verified is True and outcome.stored_differs is False


def test_criterion_5_ring_buffer_discovery():
    with criterion(5, "ISR walk finds the buffer root; budget exhaustion aborts dormant"):
        img = FlashImage(LAYOUT)
        img.write(0x50, words_to_bytes(*enc_jmp(0x1076E)))
        img.write(
            0x1076E,
            words_to_bytes(0x2411, 0x2411, *enc_lds(18, 0x0324), *enc_lds(30, 0x0323)),
        )
        info = find_ring_buffer(img)
        assert info.root_addr == 0x02A3
        barren = FlashImage(LAYOUT)
        barren.write(0x50, words_to_bytes(*enc_jmp(0x1000)))
        barren.write(0x1000, words_to_bytes(*([0x2411] * 300)))
        with pytest.raises(DormantAbort):
            find_ring_buffer(barren)


POLICY_SET = [
    TamperPolicy.off(),
    TamperPolicy.reduction(Fraction(1, 10)),
    TamperPolicy.reduction(Fraction(1, 2)),
    TamperPolicy.relocation(2),
    TamperPolicy.relocation(3),
    TamperPolicy.relocation(4),
]


def test_criterion_6_pipeline_equivalence(gcode_corpus):
    with criterion(6, "streaming output byte-identical to the text transform on the corpus"):
        docs = equivalence_corpus(gcode_corpus)
        assert len(docs) >= 20
        checked = 0
        for policy in POLICY_SET:
            for name, doc in docs.items():
                report = run_pipeline_equivalence(doc, policy)
                assert report.identical, f"{name} / {policy.mode.value}: {report.describe()}"
                checked += 1
        assert checked == len(docs) * len(POLICY_SET)


def test_criterion_7_state_budget(gcode_corpus):
    with criterion(7, "serialized interceptor state <= 15 bytes after every character"):
        docs = equivalence_corpus(gcode_corpus)
        for policy in POLICY_SET:
            for doc in docs.values():
                sim = UartSimulation(policy)
                for ch in doc:
                    sim.feed_char(ch)
                    assert len(sim.trojan.to_bytes()) <= STATE_BUDGET_BYTES
                    sim.drain()


def test_criterion_8_bootloader_audit():
    with criterion(8, "audit flags the trojan bootloader twice and the clean one never"):
        trojan_findings = audit_bootloader(fixtures.build_trojan_bootloader())
        assert {f.kind for f in trojan_findings} == {"IvselTakeover", "IsrTrampoline"}
        assert audit_bootloader(fixtures.build_clean_bootloader()) == []


def test_criterion_9_relocation_detection(gcode_corpus):
    with criterion(9, "detector recalls >= 95% of catch-up segments, zero clean false positives"):
        for n in (2, 3, 4):
            control = fixtures.generate_gcode(segments=100, m73_step=5)
            tampered = transform_relocation(control, n)
            report = account(tampered)
            anomalies = detect_relocation(report, threshold=FLOW_THRESHOLD)
            converted = [
                s.index
                for s in report.segments
                if s.kind == "G0"
                and s.travel > 0
                and s.index + 1 < len(report.segments)
                and report.segments[s.index + 1].delta_raw > 0
            ]
            # drop layer-change travels that exist in the clean doc too
            clean_travels = {
                s.index for s in account(control).segments if s.delta_raw <= 0
            }
            injected = [i for i in converted if i not in clean_travels]
            flagged = {a.index for a in anomalies if a.kind == "RelocationSignature"}
            recall = len(flagged & set(injected)) / len(injected)
            assert recall >= DETECTION_RECALL, f"n={n}: recall {recall:.2%}"
        for name, doc in gcode_corpus.items():
            assert detect_relocation(account(doc), threshold=FLOW_THRESHOLD) == [], name
