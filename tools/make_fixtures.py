#!/usr/bin/env python3
"""Regenerate the committed fixture files under fixtures/.

Everything is deterministic; run from the repository root:

    python tools/make_fixtures.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flawsim import fixtures  # noqa: E402
from flawsim.memory import dump_ihex  # noqa: E402


def main():
    root = Path(__file__).resolve().parents[1] / "fixtures"
    hexdir = root / "hex"
    gcodedir = root / "gcode"
    hexdir.mkdir(parents=True, exist_ok=True)
    gcodedir.mkdir(parents=True, exist_ok=True)

    app = fixtures.build_app_image()
    (hexdir / "marlin_app.hex").write_text(dump_ihex(app))
    clean_boot = fixtures.build_clean_bootloader()
    (hexdir / "boot_clean.hex").write_text(dump_ihex(clean_boot))
    trojan_boot = fixtures.build_trojan_bootloader()
    (hexdir / "boot_trojan.hex").write_text(dump_ihex(trojan_boot))

    for name, doc in fixtures.corpus_documents().items():
        (gcodedir / name).write_text(doc, newline="")

    print(f"wrote fixtures under {root}")


if __name__ == "__main__":
    main()
