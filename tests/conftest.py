import json
from pathlib import Path

import pytest

import flawsim

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
# the directory holding the package under test: src/ in a checkout, or
# site-packages once installed; a fresh interpreter is given it as PYTHONPATH
PACKAGE_PATH = str(Path(flawsim.__file__).resolve().parents[1])
# the CLI ledger (tools/cli_ledger.py): the one record of the bytes flawsim
# writes, mapping each case's argv, joined with spaces, to its digests
LEDGER = json.loads((REPO / "tests" / "cli_ledger.json").read_text())


@pytest.fixture(scope="session")
def gcode_corpus() -> dict[str, str]:
    docs = {}
    for path in sorted((FIXTURES / "gcode").glob("*.gcode")):
        docs[path.name] = path.read_bytes().decode()  # bytes: CRLF kept verbatim
    assert len(docs) >= 20, "shipped corpus must hold at least 20 documents"
    return docs


@pytest.fixture(scope="session")
def hex_fixtures() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted((FIXTURES / "hex").glob("*.hex"))}
