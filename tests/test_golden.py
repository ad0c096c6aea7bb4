"""The g-code layer's outputs on the shipped corpus, against the CLI ledger.

Each corpus document's account CSV, reduction 3/10 and relocation n=2 are
computed in-process and compared with the digests the ledger keeps for
``audit --csv`` and ``tamper --reduce 0.3`` / ``--relocate 2`` on it.  A
change to parsing, transforms or accounting that alters one byte of these
outputs fails here, naming the layer, as well as in the ledger's own test.
"""

import hashlib
from fractions import Fraction

import pytest

from flawsim.audit import account
from flawsim.policy import TamperPolicy
from flawsim.tamper import apply_policy

from conftest import FIXTURES, LEDGER

CORPUS = sorted(p.name for p in (FIXTURES / "gcode").glob("*.gcode"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pinned(name: str) -> tuple[str, str, str]:
    """The ledger's (account CSV, reduction 3/10, relocation n=2) digests."""
    stem = name.removesuffix(".gcode")
    tampered = [f"out/{stem}.{i}.gcode" for i in (0, 1)]
    return (
        LEDGER[f"audit gcode/{name} --csv"]["stdout"],
        LEDGER[f"tamper gcode/{name} {tampered[0]} --reduce 0.3"]["files"][tampered[0]],
        LEDGER[f"tamper gcode/{name} {tampered[1]} --relocate 2"]["files"][tampered[1]],
    )


def test_every_corpus_document_is_pinned(gcode_corpus):
    ledger_docs = {argv.split()[1].removeprefix("gcode/") for argv in LEDGER
                   if argv.startswith("audit gcode/") and argv.endswith(" --csv") and "--reference" not in argv}
    assert sorted(gcode_corpus) == CORPUS == sorted(ledger_docs)


@pytest.mark.parametrize("name", CORPUS)
def test_outputs_match_pinned_digests(name, gcode_corpus):
    doc = gcode_corpus[name]
    got = (
        sha256(account(doc).to_csv()),
        sha256(apply_policy(doc, TamperPolicy.reduction(Fraction(3, 10)))),
        sha256(apply_policy(doc, TamperPolicy.relocation(2))),
    )
    assert got == pinned(name)
