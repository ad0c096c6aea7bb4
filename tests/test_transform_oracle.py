"""The payload transforms against tamper_oracle, their step-by-step
statement: byte-identical output on the corpus, the fuzz documents and
seeded random token documents."""

import random
from fractions import Fraction

import tamper_oracle
from flawsim.tamper import transform_reduction, transform_relocation
from test_fuzz_equivalence import random_document

REDUCTIONS = [Fraction(1, 10), Fraction(7, 100), Fraction(1, 2), Fraction(33, 100)]
RELOCATIONS = [(n, lo, hi) for n in (2, 3, 4) for lo, hi in ((0, 100), (25, 75))]
PROGRESS = "M73 P30\n"  # relocation documents start inside their window

# Heads and tokens that reach every branch of the token rule: heads with
# leading zeros or spaces, glued or past the budget; targets after one or
# two spaces, a tab, a glued value or a comment; digitless, signed,
# pointed and overflowing values; progress reports and relative switches.
HEADS = [
    "G1", "G1", "G1", "G01", " G1", "G0", "G10", "G1X1", "G2147483648", "M73", "M73", "M073", "M730",
    "M83", "M83X", "M82", ";c", "",
]
TOKENS = [
    " X1", " E5", " E5", " E0", " E", " E-", " E.5", " E-1.25", " E+.5", " E00.50", " E5x", "E6",
    "  E5", "\tE5", " E5E6", " E214748.3647", " E214748.36479", " E214749", " E99999999999",
    " E0.00005", " P", " P30", " P5x", " P80", " P25", " P75", " P100", " *1", " ;E5", "; E5", ";c",
    " ", "\t", "\r",
]
ENDS = ["\n", "\n", "\r\n"]


def random_token_document(rng: random.Random) -> str:
    """One to four lines, each a head and up to five tokens; the last line
    may have no LF."""
    lines = [
        rng.choice(HEADS) + "".join(rng.choices(TOKENS, k=rng.randrange(6))) + rng.choice(ENDS)
        for _ in range(rng.randrange(1, 5))
    ]
    if rng.random() < 0.2:
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def agree(doc: str) -> None:
    for fraction in REDUCTIONS:
        expected = tamper_oracle.transform_reduction(doc, fraction)
        assert transform_reduction(doc, fraction) == expected, (doc, fraction)
    doc = PROGRESS + doc
    for n, lo, hi in RELOCATIONS:
        expected = tamper_oracle.transform_relocation(doc, n, lo, hi)
        assert transform_relocation(doc, n, lo, hi) == expected, (doc, n, lo, hi)


def test_transforms_match_the_oracle_on_the_corpus(gcode_corpus):
    for doc in gcode_corpus.values():
        agree(doc)


def test_transforms_match_the_oracle_on_the_fuzz_documents():
    for seed in range(120):
        agree(random_document(seed))


def test_transforms_match_the_oracle_on_random_token_documents():
    rng = random.Random(25)
    for _ in range(20_000):
        agree(random_token_document(rng))
