"""Seeded differential check of load_ihex against the grammar oracle in
ihex_oracle.py, over dumps of random images with records inserted, cut
and retyped, bad digits, blanks, CRLF and CR line ends, and records past
flash or past a type-02 segment.  Each case compares the image's digest,
or the error's line and message.
"""

import hashlib
import random
from collections import Counter

from flawsim.errors import ParseError
from flawsim.memory import FlashImage, MemoryLayout, dump_ihex, load_ihex

import ihex_oracle

LAYOUT = MemoryLayout(flash_size=0x30000, boot_section_size=0x2000)  # three 64 KiB segments
CASES = 2000
BLANKS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", " ", "　"]
BAD_DIGITS = ["g", "G", "x", "-", ":", "é", "٣", "Ａ"]  # é, Arabic-Indic 3, fullwidth A
# what outcome() yields, as a part of its second item
OUTCOMES = [
    "image", "missing ':' start code", "invalid hex digits", "record too short",
    "length field disagrees with record size", "record checksum mismatch", ", flash is ",
    ", past its type-02 segment's end ", "type-01 record must be :00000001FF",
    "type-02 record needs 2 data bytes", "type-04 record needs 2 data bytes",
    "unsupported record type ", "missing EOF record",
]


def rec(offset: int, kind: int, payload: bytes, checksum_ok: bool = True) -> str:
    body = bytes([len(payload), offset >> 8, offset & 0xFF, kind]) + payload
    check = -sum(body) & 0xFF if checksum_ok else (sum(body) + 1) & 0xFF
    return ":" + (body + bytes([check])).hex().upper()


def random_image(rng: random.Random) -> FlashImage:
    img = FlashImage(LAYOUT)
    for _ in range(rng.randrange(0, 5)):
        addr = rng.randrange(0, LAYOUT.flash_size - 48)
        img.write(addr, rng.randbytes(rng.randrange(1, 48)))
    return img


def random_record(rng: random.Random) -> str:
    roll = rng.random()
    ok = rng.random() < 0.9
    if roll < 0.35:  # data somewhere in the 16-bit offset range, now and then across 0xFFFF
        offset = rng.choice([rng.randrange(0x10000), rng.randrange(0xFFF0, 0x10000)])
        return rec(offset, 0, rng.randbytes(rng.randrange(0, 20)), ok)
    if roll < 0.5:  # a linear base, up to one segment past flash
        return rec(0, 4, rng.randrange(0, 5).to_bytes(2, "big"), ok)
    if roll < 0.65:  # a segment base, some whose segments end past flash
        return rec(0, 2, rng.choice([0, 0x1000, 0x1FFF, 0x2000, 0x2FF0, 0xFFFF]).to_bytes(2, "big"), ok)
    if roll < 0.75:
        return rng.choice([":00000001FF", ":00000001ff", ":011234015563", rec(0x0010, 1, b""), rec(0, 1, b"\x00")])
    if roll < 0.85:  # a size its type cannot take, or a type the loader has not
        kind = rng.choice([2, 4])
        return rec(0, rng.choice([kind, 3, 5, 0x41]), rng.randbytes(rng.choice([0, 1, 2, 3])), ok)
    return rng.choice(["", "garbage", ":", ":0", ":00000001", ":zz", "  "])


def mutate(rng: random.Random, lines: list[str]) -> None:
    """One mutation of lines, a document's records without their breaks."""
    if not lines:  # every line was cut
        lines.append(random_record(rng))
        return
    family = rng.randrange(7)
    at = rng.randrange(len(lines))
    line = lines[at]
    if family == 0:  # an inserted record
        lines.insert(rng.randrange(len(lines) + 1), random_record(rng))
    elif family == 1:  # a cut record, or the document cut short inside one
        if rng.random() < 0.5:
            del lines[at]
        else:
            lines[at:] = [line[: rng.randrange(len(line) + 1)]]
    elif family == 2 and ihex_oracle.RECORD.fullmatch(line):  # a retyped record
        body = bytearray.fromhex(line.strip()[1:])
        body[3] = rng.choice([0, 1, 2, 3, 4, 5])
        if rng.random() < 0.8:
            body[-1] = -sum(body[:-1]) & 0xFF
        lines[at] = ":" + body.hex()
    elif family == 3 and line:  # a bad digit
        i = rng.randrange(len(line))
        lines[at] = line[:i] + rng.choice(BAD_DIGITS) + line[i + 1 :]
    elif family == 4:  # blanks into, around or between records
        i = rng.choice([0, len(line), rng.randrange(len(line) + 1)])
        lines[at] = line[:i] + rng.choice(BLANKS) * rng.randrange(1, 3) + line[i:]
    elif family == 5:  # a record in lower case
        lines[at] = line.lower()
    elif family == 6:  # data past the end of flash, or past its type-02 segment
        lines.insert(at, rec(0, rng.choice([2, 4]), rng.choice([0x0002, 0x2FF0, 0x0003]).to_bytes(2, "big")))
        lines.insert(at + 1, rec(rng.randrange(0xFFE0, 0x10000), 0, rng.randbytes(rng.randrange(1, 40))))


def document(rng: random.Random, dumps: list[str]) -> str:
    lines = rng.choice(dumps).split("\n")[:-1]
    for _ in range(rng.randrange(1, 4)):
        mutate(rng, lines)
    eol = rng.choice(["\n", "\n", "\r\n", "\r"])
    if rng.random() < 0.1:  # mixed line ends
        return "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)
    return eol.join(lines) + rng.choice([eol, ""])


def outcome(load, doc: str):
    try:
        return "image", hashlib.sha256(load(doc)).hexdigest()
    except ParseError as err:
        return err.line_no, str(err).split(": ", 1)[1]
    except ihex_oracle.OracleError as err:
        return err.line, err.message


def by_loader(doc: str) -> bytes:
    return bytes(load_ihex(doc, LAYOUT).data)


def by_oracle(doc: str) -> bytes:
    return ihex_oracle.image(ihex_oracle.load(doc, LAYOUT.flash_size), LAYOUT.flash_size)


def test_load_ihex_agrees_with_the_grammar_oracle():
    rng = random.Random(41)
    dumps = [dump_ihex(random_image(rng)) for _ in range(100)]  # dumping a whole image costs 2 ms
    seen = Counter()
    for case in range(CASES):
        doc = document(rng, dumps)
        expected = outcome(by_oracle, doc)
        assert outcome(by_loader, doc) == expected, (case, doc)
        seen["image" if expected[0] == "image" else next(k for k in OUTCOMES[1:] if k in expected[1])] += 1
    # the mutations reach every outcome, and a clean load often
    assert set(seen) == set(OUTCOMES) and seen["missing EOF record"] < CASES // 2, seen
    assert seen[OUTCOMES[0]] > CASES // 5, seen


def test_every_dump_loads_under_the_oracle_to_its_image():
    rng = random.Random(7)
    for _ in range(50):
        img = random_image(rng)
        assert by_oracle(dump_ihex(img)) == bytes(img.data)
