import random

import pytest

from flawsim.errors import ParseError
from flawsim.memory import (
    AddressOutOfRange,
    FlashImage,
    MemoryLayout,
    dump_ihex,
    load_ihex,
)

LAYOUT = MemoryLayout()
LISTING_BYTES = bytes.fromhex("cfefd1e2debfcdbf")


def ihex_checksum(record_hex: str) -> int:
    """Independent oracle: two's complement of the byte sum."""
    body = bytes.fromhex(record_hex)
    return (~sum(body) + 1) & 0xFF


def test_layout_is_immutable():
    layout = MemoryLayout()
    with pytest.raises(Exception):
        layout.flash_size = 1024  # frozen: geometry never changes after construction


def test_layout_validation():
    with pytest.raises(ValueError):
        MemoryLayout(rx_buffer_size=100)  # not a power of two
    with pytest.raises(ValueError):
        MemoryLayout(flash_size=8192, boot_section_size=8192)
    layout = MemoryLayout()
    assert layout.boot_start == 256 * 1024 - 8192
    assert layout.in_app_region(0x39E0)
    assert not layout.in_app_region(layout.boot_start)


def test_layout_caps_flash_at_what_a_jmp_reaches():
    # a 22-bit jmp/call word address reaches 8 MiB; only layouts are built
    # here, never an image, which would allocate flash_size bytes
    assert MemoryLayout(flash_size=8 << 20).boot_start == (8 << 20) - 8192
    for size in ((8 << 20) + 2, 1 << 40):
        with pytest.raises(ValueError, match="^flash_size must be positive, even and at most 8 MiB$"):
            MemoryLayout(flash_size=size)


def test_image_reads_never_wrap():
    img = FlashImage(LAYOUT)
    with pytest.raises(AddressOutOfRange):
        img.read(LAYOUT.flash_size - 4, 8)
    with pytest.raises(AddressOutOfRange):
        img.read(-2, 2)
    assert img.read(LAYOUT.flash_size - 4, 4) == b"\xff" * 4


def test_load_eof_only_is_erased_image():
    img = load_ihex(":00000001FF", LAYOUT)
    assert img.data == b"\xff" * LAYOUT.flash_size


def test_load_places_listing_bytes():
    record = "0839E000" + LISTING_BYTES.hex().upper()
    line = f":{record}{ihex_checksum(record):02X}"
    img = load_ihex(line + "\n:00000001FF\n", LAYOUT)
    assert img.read(0x39E0, 8) == LISTING_BYTES


def test_load_rejects_bad_checksum():
    record = "0839E000" + LISTING_BYTES.hex().upper()
    bad = f":{record}{(ihex_checksum(record) ^ 0x01):02X}"
    with pytest.raises(ParseError, match=r"^line 1: record checksum mismatch$") as err:
        load_ihex(bad, LAYOUT)
    assert err.value.line_no == 1


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_a_record_ends_at_lf_crlf_or_a_lone_cr(eol):
    records = [":020000040000FA", ":0400000001020304F2", ":00000001FF"]
    assert load_ihex(eol.join(records) + eol, LAYOUT).read(0, 4) == b"\x01\x02\x03\x04"
    # a blank line counts; the bad checksum is on the file's third line
    bad = [":020000040000FA", "", ":0400000001020304F3"]
    with pytest.raises(ParseError, match=r"^line 3: record checksum mismatch$") as err:
        load_ihex(eol.join(bad) + eol, LAYOUT)
    assert err.value.line_no == 3


@pytest.mark.parametrize("mark", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_other_line_breaks_do_not_end_a_record(mark):
    # str.splitlines would break here and count the bad record as line 3
    doc = f":020000040000FA{mark}\n:0400000001020304F3\n"
    with pytest.raises(ParseError, match=r"^line 2: record checksum mismatch$"):
        load_ihex(doc, LAYOUT)


def test_load_rejects_unknown_record_type():
    record = "020000030000"  # type 03 (start segment address)
    line = f":{record}{ihex_checksum(record):02X}"
    with pytest.raises(ParseError, match=r"^line 1: unsupported record type 03$") as err:
        load_ihex(line, LAYOUT)
    assert err.value.line_no == 1


@pytest.mark.parametrize("record, problem", [
    ("02000000AABBCC", "length field disagrees with record size"),  # count 2, three bytes
    ("04000000AABB", "length field disagrees with record size"),  # count 4, two bytes
    ("0100000210", "type-02 record needs 2 data bytes"),
    ("03000002100000", "type-02 record needs 2 data bytes"),
    ("0100000400", "type-04 record needs 2 data bytes"),
    ("03000004000100", "type-04 record needs 2 data bytes"),
])
def test_load_rejects_records_whose_size_does_not_fit_their_type(record, problem):
    # each record carries its own correct checksum, so only its size is wrong
    data = "01000000AB"
    doc = f":{data}{ihex_checksum(data):02X}\n:{record}{ihex_checksum(record):02X}\n:00000001FF\n"
    with pytest.raises(ParseError, match=rf"^line 2: {problem}$") as err:
        load_ihex(doc, LAYOUT)
    assert err.value.line_no == 2


def test_load_rejects_out_of_range_data():
    small = MemoryLayout(flash_size=0x1000, boot_section_size=0x400)
    record = "020FFF00AABB"
    line = f":{record}{ihex_checksum(record):02X}"
    with pytest.raises(ParseError):
        load_ihex(line, small)


def test_load_data_record_ending_exactly_at_flash_end():
    small = MemoryLayout(flash_size=0x1000, boot_section_size=0x400)
    fits = "020FFE00AABB"
    img = load_ihex(f":{fits}{ihex_checksum(fits):02X}\n:00000001FF\n", small)
    assert img.read(0xFFE, 2) == b"\xaa\xbb"
    past = "020FFF00AABB"  # one byte past the end of flash
    doc = f":{fits}{ihex_checksum(fits):02X}\n:{past}{ihex_checksum(past):02X}\n:00000001FF\n"
    with pytest.raises(ParseError, match=r"^line 2: data record ends at 0x1001"):
        load_ihex(doc, small)


def test_load_rejects_garbage():
    with pytest.raises(ParseError, match=r"^line 1: missing ':' start code$"):
        load_ihex("0000", LAYOUT)
    with pytest.raises(ParseError, match=r"^line 1: invalid hex digits$"):
        load_ihex(":zz000001FF", LAYOUT)


def test_extended_segment_record_offsets_addresses():
    # type-02 with segment 0x1000 shifts addresses by 0x10000
    seg = "020000021000"
    data = "01000000AB"
    doc = f":{seg}{ihex_checksum(seg):02X}\n:{data}{ihex_checksum(data):02X}\n:00000001FF"
    img = load_ihex(doc, LAYOUT)
    assert img.read(0x10000, 1) == b"\xab"


def test_dump_erased_region_is_eof_only():
    img = FlashImage(LAYOUT)
    assert dump_ihex(img) == ":00000001FF\n"


def test_dump_single_record_with_correct_checksum():
    img = FlashImage(LAYOUT)
    img.write(0x39E0, LISTING_BYTES)
    out = dump_ihex(img)
    lines = out.strip().splitlines()
    data_records = [ln for ln in lines if ln[7:9] == "00"]
    assert len(data_records) == 1
    rec = data_records[0]
    assert rec[1:9] == "1039E000"  # the whole 16-byte row, its erased tail included
    assert rec.endswith(f"{ihex_checksum(rec[1:-2]):02X}")
    assert bytes.fromhex(rec[9:-2]) == LISTING_BYTES + b"\xff" * 8


def test_dump_70000_byte_region_has_two_type04_records():
    img = FlashImage(LAYOUT)
    rng = random.Random(1)
    img.write(0, bytes(rng.randrange(0, 255) for _ in range(70_000)))
    out = dump_ihex(img)
    type04 = [ln for ln in out.splitlines() if ln[7:9] == "04"]
    # oracle: number of 64 KiB segments the 70,000 written bytes cover
    assert len(type04) == (70_000 - 1) // 0x10000 - 0 // 0x10000 + 1 == 2


def test_round_trip_random_sparse_images():
    rng = random.Random(42)
    for _ in range(5):
        img = FlashImage(LAYOUT)
        for _ in range(rng.randrange(1, 12)):
            addr = rng.randrange(0, LAYOUT.flash_size - 64)
            img.write(addr, bytes(rng.randrange(0, 256) for _ in range(rng.randrange(1, 48))))
        reloaded = load_ihex(dump_ihex(img), LAYOUT)
        assert reloaded == img


def test_round_trip_preserves_high_addresses():
    img = FlashImage(LAYOUT)
    img.write(0x2FFF8, b"\x01\x02\x03\x04")
    assert load_ihex(dump_ihex(img), LAYOUT) == img


def test_write_then_read_word_little_endian():
    img = FlashImage(LAYOUT)
    img.write(0x100, b"\xcf\xef")
    assert img.read_word(0x100) == 0xEFCF


def test_dump_row_with_embedded_erased_bytes_round_trips():
    img = FlashImage(LAYOUT)
    img.write(0x200, b"\x01\xff\x02")  # 0xFF inside a non-erased row survives
    assert load_ihex(dump_ihex(img), LAYOUT) == img


def naive_record(offset: int, rectype: int, payload: bytes) -> str:
    """Independent oracle: one record spelled a byte at a time."""
    text, total = ":", 0
    for b in [len(payload), offset >> 8, offset & 0xFF, rectype, *payload]:
        text += f"{b:02X}"
        total += b
    return text + f"{-total % 256:02X}"


def naive_dump(img: FlashImage) -> str:
    """Rows of the 16-byte grid over the whole image; a row is written
    when any byte in it is not 0xFF, after a type-04 record when it opens
    a new 64 KiB segment."""
    lines, segment = [], None
    for row in range(0, img.layout.flash_size, 16):
        if all(img.data[a] == 0xFF for a in range(row, row + 16)):
            continue
        if row >> 16 != segment:
            segment = row >> 16
            lines.append(naive_record(0, 0x04, bytes([segment >> 8, segment & 0xFF])))
        lines.append(naive_record(row & 0xFFFF, 0x00, bytes(img.data[row : row + 16])))
    return "".join(line + "\n" for line in lines) + ":00000001FF\n"


def test_dump_matches_naive_record_writer():
    rng = random.Random(5)
    cases = []
    for _ in range(5):  # random sparse images
        img = FlashImage(LAYOUT)
        for _ in range(rng.randrange(1, 12)):
            addr = rng.randrange(0, LAYOUT.flash_size - 64)
            img.write(addr, rng.randbytes(rng.randrange(1, 48)))
        cases.append(img)
    img = FlashImage(LAYOUT)
    img.write(0x200, b"\x01\xff\xff\x02")  # embedded 0xFF bytes inside a row
    img.write(0x2F0, b"\xff" * 7 + b"\x00")  # a row that only ends non-erased
    cases.append(img)
    img = FlashImage(LAYOUT)
    img.write(0xFFF5, bytes(range(1, 23)))  # crosses the 64 KiB boundary mid-row
    img.write(0x2FFFF, b"\x42\x43")  # and the next one at its last byte
    cases.append(img)
    for n, img in enumerate(cases):
        assert dump_ihex(img) == naive_dump(img), n
