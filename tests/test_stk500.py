import hashlib
import random
from dataclasses import dataclass, field

import pytest

from flawsim import avr, fixtures
from flawsim.avr import apply_stack_steal, enc_ldi, enc_out, find_ring_buffer, find_sp_init, words_to_bytes
from flawsim.memory import FlashImage, MemoryLayout, load_ihex
from flawsim.stk500 import (
    CMD_LOAD_ADDRESS,
    CMD_PROGRAM_FLASH,
    CMD_READ_FLASH,
    CMD_SIGN_ON,
    STATUS_CMD_FAILED,
    STATUS_CMD_OK,
    BootSession,
    FrameReader,
    PipeTransport,
    ProtocolError,
    ProgrammerClient,
    Stk500Frame,
    VerifyOutcome,
    frame_decode,
    frame_encode,
    program_and_verify,
    used_span,
)
from flawsim.uart import TrojanState

LAYOUT = MemoryLayout()


def sp_init_words(spl=0xFF, sph=0x21):
    return words_to_bytes(enc_ldi(28, spl), enc_ldi(29, sph), enc_out(0x3E, 29), enc_out(0x3D, 28))


def firmware_with_pattern(offset=0x39E0, spl=0xFF, fill_before=True) -> FlashImage:
    img = FlashImage(LAYOUT)
    if fill_before:
        img.write(0, bytes([0x11, 0x24] * 16))  # something at the reset vector
    img.write(offset, sp_init_words(spl=spl))
    return img


# --- framing -----------------------------------------------------------------


def test_empty_body_frame_bytes():
    assert frame_encode(b"", 0) == bytes.fromhex("1b0000000e15")


def test_encode_decode_round_trip_random_bodies():
    rng = random.Random(9)
    for _ in range(50):
        body = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 600)))
        seq = rng.randrange(256)
        frame = frame_decode(frame_encode(body, seq))
        assert frame.body == body
        assert frame.sequence == seq


def test_every_single_bit_flip_is_rejected():
    frame = frame_encode(bytes([CMD_SIGN_ON]) + b"AVRISP_2", sequence=3)
    for byte_i in range(len(frame)):
        for bit in range(8):
            mutated = bytearray(frame)
            mutated[byte_i] ^= 1 << bit
            with pytest.raises(ProtocolError):
                frame_decode(bytes(mutated))


def test_frame_decode_names_a_short_or_overlong_buffer():
    frame = frame_encode(b"\x01\x02", 4)
    with pytest.raises(ProtocolError, match=r"^frame header incomplete$"):
        frame_decode(frame[:5])
    with pytest.raises(ProtocolError, match=r"^need 8 bytes, have 7$"):
        frame_decode(frame[:-1])
    with pytest.raises(ProtocolError, match=r"^2 bytes after frame end$"):
        frame_decode(frame + b"\x1b\x00")


def test_frame_reader_reassembles_arbitrary_chunks():
    rng = random.Random(2)
    frames = [frame_encode(bytes([i]) * (i + 1), i) for i in range(10)]
    stream = b"".join(frames)
    reader = FrameReader()
    seen = []
    pos = 0
    while pos < len(stream):
        step = rng.randrange(1, 9)
        seen.extend(reader.feed(stream[pos : pos + step]))
        pos += step
    assert [f.sequence for f in seen] == list(range(10))
    assert [len(f.body) for f in seen] == [i + 1 for i in range(10)]


def naive_xor(data: bytes) -> int:
    checksum = 0
    for b in data:
        checksum ^= b
    return checksum


def naive_frame(body: bytes, seq: int) -> bytes:
    payload = bytes([0x1B, seq, len(body) >> 8, len(body) & 0xFF, 0x0E]) + body
    return payload + bytes([naive_xor(payload)])


def test_frame_encode_matches_naive_xor():
    rng = random.Random(11)
    for size in list(range(0, 20)) + [rng.randrange(600) for _ in range(200)] + [599, 600]:
        body = rng.randbytes(size)
        seq = rng.randrange(256)
        assert frame_encode(body, seq) == naive_frame(body, seq)


# every body of 0-70 bytes, frame lengths around each power of two up to
# 2**16, where the fold's widths change, and the longest frame (a
# 0xFFFF-byte body)
FOLD_FRAME_LENGTHS = sorted(
    set(range(6, 77)) | {n for k in range(3, 17) for n in (2**k - 1, 2**k, 2**k + 1)} | {0xFFFF + 6}
)


@pytest.mark.parametrize("frame_len", FOLD_FRAME_LENGTHS)
def test_checksum_matches_naive_xor_at_every_fold_width(frame_len):
    rng = random.Random(frame_len)
    body = rng.randbytes(frame_len - 6)
    seq = rng.randrange(256)
    frame = frame_encode(body, seq)
    assert frame == naive_frame(body, seq)
    assert naive_xor(frame) == 0
    assert frame_decode(frame) == (seq, body)
    # a wrong checksum byte is named beside the one the fold computed
    stated = frame[-1] ^ 0xA5
    computed = naive_xor(frame[:-1])
    with pytest.raises(ProtocolError, match=rf"^computed {computed:#04x}, frame says {stated:#04x}$"):
        frame_decode(frame[:-1] + bytes((stated,)))


def test_a_frame_is_its_sequence_and_body():
    frame = frame_decode(frame_encode(b"\x11\x00", 0x2A))
    assert isinstance(frame, Stk500Frame)
    assert (frame.sequence, frame.body) == (0x2A, b"\x11\x00")
    assert frame == (0x2A, b"\x11\x00") and tuple(frame) == (0x2A, b"\x11\x00")
    assert type(frame.body) is bytes
    reader = FrameReader()
    (fed,) = reader.feed(bytearray(frame_encode(b"\x11\x00", 0x2A)))
    assert fed == frame and type(fed.body) is bytes


def test_frame_reader_half_frame_waits_for_the_rest():
    frame = frame_encode(bytes([CMD_READ_FLASH, 0]) + bytes(range(200)), 7)
    reader = FrameReader()
    for cut in (1, 5, 6, 100, len(frame) - 1):
        assert reader.feed(frame[:cut]) == []
        (got,) = reader.feed(frame[cut:])
        assert (got.sequence, got.body) == (7, frame[5:-1])


BAD_START = r"^expected 0x1b, got 0x5b$"
BAD_TOKEN = r"^expected 0x0e, got 0x4e$"
BAD_CHECKSUM = r"^computed 0x[0-9a-f]{2}, frame says 0x[0-9a-f]{2}$"


@pytest.mark.parametrize("pos, message", [(0, BAD_START), (4, BAD_TOKEN)],
                         ids=["0-BadStart", "4-BadToken"])
def test_frame_reader_bad_header_raises_at_six_bytes(pos, message):
    # the declared body is long, so the frame is far from complete
    frame = bytearray(frame_encode(bytes(300), 1))
    frame[pos] ^= 0x40
    reader = FrameReader()
    for i in range(5):
        assert reader.feed(frame[i : i + 1]) == []
    with pytest.raises(ProtocolError, match=message):
        reader.feed(frame[5:6])


def test_frame_reader_bad_checksum_raises_when_frame_completes():
    for flip in (1, 10, -1):
        frame = bytearray(frame_encode(b"\x14\x00" + bytes(range(40)), 3))
        frame[flip] ^= 0x01
        reader = FrameReader()
        assert reader.feed(frame[:-1]) == []
        with pytest.raises(ProtocolError, match=BAD_CHECKSUM):
            reader.feed(frame[-1:])


def test_frame_reader_many_frames_in_one_feed():
    bodies = [b"", b"\x01", bytes(range(256)), b"\x11", bytes(7)]
    stream = b"".join(frame_encode(b, i) for i, b in enumerate(bodies))
    reader = FrameReader()
    frames = reader.feed(stream + frame_encode(b"tail", 9)[:4])
    assert [(f.sequence, f.body) for f in frames] == list(enumerate(bodies))
    (last,) = reader.feed(frame_encode(b"tail", 9)[4:])
    assert (last.sequence, last.body) == (9, b"tail")


def chunked_reads(stream: bytes, cap: int):
    """A read(n) over stream handing out at most cap bytes at a time, and
    the list of positions it has reached."""
    reached = [0]

    def read(n: int) -> bytes:
        out = stream[reached[-1] : reached[-1] + min(n, cap)]
        reached.append(reached[-1] + len(out))
        return out

    return read, reached


def test_read_frame_returns_the_frames_feed_returns_at_every_split():
    raws = [frame_encode(b, i) for i, b in enumerate([b"", b"\x01", bytes(range(40)), b"\x11\x00"])]
    stream = b"".join(raws)
    ends = [sum(map(len, raws[: i + 1])) for i in range(len(raws))]
    for cap in range(1, max(map(len, raws)) + 1):
        reader = FrameReader()
        fed = [f for pos in range(0, len(stream), cap) for f in reader.feed(stream[pos : pos + cap])]
        read, reached = chunked_reads(stream, cap)
        reader = FrameReader()
        pulled = []
        for end in ends:
            pulled.append(reader.read_frame(read))
            assert reached[-1] == end, cap  # no byte read past the frame
        assert pulled == fed == [frame_decode(raw) for raw in raws], cap


@pytest.mark.parametrize(
    "pos, message",
    [(0, BAD_START), (4, BAD_TOKEN), (1, BAD_CHECKSUM), (-1, BAD_CHECKSUM)],
    ids=["0-BadStart", "4-BadToken", "1-ChecksumMismatch", "-1-ChecksumMismatch"],
)
def test_read_frame_raises_at_the_byte_feed_does_and_keeps_raising(pos, message):
    frame = bytearray(frame_encode(bytes(30), 1))
    frame[pos] ^= 0x40
    stream = bytes(frame) + frame_encode(b"\x01", 2)
    reader = FrameReader()
    with pytest.raises(ProtocolError, match=message) as fed:
        for i in range(len(stream)):
            reader.feed(stream[i : i + 1])
    fed_at = i + 1
    reader = FrameReader()
    read, reached = chunked_reads(stream, 1)
    with pytest.raises(ProtocolError, match=message) as first:
        reader.read_frame(read)
    assert reached[-1] == fed_at == (6 if pos in (0, 4) else len(frame))
    assert str(first.value) == str(fed.value)
    for _ in range(3):
        with pytest.raises(ProtocolError) as err:
            reader.read_frame(read)
        assert str(err.value) == str(first.value)  # the same error, not a new one
    assert reached[-1] == fed_at


def test_read_frame_raises_when_the_transport_closes_mid_frame():
    frame = frame_encode(bytes([CMD_SIGN_ON, STATUS_CMD_OK, 8]) + b"AVRISP_2", 4)
    for cut in (0, 1, 5, 6, 7, len(frame) - 1):
        read, reached = chunked_reads(frame[:cut], 7)
        with pytest.raises(ProtocolError, match=r"^transport closed mid-response$"):
            FrameReader().read_frame(read)
        assert reached[-1] == cut


# --- session ----------------------------------------------------------------


def roundtrip(session, body):
    return session.handle(bytes(body))


def test_sign_on_and_unknown_command():
    session = BootSession(image=FlashImage(LAYOUT))
    assert roundtrip(session, [CMD_SIGN_ON])[:2] == bytes([CMD_SIGN_ON, STATUS_CMD_OK])
    assert roundtrip(session, [0x77]) == bytes([0x77, STATUS_CMD_FAILED])
    assert roundtrip(session, []) == bytes([0x00, STATUS_CMD_FAILED])


def test_response_echoes_sequence():
    transport = PipeTransport(BootSession(image=FlashImage(LAYOUT)))
    transport.write(frame_encode(bytes([CMD_SIGN_ON]), 0xAB))
    response = frame_decode(transport.pending)
    assert response.sequence == 0xAB


def test_load_address_bounds():
    session = BootSession(image=FlashImage(LAYOUT))
    ok = roundtrip(session, bytes([CMD_LOAD_ADDRESS]) + (0x1000).to_bytes(4, "big"))
    assert ok == bytes([CMD_LOAD_ADDRESS, STATUS_CMD_OK])
    assert session.load_address == 0x1000
    bad = roundtrip(session, bytes([CMD_LOAD_ADDRESS]) + LAYOUT.flash_size.to_bytes(4, "big"))
    assert bad == bytes([CMD_LOAD_ADDRESS, STATUS_CMD_FAILED])


def test_program_rejects_writes_into_boot_section():
    session = BootSession(image=FlashImage(LAYOUT))
    addr = LAYOUT.boot_start - 2
    roundtrip(session, bytes([CMD_LOAD_ADDRESS]) + addr.to_bytes(4, "big"))
    body = bytes([CMD_PROGRAM_FLASH, 0, 4]) + b"\x01\x02\x03\x04"
    assert roundtrip(session, body)[1] == STATUS_CMD_FAILED


@pytest.mark.parametrize("start, body", [
    # a load address is four bytes after the command
    (0x1000, [CMD_LOAD_ADDRESS, 0, 0, 0x20]),
    (0x1000, [CMD_LOAD_ADDRESS, 0, 0, 0x20, 0, 0]),
    # a page needs its two size bytes, and exactly the data they state
    (0x1000, [CMD_PROGRAM_FLASH]),
    (0x1000, [CMD_PROGRAM_FLASH, 0]),
    (0x1000, [CMD_PROGRAM_FLASH, 0, 4, 1, 2, 3]),
    (0x1000, [CMD_PROGRAM_FLASH, 0, 2, 1, 2, 3]),
    # a read states its size in two bytes and stays inside flash
    (0x1000, [CMD_READ_FLASH, 0]),
    (0x1000, [CMD_READ_FLASH, 0, 4, 0]),
    (LAYOUT.flash_size - 2, [CMD_READ_FLASH, 0, 4]),
])
def test_malformed_requests_fail_and_change_nothing(start, body):
    session = BootSession(image=FlashImage(LAYOUT))
    assert roundtrip(session, bytes([CMD_LOAD_ADDRESS]) + start.to_bytes(4, "big"))[1] == STATUS_CMD_OK
    before = bytes(session.image.data)
    assert roundtrip(session, body) == bytes([body[0], 0xC0]) == bytes([body[0], STATUS_CMD_FAILED])
    assert session.load_address == start
    assert bytes(session.image.data) == before


def test_a_zero_byte_page_is_accepted_and_writes_nothing():
    session = BootSession(image=FlashImage(LAYOUT), trojan_enabled=True)
    assert roundtrip(session, bytes([CMD_LOAD_ADDRESS]) + (0x1000).to_bytes(4, "big"))[1] == STATUS_CMD_OK
    before = bytes(session.image.data)
    assert roundtrip(session, [CMD_PROGRAM_FLASH, 0, 0]) == bytes([CMD_PROGRAM_FLASH, STATUS_CMD_OK])
    assert session.load_address == 0x1000
    assert bytes(session.image.data) == before


def test_read_back_spoofs_patched_page():
    session = fixtures.build_session(trojan=True)
    client = ProgrammerClient(PipeTransport(session))
    client.sign_on()
    client.load_address(0x39E0)
    client.program_flash(sp_init_words())
    assert session.sp_site is not None
    # direct image inspection: patched to 0xF0
    assert session.image.read(0x39E0, 1) == b"\xc0"
    client.load_address(0x39E0)
    spoofed = client.read_flash(8)
    assert spoofed == sp_init_words()  # 0xFF presented to the tool


def test_trojan_disabled_is_pass_through():
    session = fixtures.build_session(trojan=False)
    fw = firmware_with_pattern()
    outcome = program_and_verify(fw, session)
    assert outcome.verified and not outcome.stored_differs
    assert session.image.read(0x39E0, 8) == sp_init_words()


def test_pattern_split_across_pages_patched_exactly_once():
    # straddle the page boundary: pattern begins 4 bytes before a 256-byte edge
    offset = 0x3FC
    fw = firmware_with_pattern(offset=offset)
    session = fixtures.build_session(trojan=True)
    outcome = program_and_verify(fw, session)
    assert outcome.verified
    # oracle: whole-image scan + single patch on a copy of the client's view
    oracle = FlashImage(LAYOUT, bytearray(fw.data))
    apply_stack_steal(oracle, find_sp_init(oracle))
    start, end = 0, LAYOUT.boot_start
    assert session.image.read(offset, 8) == oracle.read(offset, 8)
    assert session.image.read(start, 0x1000) == oracle.read(start, 0x1000)
    assert len(outcome.mismatches) == 1


def test_program_and_verify_spoofing_headline():
    fw = firmware_with_pattern()
    session = fixtures.build_session(trojan=True)
    outcome = program_and_verify(fw, session)
    assert outcome.verified is True
    assert outcome.stored_differs is True
    (addr, seen, stored) = outcome.mismatches[0]
    assert addr == 0x39E0 and seen == 0xCF and stored == 0xC0


def test_stolen_bytes_are_the_interceptor_state():
    # the patch frees exactly the bytes the interceptor's state packs to
    assert len(TrojanState().to_bytes()) == avr.DEFAULT_STEAL_BYTES
    session = fixtures.build_session(trojan=True)
    program_and_verify(fixtures.build_app_image(), session)
    site = find_sp_init(session.image)
    assert site.offset == fixtures.APP_SP_INIT_OFFSET
    assert site.spl_immediate == 0xFF - avr.DEFAULT_STEAL_BYTES


def test_trojan_dormant_without_pattern():
    img = FlashImage(LAYOUT)
    img.write(0x100, bytes(range(64)))
    session = fixtures.build_session(trojan=True)
    outcome = program_and_verify(img, session)
    assert outcome.verified is True
    assert outcome.stored_differs is False
    assert session.sp_site is None


def test_trojan_dormant_on_underflow():
    fw = firmware_with_pattern(spl=0x0A)  # cannot take -15
    session = fixtures.build_session(trojan=True)
    outcome = program_and_verify(fw, session)
    assert outcome.verified and not outcome.stored_differs
    assert session.sp_site is None


def test_the_session_patches_the_image_it_was_built_with():
    session = fixtures.build_session(trojan=True)
    held = session.image
    program_and_verify(fixtures.build_app_image(), session)
    assert held is session.image
    root = min(fixtures.RX_HEAD_ADDR, fixtures.RX_TAIL_ADDR) - LAYOUT.rx_buffer_size
    assert find_ring_buffer(held) == avr.RingBufferInfo(fixtures.RX_HEAD_ADDR, fixtures.RX_TAIL_ADDR, root)


@pytest.mark.parametrize("spl, stored_spl", [(0xFF, 0xFF - avr.DEFAULT_STEAL_BYTES), (0x0A, 0x0A)],
                         ids=["patched", "dormant"])
def test_the_image_a_session_is_built_with_holds_every_uploaded_page(spl, stored_spl):
    firmware = fixtures.build_app_image()
    firmware.write(fixtures.APP_SP_INIT_OFFSET, sp_init_words(spl=spl))
    img = FlashImage(LAYOUT)
    program_and_verify(firmware, BootSession(image=img, trojan_enabled=True))
    expected = FlashImage(LAYOUT, bytearray(firmware.data))
    expected.write(fixtures.APP_SP_INIT_OFFSET, sp_init_words(spl=stored_spl))
    assert img == expected  # dormant: byte-identical to the upload


def test_a_pattern_at_flash_offset_zero_is_patched():
    session = fixtures.build_session(trojan=True)
    outcome = program_and_verify(firmware_with_pattern(offset=0), session)
    assert session.sp_site.offset == 0
    assert outcome.verified and outcome.mismatches == [(0, 0xCF, 0xC0)]


@pytest.mark.parametrize("start, end, patched", [
    (0x10, 0x20, False),  # ends just below the stealable site
    (0x10, 0x21, True),   # brings its first byte
    (0x27, 0x30, True),   # brings its last byte
    (0x28, 0x30, False),  # starts just past it
])
def test_a_write_rescans_only_the_sites_holding_one_of_its_bytes(start, end, patched):
    # a stealable site at 0x20, received but for the byte of it nearest the
    # span: its first (0x20) for a span below it, its last (0x27) above
    block = bytearray(0x40)
    block[0x20:0x28] = sp_init_words()
    missing = 0x20 if start < 0x20 else 0x27
    session = fixtures.build_session(trojan=True)
    client = ProgrammerClient(PipeTransport(session))
    for lo, hi in ((0, missing), (missing + 1, 0x40)):
        client.load_address(lo)
        client.program_flash(bytes(block[lo:hi]))
    assert session.sp_site is None
    # a span next to the site, or holding only its missing byte
    client.load_address(start)
    client.program_flash(bytes(block[start:end]))
    if patched:
        block[0x20:0x28] = sp_init_words(spl=0xFF - avr.DEFAULT_STEAL_BYTES)
    else:
        block[missing] = 0xFF  # still erased
    assert (session.sp_site is not None) == patched
    assert session.image.read(0, 0x40) == block


def test_spoofing_soundness_random_firmware():
    rng = random.Random(4)
    for trojan in (False, True):
        img = FlashImage(LAYOUT)
        blob = bytes(rng.randrange(256) for _ in range(2048))
        img.write(0x2000, blob + sp_init_words())
        session = fixtures.build_session(trojan=trojan)
        outcome = program_and_verify(img, session)
        assert outcome.verified is True  # client never sees the patch


def test_page_size_independence():
    fw = firmware_with_pattern(offset=0x1FE)  # straddles 128 and 256 edges
    stored = {}
    for page_size in (64, 128, 256):
        session = fixtures.build_session(trojan=True, layout=MemoryLayout(page_size=page_size))
        outcome = program_and_verify(fw, session)
        assert outcome.verified
        stored[page_size] = bytes(session.image.data)
    assert stored[64] == stored[128] == stored[256]
    # a dormant site at 0x100 ahead of a stealable one at 0x180, in one page
    # of 256 bytes or in pages of their own: the dormant one, received
    # first, leaves the session dormant at every page size
    fw = firmware_with_pattern(offset=0x100, spl=0x0A)
    fw.write(0x180, sp_init_words())
    for page_size in (64, 128, 256):
        session = fixtures.build_session(trojan=True, layout=MemoryLayout(page_size=page_size))
        outcome = program_and_verify(fw, session)
        assert outcome.verified and not outcome.stored_differs, page_size
        assert session.sp_site is None, page_size
        assert session.image.read(0, 0x200) == fw.read(0, 0x200), page_size


def test_used_span_matches_naive_scan():
    small = MemoryLayout(flash_size=2048, boot_section_size=512)
    rng = random.Random(6)
    cases = [[], [0], [2047], [0, 2047], [5, 6, 700]] + [
        [rng.randrange(2048) for _ in range(rng.randrange(1, 4))] for _ in range(30)
    ]
    for addrs in cases:
        img = FlashImage(small)
        for addr in addrs:
            img.write(addr, bytes([rng.randrange(255)]))  # never 0xFF
        for page_size in (64, 256):
            if not addrs:
                assert used_span(img, page_size) == (0, 0)
                continue
            first, last = min(addrs), max(addrs)
            expected = (first // page_size * page_size, (last // page_size + 1) * page_size)
            assert used_span(img, page_size) == expected


@dataclass
class MisreportingSession(BootSession):
    """Flips chosen bits of chosen addresses in every read-back."""

    flips: dict = field(default_factory=dict)

    def _handle_read_flash(self, body: bytes) -> bytes:
        start = self.load_address
        response = bytearray(super()._handle_read_flash(body))
        for addr, mask in self.flips.items():
            if 0 <= addr - start < len(response) - 3:
                response[2 + addr - start] ^= mask
        return bytes(response)


@pytest.mark.parametrize("page_size", [64, 128, 256])
def test_mismatches_match_naive_comparison(page_size):
    rng = random.Random(page_size)
    fw = FlashImage(LAYOUT)
    fw.write(0x1000, rng.randbytes(0x628))  # content ends 40 bytes into a page
    fw.write(0x1000 + page_size - 4, sp_init_words())  # straddles a page edge
    start, end = used_span(fw, page_size)
    assert (start, end) == (0x1000, 0x1600 + page_size)
    flips = {start: 0x01, end - 1: 0x80, 0x1000 + 2 * page_size - 1: 0xFF}
    flips.update({rng.randrange(start, end): rng.randrange(1, 256) for _ in range(30)})
    layout = MemoryLayout(page_size=page_size)
    session = MisreportingSession(image=FlashImage(layout), trojan_enabled=True, flips=flips)
    outcome = program_and_verify(fw, session)
    assert session.sp_site is not None

    client = ProgrammerClient(PipeTransport(session))
    client.load_address(start)
    readback = b"".join(client.read_flash(min(page_size, end - p)) for p in range(start, end, page_size))
    stored = session.image.read(start, end - start)
    naive = [(start + i, readback[i], stored[i]) for i in range(len(readback)) if readback[i] != stored[i]]
    assert len(naive) > len(flips)  # every flip plus the spoofed patch byte
    assert outcome.mismatches == naive
    assert outcome.stored_differs and not outcome.verified


def test_stored_image_delta_is_exactly_one_word():
    fw = firmware_with_pattern()
    session = fixtures.build_session(trojan=True)
    program_and_verify(fw, session)
    deltas = [
        i
        for i in range(LAYOUT.boot_start)
        if session.image.data[i] != fw.data[i]
    ]
    assert deltas == [0x39E0]  # one byte of one instruction word


def test_spoofing_stops_after_site_is_overwritten():
    # reprogramming the patched page replaces the load word; read-back
    # must then show the stored bytes instead of inventing originals
    fw = firmware_with_pattern()
    session = fixtures.build_session(trojan=True)
    program_and_verify(fw, session)
    client = ProgrammerClient(PipeTransport(session))
    client.sign_on()
    client.load_address(0x39E0)
    replacement = bytes(range(8))
    client.program_flash(replacement)
    client.load_address(0x39E0)
    assert client.read_flash(8) == replacement


def test_reinstall_reads_back_the_stored_bytes():
    # the session patches once; a second install overwrites the patched
    # word, with the clean one or with exactly the word it was patched to,
    # and the read-back must show the stored bytes rather than spoof a
    # patch that is no longer there
    for second_spl in (0x80, 0x80 - 15):
        session = fixtures.build_session(trojan=True)
        first = program_and_verify(fixtures.build_app_image(spl=0x80), session)
        assert first.verified and first.stored_differs
        second = program_and_verify(fixtures.build_app_image(spl=second_spl), session)
        assert (second.verified, second.stored_differs, second.mismatches) == (True, False, []), (
            second_spl)
        assert session.sp_site is None, second_spl


@pytest.mark.parametrize("start, end, spoofed", [
    (0x39D8, 0x39E0, True),   # ends just below the patched word
    (0x39D8, 0x39E1, False),  # ends on its low byte
    (0x39E1, 0x39E8, False),  # starts on its high byte
    (0x39E2, 0x39E8, True),   # starts just past it
])
def test_only_a_write_covering_the_patched_word_ends_the_spoof(start, end, spoofed):
    session = fixtures.build_session(trojan=True)
    program_and_verify(fixtures.build_app_image(), session)
    client = ProgrammerClient(PipeTransport(session))
    client.load_address(start)
    client.program_flash(bytes(end - start))
    stored = bytearray.fromhex("c0ef")  # the patched ldi r28, 0xF0
    for addr in range(max(start, 0x39E0), min(end, 0x39E2)):
        stored[addr - 0x39E0] = 0
    assert session.image.read(0x39E0, 2) == stored
    assert (session.sp_site is not None) == spoofed  # the patch is still in flash
    client.load_address(0x39E0)
    assert client.read_flash(2) == (bytes.fromhex("cfef") if spoofed else stored)


def test_resending_the_sp_page_leaves_the_install_clean():
    # the session patches once: a host that resends the page holding the SP
    # init, as after a lost reply, writes the uploaded word back, and a
    # session that has decided never patches it again; sp_site is cleared
    # with the patch, so it no longer reads as a live install
    firmware = fixtures.build_app_image()
    session = fixtures.build_session(trojan=True)
    assert program_and_verify(firmware, session).stored_differs
    offset = fixtures.APP_SP_INIT_OFFSET
    assert session.image.read(offset, 2) == bytes.fromhex("c0ef")
    page = 0x3900  # the page holding it
    client = ProgrammerClient(PipeTransport(session))
    client.load_address(page)
    client.program_flash(firmware.read(page, LAYOUT.page_size))
    assert session.image.read(offset, 2) == bytes.fromhex("cfef")
    assert find_sp_init(session.image).spl_immediate == 0xFF
    again = program_and_verify(firmware, session)
    assert (again.verified, again.stored_differs) == (True, False)
    assert session.sp_site is None
    assert session.image.read(0, LAYOUT.boot_start) == firmware.read(0, LAYOUT.boot_start)


def test_scan_ignores_preloaded_bytes_the_session_never_received():
    # a preloaded image holds the sp-init sequence at 0x1FC; the upload
    # covers only the page at 0x200, which repeats the sequence's second
    # half, so the match spans four stale bytes and must not be patched
    image = FlashImage(LAYOUT)
    image.write(0x1FC, sp_init_words())
    session = BootSession(image=image, trojan_enabled=True)
    roundtrip(session, bytes([CMD_LOAD_ADDRESS]) + (0x200).to_bytes(4, "big"))
    page = sp_init_words()[4:] + b"\xff" * 252
    assert roundtrip(session, bytes([CMD_PROGRAM_FLASH, 1, 0]) + page)[1] == STATUS_CMD_OK
    assert session.sp_site is None
    assert session.image.read_word(0x1FC) == 0xEFCF


def test_transcript_capture():
    fw = firmware_with_pattern()
    session = fixtures.build_session(trojan=True)
    transcript = []
    program_and_verify(fw, session, transcript=transcript)
    directions = {d for d, _ in transcript}
    assert directions == {">>", "<<"}
    for _, raw in transcript:
        assert raw[0] == 0x1B


# sha256 of the wire transcript of installing marlin_app.hex, one per page
# size, recorded before the client's per-chunk path was reworked; a trojan
# session's wire bytes equal a clean one's
INSTALL_TRANSCRIPT_SHA256 = {
    64: "f323076b08db6796dbd1e3b831762c5ab77ef1c50a1d46aa614a9b5886248cfe",
    128: "7c2161f1fad0e1552ff0ab61d49ce233f98a57aa793984e45e78259a896a7a31",
    256: "afb87f5e26a51108e2580820f50d5fcf91fe8a81bc303740dd362143142b6ee7",
}


@pytest.mark.parametrize("page_size", [64, 128, 256])
@pytest.mark.parametrize("trojan", [True, False])
def test_install_transcript_is_pinned(hex_fixtures, page_size, trojan):
    layout = MemoryLayout(page_size=page_size)
    firmware = load_ihex(hex_fixtures["marlin_app.hex"], layout)
    transcript = []
    outcome = program_and_verify(firmware, fixtures.build_session(trojan=trojan, layout=layout), transcript)
    digest = hashlib.sha256(b"".join(direction.encode() + raw for direction, raw in transcript))
    assert digest.hexdigest() == INSTALL_TRANSCRIPT_SHA256[page_size]
    assert outcome == VerifyOutcome(verified=True, mismatches=[(0x39E0, 0xCF, 0xC0)] if trojan else [])
    assert outcome.stored_differs == trojan


def test_pipe_transport_reads_at_most_seven_bytes():
    transport = PipeTransport(fixtures.build_session(trojan=False))
    transport.write(frame_encode(bytes([CMD_READ_FLASH, 0, 20])))
    response = bytes(transport.pending)
    assert len(response) == 29
    got = b""
    for n in (0, 1, 6, 7, 8, 4096, 3, 4096, 4096, 4096):
        chunk = transport.read(n)
        assert len(chunk) == min(n, 7, len(response) - len(got))
        got += chunk
    assert got == response and transport.read(4096) == b""


@pytest.mark.parametrize(
    "pos, message",
    [(0, BAD_START), (4, BAD_TOKEN), (1, BAD_CHECKSUM), (-1, BAD_CHECKSUM)],
    ids=["0-BadStart", "4-BadToken", "1-ChecksumMismatch", "-1-ChecksumMismatch"],
)
def test_frame_reader_keeps_raising_after_a_bad_frame(pos, message):
    frame = bytearray(frame_encode(bytes(30), 1))
    frame[pos] ^= 0x40
    reader = FrameReader()
    with pytest.raises(ProtocolError, match=message) as first:
        reader.feed(frame)
    for later in (b"\x1b", frame_encode(b"\x01", 2)[:3], frame_encode(b"\x01", 2), b"\x00"):
        with pytest.raises(ProtocolError) as err:
            reader.feed(later)
        assert str(err.value) == str(first.value)  # the same error, not a new one


def test_pipe_transport_queues_two_responses_behind_one_write():
    transport = PipeTransport(fixtures.build_session(trojan=False))
    transport.write(frame_encode(bytes([CMD_READ_FLASH, 0, 20]), 1) + frame_encode(bytes([CMD_SIGN_ON]), 2))
    expected = [
        frame_encode(bytes([CMD_READ_FLASH, STATUS_CMD_OK]) + b"\xff" * 20 + b"\x00", 1),
        frame_encode(bytes([CMD_SIGN_ON, STATUS_CMD_OK, 8]) + b"AVRISP_2", 2),
    ]
    chunks = []
    while chunk := transport.read(4096):
        chunks.append(chunk)
    assert all(0 < len(c) <= 7 for c in chunks)
    assert b"".join(chunks) == b"".join(expected)
    # no chunk ends where the first response does: one chunk straddles the two frames
    ends = {sum(map(len, chunks[: i + 1])) for i in range(len(chunks))}
    assert len(expected[0]) not in ends
    reader = FrameReader()
    frames = [frame for chunk in chunks for frame in reader.feed(chunk)]
    assert frames == [frame_decode(raw) for raw in expected]
    assert [f.sequence for f in frames] == [1, 2]


def test_pipe_transport_write_keeps_the_unread_tail():
    transport = PipeTransport(fixtures.build_session(trojan=False))
    transport.write(frame_encode(bytes([CMD_SIGN_ON]), 1))
    first = frame_encode(bytes([CMD_SIGN_ON, STATUS_CMD_OK, 8]) + b"AVRISP_2", 1)
    got = transport.read(7) + transport.read(7)
    transport.write(frame_encode(bytes([CMD_SIGN_ON]), 2))
    while chunk := transport.read(4096):
        got += chunk
    assert got == first + frame_encode(first[5:-1], 2)


def test_install_pulls_each_response_as_one_frame(hex_fixtures, monkeypatch):
    asked = []
    read = PipeTransport.read

    def counted(self, n):
        asked.append(n)
        return read(self, n)

    monkeypatch.setattr(PipeTransport, "read", counted)
    transcript = []
    firmware = load_ihex(hex_fixtures["marlin_app.hex"], LAYOUT)
    assert program_and_verify(firmware, fixtures.build_session(trojan=False), transcript).verified
    lengths = [len(raw) for direction, raw in transcript if direction == "<<"]
    assert {8, 17, 265} <= set(lengths)
    assert len(asked) == sum(-(-(n - 6) // 7) + 1 for n in lengths)
    # the header first, then exactly what the frame still lacks
    assert asked == [n for length in lengths for n in [6, *range(length - 6, 0, -7)]]


class TwiceAnsweringTransport(PipeTransport):
    """Hands the session every request twice, so two responses queue."""

    def write(self, data: bytes):
        super().write(data + data)


def test_a_second_response_to_one_request_fails_the_next_roundtrip():
    client = ProgrammerClient(TwiceAnsweringTransport(BootSession(image=FlashImage(LAYOUT))))
    assert client.sign_on() == b"AVRISP_2"
    with pytest.raises(ProtocolError, match=r"^response sequence mismatch$"):
        client.sign_on()


# --- protocol errors ----------------------------------------------------------


def test_firmware_reaching_into_the_boot_section_is_refused_before_upload():
    firmware = FlashImage(LAYOUT)
    firmware.write(LAYOUT.boot_start, b"\x00")
    session = BootSession(image=FlashImage(LAYOUT))
    transcript = []
    with pytest.raises(ProtocolError, match=r"^firmware does not fit in the application region$"):
        program_and_verify(firmware, session, transcript=transcript)
    assert transcript == [] and session.image == FlashImage(LAYOUT)


@pytest.mark.parametrize("trojan", [True, False])
def test_a_page_size_that_does_not_divide_boot_start_installs_to_its_last_byte(trojan):
    layout = MemoryLayout(page_size=384)
    assert layout.boot_start % 384 == 128
    firmware = fixtures.build_app_image(layout)
    firmware.write(layout.boot_start - 1, b"\xa5")
    session = fixtures.build_session(trojan=trojan, layout=layout)
    transcript = []
    outcome = program_and_verify(firmware, session, transcript=transcript)
    assert outcome.verified and outcome.stored_differs == trojan
    assert session.image.read(layout.boot_start - 1, 1) == b"\xa5"
    bodies = [frame_decode(raw).body for direction, raw in transcript if direction == ">>"]
    pages = [body for body in bodies if body[0] == CMD_PROGRAM_FLASH]
    reads = [body for body in bodies if body[0] == CMD_READ_FLASH]
    # the last page stops at boot_start: 128 bytes, not 384
    assert [len(body) - 3 for body in pages[-2:]] == [384, 128]
    assert reads[-1] == bytes([CMD_READ_FLASH, 0, 128])
    firmware.write(layout.boot_start, b"\x00")
    session = fixtures.build_session(trojan=trojan, layout=layout)
    before = bytes(session.image.data)
    transcript = []
    with pytest.raises(ProtocolError, match=r"^firmware does not fit in the application region$"):
        program_and_verify(firmware, session, transcript=transcript)
    assert transcript == [] and session.image.data == before


def test_the_largest_page_a_frame_carries_installs():
    # PROGRAM_FLASH is 13 n_hi n_lo data: 0xFFFC data bytes fill a 0xFFFF body
    layout = MemoryLayout(page_size=0xFFFC)
    transcript = []
    outcome = program_and_verify(fixtures.build_app_image(layout),
                                 fixtures.build_session(trojan=True, layout=layout),
                                 transcript=transcript)
    assert outcome.verified and outcome.stored_differs
    assert max(len(frame) for _, frame in transcript) == 6 + 0xFFFF


def test_a_page_past_the_frame_limit_is_refused_before_upload():
    layout = MemoryLayout(page_size=0xFFFD)
    session = fixtures.build_session(trojan=True, layout=layout)
    before = bytes(session.image.data)
    transcript = []
    with pytest.raises(ProtocolError, match=r"^page_size 65533 exceeds the 65532 bytes a frame carries$"):
        program_and_verify(fixtures.build_app_image(layout), session, transcript=transcript)
    assert transcript == [] and session.image.data == before


def test_a_refused_command_raises_with_its_response():
    client = ProgrammerClient(PipeTransport(BootSession(image=FlashImage(LAYOUT))))
    client.load_address(LAYOUT.flash_size - 2)
    with pytest.raises(ProtocolError, match=r"^command 0x06 failed: 06c0$"):
        client.load_address(LAYOUT.flash_size)


class ShiftedTransport:
    """Answers every request as the session would, under the request's
    sequence number plus shift; with shift None it never answers."""

    def __init__(self, shift):
        self.session = BootSession(image=FlashImage(LAYOUT))
        self.shift = shift
        self.pending = b""

    def write(self, data: bytes):
        request = frame_decode(data)
        if self.shift is not None:
            response = self.session.handle(request.body)
            self.pending += frame_encode(response, request.sequence + self.shift)

    def read(self, n: int) -> bytes:
        out, self.pending = self.pending[:n], self.pending[n:]
        return out


@pytest.mark.parametrize("shift, message", [
    (1, "response sequence mismatch"),
    (None, "transport closed mid-response"),
])
def test_a_response_out_of_sequence_or_missing_raises(shift, message):
    assert ProgrammerClient(ShiftedTransport(0)).sign_on() == b"AVRISP_2"
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        ProgrammerClient(ShiftedTransport(shift)).sign_on()
