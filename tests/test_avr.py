import random

import pytest

from flawsim import fixtures
from flawsim.avr import (
    CLI_WORD,
    RETI_WORD,
    AddressImplausible,
    DecodedInsn,
    DormantAbort,
    Kind,
    OddOffset,
    OffsetOutOfRange,
    PatternNotFound,
    UnderflowWouldBorrow,
    apply_stack_steal,
    audit_bootloader,
    decode,
    enc_call,
    enc_jmp,
    enc_ldi,
    enc_lds,
    enc_out,
    enc_rjmp,
    find_ring_buffer,
    find_sp_init,
    words_to_bytes,
)
from flawsim.memory import AddressOutOfRange, FlashImage, MemoryLayout

LAYOUT = MemoryLayout()


def image_with(offset: int, payload: bytes, layout: MemoryLayout = LAYOUT) -> FlashImage:
    img = FlashImage(layout)
    img.write(offset, payload)
    return img


# --- decode -------------------------------------------------------------


def test_decode_ldi_r28_ff():
    img = image_with(0x100, bytes.fromhex("cfef"))
    insn = decode(img, 0x100)
    assert (insn.kind, insn.reg, insn.value, insn.length) == (Kind.LDI, 28, 0xFF, 2)


def test_decode_lds_r18():
    img = image_with(0x100, bytes.fromhex("20912403"))
    insn = decode(img, 0x100)
    assert (insn.kind, insn.reg, insn.mem_addr, insn.length) == (Kind.LDS, 18, 0x0324, 4)


def test_decode_cli():
    img = image_with(0x100, bytes.fromhex("f894"))
    assert decode(img, 0x100).kind is Kind.CLI


def test_decode_jmp_target_is_word_address_times_two():
    img = image_with(0x50, bytes.fromhex("0c94b783"))
    insn = decode(img, 0x50)
    assert insn.kind is Kind.JMP
    assert insn.target == 0x1076E


def test_decode_out_sph():
    img = image_with(0x100, bytes.fromhex("debf"))
    insn = decode(img, 0x100)
    assert (insn.kind, insn.io_addr, insn.reg) == (Kind.OUT, 0x3E, 29)


def test_decode_rjmp_negative_displacement():
    img = image_with(0x100, words_to_bytes(enc_rjmp(-3)))
    insn = decode(img, 0x100)
    assert insn.kind is Kind.RJMP
    assert insn.target == 0x100 + 2 - 6


def test_decode_errors():
    img = FlashImage(LAYOUT)
    with pytest.raises(OddOffset):
        decode(img, 0x101)
    with pytest.raises(OffsetOutOfRange):
        decode(img, LAYOUT.flash_size)
    img.write(LAYOUT.flash_size - 2, words_to_bytes(0x940C))  # 32-bit shape at the edge
    with pytest.raises(OffsetOutOfRange):
        decode(img, LAYOUT.flash_size - 2)


def test_decode_lengths_and_fields_match_encoder_inputs():
    rng = random.Random(7)
    words = []
    expected = []  # each instruction as decode must report it
    for _ in range(200):
        offset = 2 * len(words)
        choice = rng.randrange(7)
        if choice == 0:
            reg, value = rng.randrange(16, 32), rng.randrange(256)
            words.append(enc_ldi(reg, value))
            expected.append(DecodedInsn(Kind.LDI, offset, 2, reg=reg, value=value))
        elif choice == 1:
            io_addr, reg = rng.randrange(0x40), rng.randrange(32)
            words.append(enc_out(io_addr, reg))
            expected.append(DecodedInsn(Kind.OUT, offset, 2, reg=reg, io_addr=io_addr))
        elif choice == 2:
            reg, mem_addr = rng.randrange(32), rng.randrange(0x10000)
            words.extend(enc_lds(reg, mem_addr))
            expected.append(DecodedInsn(Kind.LDS, offset, 4, reg=reg, mem_addr=mem_addr))
        elif choice in (3, 4):
            target = rng.randrange(0, LAYOUT.flash_size, 2)
            kind, enc = (Kind.JMP, enc_jmp) if choice == 3 else (Kind.CALL, enc_call)
            words.extend(enc(target))
            expected.append(DecodedInsn(kind, offset, 4, target=target))
        elif choice == 5:
            words.append(CLI_WORD)
            expected.append(DecodedInsn(Kind.CLI, offset, 2))
        else:
            words.append(RETI_WORD)
            expected.append(DecodedInsn(Kind.RETI, offset, 2))
    img = image_with(0, words_to_bytes(*words))
    offset = 0
    for want in expected:
        insn = decode(img, offset)
        assert insn == want
        offset += insn.length


# --- stack-pointer init pattern -----------------------------------------


def listing_image(offset: int = 0x39E0, spl: int = 0xFF, sph: int = 0x21) -> FlashImage:
    return image_with(
        offset,
        words_to_bytes(
            enc_ldi(28, spl), enc_ldi(29, sph), enc_out(0x3E, 29), enc_out(0x3D, 28)
        ),
    )


def test_find_sp_init_listing_site():
    site = find_sp_init(listing_image())
    assert (site.offset, site.spl_immediate, site.sph_immediate) == (0x39E0, 0xFF, 0x21)


def test_find_sp_init_all_erased_raises():
    with pytest.raises(PatternNotFound):
        find_sp_init(FlashImage(LAYOUT))


def brute_force_sites(img: FlashImage) -> list[int]:
    pattern_sites = []
    data = img.data
    for off in range(0, len(data) - 8, 2):
        w = [data[off + i] | (data[off + i + 1] << 8) for i in (0, 2, 4, 6)]
        if (
            (w[0] & 0xF0F0) == 0xE0C0
            and (w[1] & 0xF0F0) == 0xE0D0
            and w[2] == enc_out(0x3E, 29)
            and w[3] == enc_out(0x3D, 28)
        ):
            pattern_sites.append(off)
    return pattern_sites


def test_find_sp_init_lowest_offset_wins():
    img = listing_image(0x4000)
    img.write(
        0x2000,
        words_to_bytes(enc_ldi(28, 0x55), enc_ldi(29, 0x10), enc_out(0x3E, 29), enc_out(0x3D, 28)),
    )
    site = find_sp_init(img)
    assert site.offset == min(brute_force_sites(img)) == 0x2000
    assert site.spl_immediate == 0x55


SMALL = MemoryLayout(flash_size=4096, boot_section_size=512, page_size=64)


def sp_init_bytes(spl: int = 0, sph: int = 0) -> bytes:
    return words_to_bytes(enc_ldi(28, spl), enc_ldi(29, sph), enc_out(0x3E, 29), enc_out(0x3D, 28))


def naive_find_sp_init(img: FlashImage, start: int, end: int):
    """First (offset, spl, sph) in [start, end), one even offset at a time."""
    data = img.data
    for off in range(start + start % 2, end - 7, 2):
        w = [data[off + i] | (data[off + i + 1] << 8) for i in (0, 2, 4, 6)]
        if (
            (w[0] & 0xF0F0) == 0xE0C0
            and (w[1] & 0xF0F0) == 0xE0D0
            and w[2] == enc_out(0x3E, 29)
            and w[3] == enc_out(0x3D, 28)
        ):
            spl = ((w[0] >> 4) & 0xF0) | (w[0] & 0x0F)
            sph = ((w[1] >> 4) & 0xF0) | (w[1] & 0x0F)
            return off, spl, sph
    return None


def random_sp_image(rng: random.Random) -> tuple[FlashImage, list[int]]:
    """Random bytes with sp-init sequences planted at even offsets, the
    same bytes at odd offsets (decoys), and near misses."""
    img = FlashImage(SMALL, bytearray(rng.randbytes(SMALL.flash_size)))
    planted = []
    for _ in range(rng.randrange(0, 4)):
        off = rng.randrange(0, SMALL.flash_size - 8, 2)
        img.write(off, sp_init_bytes(rng.randrange(256), rng.randrange(256)))
        planted.append(off)
    for _ in range(rng.randrange(0, 6)):
        off = rng.randrange(1, SMALL.flash_size - 8, 2)
        img.write(off, sp_init_bytes(rng.randrange(256), rng.randrange(256)))
    for _ in range(rng.randrange(0, 6)):  # one byte off the shape
        near = bytearray(sp_init_bytes())
        near[rng.randrange(8)] ^= 1 << rng.randrange(4, 8)
        img.write(rng.randrange(0, SMALL.flash_size - 8, 2), bytes(near))
    return img, planted


def test_find_sp_init_matches_naive_scan_on_random_images():
    rng = random.Random(21)
    size = SMALL.flash_size
    checked = found = 0
    for _ in range(150):
        img, planted = random_sp_image(rng)
        windows = [(0, size), (1, size), (0, None)]
        for off in planted:  # edges that cut a planted sequence
            windows += [(off + rng.randrange(1, 8), size), (0, off + rng.randrange(1, 8)), (off, off + 8)]
        windows += [tuple(sorted(rng.randrange(size + 1) for _ in range(2))) for _ in range(4)]
        for start, end in windows:
            expected = naive_find_sp_init(img, start, size if end is None else end)
            try:
                site = find_sp_init(img, start, end)
            except PatternNotFound:
                assert expected is None, (start, end)
            else:
                assert (site.offset, site.spl_immediate, site.sph_immediate) == expected, (start, end)
                found += 1
            checked += 1
    assert found > checked // 4


def test_find_sp_init_ignores_odd_offset_sequences():
    img = FlashImage(SMALL)
    img.write(0x101, sp_init_bytes())
    with pytest.raises(PatternNotFound):
        find_sp_init(img)
    img.write(0x200, sp_init_bytes())
    assert find_sp_init(img).offset == 0x200
    assert find_sp_init(img, 0x101).offset == 0x200  # an odd start rounds up


@pytest.mark.parametrize("start, end", [(-2, 64), (-7, 4096), (0, 4096 + 8), (4000, 5000), (4098, 4200)])
def test_find_sp_init_out_of_range_window_raises(start, end):
    img = FlashImage(SMALL)
    with pytest.raises(AddressOutOfRange):
        find_sp_init(img, start, end)


def test_find_sp_init_site_before_flash_end_wins_over_range_error():
    img = FlashImage(SMALL)
    img.write(0x100, sp_init_bytes())
    assert find_sp_init(img, 0, SMALL.flash_size + 64).offset == 0x100


def test_apply_stack_steal_patches_single_word():
    img = listing_image()
    site = find_sp_init(img)
    patched = apply_stack_steal(img, site, 15)
    insn = decode(patched, site.offset)
    assert (insn.kind, insn.reg, insn.value) == (Kind.LDI, 28, 0xF0)
    # Hamming distance confined to the LDI immediate nibbles
    deltas = [
        (i, a ^ b) for i, (a, b) in enumerate(zip(img.data, patched.data)) if a != b
    ]
    assert all(site.offset <= i < site.offset + 2 for i, _ in deltas)
    assert sum(bin(x).count("1") for _, x in deltas) <= 8


def test_apply_stack_steal_zero_is_identity():
    img = listing_image()
    site = find_sp_init(img)
    assert apply_stack_steal(img, site, 0) == img


def test_apply_stack_steal_lowers_spl_by_n():
    # the listing rebuilt with SPL - n: only the ldi r28 word differs
    img = listing_image()
    site = find_sp_init(img)
    for n in (1, 7, 15, 0xFF):
        assert apply_stack_steal(img, site, n) == listing_image(spl=0xFF - n)
    assert img == listing_image()  # the input image is left as it was


def test_apply_stack_steal_underflow_refused():
    img = listing_image(spl=0x0A)
    site = find_sp_init(img)
    with pytest.raises(UnderflowWouldBorrow):
        apply_stack_steal(img, site, 15)


# --- ring-buffer discovery ------------------------------------------------


def test_find_ring_buffer_listing_shape():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(*enc_jmp(0x1076E)))
    body = [0x2411, 0x2411, *enc_lds(18, 0x0324), *enc_lds(30, 0x0323)]
    img.write(0x1076E, words_to_bytes(*body))
    info = find_ring_buffer(img)
    assert {info.head_addr, info.tail_addr} == {0x0324, 0x0323}
    assert info.root_addr == 0x02A3  # min(0x323, 0x324) - 128


def test_find_ring_buffer_follows_jumps_and_steps_over_calls():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(*enc_jmp(0x1000)))
    img.write(
        0x1000,
        words_to_bytes(0x2411, *enc_call(0x4000), *enc_jmp(0x2000)),
    )
    img.write(0x2000, words_to_bytes(enc_rjmp(1), 0x2411, *enc_lds(1, 0x300), *enc_lds(2, 0x301)))
    # rjmp +1 word skips the 0x2411 filler
    info = find_ring_buffer(img)
    assert (info.head_addr, info.tail_addr) == (0x300, 0x301)
    assert info.root_addr == 0x300 - 128


def test_find_ring_buffer_budget_aborts():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(*enc_jmp(0x1000)))
    img.write(0x1000, words_to_bytes(*([0x2411] * 256), *enc_lds(1, 0x300), *enc_lds(2, 0x301)))
    with pytest.raises(DormantAbort):
        find_ring_buffer(img)


def test_find_ring_buffer_pair_at_entry():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(*enc_jmp(0x1000)))
    img.write(0x1000, words_to_bytes(*enc_lds(18, 0x400), *enc_lds(30, 0x3FF)))
    info = find_ring_buffer(img)
    assert info.root_addr == 0x3FF - 128


def test_find_ring_buffer_non_jmp_vector_aborts():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(0x2411, 0x2411))
    with pytest.raises(DormantAbort):
        find_ring_buffer(img)


def test_find_ring_buffer_implausible_addresses():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(*enc_jmp(0x1000)))
    img.write(0x1000, words_to_bytes(*enc_lds(18, 0x4000), *enc_lds(30, 0x4001)))
    with pytest.raises(AddressImplausible):
        find_ring_buffer(img)


def test_find_ring_buffer_never_leaves_flash_on_adversarial_image():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(*enc_jmp(LAYOUT.flash_size - 4)))
    img.write(LAYOUT.flash_size - 4, words_to_bytes(0x2411, 0x2411))
    with pytest.raises(DormantAbort):
        find_ring_buffer(img)  # falls off the end of flash, must abort cleanly


def test_lds_pair_split_by_jump_is_not_consecutive():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(*enc_jmp(0x1000)))
    img.write(0x1000, words_to_bytes(*enc_lds(18, 0x324), *enc_jmp(0x2000)))
    img.write(0x2000, words_to_bytes(*enc_lds(30, 0x323), *enc_lds(31, 0x322)))
    info = find_ring_buffer(img)
    # pair is the two at 0x2000, not lds@0x1000 + lds@0x2000
    assert (info.head_addr, info.tail_addr) == (0x323, 0x322)


# --- bootloader audit -------------------------------------------------------


def test_audit_flags_trojan_bootloader():
    findings = audit_bootloader(fixtures.build_trojan_bootloader())
    kinds = {f.kind for f in findings}
    assert kinds == {"IvselTakeover", "IsrTrampoline"}
    for f in findings:
        assert LAYOUT.boot_start <= f.offset < LAYOUT.flash_size


def test_audit_clean_bootloader_is_empty():
    assert audit_bootloader(fixtures.build_clean_bootloader()) == []


def test_audit_ignores_call_into_boot_region_before_cli():
    img = FlashImage(LAYOUT)
    boot = LAYOUT.boot_start
    img.write(boot, words_to_bytes(*enc_call(boot + 0x100), CLI_WORD))
    assert audit_bootloader(img) == []


def test_audit_flags_call_into_app_region_before_cli():
    img = FlashImage(LAYOUT)
    boot = LAYOUT.boot_start
    img.write(boot, words_to_bytes(*enc_call(0x50), CLI_WORD))
    findings = audit_bootloader(img)
    assert [f.kind for f in findings] == ["IsrTrampoline"]
    assert findings[0].offset == boot


def test_audit_window_limit_on_mcucr_writes():
    img = FlashImage(LAYOUT)
    boot = LAYOUT.boot_start
    filler = [0x2411] * 17  # more than the 16-instruction window
    img.write(
        boot,
        words_to_bytes(
            enc_ldi(24, 0x01),
            enc_out(0x35, 24),
            *filler,
            enc_ldi(25, 0x02),
            enc_out(0x35, 25),
        ),
    )
    assert audit_bootloader(img) == []


def test_audit_requires_ivce_then_ivsel_bits():
    img = FlashImage(LAYOUT)
    boot = LAYOUT.boot_start
    img.write(
        boot,
        words_to_bytes(
            enc_ldi(24, 0x02),  # wrong order: select bit first
            enc_out(0x35, 24),
            enc_ldi(24, 0x01),
            enc_out(0x35, 24),
        ),
    )
    assert audit_bootloader(img) == []
