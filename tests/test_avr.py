import dataclasses
import random
import tracemalloc

import pytest

from flawsim import fixtures
from flawsim.avr import (
    CLI_WORD,
    DEFAULT_STEAL_BYTES,
    IVCE_BIT,
    IVSEL_BIT,
    MCUCR_IO_ADDR,
    RETI_WORD,
    DecodedInsn,
    DormantAbort,
    Finding,
    Kind,
    PatternNotFound,
    SpInitSite,
    apply_stack_steal,
    audit_bootloader,
    decode,
    enc_call,
    enc_jmp,
    enc_ldi,
    enc_lds,
    enc_out,
    enc_rjmp,
    enc_sts,
    find_ring_buffer,
    find_sp_init,
    words_to_bytes,
)
from flawsim.errors import FlawsimError
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
    with pytest.raises(AddressOutOfRange, match=r"^instruction offset 0x101 is odd$"):
        decode(img, 0x101)
    with pytest.raises(AddressOutOfRange):
        decode(img, LAYOUT.flash_size)
    img.write(LAYOUT.flash_size - 2, words_to_bytes(0x940C))  # 32-bit shape at the edge
    with pytest.raises(AddressOutOfRange):
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


@pytest.mark.parametrize(
    "start, end",
    [(-1, 64), (-2, 64), (-7, 4096), (0, 4096 + 8), (4000, 5000), (4098, 4200),
     # windows shorter than one sequence
     (-1, 7), (-7, 0), (4096 - 3, 4096 + 4)],
)
def test_find_sp_init_out_of_range_window_raises(start, end):
    img = FlashImage(SMALL)
    with pytest.raises(AddressOutOfRange) as exc:
        find_sp_init(img, start, end)
    if start < 0:
        assert f"starts at {start:#x}," in str(exc.value)


def test_find_sp_init_short_window_inside_flash_finds_nothing():
    img = FlashImage(SMALL)
    img.write(0, sp_init_bytes())
    for start, end in ((0, 7), (4096 - 7, 4096), (8, 0)):
        with pytest.raises(PatternNotFound):
            find_sp_init(img, start, end)


def test_find_sp_init_finds_a_site_at_offset_zero_in_its_default_window():
    assert find_sp_init(image_with(0, sp_init_bytes())).offset == 0


def test_find_sp_init_site_before_flash_end_wins_over_range_error():
    img = FlashImage(SMALL)
    img.write(0x100, sp_init_bytes())
    assert find_sp_init(img, 0, SMALL.flash_size + 64).offset == 0x100


def test_apply_stack_steal_patches_single_word():
    img = listing_image()
    site = find_sp_init(img)
    assert apply_stack_steal(img, site) is None  # the patch is written into img
    insn = decode(img, site.offset)
    assert (insn.kind, insn.reg, insn.value) == (Kind.LDI, 28, 0xF0)
    # Hamming distance confined to the LDI immediate nibbles
    deltas = [
        (i, a ^ b) for i, (a, b) in enumerate(zip(listing_image().data, img.data)) if a != b
    ]
    assert all(site.offset <= i < site.offset + 2 for i, _ in deltas)
    assert sum(bin(x).count("1") for _, x in deltas) <= 8


def test_apply_stack_steal_lowers_spl_by_n():
    # the listing rebuilt with SPL - n: only the ldi r28 word differs
    n = DEFAULT_STEAL_BYTES
    for spl in (n, n + 1, 0x55, 0xF0, 0xFF):
        img = listing_image(spl=spl)
        data = img.data
        assert apply_stack_steal(img, find_sp_init(img)) is None
        assert img == listing_image(spl=spl - n)
        assert img.data is data  # patched where it lies, not swapped for a copy


def test_apply_stack_steal_underflow_refused():
    img = listing_image(spl=0x0A)
    site = find_sp_init(img)
    with pytest.raises(DormantAbort):
        apply_stack_steal(img, site)
    assert img == listing_image(spl=0x0A)  # byte-identical: nothing written


def test_apply_stack_steal_on_a_stale_site_leaves_the_image_as_it_was():
    img = listing_image()
    stale = dataclasses.replace(find_sp_init(img), offset=0x39E2)  # the ldi r29 word
    with pytest.raises(PatternNotFound):
        apply_stack_steal(img, stale)
    assert img == listing_image()


def test_apply_stack_steal_at_an_odd_offset_writes_nothing():
    # cf ef at 0x101 read as ldi r28, 0xFF, but straddle two instruction words
    img = image_with(0x100, bytes([0x00, 0xCF, 0xEF, 0x00]))
    with pytest.raises(AddressOutOfRange):
        apply_stack_steal(img, SpInitSite(0x101, 0xFF, 0x00))
    assert img == image_with(0x100, bytes([0x00, 0xCF, 0xEF, 0x00]))


# --- ring-buffer discovery ------------------------------------------------


def test_find_ring_buffer_listing_shape():
    img = FlashImage(LAYOUT)
    img.write(0x50, words_to_bytes(*enc_jmp(0x1076E)))
    body = [0x2411, 0x2411, *enc_lds(18, 0x0324), *enc_lds(30, 0x0323)]
    img.write(0x1076E, words_to_bytes(*body))
    info = find_ring_buffer(img)
    assert {info.head_addr, info.tail_addr} == {0x0324, 0x0323}
    assert info.root_addr == 0x02A3  # min(0x323, 0x324) - 128


@pytest.mark.parametrize("ring, root", [(128, 0x02A3), (32, 0x0303)],
                         ids=["128-byte ring", "32-byte ring"])
def test_find_ring_buffer_root_sits_one_ring_below_head_and_tail(ring, root):
    img = fixtures.build_app_image(MemoryLayout(rx_buffer_size=ring))
    info = find_ring_buffer(img)
    assert info.root_addr == root == min(fixtures.RX_HEAD_ADDR, fixtures.RX_TAIL_ADDR) - ring


def test_find_ring_buffer_root_below_data_memory_aborts():
    # head and tail are in data memory, but a 1 KiB ring would start below it
    img = fixtures.build_app_image(MemoryLayout(rx_buffer_size=1024))
    with pytest.raises(DormantAbort, match=r"root -0x0dd"):
        find_ring_buffer(img)


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
    with pytest.raises(DormantAbort, match=r"not all inside 0x2200 bytes of data memory$"):
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


def full_sweep_audit(image: FlashImage) -> list[Finding]:
    """The audit over every word of the boot section, erased or not: the
    naive oracle for audit_bootloader's sweep, which starts no instruction
    past the last programmed byte."""
    layout = image.layout
    insns = []
    offset = layout.boot_start
    while offset <= layout.flash_size - 2:
        insn = decode(image, offset)
        insns.append(insn)
        offset += insn.length
    findings = []
    reg_imm = {}
    writes = []
    for idx, insn in enumerate(insns):
        if insn.kind is Kind.LDI:
            reg_imm[insn.reg] = insn.value
        elif insn.kind is Kind.OUT and insn.io_addr == MCUCR_IO_ADDR and insn.reg in reg_imm:
            writes.append((idx, insn.byte_offset, reg_imm[insn.reg]))
        elif (
            insn.kind is Kind.CLI
            and idx > 0
            and insns[idx - 1].kind is Kind.CALL
            and layout.in_app_region(insns[idx - 1].target)
        ):
            call = insns[idx - 1]
            snippet = f"call 0x{call.target:x} ; cli"
            findings.append(Finding("IsrTrampoline", call.byte_offset, insn.byte_offset, snippet))
    for (i1, off1, val1), (i2, off2, val2) in zip(writes, writes[1:]):
        if i2 - i1 <= 16 and val1 & IVCE_BIT and val2 & IVSEL_BIT:
            snippet = f"out 0x35, #0x{val1:02X} ; out 0x35, #0x{val2:02X}"
            findings.append(Finding("IvselTakeover", off1, off2, snippet))
    findings.sort(key=lambda f: f.offset)
    return findings


def audit_outcome(audit, image):
    """The findings, or the type of the error the audit raised."""
    try:
        return audit(image)
    except FlawsimError as exc:
        return type(exc)


def random_insn(rng, layout) -> list[int]:
    reg = rng.choice((24, 25, rng.randrange(16, 32)))
    target = rng.randrange(0, rng.choice((layout.flash_size, layout.boot_start + 1)), 2)
    return rng.choice((
        lambda: [enc_ldi(reg, rng.choice((0x01, 0x02, 0x03, 0x00, rng.randrange(256))))],
        lambda: [enc_out(MCUCR_IO_ADDR, reg)],
        lambda: [enc_out(rng.randrange(64), reg)],
        lambda: list(enc_call(target)),
        lambda: list(enc_jmp(target)),
        lambda: list(enc_lds(reg, rng.randrange(0x10000))),
        lambda: list(enc_sts(rng.randrange(0x10000), reg)),
        lambda: [CLI_WORD],
        lambda: [RETI_WORD],
        lambda: [0x2411],
        lambda: [0xFFFF],  # an erased word inside the code
        lambda: [0xFF00 | rng.randrange(255)],  # a programmed low byte, erased high byte
        lambda: [rng.randrange(0x10000)],
    ))()


def random_block(rng, layout) -> list[int]:
    gap = [0xFFFF] * rng.choice((0, 0, 1, 2, rng.randrange(20)))
    shape = rng.randrange(4)
    if shape == 0:  # an MCUCR pair across an erased gap
        first, second = rng.choice(((0x01, 0x02), (0x03, 0x03), (0x02, 0x01), (0x01, 0x00)))
        return [
            enc_ldi(24, first), enc_out(MCUCR_IO_ADDR, 24), *gap, enc_ldi(25, second), enc_out(MCUCR_IO_ADDR, 25)
        ]
    if shape == 1:  # a CALL/CLI pair across an erased gap
        target = rng.choice((0x50, layout.boot_start + 0x10, rng.randrange(0, layout.flash_size, 2)))
        return [*enc_call(target), *gap, CLI_WORD]
    return [word for _ in range(rng.randrange(1, 12)) for word in random_insn(rng, layout)]


def random_boot_region(rng, layout) -> bytes:
    n = layout.boot_section_size // 2
    words = [0xFFFF] * n
    for _ in range(rng.choice((0, 1, 2, 3))):  # none: an erased section, unless the tail adds one
        block = random_block(rng, layout)[:n]
        at = rng.choice((0, n - len(block), rng.randrange(n - len(block) + 1)))  # start, last words, middle
        words[at : at + len(block)] = block
    tail = rng.randrange(6) if n >= 2 else None
    if tail == 0:  # a CALL as the last programmed word, its second word erased
        words[-2:] = [enc_call(0x50)[0], 0xFFFF]
    elif tail == 1:  # a 32-bit instruction at flash_size - 2
        words[-1] = rng.choice((enc_call(0x50)[0], enc_jmp(0)[0], enc_lds(24, 0)[0], enc_sts(0, 24)[0]))
    elif tail == 2:  # a programmed last byte
        words[-1] = rng.randrange(0xFF00)
    odd_byte = rng.choice((b"\xff", bytes([rng.randrange(256)])))
    return words_to_bytes(*words) + odd_byte * (layout.boot_section_size % 2)


def test_audit_matches_full_sweep_on_random_boot_regions():
    rng = random.Random(0xB007)
    layouts = [
        MemoryLayout(flash_size=2048, boot_section_size=256),
        MemoryLayout(flash_size=1024, boot_section_size=64),
        MemoryLayout(flash_size=1024, boot_section_size=63),  # an odd section start
        MemoryLayout(flash_size=1024, boot_section_size=1),
    ]
    seen = {"IvselTakeover": 0, "IsrTrampoline": 0, "error": 0, "clean": 0}
    for trial in range(2400):
        layout = layouts[trial % 4] if trial % 50 else LAYOUT
        image = FlashImage(layout)
        image.write(layout.boot_start, random_boot_region(rng, layout))
        expected = audit_outcome(full_sweep_audit, image)
        assert audit_outcome(audit_bootloader, image) == expected, image.data[layout.boot_start :].hex()
        if isinstance(expected, type):
            seen["error"] += 1
        else:
            seen["clean"] += not expected
            for kind in {f.kind for f in expected}:
                seen[kind] += 1
    assert min(seen.values()) >= 50, seen
    for image in (fixtures.build_trojan_bootloader(), fixtures.build_clean_bootloader()):
        assert audit_outcome(audit_bootloader, image) == audit_outcome(full_sweep_audit, image)


def test_audit_sweep_reads_past_the_last_programmed_byte_to_the_end_of_flash():
    end = LAYOUT.flash_size
    pair = words_to_bytes(*enc_call(0x50), CLI_WORD)
    # a CALL as the last programmed word reads its erased second word
    img = image_with(LAYOUT.boot_start, pair)
    img.write(end - 8, words_to_bytes(enc_call(0x50)[0]))
    assert [f.offset for f in audit_bootloader(img)] == [LAYOUT.boot_start]
    # a pair in the last 6 bytes of flash is found
    (finding,) = audit_bootloader(image_with(end - 6, pair))
    assert (finding.kind, finding.offset, finding.related_offset) == ("IsrTrampoline", end - 6, end - 2)
    # a 32-bit instruction in the last word still runs past flash
    with pytest.raises(AddressOutOfRange):
        audit_bootloader(image_with(end - 2, words_to_bytes(enc_call(0x50)[0])))


def test_audit_is_one_pass_that_keeps_no_list_of_the_section():
    image = fixtures.build_trojan_bootloader()
    start = LAYOUT.boot_start + 0x100
    image.write(start, words_to_bytes(*[0x2411] * ((LAYOUT.flash_size - start) // 2)))  # ~3,970 instructions
    tracemalloc.start()
    try:
        findings = audit_bootloader(image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(f.kind for f in findings) == ["IsrTrampoline", "IvselTakeover"]
    assert peak < 64 * 1024, peak


def test_find_ring_buffer_on_a_flash_without_the_rx_vector_aborts():
    # 64 bytes of flash end before slot 20's four bytes at 0x50
    img = FlashImage(MemoryLayout(flash_size=64, boot_section_size=32))
    with pytest.raises(DormantAbort, match=r"^vector slot 20 unreadable: offset 0x50 outside flash$"):
        find_ring_buffer(img)
