"""A seeded sweep of the whole attack chain, layer by layer as
``flawsim pipeline`` runs it: install through a trojan session, liveness
from ``sp_site``, ring-buffer discovery on the stored image, the stream.

Each scenario draws a 64 KiB layout (page size, ring size), a firmware
(SP-init offset, often straddling a page edge, SPL immediate, ISR offset),
a policy and a short print.  Every fifth scenario resends the SP-init page
after the install, and every fifth holds a second SP-init sequence ahead
of the first.  A failing scenario is a defect in the program: mend the
program, never the seed or the draw.
"""

import random
from fractions import Fraction

import pytest

from flawsim import fixtures
from flawsim.avr import (
    DEFAULT_STEAL_BYTES,
    SPH_IO_ADDR,
    SPL_IO_ADDR,
    RingBufferInfo,
    enc_ldi,
    enc_out,
    find_ring_buffer,
    words_to_bytes,
)
from flawsim.memory import MemoryLayout
from flawsim.policy import TamperPolicy
from flawsim.stk500 import PipeTransport, ProgrammerClient, program_and_verify
from flawsim.tamper import apply_policy
from flawsim.uart import UartSimulation

SCENARIOS = 150
SPLS = (0x00, 0x0E, 0x0F, 0x10, 0x80, 0xFF)
PAGE_SIZES = (64, 96, 128, 200, 256)  # 96 and 200 do not divide boot_start
RINGS = (32, 64, 128, 256)


def sp_init(spl: int) -> bytes:
    return words_to_bytes(enc_ldi(28, spl), enc_ldi(29, 0x21), enc_out(SPH_IO_ADDR, 29), enc_out(SPL_IO_ADDR, 28))


def draw(index: int):
    rng = random.Random(index)
    page_size = rng.choice(PAGE_SIZES)
    layout = MemoryLayout(flash_size=0x10000, rx_buffer_size=rng.choice(RINGS), page_size=page_size)
    if rng.random() < 0.5:  # the 8-byte sequence straddles a page edge
        sp_offset = rng.randrange(0x800 // page_size, 0x1000 // page_size) * page_size - rng.choice((2, 4, 6))
    else:
        sp_offset = rng.randrange(0x800, 0x1000, 2)
    spl = rng.choice(SPLS)
    firmware = fixtures.build_app_image(layout, sp_offset, rng.randrange(0x1100, 0x3000, 2), spl)
    sites = [(sp_offset, spl)]
    if index % 5 == 4:  # a second site ahead of the first decides the session
        first = sp_offset - rng.randrange(16, 0x400, 2)
        sites.insert(0, (first, rng.choice(SPLS)))
        firmware.write(first, sp_init(sites[0][1]))
    if rng.random() < 0.5:
        policy = TamperPolicy.reduction(Fraction(rng.randrange(10, 60), 100))
    else:
        policy = TamperPolicy.relocation(rng.randrange(2, 5))
    doc = fixtures.generate_gcode(
        segments=rng.randrange(20, 60), m73_step=rng.choice((1, 5, None)), travel_every=rng.choice((None, 4)),
        comments=rng.random() < 0.5, crlf=rng.random() < 0.3, seed=rng.randrange(1000),
    )
    return layout, firmware, sites, policy, doc


@pytest.mark.parametrize("index", range(SCENARIOS))
def test_the_chain_holds_its_invariants(index):
    layout, firmware, sites, policy, doc = draw(index)
    site_offset, spl = sites[0]  # the lowest site is received whole first
    session = fixtures.build_session(trojan=True, layout=layout)
    outcome = program_and_verify(firmware, session)

    patched = spl >= DEFAULT_STEAL_BYTES
    expected = bytearray(firmware.data[: layout.boot_start])
    if patched:
        expected[site_offset : site_offset + 2] = words_to_bytes(enc_ldi(28, spl - DEFAULT_STEAL_BYTES))
    assert outcome.verified
    assert session.image.data[: layout.boot_start] == expected
    assert (session.sp_site is not None) == patched
    if patched:
        assert (session.sp_site.offset, session.sp_site.spl_immediate) == (site_offset, spl)
    assert outcome.stored_differs == patched
    assert {addr for addr, _, _ in outcome.mismatches} <= {site_offset, site_offset + 1}

    if index % 5 == 3:  # resend the page holding the SP init: the install is clean again
        page = site_offset // layout.page_size * layout.page_size
        client = ProgrammerClient(PipeTransport(session))
        client.load_address(page)
        client.program_flash(firmware.read(page, min(layout.page_size, layout.boot_start - page)))
        assert session.sp_site is None
        assert session.image.data[: layout.boot_start] == firmware.data[: layout.boot_start]

    info = None
    if session.sp_site is not None:
        info = find_ring_buffer(session.image)
        tail = fixtures.RX_TAIL_ADDR
        assert info == RingBufferInfo(fixtures.RX_HEAD_ADDR, tail, tail - layout.rx_buffer_size)
    sim = UartSimulation(policy if info else TamperPolicy.off(), rx_buffer_size=layout.rx_buffer_size, ring_info=info)
    stream = "".join(sim.feed(doc)) + sim.flush_residual()
    assert stream == (apply_policy(doc, policy) if info else doc)
