import pytest

from conftest import FIXTURES
from flawsim import dump_ihex, fixtures
from flawsim.fixedpoint import FixedPointOverflow

HEX_BUILDERS = {
    "marlin_app.hex": fixtures.build_app_image,
    "boot_clean.hex": fixtures.build_clean_bootloader,
    "boot_trojan.hex": fixtures.build_trojan_bootloader,
}


def test_committed_gcode_matches_the_generator():
    committed = {p.name: p.read_bytes() for p in (FIXTURES / "gcode").glob("*.gcode")}
    generated = {name: doc.encode() for name, doc in fixtures.corpus_documents().items()}
    assert len(generated) == 22
    assert sorted(committed) == sorted(generated)
    for name, doc in generated.items():
        assert committed[name] == doc, name  # bytes: CRLF documents included


def test_committed_hex_matches_the_builders():
    assert sorted(p.name for p in (FIXTURES / "hex").glob("*.hex")) == sorted(HEX_BUILDERS)
    for name, build in HEX_BUILDERS.items():
        assert (FIXTURES / "hex" / name).read_text() == dump_ihex(build()), name


@pytest.mark.parametrize("params", [
    dict(segments=30, extrusion_per_mm=1000),  # E reaches 2.2e9 raw
    dict(segments=2, segment_mm=300000, extrusion_per_mm=0.0001),  # X past 214748.3647
], ids=["e", "x"])
def test_generator_refuses_values_past_the_budget(params):
    with pytest.raises(FixedPointOverflow):
        fixtures.generate_gcode(**params)


@pytest.mark.parametrize("step", [0, -1])
def test_generator_refuses_an_m73_step_below_one(step):
    # a step that does not move past the progress would emit M73 lines forever
    with pytest.raises(ValueError, match="m73_step"):
        fixtures.generate_gcode(segments=4, m73_step=step)
