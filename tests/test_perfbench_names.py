"""The names the benchmark reaches into flawsim by, resolved and run.

perfbench/ wraps flawsim functions by (module, attribute) and replays the
stream and the install through public functions.  A rename or a broken
replay would otherwise show only when the benchmark runs; these checks
read perfbench/ and change nothing in it.
"""

import importlib
import sys
from collections import Counter
from fractions import Fraction

import pytest
from conftest import FIXTURES, REPO

from flawsim import fixtures
from flawsim.policy import TamperPolicy
from flawsim.tamper import apply_policy

sys.path.insert(0, str(REPO / "perfbench"))
import layers  # noqa: E402
import workloads  # noqa: E402


def untimed(fn):
    return 0.0, fn()


def test_every_wrapped_name_resolves():
    keys = set(layers.SPANS) | set(layers.COUNTERS)
    for module, attr in sorted(keys):
        owner = importlib.import_module("flawsim." + module)
        if "." in attr:  # a method, looked up in its class as patched does
            cls_name, meth = attr.split(".")
            target = getattr(owner, cls_name).__dict__[meth]
        else:
            target = getattr(owner, attr)
        assert callable(target), (module, attr)
    with layers.patched(layers.counting_wrappers(Counter())):  # patches every counted name
        pass


@pytest.mark.parametrize("name", ["clean_mixed_crlf.gcode", "clean_uniform_n2.gcode"])
@pytest.mark.parametrize("policy", [TamperPolicy.reduction(Fraction(3, 10)), TamperPolicy.relocation(2)],
                         ids=["reduce30", "relocate2"])
def test_uart_split_replays_the_transform(name, policy):
    doc = (FIXTURES / "gcode" / name).read_bytes().decode()
    times, output = layers.uart_split(doc, policy, workloads.EXPECTED_RING,
                                      workloads.LAYOUT.rx_buffer_size, untimed)
    assert output == apply_policy(doc, policy)
    assert set(times) == {"uart.isr_s", "uart.epilogue_s", "uart.consumer_s"}


def test_stk500_split_replays_both_installs():
    firmware = fixtures.build_app_image()
    transcripts = [(trojan, layers.record_install(firmware, trojan)) for trojan in (True, False)]
    times, faithful = layers.stk500_split(transcripts, untimed)
    assert faithful
    assert set(times) == {"stk500.session_s", "stk500.codec_s"}
