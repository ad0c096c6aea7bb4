"""flawsim: a desk-scale model of a bootloader-resident attack on
AVR printer controllers, and the forensics that catch it.

The package simulates the whole chain: firmware install over a framed
programming protocol (with install-time binary patching and read-back
spoofing), discovery of the firmware's serial ring buffer by scanning its
receive interrupt handler, in-flight g-code editing from the interrupt
path under a 15-byte state budget, and the defensive side - deposition
accounting, anomaly detection and static bootloader audits.
"""

from .avr import find_ring_buffer
from .memory import dump_ihex
from .policy import TamperPolicy
from .stk500 import program_and_verify
from .uart import UartSimulation

__version__ = "0.1.0"

__all__ = [
    "TamperPolicy",
    "UartSimulation",
    "dump_ihex",
    "find_ring_buffer",
    "program_and_verify",
]
