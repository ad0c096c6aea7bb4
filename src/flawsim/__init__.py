"""flawsim: a desk-scale model of a bootloader-resident attack on
AVR printer controllers, and the forensics that catch it.

The package simulates the whole chain: firmware install over a framed
programming protocol (with install-time binary patching and read-back
spoofing), discovery of the firmware's serial ring buffer by scanning its
receive interrupt handler, in-flight g-code editing from the interrupt
path under a 15-byte state budget, and the defensive side - deposition
accounting, anomaly detection and static bootloader audits.
"""
