"""Packet-level emulator: the per-packet evaluation substrate.

:class:`PacketNetwork` (:mod:`repro.emulator.core`) is the batched,
vectorized engine. The frozen seed per-event loop it replaced, kept as
the behavioural and performance baseline, lives with the tests
(``tests/oracles/event_reference.py``).
"""

from repro.emulator.core import (
    DEFAULT_MAX_PACKETS,
    PACKET_ENGINE_VERSION,
    PacketNetwork,
    PacketResult,
    greedy_admission,
)
from repro.emulator.specs import PacketLinkSpec

__all__ = [
    "DEFAULT_MAX_PACKETS",
    "PACKET_ENGINE_VERSION",
    "PacketLinkSpec",
    "PacketNetwork",
    "PacketResult",
    "greedy_admission",
]
