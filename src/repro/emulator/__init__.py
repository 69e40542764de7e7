"""Packet-level emulator: the per-packet evaluation substrate.

:class:`PacketNetwork` (:mod:`repro.emulator.core`) is the batched,
vectorized engine. It takes the same
:class:`~repro.fluid.params.LinkSpec` mappings as the fluid engine and
converts each link to packet units (packets/second, queue and token
bucket in packets) when it builds its per-link state. The frozen seed
per-event loop it replaced, kept as the behavioural and performance
baseline, lives with the tests (``tests/oracles/event_reference.py``)
together with its own packet-unit spec.
"""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "core": (
        "DEFAULT_MAX_PACKETS",
        "PACKET_ENGINE_VERSION",
        "PacketNetwork",
        "greedy_admission",
    ),
})
