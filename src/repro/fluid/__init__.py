"""Fluid network emulator: TCP window dynamics over fluid queues.

The primary evaluation substrate (DESIGN.md S11): fast enough for the
paper's full parameter sweeps while reproducing the loss-event
structure the inference pipeline depends on. See
:mod:`repro.emulator` for the packet-level validation substrate.
"""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "batch": ("FluidBatchNetwork",),
    "engine": (
        "DEFAULT_DT",
        "DEFAULT_INTERVAL",
        "ENGINE_VERSION",
        "FluidNetwork",
    ),
    "params": (
        "MSS_BITS",
        "AqmSpec",
        "FlowSlotSpec",
        "LinkSpec",
        "PathWorkload",
        "PolicerSpec",
        "ShaperSpec",
        "WeightedShaperSpec",
        "mb_to_packets",
        "mbps_to_pps",
    ),
})
