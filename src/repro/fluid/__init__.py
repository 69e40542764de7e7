"""Fluid network emulator: TCP window dynamics over fluid queues.

The primary evaluation substrate (DESIGN.md S11): fast enough for the
paper's full parameter sweeps while reproducing the loss-event
structure the inference pipeline depends on. See
:mod:`repro.emulator` for the packet-level validation substrate.
"""

from repro.fluid.batch import FluidBatchNetwork, FluidBatchSession
from repro.fluid.engine import (
    DEFAULT_DT,
    DEFAULT_INTERVAL,
    ENGINE_VERSION,
    FluidNetwork,
    FluidResult,
)
from repro.fluid.params import (
    MSS_BITS,
    AqmSpec,
    FlowSlotSpec,
    LinkSpec,
    PathWorkload,
    PolicerSpec,
    ShaperSpec,
    WeightedShaperSpec,
    mb_to_packets,
    mbps_to_pps,
    uniform_workload,
)
from repro.fluid.tcp import TcpState
from repro.fluid.traffic import (
    FlowSlot,
    build_slots,
    sample_flow_size_packets,
    sample_gap_seconds,
)

__all__ = [
    "AqmSpec",
    "DEFAULT_DT",
    "DEFAULT_INTERVAL",
    "ENGINE_VERSION",
    "FlowSlot",
    "FluidBatchNetwork",
    "FluidBatchSession",
    "FlowSlotSpec",
    "FluidNetwork",
    "FluidResult",
    "LinkSpec",
    "MSS_BITS",
    "PathWorkload",
    "PolicerSpec",
    "ShaperSpec",
    "WeightedShaperSpec",
    "TcpState",
    "build_slots",
    "mb_to_packets",
    "mbps_to_pps",
    "sample_flow_size_packets",
    "sample_gap_seconds",
    "uniform_workload",
]
