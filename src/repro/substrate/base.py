"""The emulation-substrate protocol and its shared result schema.

Every substrate — the fluid engine, the packet DES, and any future
backend — plugs into the experiment pipeline through two structural
contracts:

* :class:`SubstrateResult` — the interval-record schema a run emits:
  per-path *(sent, lost)* measurement records, per-link per-class
  ground-truth arrival/drop counts, queue-occupancy traces, and
  per-path RTT series. :class:`repro.fluid.engine.FluidResult` and
  :class:`repro.emulator.core.PacketResult` both satisfy it
  structurally (no inheritance required).
* :class:`EmulationSubstrate` — a named, versioned backend that
  turns *(network, classes, shared link specs, workloads, settings)*
  into a :class:`SubstrateResult`. The version string participates
  in the sweep result-cache key, so two substrates (or two model
  revisions of one substrate) can never collide in a shared cache.

Experiment code (:mod:`repro.experiments.runner`, the sweeps, the
CLI) consumes substrates only through this protocol plus the
registry (:mod:`repro.substrate.registry`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Mapping,
    Optional,
    Protocol,
    runtime_checkable,
)

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.fluid.params import PathWorkload
from repro.measurement.records import MeasurementData
from repro.substrate.spec import LinkSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports; a
    # runtime import would cycle through repro.experiments.__init__,
    # whose runner module imports this protocol.
    from repro.experiments.config import EmulationSettings
    from repro.measurement.records import RecordChunk


@runtime_checkable
class SubstrateResult(Protocol):
    """Structural schema of one emulation run's output."""

    measurements: MeasurementData
    link_class_arrivals: Dict[str, Dict[str, np.ndarray]]
    link_class_drops: Dict[str, Dict[str, np.ndarray]]
    queue_occupancy: Dict[str, np.ndarray]
    interval_seconds: float
    flows_completed: Dict[str, int]
    path_rtt_seconds: Optional[Dict[str, np.ndarray]]

    def link_congestion_probability(
        self, link_id: str, class_name: str, loss_threshold: float = 0.01
    ) -> float:
        """Ground-truth per-link, per-class congestion probability."""
        ...


@runtime_checkable
class SubstrateSession(Protocol):
    """A resumable emulation run (streaming / segment mode).

    Obtained from :meth:`EmulationSubstrate.start`. The session
    advances the emulation a chosen number of measurement intervals
    at a time — carrying all engine state in between — and accepts
    :class:`~repro.substrate.spec.LinkSpec` swaps at interval
    boundaries, which
    is how the streaming monitor realizes mid-run differentiation
    onset/offset scenarios. Advancing a session in any segmentation
    yields records bit-identical to a one-shot
    :meth:`EmulationSubstrate.run` of the same total length.
    """

    interval_seconds: float

    @property
    def intervals_done(self) -> int:
        """Measurement intervals emulated so far."""
        ...

    def advance(self, num_intervals: int) -> "RecordChunk":
        """Emulate N more intervals; returns their measured records."""
        ...

    def set_link_specs(self, link_specs: Mapping[str, LinkSpec]) -> None:
        """Swap link specs, effective at the next interval boundary."""
        ...

    def result(self) -> SubstrateResult:
        """Everything emulated so far, in the shared result schema."""
        ...


class EmulationSubstrate(Protocol):
    """A pluggable emulation backend.

    Attributes:
        name: Registry key (``"fluid"``, ``"packet"``, …).
        version: Model-revision tag folded into sweep cache digests.
    """

    name: str
    version: str

    def run(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
    ) -> SubstrateResult:
        """Emulate one experiment and return its interval records."""
        ...

    def start(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
        keep_ground_truth: bool = True,
    ) -> SubstrateSession:
        """Open a resumable run instead of emulating in one shot.

        ``keep_ground_truth=False`` bounds a long run's memory by
        discarding each interval's ground-truth columns once its
        chunk is emitted; :meth:`SubstrateSession.result` is then
        unavailable (continuous monitors consume only the chunks).
        """
        ...

    # --- optional batch capability ------------------------------------
    # A substrate MAY additionally expose
    #
    #   run_batch(net, classes, spec_sets, workloads, settings,
    #             seeds) -> List[SubstrateResult]
    #
    # emulating B link-spec variants of the shared topology in one
    # lockstep program, with variant b's output floating-point-
    # identical to run() under spec_sets[b] and seeds[b].
    # Callers discover the capability via
    # :func:`repro.substrate.batch.substrate_supports_batch` and must
    # fall back to variant-at-a-time run() when absent (see
    # :func:`repro.substrate.batch.run_scenario_batch`). The fluid
    # substrate implements it; the packet DES does not (its event
    # batching is per-run, not per-scenario).
