"""The emulation-substrate protocol and the one result every run emits.

Every substrate — the fluid engine, the packet DES, and any future
backend — plugs into the experiment pipeline through:

* :class:`SubstrateResult` — the one result class: per-path
  *(sent, lost)* measurement records, per-link per-class ground-truth
  arrival/drop counts, queue-occupancy traces and per-path RTT series.
  Both engines' sessions build it with :func:`package_result`, so the
  fields, dtypes and measured-path rounding cannot differ between
  substrates.
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

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import EmulationError
from repro.fluid.params import PathWorkload
from repro.measurement.records import (
    MeasurementData,
    link_congestion_probability,
    rounded_counters,
)
from repro.substrate.spec import LinkSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports; a
    # runtime import would cycle through repro.experiments.__init__,
    # whose runner module imports this protocol.
    from repro.experiments.config import EmulationSettings
    from repro.measurement.records import RecordChunk


@dataclass(frozen=True)
class SubstrateResult:
    """Everything one emulation run produced.

    Attributes:
        measurements: Per-interval (sent, lost) for *measured* paths —
            the input to Algorithm 2.
        link_class_arrivals: ``{link: {class: float array[T]}}``
            packets arriving per interval (ground truth).
        link_class_drops: Same shape, packets dropped.
        queue_occupancy: ``{link: array[T]}`` total buffered packets
            sampled at each interval end (Figure 11's y-axis, in
            packets; multiply by MSS to get bits).
        interval_seconds: Measurement interval length.
        flows_completed: ``{path: completed flow count}`` sanity data.
        path_rtt_seconds: ``{path: array[T]}`` mean effective RTT
            (base + queueing) per interval — the input to the §7
            latency-threshold metric (:mod:`repro.measurement.latency`).
    """

    measurements: MeasurementData
    link_class_arrivals: Dict[str, Dict[str, np.ndarray]]
    link_class_drops: Dict[str, Dict[str, np.ndarray]]
    queue_occupancy: Dict[str, np.ndarray]
    interval_seconds: float
    flows_completed: Dict[str, int]
    path_rtt_seconds: Dict[str, np.ndarray]

    def link_congestion_probability(
        self, link_id: str, class_name: str, loss_threshold: float = 0.01
    ) -> float:
        """Ground-truth congestion probability of a link for a class
        (the shared definition in :func:`repro.measurement.records.
        link_congestion_probability` — Figure 10(a)'s quantity)."""
        return link_congestion_probability(
            self.link_class_arrivals[link_id][class_name],
            self.link_class_drops[link_id][class_name],
            loss_threshold,
        )


def measured_rows(
    path_ids: Sequence[str], measured: Sequence[bool]
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Row indices and ids of the measured paths, in ``path_ids``
    order — what an engine session checks when it opens.

    Raises:
        EmulationError: When no path is measured.
    """
    rows = np.flatnonzero(np.asarray(measured, dtype=bool))
    if rows.size == 0:
        raise EmulationError("no measured paths in the workload")
    return rows, tuple(path_ids[p] for p in rows.tolist())


def package_result(
    *,
    intervals_done: int,
    keep_ground_truth: bool,
    interval_seconds: float,
    path_ids: Sequence[str],
    measured: np.ndarray,
    link_ids: Sequence[str],
    class_names: Sequence[str],
    sent: List[np.ndarray],
    lost: List[np.ndarray],
    rtt: List[np.ndarray],
    arrivals: List[np.ndarray],
    drops: List[np.ndarray],
    occupancy: List[np.ndarray],
    flows_by_path: np.ndarray,
) -> SubstrateResult:
    """Package a session's kept per-interval columns as its result.

    The one builder of :class:`SubstrateResult`, for both engines at
    any batch width. Measured-path counters are rounded with
    :func:`~repro.measurement.records.rounded_counters`, the
    rounding of every stream chunk.

    Args:
        measured: Row indices of the measured paths
            (:func:`measured_rows`).
        sent / lost / rtt: One ``(|paths|,)`` column per interval.
        arrivals / drops: One ``(|links|, |classes|)`` column per
            interval.
        occupancy: One ``(|links|,)`` column per interval.
        flows_by_path: ``(|paths|,)`` completed-flow counts.

    Raises:
        EmulationError: Before any interval was emulated, or when the
            session discarded its columns (``keep_ground_truth=False``).
    """
    if intervals_done == 0:
        raise EmulationError("no intervals emulated yet")
    if not keep_ground_truth:
        raise EmulationError(
            "ground-truth history was discarded "
            "(keep_ground_truth=False); no result to package"
        )
    sent_i, lost_i = rounded_counters(
        np.stack(sent, axis=1)[measured], np.stack(lost, axis=1)[measured]
    )
    arr = np.stack(arrivals, axis=2).astype(float, copy=False)
    drop = np.stack(drops, axis=2).astype(float, copy=False)
    occ = np.stack(occupancy, axis=1)
    rtt_out = np.stack(rtt, axis=1)
    return SubstrateResult(
        measurements=MeasurementData.from_matrices(
            [path_ids[p] for p in measured.tolist()],
            sent_i,
            lost_i,
            interval_seconds,
        ),
        link_class_arrivals={
            lid: {cn: arr[l, c] for c, cn in enumerate(class_names)}
            for l, lid in enumerate(link_ids)
        },
        link_class_drops={
            lid: {cn: drop[l, c] for c, cn in enumerate(class_names)}
            for l, lid in enumerate(link_ids)
        },
        queue_occupancy={lid: occ[l] for l, lid in enumerate(link_ids)},
        interval_seconds=interval_seconds,
        flows_completed={
            pid: int(flows_by_path[p]) for p, pid in enumerate(path_ids)
        },
        path_rtt_seconds={
            pid: rtt_out[p] for p, pid in enumerate(path_ids)
        },
    )


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
