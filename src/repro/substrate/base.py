"""The emulation-substrate protocol, the one session and the one
result of every run.

Every substrate — the fluid engine, the packet DES, and any future
backend — plugs into the experiment pipeline through:

* :class:`SubstrateResult` — the one result class: per-path
  *(sent, lost)* measurement records, per-link per-class ground-truth
  arrival/drop counts, queue-occupancy traces and per-path RTT series.
  :func:`package_result` builds it, so the fields, dtypes and
  measured-path rounding cannot differ between substrates.
* :class:`EngineSession` — the one resumable run of both engines, at
  any batch width: it drives an engine's interval generator and owns
  everything around it (timing check, spec swaps, kept columns,
  telemetry, chunks and results). :func:`run_session` is every
  one-shot run: a session advanced once and packaged.
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
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import telemetry
from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import EmulationError
from repro.fluid.params import PathWorkload, complete_link_specs
from repro.measurement.records import (
    MeasurementData,
    RecordChunk,
    chunk_from_columns,
    link_congestion_probability,
    rounded_counters,
)
from repro.substrate.spec import LinkSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports; a
    # runtime import would cycle through repro.experiments.__init__,
    # whose runner module imports this protocol.
    from repro.experiments.config import EmulationSettings


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
        measured: Row indices of the measured paths.
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


def _step_counts(
    interval_seconds: float, warmup_seconds: float, dt: Optional[float]
) -> Tuple[int, int]:
    """Check a session's timing; ``(steps per interval, warmup steps)``.

    A step is ``dt`` when the engine has a fixed step (which must then
    divide the interval), else one whole interval.
    """
    if not (np.isfinite(interval_seconds) and interval_seconds > 0):
        raise EmulationError(
            f"interval must be finite and positive, got {interval_seconds}"
        )
    if not (np.isfinite(warmup_seconds) and warmup_seconds >= 0):
        raise EmulationError(
            f"warmup_seconds must be finite and >= 0, got {warmup_seconds}"
        )
    if dt is None:
        return 1, int(round(warmup_seconds / interval_seconds))
    if not (np.isfinite(dt) and dt > 0):
        raise EmulationError(f"dt must be positive, got {dt}")
    ratio = interval_seconds / dt
    steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if steps < 1 or abs(steps * dt - interval_seconds) > 1e-9:
        raise EmulationError(
            f"dt={dt} must divide interval_seconds={interval_seconds}"
        )
    return steps, int(round(warmup_seconds / dt))


class EngineSession:
    """A resumable emulation of ``B ≥ 1`` worlds, advanced N intervals
    at a time — the one session of both engines.

    Opened by ``session()`` on :class:`~repro.fluid.engine.
    FluidNetwork`, :class:`~repro.fluid.batch.FluidBatchNetwork` and
    :class:`~repro.emulator.core.PacketNetwork`, and by
    :meth:`EmulationSubstrate.start`. The session pulls the engine's
    ``_interval_loop(session)`` generator, which yields once per
    closed interval the columns ``(sent, lost, rtt, arrivals, drops,
    occupancy)``, each with a leading world axis: ``(B, |paths|)``
    three times, ``(B, |links|, |classes|)`` twice, ``(B, |links|)``.
    The loop reads its timing from :attr:`dt`,
    :attr:`steps_per_interval` and :attr:`warmup_steps`, applies
    :attr:`pending_specs` at the next interval boundary (then clears
    it), registers its flow counters with :meth:`bind_flows` and
    passes each generator through :meth:`count_rng`.

    Advancing in any segmentation yields records bit-identical to a
    one-shot :func:`run_session` of the same total length: the loop
    and its RNG streams are shared, and segmentation only changes
    where the generator pauses. Between segments,
    :meth:`set_link_specs` swaps every world's specs at the next
    interval boundary — differentiation onset/offset.

    Args:
        engine: Has ``_net``, ``_classes`` and ``_interval_loop``.
        substrate: The ``substrate=`` label of telemetry.
        path_ids / measured: The engine's path order and which paths
            are measured.
        dt: The engine's fixed step, or ``None`` when the engine
            picks its own (a step is then a whole interval).
        worlds: ``None`` for one world, whose :meth:`advance` returns
            one chunk; else the batch width, and :meth:`advance`
            returns one chunk per world.
        keep_ground_truth: ``False`` discards every interval's columns
            once its chunk is emitted, bounding a long run's memory;
            :meth:`result` is then unavailable.

    Raises:
        EmulationError: For bad timing or when no path is measured.
    """

    def __init__(
        self,
        engine,
        substrate: str,
        path_ids: Sequence[str],
        measured: Sequence[bool],
        *,
        interval_seconds: float,
        warmup_seconds: float,
        dt: Optional[float] = None,
        worlds: Optional[int] = None,
        keep_ground_truth: bool = True,
    ) -> None:
        self.steps_per_interval, self.warmup_steps = _step_counts(
            interval_seconds, warmup_seconds, dt
        )
        self._measured_rows = np.flatnonzero(np.asarray(measured, bool))
        if self._measured_rows.size == 0:
            raise EmulationError("no measured paths in the workload")
        self._engine = engine
        self._path_ids = list(path_ids)
        self._measured_ids = tuple(
            self._path_ids[p] for p in self._measured_rows.tolist()
        )
        self.substrate = substrate
        self.interval_seconds = float(interval_seconds)
        self.dt = dt
        self.batched = worlds is not None
        self.num_worlds = worlds if self.batched else 1
        self._keep = bool(keep_ground_truth)
        self.pending_specs: Optional[Dict[str, LinkSpec]] = None
        # Flow → (world, path) row and completed-flow counters, bound
        # by the loop at the first advance.
        self._flow_rows = np.zeros(0, dtype=np.intp)
        self._flows_done = np.zeros(0, dtype=np.int64)
        # Kept columns: sent, lost, rtt, arrivals, drops, occupancy.
        self._cols: Tuple[List[np.ndarray], ...] = tuple(
            [] for _ in range(6)
        )
        self.intervals_done = 0
        # Telemetry enablement is sampled once per session: the
        # disabled path costs one boolean and nothing else. The RNG
        # proxies forward every call to the same Generators, so every
        # draw stream (and all records) stay bit-identical with
        # telemetry on or off.
        self._tel = telemetry.enabled()
        if self._tel:
            reg = telemetry.get_registry()
            self._tel_intervals = reg.counter(
                "repro_engine_intervals_total",
                "measurement intervals emulated", substrate=substrate,
            )
            self._tel_steps = (
                telemetry.NOOP_INSTRUMENT
                if dt is None
                else reg.counter(
                    "repro_engine_steps_total",
                    "engine steps emulated", substrate=substrate,
                )
            )
            self._tel_swaps = reg.counter(
                "repro_engine_spec_swaps_total",
                "mid-run link-spec swaps applied", substrate=substrate,
            )
            self._tel_rng = reg.counter(
                "repro_engine_rng_draws_total",
                "RNG method calls made by the engine", substrate=substrate,
            )
        self._gen = engine._interval_loop(self)

    def count_rng(self, rng):
        """The loop's view of one generator: counted when telemetry
        is on."""
        if self._tel:
            return telemetry.CountingRNG(rng, self._tel_rng)
        return rng

    def bind_flows(self, rows: np.ndarray, done: np.ndarray) -> None:
        """Called by the loop once its state exists (first advance):
        each flow's flat ``b·P + p`` row and its live completed-flow
        counters."""
        self._flow_rows = rows
        self._flows_done = done

    def set_link_specs(
        self, link_specs: Mapping[str, LinkSpec] = None
    ) -> None:
        """Swap every world's link specs at the next interval boundary.

        The mapping is validated and completed exactly like the
        engine constructor's (unspecified links revert to defaults).
        Queues and in-flight flow state carry over; token buckets
        persist for links that stay policed and start full for newly
        policed links.
        """
        self.pending_specs = complete_link_specs(
            self._engine._net, self._engine._classes, link_specs
        )
        if self._tel:
            self._tel_swaps.inc()

    def advance(
        self, num_intervals: int
    ) -> Union[RecordChunk, List[RecordChunk]]:
        """Emulate ``num_intervals`` more intervals in every world.

        Returns:
            The new intervals' measured-path records (the integer
            counters the results will contain for this span): one
            chunk, or one per world in world order for a batch.
        """
        if num_intervals < 1:
            raise EmulationError("must advance by at least one interval")
        num_intervals = int(num_intervals)
        start = self.intervals_done
        tel_span = (
            telemetry.span(
                "engine.advance", substrate=self.substrate,
                intervals=num_intervals, start=start,
                scenarios=self.num_worlds,
            )
            if self._tel
            else telemetry.NOOP_SPAN
        )
        new_sent: List[np.ndarray] = []
        new_lost: List[np.ndarray] = []
        with tel_span:
            for _ in range(num_intervals):
                cols = next(self._gen)
                new_sent.append(cols[0])
                new_lost.append(cols[1])
                if self._keep:
                    for kept, col in zip(self._cols, cols):
                        kept.append(col)
        self.intervals_done = start + num_intervals
        if self._tel:
            self._tel_intervals.inc(num_intervals * self.num_worlds)
            self._tel_steps.inc(num_intervals * self.steps_per_interval)
        chunks = [
            chunk_from_columns(
                self._measured_ids,
                [col[b] for col in new_sent],
                [col[b] for col in new_lost],
                self._measured_rows,
                self.interval_seconds,
                start,
            )
            for b in range(self.num_worlds)
        ]
        return chunks if self.batched else chunks[0]

    def result(self, world: int = 0) -> SubstrateResult:
        """Package one world's emulated span as a
        :class:`SubstrateResult` — identical to its one-shot run's."""
        sent, lost, rtt, arrivals, drops, occupancy = (
            [col[world] for col in kept] for kept in self._cols
        )
        flows_by_path = np.bincount(
            self._flow_rows,
            weights=self._flows_done,
            minlength=self.num_worlds * len(self._path_ids),
        ).reshape(self.num_worlds, -1)[world]
        return package_result(
            intervals_done=self.intervals_done,
            keep_ground_truth=self._keep,
            interval_seconds=self.interval_seconds,
            path_ids=self._path_ids,
            measured=self._measured_rows,
            link_ids=self._engine._net.link_ids,
            class_names=self._engine._classes.names,
            sent=sent,
            lost=lost,
            rtt=rtt,
            arrivals=arrivals,
            drops=drops,
            occupancy=occupancy,
            flows_by_path=flows_by_path,
        )

    def results(self) -> List[SubstrateResult]:
        """Every world's result, in world order."""
        return [self.result(b) for b in range(self.num_worlds)]


def run_session(
    session: EngineSession, duration_seconds: float
) -> Union[SubstrateResult, List[SubstrateResult]]:
    """A one-shot run: advance a fresh session by every interval of
    ``duration_seconds`` at once and package it — one result, or one
    per world for a batch session (every world runs for the same
    duration)."""
    if np.ndim(duration_seconds) != 0:
        raise EmulationError(
            "duration_seconds must be one number (every world runs "
            f"for the same duration), got {duration_seconds!r}"
        )
    if not (np.isfinite(duration_seconds) and duration_seconds > 0):
        raise EmulationError("duration must be positive")
    num_intervals = int(round(duration_seconds / session.interval_seconds))
    if num_intervals < 1:
        raise EmulationError("duration shorter than one interval")
    session.advance(num_intervals)
    results = session.results()
    return results if session.batched else results[0]


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
    ) -> EngineSession:
        """Open a resumable single-world run instead of emulating in
        one shot (:meth:`run` is this plus :func:`run_session`).

        ``keep_ground_truth=False`` bounds a long run's memory by
        discarding each interval's ground-truth columns once its
        chunk is emitted; :meth:`EngineSession.result` is then
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
