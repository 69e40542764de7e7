"""The streaming neutrality monitor: rolling verdicts + change points.

:class:`NeutralityMonitor` consumes a record stream chunk by chunk
and, every ``stride`` intervals, runs the full windowed inference —
Algorithm 2 over the window via
:class:`~repro.streaming.window.SlidingWindowStats`, then the
score-based Algorithm 1 (:func:`~repro.core.algorithm.
identify_from_score_array`, the decide + prune tail of every route,
with the settings' cluster decider) — emitting
one :class:`WindowVerdict` per window.

On top of the per-window verdicts, a per-sequence **CUSUM** detector
timestamps when each pathset family flips neutral ↔ non-neutral:

* in the neutral state the statistic accumulates
  ``max(0, s + score − reference)`` and an *onset*
  :class:`ChangePoint` fires when it crosses ``threshold``;
* in the non-neutral state the mirrored statistic accumulates
  ``max(0, s + reference − score)`` and fires an *offset*.

``reference`` defaults to the decider's ``definite`` bar
(:data:`~repro.measurement.clustering.DEFAULT_DEFINITE`): a neutral
window's unsolvability score sits well below it, so the statistic
stays pinned at zero until differentiation actually begins — the
monitor cannot flag an onset before it happens — while a strong
violation (scores several times the reference) crosses within one or
two windows of the switch. The classical CUSUM change-point estimate
(the window after the statistic last left zero) is recorded alongside
the flagging window. Every sequence's statistic, state and last-zero
window live in three arrays, updated together once per window
(:func:`cusum_update`).

For retrospective localization over a finished score series,
:func:`two_means_change_point` applies the paper's two-means split to
the per-window scores of one sequence.

:func:`monitor_scenario` runs one declarative scenario end to end:
its emulation stream, optionally switching the policy on mid-run,
into a monitor (what ``repro monitor`` runs).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.algorithm import (
    DEFAULT_MIN_PATHSETS,
    AlgorithmResult,
    identify_from_score_array,
)
from repro.core.network import LinkSeq, Network
from repro.core.slices import SliceSystemsView, batch_unsolvability_arrays
from repro.exceptions import ConfigurationError, MeasurementError
from repro.experiments.config import EmulationSettings
from repro.measurement.clustering import (
    make_cluster_decider,
    two_means_split,
)
from repro.measurement.records import RecordChunk
from repro.streaming.window import SlidingWindowStats

if TYPE_CHECKING:  # pragma: no cover - annotation-only: the scenario
    # layer loads on the first monitor_scenario call (DESIGN.md S25).
    from repro.substrate.scenario import CompiledScenario, Scenario

#: Default verdict cadence (intervals) when neither a window length
#: nor a stride is configured.
DEFAULT_STRIDE = 50


@dataclass(frozen=True)
class WindowVerdict:
    """One window's full inference output.

    Attributes:
        index: Window position in the monitor's timeline.
        start_interval / end_interval: The window ``[start, end)``.
        scores: Unsolvability score per examined sequence.
        result: Algorithm 1's result on this window.
    """

    index: int
    start_interval: int
    end_interval: int
    scores: Dict[LinkSeq, float]
    #: ``None`` marks an *uninformative* window: no slice family had
    #: an interval with traffic on all its paths, so nothing could be
    #: normalized. Change-point states carry over unchanged. (In an
    #: informative window such a family is skipped: NaN in the
    #: report's score row, which resets its CUSUM statistic.)
    result: Optional[AlgorithmResult]

    @property
    def informative(self) -> bool:
        return self.result is not None

    @property
    def non_neutral(self) -> bool:
        return self.result is not None and bool(self.result.identified)


@dataclass(frozen=True)
class ChangePoint:
    """A detected neutral ↔ non-neutral flip of one sequence.

    Attributes:
        sigma: The link sequence whose state flipped.
        kind: ``"onset"`` (neutral → non-neutral) or ``"offset"``.
        window_index: The window at which the CUSUM fired.
        interval: That window's end interval (detection timestamp).
        estimate_interval: The CUSUM change-point estimate — the end
            interval of the window after the statistic last sat at
            zero (where the level shift most plausibly began).
    """

    sigma: LinkSeq
    kind: str
    window_index: int
    interval: int
    estimate_interval: int


@dataclass(frozen=True)
class MonitorReport:
    """Aggregated output of one monitoring run.

    Attributes:
        windows: Every emitted :class:`WindowVerdict`, in order.
        change_points: CUSUM flips, in detection order.
        sigmas: Examined sequences (column order of the timelines).
        window_ends: ``(W,)`` end interval per window.
        scores: ``(W, |sigmas|)`` per-window unsolvability scores,
            NaN where a sequence was not examined.
        flagged: ``(W, |sigmas|)`` CUSUM state after each window.
        final: Algorithm 1 on the *whole* stream — identical to the
            one-shot :func:`~repro.experiments.runner.
            infer_from_measurements` verdict on the same records.
        interval_seconds: Interval length (timestamps ×).
    """

    windows: Tuple[WindowVerdict, ...]
    change_points: Tuple[ChangePoint, ...]
    sigmas: Tuple[LinkSeq, ...]
    window_ends: np.ndarray
    scores: np.ndarray
    flagged: np.ndarray
    final: Optional[AlgorithmResult]
    interval_seconds: float

    def onset(self, sigma: LinkSeq) -> Optional[ChangePoint]:
        """The first onset change point of ``sigma``, if any."""
        for cp in self.change_points:
            if cp.sigma == sigma and cp.kind == "onset":
                return cp
        return None

    def detection_delay(
        self, sigma: LinkSeq, true_interval: int
    ) -> Optional[int]:
        """Intervals from a true change at ``true_interval`` until
        ``sigma`` was first flagged (None if never flagged)."""
        cp = self.onset(sigma)
        if cp is None:
            return None
        return int(cp.interval) - int(true_interval)


def two_means_change_point(
    scores: Sequence[float],
    min_absolute: float = None,
    min_ratio: float = None,
) -> Optional[int]:
    """Retrospective change-point estimate via the paper's two-means.

    Splits one sequence's per-window score series into low/high
    clusters; when the split is separated, returns the index of the
    first window in the high cluster. ``None`` means no level shift.
    NaN entries (the uninformative windows of
    :attr:`MonitorReport.scores`) are skipped; the index counts them.

    Raises:
        MeasurementError: On an infinite score.
    """
    kwargs = {}
    if min_absolute is not None:
        kwargs["min_absolute"] = min_absolute
    if min_ratio is not None:
        kwargs["min_ratio"] = min_ratio
    arr = np.asarray(list(scores), dtype=float)
    kept = np.flatnonzero(~np.isnan(arr))
    if kept.size < 2:
        return None
    split = two_means_split(arr[kept], **kwargs)
    if not split.separated:
        return None
    above = kept[arr[kept] > split.threshold]
    return int(above[0]) if above.size else None


def cusum_update(
    stat: np.ndarray,
    flagged: np.ndarray,
    last_zero: np.ndarray,
    scores: np.ndarray,
    idx: int,
    reference: float,
    threshold: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """One window's CUSUM step for every sequence, in place.

    ``stat`` accumulates ``max(0, stat + excursion)``, the excursion
    being ``score − reference`` for neutral sequences and
    ``reference − score`` for flagged ones (a NaN sum resets to zero,
    as Python's ``max(0.0, nan)`` does). A sequence whose statistic
    exceeds ``threshold`` fires: its state flips and its statistic
    restarts at zero.

    Returns:
        ``(fired, estimates)``: the fired sequence positions,
        ascending, and for each the window after its statistic last
        sat at zero (the change-point estimate, at most ``idx``).
    """
    excursion = np.where(flagged, reference - scores, scores - reference)
    np.fmax(0.0, stat + excursion, out=stat)
    zero = stat == 0.0
    fired = np.flatnonzero(~zero & (stat > threshold))
    estimates = np.minimum(last_zero[fired] + 1, idx)
    flagged[fired] ^= True
    stat[fired] = 0.0
    last_zero[zero] = idx
    last_zero[fired] = idx
    return fired, estimates


class NeutralityMonitor:
    """Online neutrality inference over a record stream.

    Args:
        net: The inference graph (measured paths only).
        settings: Thresholds and decider knobs (only
            expected-mode normalization streams; see
            :mod:`repro.streaming.window`).
        window_intervals: Sliding-window length; ``None`` grows the
            window from the stream start (cumulative verdicts).
        stride: Verdict cadence in intervals (default: the window
            length, i.e. tumbling windows; or
            :data:`DEFAULT_STRIDE` for growing windows).
        min_pathsets: Algorithm 1's line-10 threshold.
        cusum_reference: CUSUM drift reference (default: the
            decider's ``definite`` bar).
        cusum_threshold: CUSUM firing threshold (default: same bar).
    """

    def __init__(
        self,
        net: Network,
        settings: EmulationSettings = EmulationSettings(),
        window_intervals: Optional[int] = None,
        stride: Optional[int] = None,
        min_pathsets: int = DEFAULT_MIN_PATHSETS,
        cusum_reference: Optional[float] = None,
        cusum_threshold: Optional[float] = None,
    ) -> None:
        if settings.normalization_mode != "expected":
            raise ConfigurationError(
                "the streaming monitor requires expected-mode "
                "normalization (sampled draws are not incremental)"
            )
        if window_intervals is not None and window_intervals < 1:
            raise ConfigurationError(
                f"window_intervals must be >= 1, got {window_intervals}"
            )
        self.stats = SlidingWindowStats(
            net,
            min_pathsets=min_pathsets,
            loss_threshold=settings.loss_threshold,
            interval_seconds=settings.interval_seconds,
        )
        self._min_absolute = settings.decider_min_absolute
        self._min_ratio = settings.decider_min_ratio
        self._definite = settings.decider_definite
        self.window_intervals = window_intervals
        self.stride = int(
            stride
            if stride is not None
            else (window_intervals or DEFAULT_STRIDE)
        )
        if self.stride < 1:
            raise ConfigurationError(
                f"stride must be >= 1, got {self.stride}"
            )
        self._reference = float(
            cusum_reference
            if cusum_reference is not None
            else settings.decider_definite
        )
        self._threshold = float(
            cusum_threshold
            if cusum_threshold is not None
            else settings.decider_definite
        )
        self.windows: List[WindowVerdict] = []
        self.change_points: List[ChangePoint] = []
        num_sigmas = self.stats.batch.num_systems
        self._stat = np.zeros(num_sigmas)
        self._flagged = np.zeros(num_sigmas, dtype=bool)
        self._last_zero = np.full(num_sigmas, -1, dtype=np.int64)
        self._score_rows: List[np.ndarray] = []
        self._flag_rows: List[np.ndarray] = []
        self._next_end = int(window_intervals or self.stride)
        self.interval_seconds = settings.interval_seconds
        # The examined sequences never change, so one lazy systems
        # view is shared across verdicts.
        self._systems = SliceSystemsView(self.stats.batch)
        # Once-per-monitor telemetry sampling:
        # disabled costs one boolean and a branch per window.
        self._tel = telemetry.enabled()
        if self._tel:
            reg = telemetry.get_registry()
            self._tel_window_seconds = reg.histogram(
                "repro_monitor_window_seconds",
                "windowed Algorithm 2 + Algorithm 1 update latency",
            )
            self._tel_windows = reg.counter(
                "repro_monitor_windows_total", "window verdicts emitted"
            )
            self._tel_uninformative = reg.counter(
                "repro_monitor_uninformative_windows_total",
                "windows with nothing to normalize",
            )
            self._tel_flips = {
                kind: reg.counter(
                    "repro_monitor_change_points_total",
                    "CUSUM verdict flips by kind", kind=kind,
                )
                for kind in ("onset", "offset")
            }
            self._tel_cusum_max = reg.gauge(
                "repro_monitor_cusum_stat_max",
                "largest CUSUM statistic across sequences after the "
                "last window",
            )

    # ------------------------------------------------------------------

    def evaluate_window(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, AlgorithmResult]:
        """Run windowed Algorithm 2 + Algorithm 1 over ``[lo, hi)``
        (without recording a timeline entry).

        The offline decide + prune tail,
        :func:`~repro.core.algorithm.identify_from_score_array`.
        Returns the ``(|sigmas|,)`` score array and the result; a
        slice family with no interval in which all its paths sent
        scores NaN there and is skipped in the result.

        Raises:
            MeasurementError: When no slice family of the window can
                be normalized (nothing to decide — the caller decides
                how to degrade).
        """
        batch = self.stats.batch
        y_member, y_pair_flat = self.stats.window_costs(lo, hi)
        score_array = batch_unsolvability_arrays(batch, y_member, y_pair_flat)
        if score_array.size and np.isnan(score_array).all():
            raise MeasurementError(
                "no slice family has an interval in which all its "
                "paths sent"
            )
        result = identify_from_score_array(
            batch,
            self.stats.skipped,
            score_array,
            make_cluster_decider(
                self._min_absolute, self._min_ratio, self._definite
            ),
            self._systems,
        )
        return score_array, result

    def _emit(self, end: int) -> WindowVerdict:
        if not self._tel:
            return self._emit_window(end)
        start = time.perf_counter()
        flips_before = len(self.change_points)
        with telemetry.span("monitor.window", end=end) as span:
            verdict = self._emit_window(end)
            span.set(informative=verdict.informative)
        self._tel_window_seconds.observe(time.perf_counter() - start)
        self._tel_windows.inc()
        if not verdict.informative:
            self._tel_uninformative.inc()
        for cp in self.change_points[flips_before:]:
            self._tel_flips[cp.kind].inc()
        if self._stat.size:
            self._tel_cusum_max.set(float(self._stat.max()))
        return verdict

    def _emit_window(self, end: int) -> WindowVerdict:
        lo = (
            0
            if self.window_intervals is None
            else max(0, end - self.window_intervals)
        )
        try:
            scores, result = self.evaluate_window(lo, end)
        except MeasurementError:
            # No slice family can be normalized in the window: emit a
            # no-information verdict, keep every CUSUM state
            # untouched.
            return self._emit_uninformative(lo, end)
        idx = len(self.windows)
        verdict = WindowVerdict(
            index=idx,
            start_interval=lo,
            end_interval=end,
            scores=result.scores,
            result=result,
        )
        self.windows.append(verdict)

        fired, estimates = cusum_update(
            self._stat,
            self._flagged,
            self._last_zero,
            scores,
            idx,
            self._reference,
            self._threshold,
        )
        sigmas = self.stats.batch.sigmas
        for k, estimate in zip(fired.tolist(), estimates.tolist()):
            self.change_points.append(
                ChangePoint(
                    sigma=sigmas[k],
                    kind="onset" if self._flagged[k] else "offset",
                    window_index=idx,
                    interval=end,
                    estimate_interval=self.windows[estimate].end_interval,
                )
            )
        self._score_rows.append(scores)
        self._flag_rows.append(self._flagged.copy())
        return verdict

    def _emit_uninformative(self, lo: int, end: int) -> WindowVerdict:
        idx = len(self.windows)
        verdict = WindowVerdict(
            index=idx,
            start_interval=lo,
            end_interval=end,
            scores={},
            result=None,
        )
        self.windows.append(verdict)
        self._score_rows.append(np.full(self._stat.size, np.nan))
        self._flag_rows.append(self._flagged.copy())
        return verdict

    def observe(self, chunk: RecordChunk) -> List[WindowVerdict]:
        """Feed one stream chunk; returns any newly closed windows."""
        self.stats.append(chunk)
        emitted: List[WindowVerdict] = []
        while self._next_end <= self.stats.num_intervals:
            emitted.append(self._emit(self._next_end))
            self._next_end += self.stride
        return emitted

    def run(self, stream) -> MonitorReport:
        """Consume a whole record stream and report."""
        for chunk in stream:
            self.observe(chunk)
        return self.report()

    def report(self) -> MonitorReport:
        """The timeline so far, plus the full-stream final verdict."""
        sigmas = self.stats.batch.sigmas
        num_windows = len(self.windows)
        final = None
        if self.stats.num_intervals > 0:
            try:
                _, final = self.evaluate_window(
                    0, self.stats.num_intervals
                )
            except MeasurementError:
                final = None  # whole stream uninformative
        return MonitorReport(
            windows=tuple(self.windows),
            change_points=tuple(self.change_points),
            sigmas=sigmas,
            window_ends=np.array(
                [w.end_interval for w in self.windows], dtype=np.int64
            ),
            scores=(
                np.stack(self._score_rows)
                if num_windows
                else np.zeros((0, len(sigmas)))
            ),
            flagged=(
                np.stack(self._flag_rows)
                if num_windows
                else np.zeros((0, len(sigmas)), dtype=bool)
            ),
            final=final,
            interval_seconds=self.interval_seconds,
        )


def monitor_scenario(
    scenario: Scenario,
    *,
    chunk_intervals: int,
    window_intervals: Optional[int],
    stride: Optional[int] = None,
    onset_interval: Optional[int] = None,
) -> Tuple[MonitorReport, CompiledScenario]:
    """Monitor one declarative scenario end to end.

    Compiles ``scenario``, drives its substrate in segment mode
    through an :class:`~repro.streaming.stream.EmulationStream` and
    feeds the chunks to a :class:`NeutralityMonitor` over the
    measured paths.
    The scenario's settings carry the only seed. With
    ``onset_interval`` set, the stream starts under the scenario's
    policy-free twin and switches the policy on at that interval.
    ``stride`` defaults to ``chunk_intervals``. This is what
    ``repro monitor`` runs.

    Returns:
        ``(report, compiled)``: the :class:`MonitorReport` and the
        compiled scenario (its ``ground_truth_links`` are the links
        that differentiate while the policy is on).

    Raises:
        ConfigurationError: For an onset without a policy, or one
            outside the stream.
    """
    from repro.experiments.runner import measured_subnetwork
    from repro.streaming.stream import EmulationStream
    from repro.substrate.scenario import compile_scenario

    if onset_interval is not None and scenario.policy is None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} schedules a policy onset but "
            "has no differentiation policy"
        )
    with telemetry.span(
        "monitor.task", name=scenario.name,
        substrate=scenario.substrate, seed=scenario.settings.seed,
    ):
        compiled = compile_scenario(scenario)
        start_specs = compiled.link_specs
        switches = {}
        if onset_interval is not None:
            start_specs = compile_scenario(
                replace(scenario, policy=None)
            ).link_specs
            switches[onset_interval] = compiled.link_specs
        stream = EmulationStream(
            compiled.network,
            compiled.classes,
            start_specs,
            compiled.workloads,
            settings=compiled.settings,
            substrate=compiled.substrate,
            chunk_intervals=chunk_intervals,
            switches=switches,
            # The monitor consumes only the chunks; dropping the
            # ground-truth history keeps long runs' memory bounded.
            keep_ground_truth=False,
        )
        monitor = NeutralityMonitor(
            measured_subnetwork(compiled.network, compiled.workloads),
            settings=compiled.settings,
            window_intervals=window_intervals,
            stride=stride if stride is not None else chunk_intervals,
        )
        return monitor.run(stream), compiled
