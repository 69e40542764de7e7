"""Monitoring tasks: one scenario's stream, end to end.

A :class:`MonitorTask` is plain picklable data — a declarative
:class:`~repro.substrate.scenario.Scenario` plus streaming knobs
(chunk/window/stride and an optional mid-run policy onset/offset
schedule). :func:`run_monitor_task` executes one task end to end:
compile the scenario, drive its substrate in segment mode through an
:class:`~repro.streaming.stream.EmulationStream` (switching the
differentiation policy on/off at the scheduled intervals), feed the
chunks to a :class:`~repro.streaming.monitor.NeutralityMonitor`, and
condense the result into a compact :class:`MonitorOutcome`.
``repro monitor`` runs one task this way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.network import LinkSeq
from repro.exceptions import ConfigurationError
from repro.streaming.monitor import ChangePoint, NeutralityMonitor
from repro.streaming.stream import EmulationStream
from repro.substrate.scenario import Scenario, compile_scenario


@dataclass(frozen=True)
class MonitorTask:
    """One scenario to monitor (plain, picklable data).

    Attributes:
        name: Unique task id (also the sweep cache/seed salt).
        scenario: The declarative experiment; its ``policy`` is the
            differentiation that the onset/offset schedule toggles.
        chunk_intervals: Intervals emulated per stream segment.
        window_intervals: Monitor window length (``None`` = growing).
        stride: Verdict cadence; defaults to ``chunk_intervals``.
        onset_interval: When set, the stream *starts neutral* and the
            scenario's policy switches on at this interval.
        offset_interval: Optional switch back to neutral.
    """

    name: str
    scenario: Scenario
    chunk_intervals: int = 50
    window_intervals: Optional[int] = 100
    stride: Optional[int] = None
    onset_interval: Optional[int] = None
    offset_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.onset_interval is not None and self.scenario.policy is None:
            raise ConfigurationError(
                f"task {self.name!r} schedules a policy onset but the "
                "scenario has no differentiation policy"
            )
        if self.offset_interval is not None and (
            self.onset_interval is None
            or self.offset_interval <= self.onset_interval
        ):
            raise ConfigurationError(
                f"task {self.name!r}: offset_interval must follow "
                "onset_interval"
            )


@dataclass(frozen=True)
class MonitorOutcome:
    """Compact, picklable summary of one monitored scenario.

    Attributes:
        name / substrate: Task identity.
        sigmas: Examined sequences (timeline column order).
        window_ends: ``(W,)`` end interval per window.
        scores: ``(W, |sigmas|)`` per-window unsolvability scores.
        flagged: ``(W, |sigmas|)`` CUSUM non-neutral state.
        change_points: Every detected flip.
        final_identified / final_neutral: The full-stream Algorithm 1
            verdict (matches the one-shot pipeline on these records).
        ground_truth_links: Links that differentiate while the policy
            is on.
        onset_interval: The scheduled onset (None = policy static).
        detection_delay_intervals: Intervals from the scheduled onset
            until a ground-truth-overlapping sequence was first
            flagged (None if never, or if no onset was scheduled).
        num_intervals: Stream length.
    """

    name: str
    substrate: str
    sigmas: Tuple[LinkSeq, ...]
    window_ends: np.ndarray
    scores: np.ndarray
    flagged: np.ndarray
    change_points: Tuple[ChangePoint, ...]
    final_identified: Tuple[LinkSeq, ...]
    final_neutral: Tuple[LinkSeq, ...]
    ground_truth_links: FrozenSet[str]
    onset_interval: Optional[int]
    detection_delay_intervals: Optional[int]
    num_intervals: int

    @property
    def verdict_non_neutral(self) -> bool:
        return bool(self.final_identified)

    def truth_sigmas(self) -> Tuple[LinkSeq, ...]:
        """Examined sequences overlapping the ground-truth links."""
        return tuple(
            sigma
            for sigma in self.sigmas
            if set(sigma) & self.ground_truth_links
        )


def _compile_task(seed: int, task: MonitorTask):
    """Lower one task to (settings, compiled scenario, start specs,
    switch schedule)."""
    settings = task.scenario.settings.with_seed(seed)
    scenario = replace(task.scenario, settings=settings)
    compiled_on = compile_scenario(scenario)
    switches = {}
    if task.onset_interval is not None:
        compiled_off = compile_scenario(replace(scenario, policy=None))
        start_specs = compiled_off.link_specs
        switches[task.onset_interval] = compiled_on.link_specs
        if task.offset_interval is not None:
            switches[task.offset_interval] = compiled_off.link_specs
    else:
        start_specs = compiled_on.link_specs
    return settings, compiled_on, start_specs, switches


def _outcome_from_report(
    task: MonitorTask,
    substrate: str,
    truth: FrozenSet[str],
    report,
    num_intervals: int,
) -> MonitorOutcome:
    """Condense a :class:`~repro.streaming.monitor.MonitorReport`
    into the task's compact outcome."""
    delay = None
    if task.onset_interval is not None:
        truth_cols = [
            k
            for k, sigma in enumerate(report.sigmas)
            if set(sigma) & truth
        ]
        if truth_cols and report.flagged.size:
            hit = np.flatnonzero(
                report.flagged[:, truth_cols].any(axis=1)
            )
            if hit.size:
                delay = int(
                    report.window_ends[hit[0]] - task.onset_interval
                )
    final = report.final
    return MonitorOutcome(
        name=task.name,
        substrate=substrate,
        sigmas=report.sigmas,
        window_ends=report.window_ends,
        scores=report.scores,
        flagged=report.flagged,
        change_points=report.change_points,
        final_identified=final.identified if final else (),
        final_neutral=final.neutral if final else (),
        ground_truth_links=truth,
        onset_interval=task.onset_interval,
        detection_delay_intervals=delay,
        num_intervals=num_intervals,
    )


def run_monitor_task(seed: int, task: MonitorTask) -> MonitorOutcome:
    """Execute one monitoring task end to end."""
    with telemetry.span(
        "monitor.task", name=task.name,
        substrate=task.scenario.substrate, seed=seed,
    ):
        return _run_monitor_task(seed, task)


def _run_monitor_task(seed: int, task: MonitorTask) -> MonitorOutcome:
    from repro.experiments.runner import measured_subnetwork

    settings, compiled_on, start_specs, switches = _compile_task(
        seed, task
    )
    stream = EmulationStream(
        compiled_on.network,
        compiled_on.classes,
        start_specs,
        compiled_on.workloads,
        settings=settings,
        substrate=task.scenario.substrate,
        chunk_intervals=task.chunk_intervals,
        switches=switches,
        # The monitor consumes only the chunks; dropping the
        # ground-truth history keeps long runs' memory bounded.
        keep_ground_truth=False,
    )
    inference_net = measured_subnetwork(
        compiled_on.network, compiled_on.workloads
    )
    monitor = NeutralityMonitor(
        inference_net,
        settings=settings,
        window_intervals=task.window_intervals,
        stride=(
            task.stride if task.stride is not None else task.chunk_intervals
        ),
    )
    report = monitor.run(stream)
    return _outcome_from_report(
        task,
        task.scenario.substrate,
        compiled_on.ground_truth_links,
        report,
        monitor.stats.num_intervals,
    )
