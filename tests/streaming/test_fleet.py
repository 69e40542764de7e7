"""Monitoring tasks: ``run_monitor_task`` end to end, and task checks."""

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.streaming.fleet import (
    MonitorTask,
    _compile_task,
    run_monitor_task,
)
from repro.substrate.scenario import DifferentiationPolicy, Scenario

QUICK = EmulationSettings(
    duration_seconds=15.0, warmup_seconds=2.0, seed=1
)

POLICED = Scenario(
    name="policed",
    topology="dumbbell",
    policy=DifferentiationPolicy(mechanism="policing"),
    settings=QUICK,
)
NEUTRAL = Scenario(name="neutral", topology="dumbbell", settings=QUICK)


def _assert_same_outcome(a, b):
    assert a.sigmas == b.sigmas
    np.testing.assert_array_equal(a.window_ends, b.window_ends)
    # assert_array_equal treats same-position NaNs as equal
    # (uninformative windows score NaN).
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.flagged, b.flagged)
    assert a.change_points == b.change_points
    assert a.final_identified == b.final_identified
    assert a.final_neutral == b.final_neutral
    assert a.detection_delay_intervals == b.detection_delay_intervals
    assert a.num_intervals == b.num_intervals


def _onset_task():
    return MonitorTask(
        name="policed-onset",
        scenario=POLICED,
        chunk_intervals=25,
        window_intervals=75,
        onset_interval=50,
    )


class TestRunMonitorTask:
    def test_outcome_shape_and_neutral_stream(self):
        policed = run_monitor_task(1, _onset_task())
        neutral = run_monitor_task(
            1,
            MonitorTask(
                name="always-neutral",
                scenario=NEUTRAL,
                chunk_intervals=25,
                window_intervals=75,
            ),
        )
        assert policed.ground_truth_links == frozenset({"l5"})
        assert neutral.ground_truth_links == frozenset()
        # The neutral scenario never accumulates onto the CUSUM.
        assert not neutral.flagged.any()
        assert not neutral.verdict_non_neutral
        assert neutral.detection_delay_intervals is None
        # The policed stream covers 150 intervals; timelines align.
        assert policed.num_intervals == 150
        assert policed.scores.shape == (
            len(policed.window_ends),
            len(policed.sigmas),
        )

    def test_seed_determinism_and_baked_seed_ignored(self):
        """The ``seed`` argument alone seeds the emulation: the same
        seed reproduces the outcome bit for bit, and the seed baked
        into the scenario's settings does not change it."""
        task = _onset_task()
        reseeded = replace(
            task,
            scenario=replace(
                task.scenario,
                settings=task.scenario.settings.with_seed(99),
            ),
        )
        first = run_monitor_task(2, task)
        _assert_same_outcome(run_monitor_task(2, task), first)
        _assert_same_outcome(run_monitor_task(2, reseeded), first)

    def test_detection_delay_is_first_truth_flag_after_onset(self):
        """The delay runs from the onset to the end of the first
        window that flags a sequence through the policing link."""
        outcome = run_monitor_task(1, _onset_task())
        truth = [
            k
            for k, sigma in enumerate(outcome.sigmas)
            if "l5" in sigma
        ]
        hits = np.flatnonzero(outcome.flagged[:, truth].any(axis=1))
        assert hits.size  # the policer is caught
        assert outcome.onset_interval == 50
        assert outcome.detection_delay_intervals == (
            outcome.window_ends[hits[0]] - 50
        )
        assert outcome.detection_delay_intervals > 0
        assert outcome.verdict_non_neutral

    def test_policed_from_the_start_has_no_delay(self):
        """Without an onset there is nothing to time a delay from,
        even when the policer is caught."""
        outcome = run_monitor_task(
            1,
            MonitorTask(
                name="always-policed",
                scenario=POLICED,
                chunk_intervals=25,
                window_intervals=75,
            ),
        )
        assert outcome.ground_truth_links == frozenset({"l5"})
        assert outcome.verdict_non_neutral
        assert outcome.onset_interval is None
        assert outcome.detection_delay_intervals is None

    def test_onset_and_offset_switch_the_policy(self):
        """An onset/offset task starts neutral, switches the policed
        link specs in at the onset and the neutral ones back at the
        offset; the task's seed replaces the scenario's."""
        task = replace(_onset_task(), offset_interval=100)
        settings, compiled, start, switches = _compile_task(7, task)
        assert settings.seed == 7
        assert sorted(switches) == [50, 100]
        assert switches[50] == compiled.link_specs
        assert switches[100] == start
        assert start != compiled.link_specs
        assert start["l5"].policer is None
        assert compiled.link_specs["l5"].policer is not None

    def test_out_of_range_switch_raises(self):
        """An onset beyond the stream end raises ConfigurationError
        (EmulationStream validates switch bounds)."""
        bad = MonitorTask(
            name="late-onset",
            scenario=POLICED,
            chunk_intervals=25,
            window_intervals=75,
            onset_interval=10_000,  # stream is 150 intervals long
        )
        with pytest.raises(ConfigurationError):
            run_monitor_task(2, bad)

    def test_task_validation(self):
        with pytest.raises(ConfigurationError):
            MonitorTask(
                name="bad", scenario=NEUTRAL, onset_interval=10
            )
        with pytest.raises(ConfigurationError):
            MonitorTask(
                name="bad2",
                scenario=POLICED,
                onset_interval=50,
                offset_interval=40,
            )
