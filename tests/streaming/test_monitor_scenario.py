"""Monitored scenarios: ``monitor_scenario`` end to end, and its checks."""

from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.streaming import stream as stream_module
from repro.streaming.monitor import monitor_scenario
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

GEOMETRY = dict(chunk_intervals=25, window_intervals=75)


def _assert_same_report(a, b):
    assert a.sigmas == b.sigmas
    np.testing.assert_array_equal(a.window_ends, b.window_ends)
    # assert_array_equal treats same-position NaNs as equal
    # (uninformative windows score NaN).
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.flagged, b.flagged)
    assert a.change_points == b.change_points
    assert a.final.identified == b.final.identified
    assert a.final.neutral == b.final.neutral


class TestMonitorScenario:
    def test_report_shape_and_neutral_stream(self):
        policed, compiled = monitor_scenario(
            POLICED, onset_interval=50, **GEOMETRY
        )
        neutral, neutral_compiled = monitor_scenario(NEUTRAL, **GEOMETRY)
        assert compiled.ground_truth_links == frozenset({"l5"})
        assert neutral_compiled.ground_truth_links == frozenset()
        # The neutral scenario never accumulates onto the CUSUM.
        assert not neutral.flagged.any()
        assert not neutral.change_points
        assert not neutral.final.identified
        # The stride defaults to the chunk: windows end every 25
        # intervals up to the 150-interval stream end.
        assert policed.window_ends.tolist() == [75, 100, 125, 150]
        assert policed.scores.shape == (
            len(policed.window_ends),
            len(policed.sigmas),
        )

    def test_settings_seed_is_the_only_seed(self):
        """The scenario's settings seed the emulation: the same seed
        reproduces the report bit for bit, and the span of the run
        records it."""
        telemetry.configure(enabled=True)
        first, _ = monitor_scenario(POLICED, onset_interval=50, **GEOMETRY)
        [record] = [
            r for r in telemetry.get_tracer().finished
            if r["name"] == "monitor.task"
        ]
        telemetry.configure(enabled=False)
        assert record["attrs"] == {
            "name": "policed", "substrate": "fluid", "seed": QUICK.seed,
        }
        again, _ = monitor_scenario(POLICED, onset_interval=50, **GEOMETRY)
        _assert_same_report(again, first)
        reseeded, _ = monitor_scenario(
            replace(POLICED, settings=QUICK.with_seed(2)),
            onset_interval=50,
            **GEOMETRY,
        )
        assert not np.array_equal(reseeded.scores, first.scores)

    def test_onset_starts_policy_free_and_switches_once(self, monkeypatch):
        """With an onset the stream starts under the policy-free twin's
        specs and switches the policed specs in at the onset, without
        keeping the ground-truth history."""
        streams = []

        class Recording(stream_module.EmulationStream):
            def __init__(self, net, classes, link_specs, workloads, **kw):
                super().__init__(net, classes, link_specs, workloads, **kw)
                streams.append((link_specs, kw))

        monkeypatch.setattr(stream_module, "EmulationStream", Recording)
        _, compiled = monitor_scenario(
            POLICED, onset_interval=50, **GEOMETRY
        )
        [(start, kwargs)] = streams
        assert kwargs["switches"] == {50: compiled.link_specs}
        assert start["l5"].policer is None
        assert compiled.link_specs["l5"].policer is not None
        assert kwargs["keep_ground_truth"] is False
        assert kwargs["settings"] == compiled.settings == QUICK

    def test_policed_from_the_start(self, monkeypatch):
        """Without an onset a policed scenario streams under its own
        specs from the first interval, with no switch, and the monitor
        identifies the policed link."""
        streams = []

        class Recording(stream_module.EmulationStream):
            def __init__(self, net, classes, link_specs, workloads, **kw):
                super().__init__(net, classes, link_specs, workloads, **kw)
                streams.append((link_specs, kw))

        monkeypatch.setattr(stream_module, "EmulationStream", Recording)
        report, compiled = monitor_scenario(POLICED, **GEOMETRY)
        [(start, kwargs)] = streams
        assert start is compiled.link_specs
        assert start["l5"].policer is not None
        assert kwargs["switches"] == {}
        assert compiled.ground_truth_links == frozenset({"l5"})
        assert report.final.identified
        assert not report.final.neutral

    def test_first_truth_onset_is_first_truth_flag(self):
        """``detection_delay`` over the truth sequences gives the end
        of the first window that flags one of them, minus the onset:
        a flag turns on only at an onset change point."""
        report, compiled = monitor_scenario(
            POLICED, onset_interval=50, **GEOMETRY
        )
        truth = [
            k
            for k, sigma in enumerate(report.sigmas)
            if set(sigma) & compiled.ground_truth_links
        ]
        hits = np.flatnonzero(report.flagged[:, truth].any(axis=1))
        assert hits.size  # the policer is caught
        delays = [
            report.detection_delay(report.sigmas[k], 50) for k in truth
        ]
        delay = min(d for d in delays if d is not None)
        assert delay == report.window_ends[hits[0]] - 50
        assert delay > 0
        assert report.final.identified

    def test_out_of_range_onset_raises(self):
        """An onset beyond the stream end raises ConfigurationError
        (EmulationStream validates switch bounds)."""
        with pytest.raises(ConfigurationError):
            # The stream is 150 intervals long.
            monitor_scenario(POLICED, onset_interval=10_000, **GEOMETRY)

    def test_onset_without_policy_raises(self):
        with pytest.raises(ConfigurationError, match="no differentiation"):
            monitor_scenario(NEUTRAL, onset_interval=10, **GEOMETRY)
