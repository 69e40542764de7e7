"""MonitorFleet: multi-scenario monitoring with caching."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.experiments.sweep import derive_seed
from repro.streaming.fleet import MonitorFleet, MonitorTask, run_monitor_task
from repro.substrate.scenario import DifferentiationPolicy, Scenario

QUICK = EmulationSettings(
    duration_seconds=15.0, warmup_seconds=2.0, seed=1
)


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


def _tasks():
    policed = Scenario(
        name="policed",
        topology="dumbbell",
        policy=DifferentiationPolicy(mechanism="policing"),
        settings=QUICK,
    )
    neutral = Scenario(name="neutral", topology="dumbbell", settings=QUICK)
    return [
        MonitorTask(
            name="policed-onset",
            scenario=policed,
            chunk_intervals=25,
            window_intervals=75,
            onset_interval=50,
        ),
        MonitorTask(
            name="always-neutral",
            scenario=neutral,
            chunk_intervals=25,
            window_intervals=75,
        ),
    ]


class TestMonitorFleet:
    def test_outcomes_and_cache_determinism(self, tmp_path):
        fleet = MonitorFleet(base_seed=1, cache_dir=str(tmp_path))
        outcomes = fleet.run(_tasks())
        assert list(outcomes) == ["policed-onset", "always-neutral"]
        assert fleet.stats.cache_misses == 2

        policed = outcomes["policed-onset"]
        neutral = outcomes["always-neutral"]
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

        # Re-running replays every outcome from cache, identically.
        fleet2 = MonitorFleet(base_seed=1, cache_dir=str(tmp_path))
        replay = fleet2.run(_tasks())
        assert fleet2.stats.cache_hits == 2
        assert fleet2.stats.executed == 0
        for name, outcome in outcomes.items():
            np.testing.assert_array_equal(
                replay[name].scores, outcome.scores
            )
            np.testing.assert_array_equal(
                replay[name].flagged, outcome.flagged
            )
            assert replay[name].change_points == outcome.change_points

    def test_fleet_matches_run_monitor_task_exactly(self, tmp_path):
        """Every fleet outcome (scores, flags, change points, verdict,
        delay) is bit-identical to ``run_monitor_task`` at the task's
        derived seed, and a cached fleet replays it unchanged."""
        tasks = _tasks()
        fleet = MonitorFleet(base_seed=2, cache_dir=str(tmp_path))
        outcomes = fleet.run(tasks)
        replay = MonitorFleet(base_seed=2, cache_dir=str(tmp_path))
        replayed = replay.run(tasks)
        assert replay.stats.cache_hits == len(tasks)
        assert replay.stats.executed == 0
        for task in tasks:
            want = run_monitor_task(derive_seed(2, task.name), task)
            for got in (outcomes[task.name], replayed[task.name]):
                _assert_same_outcome(got, want)

    def test_out_of_range_switch_raises(self):
        """An onset beyond the stream end raises ConfigurationError
        (EmulationStream validates switch bounds)."""
        policed = Scenario(
            name="p",
            topology="dumbbell",
            policy=DifferentiationPolicy(mechanism="policing"),
            settings=QUICK,
        )
        bad = MonitorTask(
            name="late-onset",
            scenario=policed,
            chunk_intervals=25,
            window_intervals=75,
            onset_interval=10_000,  # stream is 150 intervals long
        )
        ok = _tasks()[0]
        with pytest.raises(ConfigurationError):
            MonitorFleet(base_seed=2).run([ok, bad])

    def test_baked_seed_does_not_change_outcome(self):
        """The per-task emulation seed is derived from the task name,
        so two tasks differing only in the scenario settings' baked
        seed give identical outcomes."""
        from dataclasses import replace

        task = _tasks()[0]
        reseeded = replace(
            task,
            scenario=replace(
                task.scenario,
                settings=task.scenario.settings.with_seed(99),
            ),
        )
        [a] = MonitorFleet(base_seed=2).run([task]).values()
        [b] = MonitorFleet(base_seed=2).run([reseeded]).values()
        _assert_same_outcome(a, b)

    def test_task_validation(self):
        neutral = Scenario(name="n", topology="dumbbell", settings=QUICK)
        with pytest.raises(ConfigurationError):
            MonitorTask(
                name="bad", scenario=neutral, onset_interval=10
            )
        policed = Scenario(
            name="p",
            topology="dumbbell",
            policy=DifferentiationPolicy(mechanism="policing"),
            settings=QUICK,
        )
        with pytest.raises(ConfigurationError):
            MonitorTask(
                name="bad2",
                scenario=policed,
                onset_interval=50,
                offset_interval=40,
            )


class TestAdaptiveFleet:
    """MonitorFleet.run_adaptive: detection-delay contours over a
    scenario lattice, cache-interchangeable with dense fleet runs."""

    @staticmethod
    def _factory():
        policed = Scenario(
            name="policed",
            topology="dumbbell",
            policy=DifferentiationPolicy(mechanism="policing"),
            settings=QUICK,
        )

        def factory(values):
            onset = int(values["onset"])
            return MonitorTask(
                name=f"onset{onset}",
                scenario=policed,
                chunk_intervals=25,
                window_intervals=75,
                onset_interval=onset,
            )

        return factory

    #: Onset lattice: early onsets are detected before the stream
    #: ends, the latest is not — the frontier is "how late can the
    #: differentiation start and still be caught".
    ONSETS = (25.0, 50.0, 75.0, 100.0, 125.0)

    def test_detectability_frontier_localized(self, tmp_path):
        from repro.experiments.adaptive import Cell, GridAxis

        fleet = MonitorFleet(base_seed=1, cache_dir=str(tmp_path))
        result = fleet.run_adaptive(
            (GridAxis("onset", self.ONSETS),), self._factory()
        )
        # Detected at the early onsets, never at the latest one; the
        # flip is localized to the last grid step (onset 100..125).
        assert result.labels[(0,)] == 1
        assert result.labels[(4,)] == 0
        assert result.frontier == (Cell(origin=(3,), step=(1,)),)
        # Bisection skipped onset 50 entirely.
        assert (1,) not in result.labels
        assert result.evaluated == 4
        assert result.results["onset125"].detection_delay_intervals is None
        assert result.results["onset100"].detection_delay_intervals is not None

        # Dense fleet runs over the visited tasks replay the adaptive
        # run's cache entries — shared keys, shared digests.
        factory = self._factory()
        fleet2 = MonitorFleet(base_seed=1, cache_dir=str(tmp_path))
        outcomes = fleet2.run(
            [factory({"onset": o}) for o in (25.0, 75.0, 100.0, 125.0)]
        )
        assert fleet2.stats.cache_hits == 4
        assert fleet2.stats.executed == 0
        for name, outcome in outcomes.items():
            np.testing.assert_array_equal(
                outcome.flagged, result.results[name].flagged
            )

        # The budget counts cache hits: a warm rerun follows the same
        # trajectory, and a budget at the coarse pass drops the
        # refinement loudly instead of silently truncating.
        warm_fleet = MonitorFleet(base_seed=1, cache_dir=str(tmp_path))
        with pytest.warns(RuntimeWarning, match="partial"):
            partial = warm_fleet.run_adaptive(
                (GridAxis("onset", self.ONSETS),),
                self._factory(),
                budget=2,
            )
        assert partial.budget_used == 2
        assert partial.dropped
        assert "PARTIAL" in partial.summary()


class TestFleetPool:
    def test_fleet_reuses_one_warm_pool(self):
        """Two fleet runs on one worker pool: pool created once,
        outcomes identical to an inline fleet."""
        inline = MonitorFleet(base_seed=1).run(_tasks())
        with MonitorFleet(base_seed=1, workers=2) as fleet:
            first = fleet.run(_tasks())
            assert fleet.stats.pool_reused is False
            second = fleet.run(_tasks())
            assert fleet.stats.pool_reused is True
            assert fleet._runner.executor.pools_created == 1
        assert list(first) == list(inline)
        for name in inline:
            for got in (first[name], second[name]):
                np.testing.assert_array_equal(
                    got.scores, inline[name].scores
                )
                assert got.change_points == inline[name].change_points
                assert (
                    got.final_identified
                    == inline[name].final_identified
                )

    def test_close_is_idempotent(self):
        fleet = MonitorFleet(base_seed=1, workers=2)
        fleet.close()
        fleet.close()
