"""The substrate-level batch capability and its fallback route."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.fluid.params import (
    FlowSlotSpec,
    LinkSpec,
    PathWorkload,
    PolicerSpec,
)
from repro.substrate import (
    ScenarioBatch,
    get_substrate,
    run_scenario_batch,
    substrate_supports_batch,
)
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell

SETTINGS = EmulationSettings(duration_seconds=3.0, warmup_seconds=0.5)


def _fixture():
    topo = build_dumbbell()
    workloads = {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=4.0, mean_gap_seconds=2.0),)
            * 2,
            rtt_seconds=0.05,
        )
        for pid in topo.network.path_ids
    }

    def variant(rate):
        specs = dict(topo.link_specs)
        base = specs[SHARED_LINK]
        specs[SHARED_LINK] = LinkSpec(
            capacity_mbps=base.capacity_mbps,
            buffer_seconds=base.buffer_seconds,
            policer=PolicerSpec("c2", rate),
        )
        return specs

    return topo, workloads, variant


class TestScenarioBatch:
    def test_capability_flags(self):
        assert substrate_supports_batch("fluid")
        assert not substrate_supports_batch("packet")

    def test_compile_normalizes_and_validates(self):
        topo, workloads, variant = _fixture()
        batch = ScenarioBatch.compile(
            topo.network,
            topo.classes,
            workloads,
            [variant(0.2), variant(0.4)],
            seeds=[1, 2],
        )
        assert len(batch) == 2
        from repro.substrate.spec import LinkSpec

        assert all(
            isinstance(spec, LinkSpec)
            for specs in batch.variants
            for spec in specs.values()
        )

    def test_length_mismatches_rejected(self):
        topo, workloads, variant = _fixture()
        with pytest.raises(ConfigurationError):
            ScenarioBatch.compile(
                topo.network,
                topo.classes,
                workloads,
                [variant(0.2)],
                seeds=[1, 2],
            )
        with pytest.raises(ConfigurationError):
            ScenarioBatch.compile(
                topo.network, topo.classes, workloads, [], seeds=[]
            )

    def test_batched_matches_single_substrate_runs(self):
        topo, workloads, variant = _fixture()
        batch = ScenarioBatch.compile(
            topo.network,
            topo.classes,
            workloads,
            [variant(0.2), variant(0.45)],
            seeds=[5, 6],
        )
        results = run_scenario_batch(batch, SETTINGS, "fluid")
        backend = get_substrate("fluid")
        for i in range(2):
            single = backend.run(
                topo.network,
                topo.classes,
                batch.variants[i],
                workloads,
                SETTINGS.with_seed(batch.seeds[i]),
            )
            for pid in single.measurements.path_ids:
                np.testing.assert_array_equal(
                    single.measurements.record(pid).sent,
                    results[i].measurements.record(pid).sent,
                )
                np.testing.assert_array_equal(
                    single.measurements.record(pid).lost,
                    results[i].measurements.record(pid).lost,
                )

    def test_fallback_route_for_batchless_substrate(self):
        """The packet DES has no run_batch: variant-at-a-time fallback
        must produce exactly what single runs produce."""
        topo, workloads, variant = _fixture()
        batch = ScenarioBatch.compile(
            topo.network,
            topo.classes,
            workloads,
            [variant(0.25), variant(0.4)],
            seeds=[3, 4],
        )
        results = run_scenario_batch(batch, SETTINGS, "packet")
        assert len(results) == 2
        assert all(r.measurements.num_intervals == 30 for r in results)
        single = get_substrate("packet").run(
            topo.network,
            topo.classes,
            batch.variants[1],
            workloads,
            SETTINGS.with_seed(4),
        )
        for pid in single.measurements.path_ids:
            np.testing.assert_array_equal(
                single.measurements.record(pid).sent,
                results[1].measurements.record(pid).sent,
            )


class TestSingleVariant:
    def test_one_variant_batch_equals_run(self):
        """A one-variant batch (what every one-member
        ``run_scenarios`` call compiles) goes through the same program
        as a plain run: its result equals ``run`` with the variant's
        specs and seed."""
        topo, workloads, variant = _fixture()
        backend = get_substrate("fluid")
        single = ScenarioBatch.compile(
            topo.network,
            topo.classes,
            workloads,
            [variant(0.25)],
            seeds=[3],
        )
        [result] = run_scenario_batch(single, SETTINGS, "fluid")
        want = backend.run(
            topo.network,
            topo.classes,
            single.variants[0],
            workloads,
            SETTINGS.with_seed(3),
        )
        assert result.measurements.path_ids == want.measurements.path_ids
        for pid in want.measurements.path_ids:
            for field in ("sent", "lost"):
                np.testing.assert_array_equal(
                    getattr(result.measurements.record(pid), field),
                    getattr(want.measurements.record(pid), field),
                )
        for lid, per_class in want.link_class_drops.items():
            np.testing.assert_array_equal(
                result.queue_occupancy[lid], want.queue_occupancy[lid]
            )
            for cn, series in per_class.items():
                np.testing.assert_array_equal(
                    result.link_class_drops[lid][cn], series
                )
        assert result.flows_completed == want.flows_completed
