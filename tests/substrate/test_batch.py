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
                topo.network,
                topo.classes,
                workloads,
                [variant(0.2), variant(0.3)],
                seeds=[1, 2],
                durations=[3.0],
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
            durations=[2.0, 3.0],
        )
        results = run_scenario_batch(batch, SETTINGS, "packet")
        assert len(results) == 2
        assert results[0].measurements.num_intervals == 20
        assert results[1].measurements.num_intervals == 30

    def test_per_variant_durations_through_capability(self):
        topo, workloads, variant = _fixture()
        batch = ScenarioBatch.compile(
            topo.network,
            topo.classes,
            workloads,
            [variant(0.25), variant(0.4)],
            seeds=[3, 4],
            durations=[2.0, 3.0],
        )
        results = run_scenario_batch(batch, SETTINGS, "fluid")
        assert results[0].measurements.num_intervals == 20
        assert results[1].measurements.num_intervals == 30

    def test_start_batch_session(self):
        topo, workloads, variant = _fixture()
        backend = get_substrate("fluid")
        from repro.substrate.spec import normalize_specs

        session = backend.start_batch(
            topo.network,
            topo.classes,
            [
                normalize_specs(variant(0.2)),
                normalize_specs(variant(0.4)),
            ],
            workloads,
            SETTINGS,
            seeds=[7, 8],
        )
        chunks = session.advance(10)
        assert session.num_scenarios == 2
        assert all(c.num_intervals == 10 for c in chunks)
        session.set_link_specs(variant(0.3), scenario=0)
        chunks = session.advance(5)
        assert all(c.start_interval == 10 for c in chunks)
        assert session.result(0).measurements.num_intervals == 15


class TestSubset:
    def _batch(self):
        topo, workloads, variant = _fixture()
        return topo, ScenarioBatch.compile(
            topo.network,
            topo.classes,
            workloads,
            [variant(0.2), variant(0.3), variant(0.45)],
            seeds=[5, 6, 7],
            durations=[2.0, 3.0, 4.0],
        )

    def test_selects_variants_seeds_durations(self):
        _, batch = self._batch()
        sub = batch.subset([2, 0])
        assert len(sub) == 2
        assert sub.seeds == (7, 5)
        assert sub.durations == (4.0, 2.0)
        assert sub.variants == (batch.variants[2], batch.variants[0])
        # The shared scenario is reused, not re-normalized.
        assert sub.net is batch.net
        assert sub.workloads is batch.workloads

    def test_no_durations_stays_none(self):
        topo, workloads, variant = _fixture()
        batch = ScenarioBatch.compile(
            topo.network,
            topo.classes,
            workloads,
            [variant(0.2), variant(0.3)],
            seeds=[5, 6],
        )
        assert batch.subset([1]).durations is None

    def test_out_of_range_index_rejected(self):
        _, batch = self._batch()
        with pytest.raises(ConfigurationError):
            batch.subset([3])
        with pytest.raises(ConfigurationError):
            batch.subset([-1])

    def test_subset_runs_identically_to_full_batch(self):
        """The batched engines are variant-independent, so carving a
        subset out of a compiled batch reproduces the full batch's
        per-variant records exactly."""
        _, batch = self._batch()
        full = run_scenario_batch(batch, SETTINGS, "fluid")
        part = run_scenario_batch(batch.subset([0, 2]), SETTINGS, "fluid")
        for got, want in zip(part, (full[0], full[2])):
            for pid in want.measurements.path_ids:
                np.testing.assert_array_equal(
                    got.measurements.record(pid).sent,
                    want.measurements.record(pid).sent,
                )
                np.testing.assert_array_equal(
                    got.measurements.record(pid).lost,
                    want.measurements.record(pid).lost,
                )


class TestSingleVariant:
    def test_one_variant_batch_equals_run(self):
        """A one-variant batch (the tail of an adaptive refinement
        wave) goes through the same program as a plain run: its
        result equals ``run`` with the variant's specs and seed."""
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
