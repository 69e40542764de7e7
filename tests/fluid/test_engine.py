"""Tests for the fluid emulation engine.

These use short runs on the dumbbell; they check structural and
qualitative properties (conservation, differentiation direction,
determinism), not absolute performance numbers.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, EmulationError
from repro.fluid.engine import FluidNetwork
from repro.fluid.params import (
    FlowSlotSpec,
    LinkSpec,
    PathWorkload,
    PolicerSpec,
    ShaperSpec,
)
from repro.measurement.normalize import path_congestion_probability
from repro.topology.dumbbell import build_dumbbell


def _run(mechanism=None, rate=0.3, seed=7, duration=40.0, fpp=10):
    topo = build_dumbbell(mechanism=mechanism, rate_fraction=rate)
    wl = {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=10.0, mean_gap_seconds=2.0),)
            * fpp,
            rtt_seconds=0.05,
        )
        for pid in topo.network.path_ids
    }
    sim = FluidNetwork(
        topo.network, topo.classes, topo.link_specs, wl, seed=seed
    )
    return sim.run(duration_seconds=duration, warmup_seconds=5.0)


class TestValidation:
    def test_workloads_required(self):
        topo = build_dumbbell()
        with pytest.raises(ConfigurationError):
            FluidNetwork(topo.network, topo.classes, topo.link_specs)

    def test_missing_path_workload(self):
        topo = build_dumbbell()
        with pytest.raises(ConfigurationError):
            FluidNetwork(
                topo.network,
                topo.classes,
                topo.link_specs,
                {"p1": PathWorkload()},
            )

    def test_unknown_link_spec(self):
        topo = build_dumbbell()
        specs = dict(topo.link_specs)
        specs["l99"] = LinkSpec()
        wl = {pid: PathWorkload() for pid in topo.network.path_ids}
        with pytest.raises(ConfigurationError):
            FluidNetwork(topo.network, topo.classes, specs, wl)

    def test_unknown_target_class(self):
        topo = build_dumbbell()
        specs = dict(topo.link_specs)
        specs["l5"] = LinkSpec(policer=PolicerSpec("c9", 0.3))
        wl = {pid: PathWorkload() for pid in topo.network.path_ids}
        with pytest.raises(ConfigurationError):
            FluidNetwork(topo.network, topo.classes, specs, wl)

    def test_dt_must_divide_interval(self):
        topo = build_dumbbell()
        wl = {pid: PathWorkload() for pid in topo.network.path_ids}
        sim = FluidNetwork(topo.network, topo.classes, topo.link_specs, wl)
        with pytest.raises(EmulationError):
            sim.run(duration_seconds=1.0, dt=0.03, interval_seconds=0.1)

    def test_duration_positive(self):
        topo = build_dumbbell()
        wl = {pid: PathWorkload() for pid in topo.network.path_ids}
        sim = FluidNetwork(topo.network, topo.classes, topo.link_specs, wl)
        with pytest.raises(EmulationError):
            sim.run(duration_seconds=0.0)


class TestSessionInputs:
    """Bad session inputs raise the package's own errors, whether the
    session is opened by a single run or by a scenario batch."""

    def _sim(self):
        topo = build_dumbbell()
        wl = {pid: PathWorkload() for pid in topo.network.path_ids}
        return topo, wl, FluidNetwork(
            topo.network, topo.classes, topo.link_specs, wl
        )

    def test_negative_warmup_rejected(self):
        # A negative warmup would shift the interval boundaries, so the
        # first interval's RTT average would cover only part of it.
        _, _, sim = self._sim()
        with pytest.raises(EmulationError):
            sim.run(1.0, warmup_seconds=-0.05)

    def test_nan_warmup_rejected(self):
        _, _, sim = self._sim()
        with pytest.raises(EmulationError):
            sim.session(warmup_seconds=float("nan"))


class TestStructure:
    def test_result_shapes(self):
        res = _run(duration=20.0)
        assert res.measurements.num_intervals == 200
        for lid, occ in res.queue_occupancy.items():
            assert occ.shape == (200,)
        assert set(res.flows_completed) == {"p1", "p2", "p3", "p4"}

    def test_losses_never_exceed_sent(self):
        res = _run(duration=20.0)
        for pid in ("p1", "p2", "p3", "p4"):
            rec = res.measurements.record(pid)
            assert (rec.lost <= rec.sent).all()

    def test_drops_never_exceed_arrivals(self):
        res = _run(mechanism="policing", duration=20.0)
        for lid in res.link_class_arrivals:
            for cn in ("c1", "c2"):
                arr = res.link_class_arrivals[lid][cn]
                drp = res.link_class_drops[lid][cn]
                assert (drp <= arr + 1e-6).all()

    def test_determinism(self):
        a = _run(seed=11, duration=10.0)
        b = _run(seed=11, duration=10.0)
        for pid in ("p1", "p3"):
            np.testing.assert_array_equal(
                a.measurements.record(pid).sent,
                b.measurements.record(pid).sent,
            )
            np.testing.assert_array_equal(
                a.measurements.record(pid).lost,
                b.measurements.record(pid).lost,
            )

    def test_seed_changes_outcome(self):
        a = _run(seed=1, duration=10.0)
        b = _run(seed=2, duration=10.0)
        assert (
            a.measurements.record("p1").sent
            != b.measurements.record("p1").sent
        ).any()

    def test_unmeasured_paths_excluded(self):
        topo = build_dumbbell()
        wl = {
            pid: PathWorkload(measured=(pid != "p4"))
            for pid in topo.network.path_ids
        }
        sim = FluidNetwork(
            topo.network, topo.classes, topo.link_specs, wl, seed=0
        )
        res = sim.run(duration_seconds=5.0)
        assert "p4" not in res.measurements.path_ids


class TestDifferentiation:
    def test_policing_hits_target_class(self):
        res = _run(mechanism="policing", rate=0.3, duration=40.0)
        c1 = np.mean(
            [
                path_congestion_probability(res.measurements, p)
                for p in ("p1", "p2")
            ]
        )
        c2 = np.mean(
            [
                path_congestion_probability(res.measurements, p)
                for p in ("p3", "p4")
            ]
        )
        assert c2 > 2 * c1

    def test_policer_ground_truth_is_classed(self):
        res = _run(mechanism="policing", rate=0.3, duration=40.0)
        p_c1 = res.link_congestion_probability("l5", "c1")
        p_c2 = res.link_congestion_probability("l5", "c2")
        assert p_c2 > p_c1

    def test_neutral_link_treats_classes_alike(self):
        res = _run(mechanism=None, duration=40.0)
        p_c1 = res.link_congestion_probability("l5", "c1")
        p_c2 = res.link_congestion_probability("l5", "c2")
        assert abs(p_c1 - p_c2) < 0.1

    def test_shaping_buffers_in_dedicated_queue(self):
        res = _run(mechanism="shaping", rate=0.3, duration=40.0)
        # Shaper queues contribute to occupancy of l5.
        assert res.queue_occupancy["l5"].max() > 0
