"""Tests for the §7 latency-threshold metric."""

import math

import numpy as np
import pytest

from repro.core import identify_non_neutral
from repro.core.algorithm import required_pathsets
from repro.core.network import network_from_path_specs
from repro.exceptions import MeasurementError
from repro.measurement.latency import (
    latency_congestion_probability,
    latency_indicators,
    latency_performance_numbers,
)


def _delays(pattern):
    return {pid: np.array(vals, dtype=float) for pid, vals in pattern.items()}


class TestIndicators:
    def test_thresholding(self):
        ok, ids = latency_indicators(
            _delays({"p1": [0.05, 0.2, 0.08]}), threshold_seconds=0.1
        )
        np.testing.assert_array_equal(ok[0], [1, 0, 1])

    def test_validation(self):
        with pytest.raises(MeasurementError):
            latency_indicators(_delays({"p1": [0.1]}), 0.0)
        with pytest.raises(MeasurementError):
            latency_indicators({}, 0.1)
        with pytest.raises(MeasurementError):
            latency_indicators(
                _delays({"p1": [0.1], "p2": [0.1, 0.2]}), 0.1
            )
        with pytest.raises(MeasurementError):
            latency_indicators(_delays({"p1": [0.05, 0.05]}), math.nan)
        with pytest.raises(MeasurementError):
            latency_indicators(_delays({"p1": [0.05, math.nan]}), 0.1)
        with pytest.raises(MeasurementError):
            latency_indicators({"p1": np.full((2, 3), 0.05)}, 0.1)
        # The same inputs through the performance numbers.
        fam = (frozenset({"p1"}),)
        for delays, threshold in (
            (_delays({"p1": [0.05, 0.05]}), math.nan),
            (_delays({"p1": [0.05, math.nan]}), 0.1),
            ({"p1": np.full((2, 3), 0.05)}, 0.1),
        ):
            with pytest.raises(MeasurementError):
                latency_performance_numbers(delays, fam, threshold)


class TestPerformanceNumbers:
    def test_joint_probability(self):
        delays = _delays(
            {
                "p1": [0.05, 0.20, 0.05, 0.05],
                "p2": [0.05, 0.05, 0.20, 0.05],
            }
        )
        fam = (
            frozenset({"p1"}),
            frozenset({"p2"}),
            frozenset({"p1", "p2"}),
        )
        obs = latency_performance_numbers(delays, fam, 0.1)
        assert math.exp(-obs[frozenset({"p1"})]) == pytest.approx(0.75)
        assert math.exp(
            -obs[frozenset({"p1", "p2"})]
        ) == pytest.approx(0.5)

    def test_missing_path(self):
        with pytest.raises(MeasurementError):
            latency_performance_numbers(
                _delays({"p1": [0.1]}), (frozenset({"p9"}),), 0.1
            )

    def test_probability_clamped(self):
        obs = latency_performance_numbers(
            _delays({"p1": [0.5] * 10}), (frozenset({"p1"}),), 0.1
        )
        assert math.isfinite(obs[frozenset({"p1"})])

    def test_congestion_probability(self):
        p = latency_congestion_probability(
            _delays({"p1": [0.05, 0.2, 0.2, 0.05]}), "p1", 0.1
        )
        assert p == pytest.approx(0.5)


class TestEndToEndLatencyInference:
    def test_latency_only_violation_detected(self):
        """A hub that delays one class (without dropping) is caught
        through the latency metric: the delayed paths exceed the
        threshold together."""
        rng = np.random.default_rng(0)
        net = network_from_path_specs(
            {f"p{i}": ["hub", f"s{i}"] for i in range(1, 5)}
        )
        intervals = 2000
        base = rng.uniform(0.04, 0.06, size=(4, intervals))
        # The hub queues class-2 traffic (p3, p4) 15% of the time.
        delayed = rng.random(intervals) < 0.15
        delays = {}
        for i in range(1, 5):
            series = base[i - 1].copy()
            if i >= 3:
                series = np.where(delayed, series + 0.2, series)
            delays[f"p{i}"] = series
        fam = required_pathsets(net)
        obs = latency_performance_numbers(delays, fam, 0.1)
        result = identify_non_neutral(net, obs)
        assert result.identified == (("hub",),)

    def test_neutral_latency_consistent(self):
        """Shared latency spikes hit everyone: consistent, neutral."""
        rng = np.random.default_rng(1)
        net = network_from_path_specs(
            {f"p{i}": ["hub", f"s{i}"] for i in range(1, 5)}
        )
        intervals = 2000
        spike = rng.random(intervals) < 0.1
        delays = {
            f"p{i}": np.where(
                spike, 0.25, rng.uniform(0.04, 0.06, size=intervals)
            )
            for i in range(1, 5)
        }
        fam = required_pathsets(net)
        obs = latency_performance_numbers(delays, fam, 0.1)
        result = identify_non_neutral(net, obs)
        assert result.identified == ()


class TestFluidRttTrace:
    def test_engine_records_rtt(self):
        from repro.fluid import FluidNetwork
        from repro.topology.dumbbell import build_dumbbell
        from repro.workloads.profiles import class_workload

        topo = build_dumbbell()
        wl = class_workload(
            topo.network.path_ids,
            flows_per_path=5,
            mean_size_mb=10,
            mean_gap_seconds=1.0,
        )
        sim = FluidNetwork(
            topo.network, topo.classes, topo.link_specs, wl, seed=0
        )
        res = sim.run(duration_seconds=10.0)
        assert set(res.path_rtt_seconds) == set(topo.network.path_ids)
        for series in res.path_rtt_seconds.values():
            assert series.shape == (100,)
            assert (series >= 0.049).all()  # at least the base RTT


class TestPacketRttTrace:
    def test_idle_intervals_record_at_least_the_base_rtt(self):
        """An interval that closes on a quantum with no packets in
        flight samples its queues like a busy one: every RTT is at
        least the path's base RTT (three 5 ms hops each way plus
        2 ms, here), never 0 s. The flows of this short plan finish
        and idle for a second, so some intervals close idle."""
        from repro.core.classes import two_classes
        from repro.core.network import Network, Path
        from repro.emulator import PacketNetwork
        from repro.fluid.params import LinkSpec

        net = Network(
            ["a1", "a2", "shared", "e1", "e2"],
            [
                Path("p1", ("a1", "shared", "e1")),
                Path("p2", ("a2", "shared", "e2")),
            ],
        )
        fast = LinkSpec(
            capacity_mbps=60.0, buffer_seconds=0.1, delay_seconds=0.005
        )
        shared = LinkSpec(
            capacity_mbps=6.0, buffer_seconds=0.1, delay_seconds=0.005
        )
        specs = {lid: fast for lid in ("a1", "a2", "e1", "e2")}
        specs["shared"] = shared
        sim = PacketNetwork(
            net, two_classes(net, ["p2"]), specs,
            {"p1": [500], "p2": [500]}, seed=3,
        )
        res = sim.run(duration_seconds=5.0)
        assert set(res.path_rtt_seconds) == {"p1", "p2"}
        for series in res.path_rtt_seconds.values():
            assert series.shape == (50,)
            assert (series >= 0.032 - 1e-12).all()
