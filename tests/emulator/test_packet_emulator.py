"""Tests for the packet-level DES emulator (small scale)."""

import numpy as np
import pytest

from repro.core.classes import two_classes
from repro.core.network import Network, Path
from repro.emulator import PacketNetwork
from repro.exceptions import ConfigurationError, EmulationError
from repro.fluid.params import LinkSpec, PolicerSpec
from repro.measurement.normalize import path_congestion_probability


def _dumbbell(policer_rate=None):
    """A 2-path dumbbell at packet scale (hundreds of pps)."""
    net = Network(
        ["a1", "a2", "shared", "e1", "e2"],
        [
            Path("p1", ("a1", "shared", "e1")),
            Path("p2", ("a2", "shared", "e2")),
        ],
    )
    classes = two_classes(net, ["p2"])
    # 5000 / 500 packets/second, 500- / 50-packet queues, 5 ms hops;
    # the policer's bucket holds 8 packets.
    fast = LinkSpec(
        capacity_mbps=60.0, buffer_seconds=0.1, delay_seconds=0.005
    )
    shared = LinkSpec(
        capacity_mbps=6.0,
        buffer_seconds=0.1,
        delay_seconds=0.005,
        policer=(
            PolicerSpec(
                "c2", policer_rate / 500.0, burst_seconds=8.0 / policer_rate
            )
            if policer_rate
            else None
        ),
    )
    specs = {
        "a1": fast, "a2": fast, "e1": fast, "e2": fast,
        "shared": shared,
    }
    return net, classes, specs


class TestValidation:
    def test_flow_plan_required(self):
        net, classes, specs = _dumbbell()
        with pytest.raises(ConfigurationError):
            PacketNetwork(net, classes, specs, flow_plan=None)

    def test_unknown_path_rejected(self):
        net, classes, specs = _dumbbell()
        with pytest.raises(ConfigurationError):
            PacketNetwork(net, classes, specs, {"p9": [100]})

    def test_spec_validation(self):
        net, classes, specs = _dumbbell()
        with pytest.raises(ConfigurationError):
            LinkSpec(capacity_mbps=0)
        specs["shared"] = LinkSpec(policer=PolicerSpec("c9", 0.2))
        with pytest.raises(ConfigurationError):  # unknown class
            PacketNetwork(net, classes, specs, {"p1": [100]})

    def test_duration_validation(self):
        net, classes, specs = _dumbbell()
        sim = PacketNetwork(net, classes, specs, {"p1": [100]})
        with pytest.raises(EmulationError):
            sim.run(duration_seconds=0)


class TestBehaviour:
    def test_conservation(self):
        net, classes, specs = _dumbbell()
        sim = PacketNetwork(
            net, classes, specs, {"p1": [2000], "p2": [2000]}, seed=1
        )
        data = sim.run(duration_seconds=10.0).measurements
        for pid in ("p1", "p2"):
            rec = data.record(pid)
            assert rec.sent.sum() > 0
            assert (rec.lost <= rec.sent).all()

    def test_throughput_bounded_by_shared_link(self):
        net, classes, specs = _dumbbell()
        sim = PacketNetwork(
            net, classes, specs, {"p1": [100000], "p2": [100000]}, seed=1
        )
        data = sim.run(duration_seconds=10.0).measurements
        total = sum(
            data.record(p).sent.sum() for p in ("p1", "p2")
        )
        # Can't push much more than capacity (500 pps x 10 s) plus
        # queued/lost slack.
        assert total < 500 * 10 * 1.5

    def test_policer_differentiates(self):
        net, classes, specs = _dumbbell(policer_rate=100.0)
        sim = PacketNetwork(
            net, classes, specs, {"p1": [100000], "p2": [100000]}, seed=1
        )
        data = sim.run(duration_seconds=15.0).measurements
        p1 = path_congestion_probability(data, "p1")
        p2 = path_congestion_probability(data, "p2")
        assert p2 > p1

    def test_determinism(self):
        net, classes, specs = _dumbbell()
        runs = []
        for _ in range(2):
            sim = PacketNetwork(
                net, classes, specs, {"p1": [500], "p2": [500]}, seed=3
            )
            runs.append(sim.run(duration_seconds=5.0).measurements)
        np.testing.assert_array_equal(
            runs[0].record("p1").sent, runs[1].record("p1").sent
        )


class TestCrossValidation:
    def test_qualitative_agreement_with_fluid(self):
        """Packet-level policing produces the same qualitative signal
        the fluid emulator (and the paper) rely on: the policed class
        is congested far more often."""
        net, classes, specs = _dumbbell(policer_rate=100.0)
        sim = PacketNetwork(
            net, classes, specs, {"p1": [100000], "p2": [100000]}, seed=5
        )
        data = sim.run(duration_seconds=15.0).measurements
        p1 = path_congestion_probability(data, "p1")
        p2 = path_congestion_probability(data, "p2")
        assert p2 > 2 * p1
