"""Cross-substrate integration: packet-level DES → inference.

Validates that the full pipeline (per-packet emulation → Algorithm 2
normalization → Algorithm 1) reaches the same verdicts as the fluid
substrate on a small 4-path dumbbell, for both a neutral and a
policing shared link.
"""

import pytest

from repro.core import identify_non_neutral
from repro.core.algorithm import required_pathsets
from repro.core.classes import two_classes
from repro.core.network import Network, Path
from repro.emulator import PacketNetwork
from repro.fluid.params import LinkSpec, PolicerSpec
from repro.measurement import pathset_performance_numbers


def _four_path_dumbbell(policer_rate=None):
    paths = [
        Path(f"p{i}", (f"a{i}", "shared", f"e{i}"))
        for i in range(1, 5)
    ]
    links = (
        [f"a{i}" for i in range(1, 5)]
        + ["shared"]
        + [f"e{i}" for i in range(1, 5)]
    )
    net = Network(links, paths)
    classes = two_classes(net, ["p3", "p4"])
    # 5000 / 400 packets/second, 500- / 40-packet queues, 5 ms hops;
    # the policer's bucket holds 8 packets.
    fast = LinkSpec(
        capacity_mbps=60.0, buffer_seconds=0.1, delay_seconds=0.005
    )
    shared = LinkSpec(
        capacity_mbps=4.8,
        buffer_seconds=0.1,
        delay_seconds=0.005,
        policer=(
            PolicerSpec(
                "c2", policer_rate / 400.0, burst_seconds=8.0 / policer_rate
            )
            if policer_rate
            else None
        ),
    )
    specs = {lid: fast for lid in links}
    specs["shared"] = shared
    return net, classes, specs


def _run_pipeline(policer_rate, seed=11, duration=20.0):
    net, classes, specs = _four_path_dumbbell(policer_rate)
    sim = PacketNetwork(
        net,
        classes,
        specs,
        {pid: [50000] for pid in net.path_ids},
        seed=seed,
    )
    data = sim.run(duration_seconds=duration).measurements
    fam = required_pathsets(net)
    obs = pathset_performance_numbers(data, fam)
    return identify_non_neutral(net, obs)


class TestPacketPipeline:
    def test_policing_detected(self):
        result = _run_pipeline(policer_rate=60.0, duration=60.0)
        assert result.identified == (("shared",),), result.scores

    def test_scores_separate_cleanly(self):
        """The policed run's unsolvability dominates the neutral
        run's — the same signal structure the fluid substrate and
        the paper rely on. (Per-packet droptail decorrelates paths
        more than the fluid model, so the neutral score sits higher
        here; the claim is the separation, not the absolute level —
        see EXPERIMENTS.md substitution notes.)"""
        policed = _run_pipeline(policer_rate=60.0, duration=60.0)
        neutral = _run_pipeline(policer_rate=None, duration=60.0)
        assert (
            policed.scores[("shared",)]
            > 2 * neutral.scores[("shared",)]
        )
        assert neutral.scores[("shared",)] < 0.07
