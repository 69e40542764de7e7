"""Differential test: the batched packet engine vs the seed event loop.

``tests/oracles/event_reference.py`` is the frozen per-event packet
loop the batched engine (:class:`repro.emulator.PacketNetwork`)
replaced. The two consume randomness differently and batch ACKs and
losses differently, so they realize different sample paths of the same
model; they are compared on the quantities the inference pipeline
relies on — per-class congestion probabilities, each class's share of
the traffic, and the total carried over the shared link — on a
policed and a neutral dumbbell.
"""

import pytest
from oracles.event_reference import (
    EventPacketNetwork,
    PacketLinkSpec,
    packet_link_spec,
)

from repro.core.classes import two_classes
from repro.core.network import Network, Path
from repro.emulator import PacketNetwork
from repro.exceptions import ConfigurationError
from repro.fluid.params import AqmSpec, LinkSpec, PolicerSpec
from repro.measurement.normalize import path_congestion_probability

SHARED_PPS = 4000.0
SHARED_MBPS = 48.0  # 4000 packets/second at 1500 B
DURATION = 10.0


def _dumbbell(policer_pps=None):
    """Shared 4000 pps link (200-packet queue), 5x faster edges
    (500-packet queues), 10 ms per hop; the policer's bucket holds
    8 packets."""
    paths = [
        Path(f"p{i}", (f"a{i}", "shared", f"e{i}")) for i in range(1, 5)
    ]
    links = (
        [f"a{i}" for i in range(1, 5)]
        + ["shared"]
        + [f"e{i}" for i in range(1, 5)]
    )
    net = Network(links, paths)
    classes = two_classes(net, ["p3", "p4"])
    fast = LinkSpec(
        capacity_mbps=5 * SHARED_MBPS,
        buffer_seconds=500 / (5 * SHARED_PPS),
        delay_seconds=0.01,
    )
    specs = {lid: fast for lid in links}
    specs["shared"] = LinkSpec(
        capacity_mbps=SHARED_MBPS,
        buffer_seconds=200 / SHARED_PPS,
        delay_seconds=0.01,
        policer=(
            PolicerSpec(
                "c2",
                policer_pps / SHARED_PPS,
                burst_seconds=8.0 / policer_pps,
            )
            if policer_pps
            else None
        ),
    )
    return net, classes, specs


def _summary(engine_cls, policer_pps):
    net, classes, specs = _dumbbell(policer_pps)
    if engine_cls is EventPacketNetwork:
        specs = {lid: packet_link_spec(s) for lid, s in specs.items()}
    sim = engine_cls(
        net, classes, specs, {pid: [10**9] for pid in net.path_ids},
        seed=11,
    )
    result = sim.run(duration_seconds=DURATION)
    data = getattr(result, "measurements", result)
    sent = {pid: int(data.record(pid).sent.sum()) for pid in net.path_ids}
    total = sum(sent.values())
    return {
        "c1": (
            path_congestion_probability(data, "p1")
            + path_congestion_probability(data, "p2")
        ) / 2,
        "c2": (
            path_congestion_probability(data, "p3")
            + path_congestion_probability(data, "p4")
        ) / 2,
        "c2_share": (sent["p3"] + sent["p4"]) / total,
        "total": total,
    }


@pytest.fixture(scope="module")
def summaries():
    return {
        (name, label): _summary(engine_cls, policer)
        for name, engine_cls in (
            ("batched", PacketNetwork),
            ("reference", EventPacketNetwork),
        )
        for label, policer in (("policed", 1200.0), ("neutral", None))
    }


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_policer_differentiates_in_both_engines(summaries, engine):
    got = summaries[engine, "policed"]
    assert got["c2"] > got["c1"] + 0.05, got
    assert got["c2"] > 1.5 * got["c1"], got
    # Policed to 30 % of capacity, the class loses most of its share.
    assert got["c2_share"] < 0.25, got


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_neutral_link_treats_classes_alike(summaries, engine):
    got = summaries[engine, "neutral"]
    assert abs(got["c2"] - got["c1"]) < 0.05, got
    assert 0.35 < got["c2_share"] < 0.65, got


@pytest.mark.parametrize("label", ["policed", "neutral"])
def test_engines_carry_the_same_load(summaries, label):
    """Both engines keep the shared link near capacity."""
    batched = summaries["batched", label]["total"]
    reference = summaries["reference", label]["total"]
    capacity = SHARED_PPS * DURATION
    for total in (batched, reference):
        assert 0.8 * capacity < total < 1.2 * capacity, (label, total)
    assert abs(batched - reference) < 0.2 * reference, (
        label, batched, reference,
    )


def test_reference_rejects_newer_mechanisms():
    net, classes, specs = _dumbbell()
    specs = {lid: packet_link_spec(s) for lid, s in specs.items()}
    specs["shared"] = PacketLinkSpec(
        rate_pps=SHARED_PPS, aqm=AqmSpec("c2")
    )
    with pytest.raises(ConfigurationError):
        EventPacketNetwork(
            net, classes, specs, {pid: [100] for pid in net.path_ids}
        )
