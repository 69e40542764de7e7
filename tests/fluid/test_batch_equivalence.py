"""Scenario-batched engine ≡ independent single runs, bit for bit.

The batched fluid engine's contract (:mod:`repro.fluid.batch`) is
floating-point identity: slicing scenario ``b`` out of a batch must
give *exactly* the arrays a lone :class:`~repro.fluid.engine.
FluidNetwork` produces with that scenario's specs and seed — same
records, same ground truth, same RTT traces, same queue occupancy.
These tests pin that contract over random topologies, random
mechanism mixes (policing / shaping / AQM / weighted / neutral),
random durations, and a mid-run spec swap of every world through the
session path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.classes import two_classes
from repro.exceptions import ConfigurationError
from repro.fluid.batch import FluidBatchNetwork
from repro.fluid.engine import FluidNetwork
from repro.fluid.params import (
    AqmSpec,
    FlowSlotSpec,
    LinkSpec,
    PathWorkload,
    PolicerSpec,
    ShaperSpec,
    WeightedShaperSpec,
)
from repro.topology.generators import chain_network, star_network

DT = 0.01
INTERVAL = 0.1


def _assert_results_identical(single, batched, label=""):
    assert (
        single.measurements.path_ids == batched.measurements.path_ids
    ), label
    for pid in single.measurements.path_ids:
        rs = single.measurements.record(pid)
        rb = batched.measurements.record(pid)
        np.testing.assert_array_equal(rs.sent, rb.sent, err_msg=f"{label} sent {pid}")
        np.testing.assert_array_equal(rs.lost, rb.lost, err_msg=f"{label} lost {pid}")
    for lid, trace in single.queue_occupancy.items():
        np.testing.assert_array_equal(
            trace, batched.queue_occupancy[lid], err_msg=f"{label} occ {lid}"
        )
    for lid, per_class in single.link_class_arrivals.items():
        for cn, series in per_class.items():
            np.testing.assert_array_equal(
                series,
                batched.link_class_arrivals[lid][cn],
                err_msg=f"{label} arrivals {lid}/{cn}",
            )
            np.testing.assert_array_equal(
                single.link_class_drops[lid][cn],
                batched.link_class_drops[lid][cn],
                err_msg=f"{label} drops {lid}/{cn}",
            )
    for pid, series in single.path_rtt_seconds.items():
        np.testing.assert_array_equal(
            series,
            batched.path_rtt_seconds[pid],
            err_msg=f"{label} rtt {pid}",
        )
    assert single.flows_completed == batched.flows_completed, label


def _topology(draw):
    kind = draw(st.sampled_from(["star3", "star4", "chain"]))
    if kind == "chain":
        net = chain_network(num_hops=2, num_paths=3)
    else:
        net = star_network(int(kind[-1]))
    c2 = sorted(net.path_ids)[: max(1, len(net.path_ids) // 2)]
    classes = two_classes(net, c2)
    return net, classes


def _mechanism(draw, target):
    family = draw(
        st.sampled_from(["policer", "shaper", "aqm", "weighted", "none"])
    )
    rate = draw(
        st.floats(0.15, 0.6).filter(lambda r: 0.0 < r < 1.0)
    )
    if family == "policer":
        return {"policer": PolicerSpec(target, rate)}
    if family == "shaper":
        return {"shaper": ShaperSpec(target, rate)}
    if family == "aqm":
        return {"aqm": AqmSpec(target)}
    if family == "weighted":
        return {"weighted": WeightedShaperSpec(target, rate)}
    return {}


def _spec_set(draw, net, classes):
    """One scenario's link specs: 1–2 differentiating links."""
    link_ids = sorted(net.link_ids)
    # Differentiate on the most-shared link(s) so mechanisms see
    # cross-class traffic; capacities low enough to congest quickly.
    shared = sorted(
        link_ids,
        key=lambda lid: -sum(lid in net.path(p).links for p in net.path_ids),
    )
    specs = {}
    num_mech = draw(st.integers(0, 2))
    for lid in shared[:num_mech]:
        specs[lid] = LinkSpec(
            capacity_mbps=draw(st.sampled_from([30.0, 50.0])),
            buffer_seconds=0.1,
            **_mechanism(draw, "c2"),
        )
    for lid in link_ids:
        specs.setdefault(
            lid,
            LinkSpec(capacity_mbps=60.0, buffer_seconds=0.1),
        )
    return specs


def _workloads(draw, net):
    out = {}
    for pid in sorted(net.path_ids):
        out[pid] = PathWorkload(
            slots=(
                FlowSlotSpec(
                    mean_size_mb=draw(st.sampled_from([2.0, 6.0, 15.0])),
                    mean_gap_seconds=draw(st.sampled_from([0.5, 2.0])),
                ),
            )
            * draw(st.integers(1, 3)),
            rtt_seconds=draw(st.sampled_from([0.03, 0.05, 0.08])),
            congestion_control=draw(
                st.sampled_from(["cubic", "newreno"])
            ),
        )
    return out


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_batched_slices_match_single_runs(data):
    """Random topologies/specs/duration: batch[b] == single run b."""
    draw = data.draw
    net, classes = _topology(draw)
    workloads = _workloads(draw, net)
    num_scenarios = draw(st.integers(2, 4))
    spec_sets = [
        _spec_set(draw, net, classes) for _ in range(num_scenarios)
    ]
    seeds = [
        draw(st.integers(0, 2**20)) for _ in range(num_scenarios)
    ]
    duration = draw(st.sampled_from([2.0, 3.0, 4.0]))
    warmup = draw(st.sampled_from([0.0, 0.5]))

    batched = FluidBatchNetwork(
        net, classes, spec_sets, workloads, seeds
    ).run(
        duration, dt=DT, interval_seconds=INTERVAL, warmup_seconds=warmup,
    )
    for b in range(num_scenarios):
        single = FluidNetwork(
            net, classes, spec_sets[b], workloads, seed=seeds[b]
        ).run(
            duration_seconds=duration,
            dt=DT,
            interval_seconds=INTERVAL,
            warmup_seconds=warmup,
        )
        _assert_results_identical(single, batched[b], label=f"b={b}")


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_session_segment_swaps_match_single_sessions(data):
    """A mid-run spec swap of every world through the session path.

    Each scenario advances in the same segmentation in batch and
    single form; at a random chunk boundary the batch swaps every
    world to one drawn spec set, and each single session swaps to the
    same set. Chunks and packaged results must be bit-identical.
    """
    draw = data.draw
    net, classes = _topology(draw)
    workloads = _workloads(draw, net)
    num_scenarios = draw(st.integers(2, 3))
    spec_sets = [
        _spec_set(draw, net, classes) for _ in range(num_scenarios)
    ]
    swap_set = _spec_set(draw, net, classes)
    seeds = [
        draw(st.integers(0, 2**20)) for _ in range(num_scenarios)
    ]
    segments = draw(
        st.sampled_from([(10, 10, 10), (5, 15, 10), (12, 6, 12)])
    )
    swap_after = draw(st.integers(0, 1))  # swap at end of segment 0/1

    batch_net = FluidBatchNetwork(
        net, classes, spec_sets, workloads, seeds
    )
    batch_sess = batch_net.session(
        dt=DT, interval_seconds=INTERVAL, warmup_seconds=0.5
    )
    single_sessions = []
    for b in range(num_scenarios):
        sim = FluidNetwork(
            net, classes, spec_sets[b], workloads, seed=seeds[b]
        )
        single_sessions.append(
            sim.session(
                dt=DT, interval_seconds=INTERVAL, warmup_seconds=0.5
            )
        )
    for i, seg in enumerate(segments):
        batch_chunks = batch_sess.advance(seg)
        for b, sess in enumerate(single_sessions):
            chunk = sess.advance(seg)
            np.testing.assert_array_equal(
                chunk.sent, batch_chunks[b].sent, err_msg=f"seg{i} b{b}"
            )
            np.testing.assert_array_equal(
                chunk.lost, batch_chunks[b].lost, err_msg=f"seg{i} b{b}"
            )
            assert chunk.start_interval == batch_chunks[b].start_interval
        if i == swap_after:
            batch_sess.set_link_specs(swap_set)
            for sess in single_sessions:
                sess.set_link_specs(swap_set)
    for b in range(num_scenarios):
        _assert_results_identical(
            single_sessions[b].result(),
            batch_sess.result(b),
            label=f"swap b={b}",
        )


def test_all_mechanism_families_in_one_batch():
    """Deterministic pin: the four families plus neutral, one batch."""
    from repro.topology.dumbbell import SHARED_LINK, build_dumbbell

    topo = build_dumbbell()
    wl = {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=6.0, mean_gap_seconds=1.5),)
            * 3,
            rtt_seconds=0.05,
        )
        for pid in topo.network.path_ids
    }
    base = dict(topo.link_specs)

    def with_mech(**mech):
        specs = dict(base)
        spec = specs[SHARED_LINK]
        specs[SHARED_LINK] = LinkSpec(
            capacity_mbps=spec.capacity_mbps,
            buffer_seconds=spec.buffer_seconds,
            **mech,
        )
        return specs

    spec_sets = [
        with_mech(policer=PolicerSpec("c2", 0.25)),
        with_mech(shaper=ShaperSpec("c2", 0.3)),
        with_mech(aqm=AqmSpec("c2")),
        with_mech(weighted=WeightedShaperSpec("c2", 0.3)),
        dict(base),
    ]
    seeds = [3, 4, 5, 6, 7]
    batched = FluidBatchNetwork(
        topo.network, topo.classes, spec_sets, wl, seeds
    ).run(6.0, warmup_seconds=1.0)
    for b, (specs, seed) in enumerate(zip(spec_sets, seeds)):
        single = FluidNetwork(
            topo.network, topo.classes, specs, wl, seed=seed
        ).run(duration_seconds=6.0, warmup_seconds=1.0)
        _assert_results_identical(single, batched[b], label=f"mech b={b}")


class TestValidation:
    def _net(self):
        net = star_network(2)
        classes = two_classes(net, ["p1"])
        wl = {
            pid: PathWorkload(
                slots=(FlowSlotSpec(),), rtt_seconds=0.05
            )
            for pid in net.path_ids
        }
        return net, classes, wl

    def test_seed_count_mismatch(self):
        net, classes, wl = self._net()
        with pytest.raises(ConfigurationError):
            FluidBatchNetwork(net, classes, [{}, {}], wl, [1])

    def test_empty_batch(self):
        net, classes, wl = self._net()
        with pytest.raises(ConfigurationError):
            FluidBatchNetwork(net, classes, [], wl, [])

    def test_unknown_link_rejected_per_scenario(self):
        net, classes, wl = self._net()
        with pytest.raises(ConfigurationError):
            FluidBatchNetwork(
                net,
                classes,
                [{}, {"nope": LinkSpec()}],
                wl,
                [1, 2],
            )
