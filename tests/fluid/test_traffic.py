"""Unit tests for fluid traffic generation: the scalar reference
slot model and the engine's slot arrays, which draw its stream."""

import numpy as np
import pytest

from repro.fluid.params import FlowSlotSpec, PathWorkload
from repro.fluid.traffic import SlotArrays

from oracles.flow_scalar import (
    build_slots,
    sample_flow_size_packets,
    sample_gap_seconds,
)


def test_pareto_sizes_have_configured_mean():
    rng = np.random.default_rng(0)
    spec = FlowSlotSpec(mean_size_mb=10.0, pareto_shape=2.5)
    samples = [sample_flow_size_packets(spec, rng) for _ in range(20000)]
    # mean in packets: 10 Mb = 833.3 packets; Pareto sampling error.
    assert np.mean(samples) == pytest.approx(833.3, rel=0.1)


def test_fixed_size_mode():
    rng = np.random.default_rng(0)
    spec = FlowSlotSpec(mean_size_mb=12.0, pareto_shape=0.0)
    values = [sample_flow_size_packets(spec, rng) for _ in range(5)]
    assert values == [pytest.approx(1000.0)] * 5


def test_gap_exponential_mean():
    rng = np.random.default_rng(1)
    spec = FlowSlotSpec(mean_gap_seconds=5.0)
    samples = [sample_gap_seconds(spec, rng) for _ in range(20000)]
    assert np.mean(samples) == pytest.approx(5.0, rel=0.05)


def test_zero_gap():
    rng = np.random.default_rng(1)
    spec = FlowSlotSpec(mean_gap_seconds=0.0)
    assert sample_gap_seconds(spec, rng) == 0.0


def test_build_slots_staggered_and_jittered():
    rng = np.random.default_rng(2)
    wl = {
        "p1": PathWorkload(slots=(FlowSlotSpec(),) * 10),
        "p2": PathWorkload(slots=(FlowSlotSpec(),) * 10),
    }
    slots = build_slots(wl, rng, stagger_seconds=0.5)
    assert len(slots) == 20
    starts = {s.next_start for s in slots}
    assert len(starts) > 10  # staggered
    assert all(0 <= s.next_start <= 0.5 for s in slots)
    factors = [s.rtt_factor for s in slots]
    assert all(0.9 <= f <= 1.1 for f in factors)
    assert len(set(factors)) > 10


def test_slot_lifecycle():
    rng = np.random.default_rng(3)
    wl = {"p1": PathWorkload(slots=(FlowSlotSpec(mean_gap_seconds=1.0),))}
    (slot,) = build_slots(wl, rng, stagger_seconds=0.0)
    assert not slot.active
    slot.maybe_start(0.0, rng)
    assert slot.active
    slot.complete(1.0, rng)
    assert not slot.active
    assert slot.flows_completed == 1
    assert slot.next_start > 1.0


def test_slot_arrays_draw_the_scalar_slots_stream():
    """SlotArrays' initial draws, slot order and per-slot parameters
    equal the scalar reference's, and both leave the generator in the
    same state."""
    wl = {
        "b": PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=3.0, pareto_shape=0.0),) * 2,
            congestion_control="newreno",
        ),
        "a": PathWorkload(
            slots=(FlowSlotSpec(mean_gap_seconds=0.5),) * 3,
            congestion_control="cubic",
        ),
    }
    order = ["b", "a"]
    rng_arrays = np.random.default_rng(9)
    rng_scalar = np.random.default_rng(9)
    arrays = SlotArrays(wl, order, rng_arrays)
    slots = build_slots(wl, rng_scalar)
    assert arrays.path_index.tolist() == [
        order.index(s.path_id) for s in slots
    ]
    assert arrays.next_start.tolist() == [s.next_start for s in slots]
    assert arrays.rtt_factor.tolist() == [s.rtt_factor for s in slots]
    assert arrays.is_cubic.tolist() == [
        s.tcp.algorithm == "cubic" for s in slots
    ]
    assert arrays.alpha.tolist() == [s.spec.pareto_shape for s in slots]
    assert arrays.gap_mean.tolist() == [
        s.spec.mean_gap_seconds for s in slots
    ]
    assert rng_arrays.random() == rng_scalar.random()
