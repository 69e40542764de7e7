"""Tests for the Table 1 / Table 3 workload profiles."""

import pytest

from repro.workloads.profiles import (
    TABLE1,
    TABLE3,
    class_workload,
    group_workload,
    slots_for_size,
)


def test_table1_defaults_are_in_the_grid():
    assert TABLE1.default_rtt_ms in TABLE1.rtt_ms
    assert TABLE1.default_rate_percent in TABLE1.rate_percent
    assert TABLE1.default_mean_flow_size_mb in TABLE1.mean_flow_size_mb
    assert TABLE1.default_flows_per_path in TABLE1.flows_per_path
    assert (
        TABLE1.default_loss_threshold_percent
        in TABLE1.loss_threshold_percent
    )


def test_slots_for_size_calibration():
    assert slots_for_size(1.0) == 70  # Table 1's high-parallelism value
    assert slots_for_size(10.0) == TABLE1.default_flows_per_path
    assert slots_for_size(10000.0) == TABLE1.default_flows_per_path


def test_class_workload_uniform():
    wl = class_workload(["p1", "p2"], mean_size_mb=10.0, rtt_ms=80.0)
    assert set(wl) == {"p1", "p2"}
    assert wl["p1"].rtt_seconds == pytest.approx(0.08)
    assert len(wl["p1"].slots) == 15


def test_class_workload_explicit_slots():
    wl = class_workload(["p1"], mean_size_mb=10.0, flows_per_path=3)
    assert len(wl["p1"].slots) == 3


def test_table3_groups():
    assert TABLE3["dark"].flow_sizes_mb == (1.0, 10.0, 40.0)
    assert TABLE3["light"].flow_sizes_mb == (10000.0,)
    assert not TABLE3["white"].measured
    assert TABLE3["dark"].measured


def test_group_workload_fixed_sizes():
    wl = group_workload(TABLE3["dark"], parallel_copies=2)
    assert len(wl.slots) == 6
    assert all(slot.pareto_shape == 0.0 for slot in wl.slots)
    sizes = sorted(slot.mean_size_mb for slot in wl.slots)
    assert sizes == [1.0, 1.0, 10.0, 10.0, 40.0, 40.0]


def test_group_workload_measured_flag():
    assert not group_workload(TABLE3["white"]).measured
    assert group_workload(TABLE3["light"]).measured


@pytest.mark.parametrize(
    "size_mb, slots",
    [(1.99, 70), (2.0, 30), (5.0, 30), (9.99, 30), (10.0, 15)],
)
def test_slots_for_size_band_edges(size_mb, slots):
    """Below 2 Mb the 70-slot band, below 10 Mb a 30-slot middle band,
    from the 10 Mb default up Table 1's default parallelism."""
    assert slots_for_size(size_mb) == slots


def test_class_workload_carries_every_knob():
    wl = class_workload(
        ["p1"], mean_size_mb=1.0, rtt_ms=200.0,
        congestion_control="newreno", mean_gap_seconds=3.0, measured=False,
    )["p1"]
    assert wl.rtt_seconds == pytest.approx(0.2)
    assert wl.congestion_control == "newreno"
    assert not wl.measured
    assert len(wl.slots) == 70
    assert {(s.mean_size_mb, s.mean_gap_seconds) for s in wl.slots} == {
        (1.0, 3.0)
    }


def test_group_workload_one_copy_is_the_table3_row():
    wl = group_workload(
        TABLE3["white"], rtt_ms=120.0, mean_gap_seconds=4.0
    )
    assert tuple(s.mean_size_mb for s in wl.slots) == (
        TABLE3["white"].flow_sizes_mb
    )
    assert all(s.mean_gap_seconds == 4.0 for s in wl.slots)
    assert wl.rtt_seconds == pytest.approx(0.12)
