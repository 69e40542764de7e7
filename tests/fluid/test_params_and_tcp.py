"""Unit tests for fluid-emulator configuration and TCP models."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.fluid.params import (
    FlowSlotSpec,
    LinkSpec,
    PathWorkload,
    PolicerSpec,
    ShaperSpec,
    mb_to_packets,
    mbps_to_pps,
)
from repro.fluid.tcp import (
    CUBIC_BETA,
    INITIAL_WINDOW,
    MAX_WINDOW,
    MIN_WINDOW,
    TcpState,
)
from repro.workloads.profiles import class_workload


class TestUnits:
    def test_mbps_to_pps(self):
        assert mbps_to_pps(12) == pytest.approx(1000.0)

    def test_mb_to_packets(self):
        assert mb_to_packets(12) == pytest.approx(1000.0)


class TestSpecs:
    def test_policer_validation(self):
        with pytest.raises(ConfigurationError):
            PolicerSpec("c2", 0.0)
        with pytest.raises(ConfigurationError):
            PolicerSpec("c2", 1.5)
        with pytest.raises(ConfigurationError):
            PolicerSpec("c2", 0.3, burst_seconds=0)

    def test_shaper_validation(self):
        with pytest.raises(ConfigurationError):
            ShaperSpec("c2", 1.0)  # complement class would get 0

    def test_link_cannot_police_and_shape(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(
                policer=PolicerSpec("c2", 0.3),
                shaper=ShaperSpec("c2", 0.3),
            )

    def test_link_derived_quantities(self):
        spec = LinkSpec(capacity_mbps=12, buffer_seconds=0.1)
        assert spec.capacity_pps == pytest.approx(1000.0)
        assert spec.buffer_packets == pytest.approx(100.0)
        assert not spec.is_differentiating

    def test_flow_slot_validation(self):
        with pytest.raises(ConfigurationError):
            FlowSlotSpec(mean_size_mb=0)
        with pytest.raises(ConfigurationError):
            FlowSlotSpec(pareto_shape=0.9)
        FlowSlotSpec(pareto_shape=0)  # fixed-size: valid

    def test_workload_validation(self):
        with pytest.raises(ConfigurationError):
            PathWorkload(slots=())
        with pytest.raises(ConfigurationError):
            PathWorkload(congestion_control="bbr")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cls,field",
        [
            (FlowSlotSpec, "mean_size_mb"),
            (FlowSlotSpec, "mean_gap_seconds"),
            (FlowSlotSpec, "pareto_shape"),
            (PathWorkload, "rtt_seconds"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.__name__,
    )
    def test_non_finite_workload_fields_rejected(self, cls, field, value):
        """NaN passes every ``<= 0`` / ``< 0`` check, so each numeric
        workload field is checked for finiteness first."""
        with pytest.raises(ConfigurationError, match="finite"):
            cls(**{field: value})

    def test_class_workload(self):
        wl = class_workload(["p1", "p2"], mean_size_mb=10.0, flows_per_path=3)
        assert set(wl) == {"p1", "p2"}
        assert len(wl["p1"].slots) == 3


class TestTcpNewReno:
    def test_slow_start_doubles(self):
        tcp = TcpState("newreno")
        w0 = tcp.cwnd
        tcp.on_delivered(0.0, w0, rtt=0.05)
        assert tcp.cwnd == pytest.approx(2 * w0)

    def test_halving_on_loss(self):
        tcp = TcpState("newreno")
        tcp.cwnd, tcp.ssthresh = 64.0, 32.0
        cut = tcp.on_loss(1.0, lost_packets=1.0, sent_packets=100.0, rtt=0.05)
        assert cut
        assert tcp.cwnd == pytest.approx(32.0)

    def test_loss_events_rate_limited_per_rtt(self):
        tcp = TcpState("newreno")
        tcp.cwnd, tcp.ssthresh = 64.0, 1.0
        assert tcp.on_loss(1.0, 1.0, 100.0, rtt=0.1)
        assert not tcp.on_loss(1.05, 1.0, 100.0, rtt=0.1)
        assert tcp.on_loss(1.2, 1.0, 100.0, rtt=0.1)

    def test_severe_loss_collapses_to_min_window(self):
        tcp = TcpState("newreno")
        tcp.cwnd, tcp.ssthresh = 64.0, 1.0
        tcp.on_loss(1.0, lost_packets=60.0, sent_packets=100.0, rtt=0.05)
        assert tcp.cwnd == MIN_WINDOW

    def test_congestion_avoidance_linear(self):
        tcp = TcpState("newreno")
        tcp.cwnd, tcp.ssthresh = 10.0, 5.0
        tcp.on_delivered(0.0, 10.0, rtt=0.05)
        assert tcp.cwnd == pytest.approx(11.0)

    def test_window_capped(self):
        tcp = TcpState("newreno")
        tcp.cwnd = MAX_WINDOW
        tcp.on_delivered(0.0, MAX_WINDOW, rtt=0.05)
        assert tcp.cwnd == MAX_WINDOW


class TestTcpCubic:
    def test_beta_reduction_on_loss(self):
        tcp = TcpState("cubic")
        tcp.cwnd, tcp.ssthresh = 100.0, 1.0
        tcp.on_loss(1.0, 1.0, 100.0, rtt=0.05)
        assert tcp.cwnd == pytest.approx(100.0 * CUBIC_BETA)
        assert tcp.w_max == pytest.approx(100.0)

    def test_concave_recovery_toward_wmax(self):
        tcp = TcpState("cubic")
        tcp.cwnd, tcp.ssthresh = 100.0, 1.0
        tcp.on_loss(0.0, 1.0, 100.0, rtt=0.05)
        w_after_cut = tcp.cwnd
        tcp.on_delivered(1.0, 10.0, rtt=0.05)
        assert tcp.cwnd > w_after_cut
        # Eventually exceeds w_max (convex probing).
        tcp.on_delivered(60.0, 10.0, rtt=0.05)
        assert tcp.cwnd > 100.0

    def test_invalid_algorithm(self):
        with pytest.raises(ConfigurationError):
            TcpState("reno2000")

    def test_reset_for_new_flow(self):
        tcp = TcpState("cubic")
        tcp.cwnd, tcp.w_max = 50.0, 80.0
        tcp.note_loss(0.0, 1.0, 10.0, 0.05)
        tcp.reset_for_new_flow()
        assert tcp.cwnd == INITIAL_WINDOW
        assert tcp.w_max == 0.0
        assert tcp.pending_due is None


class TestDelayedLossReaction:
    def test_pending_fires_after_rtt(self):
        tcp = TcpState("newreno")
        tcp.cwnd, tcp.ssthresh = 64.0, 1.0
        tcp.note_loss(1.0, 2.0, 100.0, rtt=0.1)
        assert not tcp.pending_ready(1.05)
        assert tcp.pending_ready(1.1)
        assert tcp.apply_pending(1.1, rtt=0.1)
        assert tcp.cwnd == pytest.approx(32.0)
        assert tcp.pending_due is None

    def test_pending_accumulates(self):
        tcp = TcpState("newreno")
        tcp.cwnd, tcp.ssthresh = 64.0, 1.0
        tcp.note_loss(1.0, 30.0, 50.0, rtt=0.1)
        tcp.note_loss(1.05, 30.0, 50.0, rtt=0.1)
        # 60 lost of 100 sent over the window: severe => collapse.
        tcp.apply_pending(1.1, rtt=0.1)
        assert tcp.cwnd == MIN_WINDOW
