"""Unit tests for fluid-emulator configuration and TCP models."""

import math

import numpy as np
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
    INITIAL_SSTHRESH,
    INITIAL_WINDOW,
    MAX_WINDOW,
    MIN_WINDOW,
    TcpArrayState,
)
from repro.workloads.profiles import class_workload

from oracles.flow_scalar import TcpState


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


# ----------------------------------------------------------------------
# TcpArrayState: the vectorized model the fluid engine steps
# ----------------------------------------------------------------------

RTT = 0.1


def _array_state(*algorithms):
    """A :class:`TcpArrayState` with one slot per algorithm name."""
    return TcpArrayState(np.array([a == "cubic" for a in algorithms]))


def _step(state, now, send, lost=None, rtt=RTT):
    """One :meth:`TcpArrayState.advance` call the way the engine makes
    it: ``delivered = send - lost``, and ``lost=None`` when no slot
    lost anything."""
    send = np.asarray(send, dtype=float)
    if lost is not None:
        lost = np.asarray(lost, dtype=float)
    delivered = send if lost is None else send - lost
    state.advance(
        now, send, send > 0.0, lost, delivered, np.full(send.size, rtt)
    )


def _in_avoidance(state, cwnd):
    """Put every slot in congestion avoidance at window ``cwnd``."""
    state.cwnd[:] = cwnd
    state.ssthresh[:] = 1.0


class TestTcpArrayNewReno:
    def test_slow_start_doubles(self):
        state = _array_state("newreno", "newreno")
        _step(state, 0.0, [INITIAL_WINDOW, 0.0])
        assert state.cwnd.tolist() == [2 * INITIAL_WINDOW, INITIAL_WINDOW]

    def test_halving_one_rtt_after_first_loss(self):
        state = _array_state("newreno", "newreno")
        _in_avoidance(state, 64.0)
        _step(state, 1.0, [100.0, 100.0], lost=[1.0, 0.0])
        assert state.pending_due.tolist() == [1.0 + RTT, np.inf]
        before = state.cwnd.copy()
        _step(state, 1.05, [100.0, 100.0])  # not yet due: no cut
        assert (state.cwnd > before).all()
        before = state.cwnd.copy()
        _step(state, 1.0 + RTT, [100.0, 100.0])
        assert state.cwnd[0] == pytest.approx(before[0] / 2.0)
        assert state.ssthresh[0] == state.cwnd[0]
        assert state.cwnd[1] > before[1]  # the loss-free slot grows
        assert state.pending_due.tolist() == [np.inf, np.inf]
        assert state.last_loss_time[0] == 1.0 + RTT

    def test_loss_events_rate_limited_per_rtt(self):
        """A reaction within one RTT of the last cut is the same
        congestion event; one a full RTT later cuts again."""
        state = _array_state("newreno")
        _in_avoidance(state, 64.0)
        state.last_loss_time[:] = 1.0
        # A loss on a short RTT falls due 0.07 s after the last cut.
        _step(state, 1.02, [100.0], lost=[1.0], rtt=RTT / 2)
        _step(state, 1.02 + RTT / 2, [100.0])
        assert state.cwnd[0] > 64.0
        assert state.pending_due[0] == np.inf
        assert state.last_loss_time[0] == 1.0
        _step(state, 1.2, [100.0], lost=[1.0])
        before = state.cwnd[0]
        _step(state, 1.2 + RTT, [100.0])
        assert state.cwnd[0] == pytest.approx(before / 2.0)

    def test_severe_loss_collapses_to_min_window(self):
        """Most of what was sent until the reaction lost: back to one
        packet and slow start. The reaction step's own packets count
        as sent, so it sends one."""
        state = _array_state("newreno", "newreno")
        _in_avoidance(state, 64.0)
        _step(state, 1.0, [100.0, 100.0], lost=[60.0, 1.0])
        before = state.cwnd.copy()
        _step(state, 1.0 + RTT, [1.0, 1.0])
        assert state.cwnd[0] == MIN_WINDOW
        assert state.ssthresh[0] == before[0] / 2.0
        assert state.cwnd[1] == before[1] / 2.0  # a normal cut

    def test_congestion_avoidance_linear(self):
        state = _array_state("newreno")
        state.cwnd[:], state.ssthresh[:] = 10.0, 5.0
        _step(state, 0.0, [10.0])
        assert state.cwnd[0] == pytest.approx(11.0)

    def test_window_capped(self):
        state = _array_state("newreno", "newreno")
        state.cwnd[:] = MAX_WINDOW
        state.ssthresh[1] = 1.0  # one slot in slow start, one not
        _step(state, 0.0, [MAX_WINDOW, MAX_WINDOW])
        assert state.cwnd.tolist() == [MAX_WINDOW, MAX_WINDOW]


class TestTcpArrayCubic:
    def test_beta_reduction_on_loss(self):
        state = _array_state("cubic", "newreno")
        _in_avoidance(state, 100.0)
        _step(state, 1.0, [100.0, 100.0], lost=[1.0, 1.0])
        before = state.cwnd.copy()
        _step(state, 1.0 + RTT, [100.0, 100.0])
        assert state.cwnd[0] == pytest.approx(before[0] * CUBIC_BETA)
        assert state.w_max[0] == before[0]
        assert state.ssthresh[0] == state.cwnd[0]
        assert state.epoch_start[0] == 1.0 + RTT
        assert state.cwnd[1] == before[1] / 2.0  # NewReno halves

    def test_concave_recovery_toward_wmax(self):
        state = _array_state("cubic")
        _in_avoidance(state, 100.0)
        _step(state, 0.0, [100.0], lost=[1.0])
        _step(state, RTT, [100.0])
        w_max, w_after_cut = state.w_max[0], state.cwnd[0]
        _step(state, 1.0 + RTT, [10.0])
        # Concave: grown, but still below the window of the loss.
        assert w_after_cut < state.cwnd[0] < w_max
        _step(state, 60.0, [10.0])
        assert state.cwnd[0] > w_max  # convex probing

    def test_slow_start_exit_opens_an_epoch(self):
        state = _array_state("cubic")
        state.ssthresh[:] = 6.0
        _step(state, 2.0, [INITIAL_WINDOW])
        assert state.cwnd[0] == 2 * INITIAL_WINDOW
        assert state.epoch_start[0] == 2.0
        assert state.w_max[0] == 2 * INITIAL_WINDOW

    def test_reset(self):
        state = _array_state("cubic", "cubic")
        _in_avoidance(state, 50.0)
        state.w_max[:] = 80.0
        _step(state, 0.0, [10.0, 10.0], lost=[1.0, 1.0])
        assert state._num_pending == 2
        state.reset(np.array([0]))
        assert state.cwnd[0] == INITIAL_WINDOW
        assert state.ssthresh[0] == INITIAL_SSTHRESH
        assert state.w_max[0] == 0.0
        assert np.isnan(state.epoch_start[0])
        assert state.last_loss_time[0] == -np.inf
        assert state.pending_due[0] == np.inf
        assert state.pending_lost[0] == state.pending_sent[0] == 0.0
        assert state._num_pending == 1
        # The other slot keeps its state and its pending loss.
        assert state.cwnd[1] > 50.0
        assert state.w_max[1] == 80.0
        assert state.pending_due[1] == RTT


class TestTcpArrayDelayedLossReaction:
    def test_pending_accumulates_while_sending(self):
        """Losses and the packets sent until the reaction add up: two
        drops of 30 within the RTT make 60 of 100 sent, a severe
        event, though neither step alone is severe."""
        state = _array_state("newreno")
        _in_avoidance(state, 64.0)
        _step(state, 1.0, [50.0], lost=[20.0])
        _step(state, 1.05, [50.0], lost=[40.0])
        assert state.pending_lost[0] == 60.0
        assert state.pending_sent[0] == 100.0
        assert state.pending_due[0] == 1.0 + RTT  # from the first loss
        _step(state, 1.0 + RTT, [1.0])
        assert state.cwnd[0] == MIN_WINDOW

    def test_reaction_waits_for_a_sending_step(self):
        state = _array_state("newreno")
        _in_avoidance(state, 64.0)
        _step(state, 1.0, [100.0], lost=[1.0])
        _step(state, 1.5, [0.0])  # due but idle: nothing happens
        assert state.pending_due[0] == 1.0 + RTT
        _step(state, 1.6, [10.0])
        assert state.pending_due[0] == np.inf
        assert state.last_loss_time[0] == 1.6

    def test_matches_scalar_model_on_one_slot(self):
        """The same loss pattern through :class:`TcpState` and a
        one-slot :class:`TcpArrayState`: equal windows each step."""
        for algorithm in ("newreno", "cubic"):
            scalar = TcpState(algorithm)
            state = _array_state(algorithm)
            for k in range(60):
                now = 0.01 * k
                send = min(scalar.cwnd, 40.0)
                lost = 3.0 if k in (20, 21, 45) else 0.0
                if lost:
                    scalar.note_loss(now, lost, send, RTT)
                cut = scalar.pending_ready(now) and scalar.apply_pending(
                    now, RTT
                )
                if not cut:
                    scalar.on_delivered(now, send - lost, RTT)
                _step(state, now, [send], lost=[lost] if lost else None)
                assert state.cwnd[0] == pytest.approx(scalar.cwnd), (
                    algorithm, k,
                )
