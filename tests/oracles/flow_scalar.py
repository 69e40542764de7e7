"""The *reference* scalar per-flow model of the fluid emulator.

The seed engine's per-object flow state, frozen when the hot path was
vectorized and kept here, outside the shipped package, beside the
scalar engine that uses it (:mod:`oracles.engine_scalar`):

* :class:`TcpState` — one flow's NewReno / CUBIC window (the scalar
  counterpart of :class:`repro.fluid.tcp.TcpArrayState`, which
  shares its constants and rules);
* :class:`FlowSlot`, :func:`build_slots`,
  :func:`sample_flow_size_packets`, :func:`sample_gap_seconds` — the
  slot traffic model (the scalar counterpart of
  :class:`repro.fluid.traffic.SlotArrays`, which draws the same
  initial stream: per slot, a start stagger then an RTT factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fluid.params import FlowSlotSpec, PathWorkload, mb_to_packets
from repro.fluid.tcp import (
    CUBIC_BETA,
    CUBIC_C,
    INITIAL_SSTHRESH,
    INITIAL_WINDOW,
    MAX_WINDOW,
    MIN_WINDOW,
    SEVERE_LOSS_FRACTION,
)


@dataclass
class TcpState:
    """Mutable congestion-control state of one fluid flow."""

    algorithm: str
    cwnd: float = INITIAL_WINDOW
    ssthresh: float = INITIAL_SSTHRESH
    last_loss_time: float = -math.inf
    # CUBIC epoch state
    w_max: float = 0.0
    epoch_start: Optional[float] = None
    # Delayed loss detection: losses observed now are reacted to one
    # RTT later (duplicate ACKs / SACK take a round trip to arrive).
    # Until then the flow keeps sending at its current window — which
    # is what keeps a real droptail queue full, and drop epochs long,
    # for about an RTT after the first drop.
    pending_due: Optional[float] = None
    pending_lost: float = 0.0
    pending_sent: float = 0.0

    def note_loss(self, now: float, lost: float, sent: float, rtt: float) -> None:
        """Record loss for reaction one RTT from the *first* loss."""
        if self.pending_due is None:
            self.pending_due = now + rtt
        self.pending_lost += lost
        self.pending_sent += sent

    def pending_ready(self, now: float) -> bool:
        return self.pending_due is not None and now >= self.pending_due

    def apply_pending(self, now: float, rtt: float) -> bool:
        """React to the accumulated loss; returns True if a cut happened."""
        lost, sent = self.pending_lost, self.pending_sent
        self.pending_due = None
        self.pending_lost = 0.0
        self.pending_sent = 0.0
        return self.on_loss(now, lost, sent, rtt)

    def __post_init__(self) -> None:
        if self.algorithm not in ("newreno", "cubic"):
            raise ConfigurationError(
                f"unknown TCP algorithm {self.algorithm!r}"
            )

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    # ------------------------------------------------------------------
    # Window evolution
    # ------------------------------------------------------------------

    def on_delivered(self, now: float, delivered_packets: float, rtt: float) -> None:
        """Grow the window after ``delivered_packets`` were ACKed."""
        if delivered_packets <= 0:
            return
        if self.in_slow_start:
            self.cwnd = min(self.cwnd + delivered_packets, MAX_WINDOW)
            if self.cwnd >= self.ssthresh and self.algorithm == "cubic":
                # Exiting slow start: open a CUBIC epoch anchored here.
                self._open_epoch(now)
            return
        if self.algorithm == "newreno":
            self.cwnd = min(
                self.cwnd + delivered_packets / max(self.cwnd, 1.0),
                MAX_WINDOW,
            )
        else:
            self._cubic_update(now, rtt)

    def on_loss(self, now: float, lost_packets: float, sent_packets: float, rtt: float) -> bool:
        """React to packet loss observed during one step.

        Loss events are collapsed to at most one per RTT. Returns True
        when a congestion event was registered (window was reduced).
        """
        if lost_packets <= 0:
            return False
        if now - self.last_loss_time < rtt:
            return False  # same congestion event as the previous cut
        self.last_loss_time = now
        severe = (
            sent_packets > 0
            and lost_packets / sent_packets >= SEVERE_LOSS_FRACTION
        )
        if severe:
            # Timeout-like collapse: back to slow start.
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = MIN_WINDOW
            self.epoch_start = None
            return True
        if self.algorithm == "newreno":
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh
        else:
            self.w_max = self.cwnd
            self.cwnd = max(self.cwnd * CUBIC_BETA, MIN_WINDOW)
            self.ssthresh = max(self.cwnd, 2.0)
            self._open_epoch(now)
        return True

    # ------------------------------------------------------------------
    # CUBIC internals
    # ------------------------------------------------------------------

    def _open_epoch(self, now: float) -> None:
        self.epoch_start = now
        if self.w_max <= 0:
            self.w_max = max(self.cwnd, INITIAL_WINDOW)

    def _cubic_update(self, now: float, rtt: float) -> None:
        if self.epoch_start is None:
            self._open_epoch(now)
        t = now - self.epoch_start
        k = ((self.w_max * (1.0 - CUBIC_BETA)) / CUBIC_C) ** (1.0 / 3.0)
        target = CUBIC_C * (t - k) ** 3 + self.w_max
        # TCP-friendly region (RFC 8312 §4.2): never slower than Reno.
        reno_est = self.w_max * CUBIC_BETA + 3.0 * (1.0 - CUBIC_BETA) / (
            1.0 + CUBIC_BETA
        ) * (t / max(rtt, 1e-3))
        target = max(target, reno_est)
        self.cwnd = float(min(max(target, MIN_WINDOW), MAX_WINDOW))

    def reset_for_new_flow(self) -> None:
        """Fresh connection state for the slot's next flow."""
        self.cwnd = INITIAL_WINDOW
        self.ssthresh = INITIAL_SSTHRESH
        self.last_loss_time = -math.inf
        self.w_max = 0.0
        self.epoch_start = None
        self.pending_due = None
        self.pending_lost = 0.0
        self.pending_sent = 0.0


def sample_flow_size_packets(
    spec: FlowSlotSpec, rng: np.random.Generator
) -> float:
    """Draw one transfer size, in packets.

    Pareto with tail index α and mean ``mean_size_mb``: the scale is
    ``x_m = mean·(α−1)/α`` so the distribution's mean matches the
    configured mean. ``pareto_shape == 0`` returns the fixed size.
    """
    mean_packets = mb_to_packets(spec.mean_size_mb)
    if spec.pareto_shape == 0:
        return max(mean_packets, 1.0)
    alpha = spec.pareto_shape
    x_m = mean_packets * (alpha - 1.0) / alpha
    size = x_m * (1.0 + rng.pareto(alpha))
    return max(size, 1.0)


def sample_gap_seconds(spec: FlowSlotSpec, rng: np.random.Generator) -> float:
    """Draw one exponential inter-flow idle gap."""
    if spec.mean_gap_seconds == 0:
        return 0.0
    return float(rng.exponential(spec.mean_gap_seconds))


@dataclass
class FlowSlot:
    """Runtime state of one parallel flow slot.

    Attributes:
        path_id: The path the slot sends on.
        spec: The slot's static configuration.
        tcp: TCP congestion state (reset per flow).
        remaining_packets: Packets left in the current flow (0 = idle).
        next_start: Simulation time at which the next flow begins.
        flows_completed: Completed-transfer counter (sanity metric).
        rtt_factor: Per-slot multiplicative RTT perturbation (end-host
            stacks and routes differ slightly); desynchronizes the
            sawtooths of flows sharing a path.
    """

    path_id: str
    spec: FlowSlotSpec
    tcp: TcpState
    remaining_packets: float = 0.0
    next_start: float = 0.0
    flows_completed: int = 0
    rtt_factor: float = 1.0

    @property
    def active(self) -> bool:
        return self.remaining_packets > 0.0

    def maybe_start(self, now: float, rng: np.random.Generator) -> None:
        """Start the next flow if its scheduled time has arrived."""
        if self.active or now < self.next_start:
            return
        self.remaining_packets = sample_flow_size_packets(self.spec, rng)
        self.tcp.reset_for_new_flow()

    def complete(self, now: float, rng: np.random.Generator) -> None:
        """Finish the current flow and schedule the next one."""
        self.remaining_packets = 0.0
        self.flows_completed += 1
        self.next_start = now + sample_gap_seconds(self.spec, rng)




def build_slots(
    workloads: "dict[str, PathWorkload]",
    rng: np.random.Generator,
    stagger_seconds: float = 0.5,
) -> List[FlowSlot]:
    """Instantiate every slot of every path.

    Initial starts are staggered uniformly over ``stagger_seconds`` so
    parallel flows do not begin in lockstep (which would synchronize
    slow-start overshoots unrealistically).
    """
    slots: List[FlowSlot] = []
    for path_id in sorted(workloads):
        workload = workloads[path_id]
        for spec in workload.slots:
            slots.append(
                FlowSlot(
                    path_id=path_id,
                    spec=spec,
                    tcp=TcpState(algorithm=workload.congestion_control),
                    next_start=float(rng.uniform(0.0, stagger_seconds)),
                    rtt_factor=float(rng.uniform(0.9, 1.1)),
                )
            )
    return slots
