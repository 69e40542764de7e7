"""The *reference* scalar fluid emulator (DESIGN.md S11).

This is the seed implementation of the fluid engine, frozen when the
hot path was vectorized (see :mod:`repro.fluid.engine`) and kept here,
outside the shipped package, as a test oracle. It advances
every flow slot and link with per-object Python loops — slow, but
simple enough to audit by eye — and serves two purposes:

* the golden baseline for the seeded-equivalence regression tests
  (``tests/fluid/test_golden_equivalence.py``), which pin the
  vectorized engine's output to summaries captured from this one;
* the speedup yardstick measured by ``benchmarks/bench_baseline.py``.

The emulated physics (loss-attribution model, TCP reaction delay,
send jitter — see the :mod:`repro.fluid.engine` docstring) are
identical by construction; only the arithmetic layout differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError, EmulationError
from repro.fluid.engine import (
    DEFAULT_DT,
    DEFAULT_INTERVAL,
    DEFAULT_SEND_JITTER_CV,
    SRTT_TIME_CONSTANT,
)
from repro.fluid.params import LinkSpec, PathWorkload
from repro.measurement.records import MeasurementData, PathRecord
from repro.substrate.base import SubstrateResult as FluidResult

from oracles.flow_scalar import FlowSlot, build_slots


@dataclass
class _LinkState:
    """Mutable runtime state of one link."""

    spec: LinkSpec
    queue: float = 0.0  # common droptail queue, packets
    tokens: float = 0.0  # policer bucket, packets
    shaper_target_queue: float = 0.0
    shaper_other_queue: float = 0.0

    def __post_init__(self) -> None:
        if self.spec.policer is not None:
            self.tokens = self.spec.policer.burst_seconds * (
                self.spec.policer.rate_fraction * self.spec.capacity_pps
            )

    @property
    def occupancy_packets(self) -> float:
        """Total buffered traffic (common + shaper queues)."""
        return self.queue + self.shaper_target_queue + self.shaper_other_queue


class ScalarFluidNetwork:
    """A runnable fluid emulation of a network (reference scalar loop).

    Args:
        net: The network graph (paths define flow routes).
        classes: Class assignment — used by differentiating links to
            decide which traffic to police/shape.
        link_specs: Physical/differentiation spec per link; links not
            mentioned get defaults (100 Mbps, no differentiation).
        workloads: Traffic description per path; every path of the
            network must be covered.
        seed: Seed for the emulation's private RNG.
    """

    def __init__(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec] = None,
        workloads: Mapping[str, PathWorkload] = None,
        seed: int = 0,
        send_jitter_cv: float = DEFAULT_SEND_JITTER_CV,
    ) -> None:
        if send_jitter_cv < 0:
            raise ConfigurationError("send_jitter_cv must be >= 0")
        self._send_jitter_cv = send_jitter_cv
        self._net = net
        self._classes = classes
        specs = dict(link_specs or {})
        unknown = set(specs) - set(net.link_ids)
        if unknown:
            raise ConfigurationError(
                f"link specs for unknown links: {sorted(unknown)}"
            )
        self._link_specs: Dict[str, LinkSpec] = {
            lid: specs.get(lid, LinkSpec()) for lid in net.link_ids
        }
        if workloads is None:
            raise ConfigurationError("workloads are required")
        missing = set(net.path_ids) - set(workloads)
        if missing:
            raise ConfigurationError(
                f"paths without workloads: {sorted(missing)}"
            )
        self._workloads: Dict[str, PathWorkload] = dict(workloads)
        self._rng = np.random.default_rng(seed)
        for lid, spec in self._link_specs.items():
            for mech in (spec.policer, spec.shaper):
                if mech is not None and mech.target_class not in classes.names:
                    raise ConfigurationError(
                        f"link {lid!r} differentiates against unknown "
                        f"class {mech.target_class!r}"
                    )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        duration_seconds: float,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
    ) -> FluidResult:
        """Run the emulation.

        Args:
            duration_seconds: Measured time span (after warmup).
            dt: Step length; must divide ``interval_seconds``.
            interval_seconds: Measurement interval (Table 1).
            warmup_seconds: Initial span excluded from all records so
                slow-start transients do not bias probabilities.

        Returns:
            The :class:`FluidResult`.
        """
        if duration_seconds <= 0:
            raise EmulationError("duration must be positive")
        steps_per_interval = int(round(interval_seconds / dt))
        if steps_per_interval < 1 or abs(
            steps_per_interval * dt - interval_seconds
        ) > 1e-9:
            raise EmulationError(
                f"dt={dt} must divide interval_seconds={interval_seconds}"
            )
        num_intervals = int(round(duration_seconds / interval_seconds))
        if num_intervals < 1:
            raise EmulationError("duration shorter than one interval")
        warmup_steps = int(round(warmup_seconds / dt))
        total_steps = warmup_steps + num_intervals * steps_per_interval

        net = self._net
        classes = self._classes
        class_names = classes.names
        path_ids = net.path_ids
        path_links: Dict[str, Tuple[str, ...]] = {
            pid: net.path(pid).links for pid in path_ids
        }
        path_class: Dict[str, str] = {
            pid: classes.class_of(pid) for pid in path_ids
        }
        slots = build_slots(self._workloads, self._rng)
        slots_by_path: Dict[str, List[FlowSlot]] = {
            pid: [] for pid in path_ids
        }
        slots_index_by_path: Dict[str, List[int]] = {
            pid: [] for pid in path_ids
        }
        for i, slot in enumerate(slots):
            slots_by_path[slot.path_id].append(slot)
            slots_index_by_path[slot.path_id].append(i)
        links: Dict[str, _LinkState] = {
            lid: _LinkState(spec=self._link_specs[lid])
            for lid in net.link_ids
        }

        # Interval accumulators.
        sent_acc = {pid: 0.0 for pid in path_ids}
        lost_acc = {pid: 0.0 for pid in path_ids}
        sent_out = {pid: np.zeros(num_intervals) for pid in path_ids}
        lost_out = {pid: np.zeros(num_intervals) for pid in path_ids}
        link_arr = {
            lid: {cn: np.zeros(num_intervals) for cn in class_names}
            for lid in net.link_ids
        }
        link_drop = {
            lid: {cn: np.zeros(num_intervals) for cn in class_names}
            for lid in net.link_ids
        }
        link_arr_acc = {
            lid: {cn: 0.0 for cn in class_names} for lid in net.link_ids
        }
        link_drop_acc = {
            lid: {cn: 0.0 for cn in class_names} for lid in net.link_ids
        }
        queue_occ = {lid: np.zeros(num_intervals) for lid in net.link_ids}
        rtt_acc = {pid: 0.0 for pid in path_ids}
        rtt_out = {pid: np.zeros(num_intervals) for pid in path_ids}

        rng = self._rng
        path_srtt: Dict[str, float] = {}
        srtt_gain = min(dt / SRTT_TIME_CONSTANT, 1.0)
        prev_drop_frac: Dict[str, Dict[str, float]] = {}
        for step in range(total_steps):
            now = step * dt
            measuring = step >= warmup_steps
            interval_idx = (
                (step - warmup_steps) // steps_per_interval
                if measuring
                else -1
            )

            # 1. Start pending flows; compute per-path RTT and offers.
            #    TCP paces on a *smoothed* RTT estimate (EWMA, time
            #    constant SRTT_TC): responding to the instantaneous
            #    queue delay would synchronize every flow sharing a
            #    queue into a common-mode oscillation that real
            #    stacks' RTT filtering damps away.
            link_delay = {
                lid: state.occupancy_packets / state.spec.capacity_pps
                for lid, state in links.items()
            }
            path_rtt: Dict[str, float] = {}
            for pid in path_ids:
                base = self._workloads[pid].rtt_seconds
                instant = base + sum(
                    link_delay[lid] for lid in path_links[pid]
                )
                prev = path_srtt.get(pid)
                path_rtt[pid] = (
                    instant
                    if prev is None
                    else prev + srtt_gain * (instant - prev)
                )
                path_srtt[pid] = path_rtt[pid]
                if measuring:
                    rtt_acc[pid] += instant

            path_send = {pid: 0.0 for pid in path_ids}
            slot_send: List[float] = []
            if self._send_jitter_cv > 0:
                shape = 1.0 / (self._send_jitter_cv**2)
                jitter = rng.gamma(shape, 1.0 / shape, size=len(slots))
            else:
                jitter = np.ones(len(slots))
            for slot, jit in zip(slots, jitter):
                slot.maybe_start(now, rng)
                if not slot.active:
                    slot_send.append(0.0)
                    continue
                rtt = path_rtt[slot.path_id] * slot.rtt_factor
                offer = slot.tcp.cwnd / max(rtt, 1e-3) * dt * jit
                send = min(offer, slot.remaining_packets)
                slot_send.append(send)
                path_send[slot.path_id] += send

            # 2. Per-link, per-path arrivals, attenuated by upstream
            #    drops. A policer shedding 30–80 % of a path's volume
            #    must not present phantom traffic to downstream
            #    queues — that would congest them in lockstep with
            #    the policed paths and fabricate correlations. The
            #    previous step's per-link drop fractions stand in for
            #    this step's (one-step lag, smooth in the fluid
            #    limit).
            arrivals: Dict[str, Dict[str, float]] = {
                lid: {} for lid in net.link_ids
            }
            for pid in path_ids:
                volume = path_send[pid]
                if volume <= 0:
                    continue
                fracs = prev_drop_frac.get(pid, {})
                for lid in path_links[pid]:
                    arrivals[lid][pid] = volume
                    volume *= 1.0 - fracs.get(lid, 0.0)
                    if volume <= 0:
                        break

            # 3. Serve links; collect per-path smooth/burst drops.
            #    "Smooth" drops (policer shedding) hit every flow of a
            #    path proportionally; "burst" drops (droptail
            #    overflow) are concentrated on a single flow — this
            #    keeps flow sawtooths independent, which sets the
            #    realistic loss-event frequency.
            path_smooth_frac: Dict[str, float] = {
                pid: 0.0 for pid in path_ids
            }
            path_burst: Dict[str, float] = {pid: 0.0 for pid in path_ids}
            new_drop_frac: Dict[str, Dict[str, float]] = {}
            for lid, state in links.items():
                smooth, burst = self._serve_link(
                    state, arrivals[lid], path_class, dt, rng
                )
                for pid, inflow in arrivals[lid].items():
                    s_drop = smooth.get(pid, 0.0)
                    b_drop = burst.get(pid, 0.0)
                    if s_drop > 0:
                        frac = min(s_drop / inflow, 1.0)
                        path_smooth_frac[pid] = 1.0 - (
                            1.0 - path_smooth_frac[pid]
                        ) * (1.0 - frac)
                    if b_drop > 0:
                        path_burst[pid] += b_drop
                    total_frac = min((s_drop + b_drop) / inflow, 1.0)
                    if total_frac > 0:
                        new_drop_frac.setdefault(pid, {})[lid] = total_frac
                    if measuring:
                        cname = path_class[pid]
                        link_arr_acc[lid][cname] += inflow
                        link_drop_acc[lid][cname] += s_drop + b_drop
            prev_drop_frac = new_drop_frac

            # 4. Allocate each path's burst volume to one of its
            #    active flows (weighted by what each sent), spilling
            #    to the next only when the burst exceeds the flow's
            #    traffic.
            slot_burst = [0.0] * len(slots)
            for pid in path_ids:
                burst = min(path_burst[pid], path_send[pid])
                if burst <= 0:
                    continue
                members = [
                    (i, slot_send[i])
                    for i in slots_index_by_path[pid]
                    if slot_send[i] > 0
                ]
                if not members:
                    continue
                weights = np.array([v for _, v in members], dtype=float)
                order = rng.choice(
                    len(members),
                    size=len(members),
                    replace=False,
                    p=weights / weights.sum(),
                )
                remaining = burst
                for j in order:
                    if remaining <= 0:
                        break
                    i, volume = members[j]
                    take = min(remaining, volume)
                    slot_burst[i] += take
                    remaining -= take

            # 5. TCP reactions, flow completion, path accounting.
            for idx, (slot, send) in enumerate(zip(slots, slot_send)):
                if send <= 0:
                    continue
                pid = slot.path_id
                lost = min(send * path_smooth_frac[pid] + slot_burst[idx], send)
                delivered = send - lost
                rtt = path_rtt[pid] * slot.rtt_factor
                if lost > 0:
                    slot.tcp.note_loss(now, lost, send, rtt)
                elif slot.tcp.pending_due is not None:
                    slot.tcp.pending_sent += send
                cut = False
                if slot.tcp.pending_ready(now):
                    cut = slot.tcp.apply_pending(now, rtt)
                if not cut:
                    slot.tcp.on_delivered(now, delivered, rtt)
                slot.remaining_packets -= delivered
                if slot.remaining_packets <= 1e-9:
                    slot.complete(now, rng)
                if measuring:
                    sent_acc[pid] += send
                    lost_acc[pid] += lost

            # 6. Close the interval.
            if (
                measuring
                and (step - warmup_steps + 1) % steps_per_interval == 0
            ):
                for pid in path_ids:
                    sent_out[pid][interval_idx] = sent_acc[pid]
                    lost_out[pid][interval_idx] = lost_acc[pid]
                    rtt_out[pid][interval_idx] = (
                        rtt_acc[pid] / steps_per_interval
                    )
                    sent_acc[pid] = 0.0
                    lost_acc[pid] = 0.0
                    rtt_acc[pid] = 0.0
                for lid in net.link_ids:
                    for cn in class_names:
                        link_arr[lid][cn][interval_idx] = link_arr_acc[lid][cn]
                        link_drop[lid][cn][interval_idx] = link_drop_acc[lid][
                            cn
                        ]
                        link_arr_acc[lid][cn] = 0.0
                        link_drop_acc[lid][cn] = 0.0
                    queue_occ[lid][interval_idx] = links[lid].occupancy_packets

        records = []
        flows_completed: Dict[str, int] = {}
        for pid in path_ids:
            flows_completed[pid] = sum(
                s.flows_completed for s in slots_by_path[pid]
            )
            if not self._workloads[pid].measured:
                continue
            sent_i = np.rint(sent_out[pid]).astype(np.int64)
            lost_i = np.minimum(
                np.rint(lost_out[pid]).astype(np.int64), sent_i
            )
            records.append(PathRecord(pid, sent_i, lost_i))
        if not records:
            raise EmulationError("no measured paths in the workload")
        return FluidResult(
            measurements=MeasurementData(records, interval_seconds),
            link_class_arrivals=link_arr,
            link_class_drops=link_drop,
            queue_occupancy=queue_occ,
            interval_seconds=interval_seconds,
            flows_completed=flows_completed,
            path_rtt_seconds=rtt_out,
        )

    # ------------------------------------------------------------------
    # Link service
    # ------------------------------------------------------------------

    def _serve_link(
        self,
        state: _LinkState,
        path_arrivals: Dict[str, float],
        path_class: Mapping[str, str],
        dt: float,
        rng: np.random.Generator,
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Advance one link by one step.

        Returns:
            ``(smooth, burst)`` per-path drop volumes: policer
            shedding is smooth (hits all flows of a path), droptail
            overflow is burst (hits one flow).
        """
        spec = state.spec
        capacity = spec.capacity_pps
        smooth: Dict[str, float] = {}
        burst: Dict[str, float] = {}
        if not path_arrivals:
            # Still drain queues.
            state.queue -= min(state.queue, capacity * dt)
            if spec.shaper is not None:
                sh = spec.shaper
                state.shaper_target_queue -= min(
                    state.shaper_target_queue,
                    sh.rate_fraction * capacity * dt,
                )
                state.shaper_other_queue -= min(
                    state.shaper_other_queue,
                    (1.0 - sh.rate_fraction) * capacity * dt,
                )
            if spec.policer is not None:
                pol = spec.policer
                rate = pol.rate_fraction * capacity
                state.tokens = min(
                    pol.burst_seconds * rate, state.tokens + rate * dt
                )
            return smooth, burst

        if spec.policer is not None:
            pol = spec.policer
            rate = pol.rate_fraction * capacity
            bucket = pol.burst_seconds * rate
            state.tokens = min(bucket, state.tokens + rate * dt)
            targeted = {
                pid: vol
                for pid, vol in path_arrivals.items()
                if path_class[pid] == pol.target_class
            }
            demand = sum(targeted.values())
            allowed = min(demand, state.tokens)
            state.tokens -= allowed
            excess = demand - allowed
            remaining = dict(path_arrivals)
            if excess > 0 and demand > 0:
                # Continuous shedding: proportional over policed paths.
                for pid, vol in targeted.items():
                    dropped = excess * (vol / demand)
                    smooth[pid] = smooth.get(pid, 0.0) + dropped
                    remaining[pid] = vol - dropped
            self._common_queue(state, remaining, burst, capacity, dt, rng)
        elif spec.shaper is not None:
            sh = spec.shaper
            target_rate = sh.rate_fraction * capacity
            other_rate = (1.0 - sh.rate_fraction) * capacity
            targeted = {
                pid: vol
                for pid, vol in path_arrivals.items()
                if path_class[pid] == sh.target_class
            }
            others = {
                pid: vol
                for pid, vol in path_arrivals.items()
                if path_class[pid] != sh.target_class
            }
            state.shaper_target_queue = self._shaper_queue(
                state,
                state.shaper_target_queue,
                targeted,
                burst,
                target_rate,
                sh.buffer_seconds * target_rate,
                dt,
                rng,
            )
            state.shaper_other_queue = self._shaper_queue(
                state,
                state.shaper_other_queue,
                others,
                burst,
                other_rate,
                sh.buffer_seconds * other_rate,
                dt,
                rng,
            )
        else:
            self._common_queue(
                state, dict(path_arrivals), burst, capacity, dt, rng
            )
        return smooth, burst

    def _common_queue(
        self,
        state: _LinkState,
        arriving: Dict[str, float],
        drops: Dict[str, float],
        capacity: float,
        dt: float,
        rng: np.random.Generator,
    ) -> None:
        """Droptail FIFO: serve at capacity, spill the overflow.

        A *freshly* full queue sheds a burst (one flow's packet run);
        a queue that was already full keeps shedding every
        contributor's packets proportionally — the sustained-
        congestion regime in which droptail behaves like per-packet
        random loss.
        """
        buf = state.spec.buffer_packets
        total_in = sum(arriving.values())
        state.queue += total_in
        state.queue -= min(state.queue, capacity * dt)
        if state.queue > buf:
            overflow = state.queue - buf
            state.queue = buf
            _allocate_proportional(arriving, overflow, drops)

    @staticmethod
    def _shaper_queue(
        state: "_LinkState",
        queue: float,
        arriving: Dict[str, float],
        drops: Dict[str, float],
        rate: float,
        buf: float,
        dt: float,
        rng: np.random.Generator,
    ) -> float:
        """One shaper queue: dedicated service rate, droptail overflow."""
        queue += sum(arriving.values())
        queue -= min(queue, rate * dt)
        if queue > buf:
            overflow = queue - buf
            queue = buf
            _allocate_proportional(arriving, overflow, drops)
        return queue


def _allocate_proportional(
    arriving: Dict[str, float],
    overflow: float,
    drops: Dict[str, float],
) -> None:
    """Spread an overflow over all contributors pro-rata (sustained
    congestion: a persistently full queue drops everyone's packets
    with roughly equal per-packet probability)."""
    total = sum(arriving.values())
    if overflow <= 0 or total <= 0:
        return
    frac = min(overflow / total, 1.0)
    for pid, vol in arriving.items():
        if vol > 0:
            drops[pid] = drops.get(pid, 0.0) + vol * frac


