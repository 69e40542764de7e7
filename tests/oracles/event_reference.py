"""Frozen seed per-event packet loop (reference implementation).

This is the pre-vectorization discrete-event engine, kept verbatim
(modulo the class rename) as the behavioural and performance baseline
for the batched engine in :mod:`repro.emulator.core` — the packet
analogue of ``tests/oracles/engine_scalar.py``. ``tests/emulator/
test_event_reference.py`` checks that both engines see the same
differentiation, and ``benchmarks/bench_packet_engine.py`` measures
the vectorized engine against this loop; do not optimize or extend
it. It supports droptail and token-bucket policing only and
rejects specs carrying the newer mechanisms.

The loop reads its own packet-unit spec, :class:`PacketLinkSpec`
(rates in packets/second, queues in packets), which the shipped
engines no longer use; :func:`packet_link_spec` converts a shared
:class:`~repro.fluid.params.LinkSpec` to it with the packet engine's
own arithmetic, so a test can hand both engines the same link.
"""


from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError, EmulationError
from repro.fluid.params import (
    AqmSpec,
    LinkSpec,
    ShaperSpec,
    WeightedShaperSpec,
    validate_single_mechanism,
)
from repro.measurement.records import MeasurementData, PathRecord


@dataclass(frozen=True)
class PacketLinkSpec:
    """Physical parameters of one packet-level link.

    Attributes:
        rate_pps: Service rate in packets per second.
        delay_seconds: Propagation delay.
        queue_packets: Droptail queue capacity.
        policer_rate_pps: Token-bucket rate applied to the policed
            class (None = no policing).
        policer_bucket: Bucket depth in packets.
        policed_class: Class the policer targets.
        shaper: Optional dual-shaper differentiation (fractions of
            ``rate_pps``, like the fluid substrate).
        aqm: Optional class-targeted early-drop differentiation.
        weighted: Optional work-conserving weighted per-class service.
    """

    rate_pps: float = 1000.0
    delay_seconds: float = 0.005
    queue_packets: int = 100
    policer_rate_pps: Optional[float] = None
    policer_bucket: float = 8.0
    policed_class: Optional[str] = None
    shaper: Optional[ShaperSpec] = None
    aqm: Optional[AqmSpec] = None
    weighted: Optional[WeightedShaperSpec] = None

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ConfigurationError("rate must be positive")
        if self.queue_packets < 1:
            raise ConfigurationError("queue must hold >= 1 packet")
        if (self.policer_rate_pps is None) != (self.policed_class is None):
            raise ConfigurationError(
                "policer rate and policed class go together"
            )
        if self.policer_rate_pps is not None and self.policer_rate_pps <= 0:
            raise ConfigurationError("policer rate must be positive")
        if self.policer_bucket < 1:
            raise ConfigurationError("policer bucket must hold >= 1 token")
        validate_single_mechanism(self.mechanisms)

    @property
    def mechanisms(self) -> Tuple[object, ...]:
        """The configured differentiation mechanisms (0 or 1)."""
        mechs = []
        if self.policer_rate_pps is not None:
            mechs.append(("policer", self.policer_rate_pps))
        for m in (self.shaper, self.aqm, self.weighted):
            if m is not None:
                mechs.append(m)
        return tuple(mechs)

    @property
    def is_differentiating(self) -> bool:
        return bool(self.mechanisms)


def packet_link_spec(spec: LinkSpec) -> PacketLinkSpec:
    """A shared spec in packet units, for this loop.

    Rates become packets/second, the buffer becomes a packet count,
    and the fraction-based policer becomes a packet-rate token
    bucket; the other mechanisms pass through.
    """
    rate_pps = spec.capacity_pps
    policer_rate = None
    policer_bucket = 8.0
    policed_class = None
    if spec.policer is not None:
        policer_rate = spec.policer.rate_fraction * rate_pps
        policer_bucket = max(1.0, spec.policer.burst_seconds * policer_rate)
        policed_class = spec.policer.target_class
    return PacketLinkSpec(
        rate_pps=rate_pps,
        delay_seconds=spec.delay_seconds,
        queue_packets=max(1, int(round(spec.buffer_seconds * rate_pps))),
        policer_rate_pps=policer_rate,
        policer_bucket=policer_bucket,
        policed_class=policed_class,
        shaper=spec.shaper,
        aqm=spec.aqm,
        weighted=spec.weighted,
    )


@dataclass
class _Packet:
    flow: "_Flow"
    seq: int
    hop: int = 0
    sent_at: float = 0.0


@dataclass
class _LinkState:
    spec: PacketLinkSpec
    queue: List[_Packet] = field(default_factory=list)
    busy_until: float = 0.0
    tokens: float = 0.0
    tokens_at: float = 0.0

    def policer_admits(self, now: float) -> bool:
        """Refill the bucket and consume one token if available."""
        rate = self.spec.policer_rate_pps
        self.tokens = min(
            self.spec.policer_bucket,
            self.tokens + (now - self.tokens_at) * rate,
        )
        self.tokens_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class _Flow:
    path_id: str
    links: Tuple[str, ...]
    class_name: str
    size_packets: int
    cwnd: float = 2.0
    ssthresh: float = 1e9
    next_seq: int = 0
    acked: int = 0
    inflight: int = 0
    lost_pending: bool = False
    loss_reaction_at: float = -1.0
    done: bool = False

    @property
    def window_open(self) -> bool:
        return (
            not self.done
            and self.next_seq < self.size_packets
            and self.inflight < int(self.cwnd)
        )


class EventPacketNetwork:
    """The seed per-event packet emulation (reference baseline).

    Args:
        net: The network graph.
        classes: Class assignment (for policers).
        link_specs: Per-link physical parameters; unspecified links
            get defaults.
        flow_plan: ``{path_id: [flow sizes in packets]}`` — each entry
            starts one TCP flow at a staggered time near t = 0 and
            restarts it (same size) after a 1-second idle gap when it
            completes, keeping the path busy for the whole run.
        seed: RNG seed (stagger times).
    """

    def __init__(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, PacketLinkSpec] = None,
        flow_plan: Mapping[str, List[int]] = None,
        seed: int = 0,
    ) -> None:
        self._net = net
        self._classes = classes
        specs = dict(link_specs or {})
        for lid, spec in specs.items():
            if spec.shaper or spec.aqm or spec.weighted:
                raise ConfigurationError(
                    f"link {lid!r}: the reference event loop only "
                    "supports droptail and policing"
                )
        self._links: Dict[str, _LinkState] = {
            lid: _LinkState(spec=specs.get(lid, PacketLinkSpec()))
            for lid in net.link_ids
        }
        if not flow_plan:
            raise ConfigurationError("flow_plan is required")
        unknown = set(flow_plan) - set(net.path_ids)
        if unknown:
            raise ConfigurationError(f"unknown paths: {sorted(unknown)}")
        self._flow_plan = {pid: list(sizes) for pid, sizes in flow_plan.items()}
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def run(
        self,
        duration_seconds: float,
        interval_seconds: float = 0.1,
    ) -> MeasurementData:
        """Run the emulation and return per-interval path records."""
        if duration_seconds <= 0:
            raise EmulationError("duration must be positive")
        num_intervals = int(round(duration_seconds / interval_seconds))
        if num_intervals < 1:
            raise EmulationError("duration shorter than one interval")

        events: List[Tuple[float, int, Callable[[], None]]] = []
        counter = [0]

        def schedule(when: float, action: Callable[[], None]) -> None:
            counter[0] += 1
            heapq.heappush(events, (when, counter[0], action))

        sent = {
            pid: np.zeros(num_intervals, dtype=np.int64)
            for pid in self._flow_plan
        }
        lost = {
            pid: np.zeros(num_intervals, dtype=np.int64)
            for pid in self._flow_plan
        }
        horizon = duration_seconds

        def interval_of(now: float) -> int:
            idx = int(now / interval_seconds)
            return min(idx, num_intervals - 1)

        def path_rtt(flow: _Flow) -> float:
            return 2.0 * sum(
                self._links[lid].spec.delay_seconds for lid in flow.links
            ) + 0.002

        # --- per-flow sending machinery --------------------------------

        def try_send(flow: _Flow, now: float) -> None:
            while flow.window_open:
                pkt = _Packet(flow=flow, seq=flow.next_seq, sent_at=now)
                flow.next_seq += 1
                flow.inflight += 1
                if now < horizon:
                    sent[flow.path_id][interval_of(now)] += 1
                forward(pkt, now)

        def forward(pkt: _Packet, now: float) -> None:
            flow = pkt.flow
            if pkt.hop >= len(flow.links):
                # Delivered: ACK returns one propagation later.
                schedule(
                    now + path_rtt(flow) / 2.0,
                    lambda f=flow, t=now: on_ack(f, t),
                )
                return
            link = self._links[flow.links[pkt.hop]]
            spec = link.spec
            if (
                spec.policer_rate_pps is not None
                and flow.class_name == spec.policed_class
                and not link.policer_admits(now)
            ):
                drop(pkt, now)
                return
            if len(link.queue) >= spec.queue_packets:
                drop(pkt, now)
                return
            start = max(now, link.busy_until)
            finish = start + 1.0 / spec.rate_pps
            link.busy_until = finish
            link.queue.append(pkt)

            def serialized(p=pkt, l=link, t=finish) -> None:
                if p in l.queue:
                    l.queue.remove(p)
                p.hop += 1
                forward(p, t + l.spec.delay_seconds)

            schedule(finish + spec.delay_seconds, serialized)

        def drop(pkt: _Packet, now: float) -> None:
            flow = pkt.flow
            flow.inflight = max(flow.inflight - 1, 0)
            if now < horizon:
                lost[flow.path_id][interval_of(now)] += 1
            if not flow.lost_pending:
                flow.lost_pending = True
                flow.loss_reaction_at = now + path_rtt(flow)
                schedule(
                    flow.loss_reaction_at,
                    lambda f=flow, t=flow.loss_reaction_at: on_loss(f, t),
                )
            # The lost packet is retransmitted (counted once).
            flow.next_seq = max(flow.next_seq - 1, flow.acked)

        def on_loss(flow: _Flow, now: float) -> None:
            flow.lost_pending = False
            flow.ssthresh = max(flow.cwnd / 2.0, 2.0)
            flow.cwnd = flow.ssthresh
            try_send(flow, now)

        def on_ack(flow: _Flow, now: float) -> None:
            if flow.done:
                return
            flow.acked += 1
            flow.inflight = max(flow.inflight - 1, 0)
            if flow.cwnd < flow.ssthresh:
                flow.cwnd += 1.0
            else:
                flow.cwnd += 1.0 / max(flow.cwnd, 1.0)
            if flow.acked >= flow.size_packets:
                flow.done = True
                schedule(now + 1.0, lambda f=flow: restart(f, now + 1.0))
                return
            try_send(flow, now)

        def restart(flow: _Flow, now: float) -> None:
            if now >= horizon:
                return
            flow.done = False
            flow.next_seq = 0
            flow.acked = 0
            flow.inflight = 0
            flow.cwnd = 2.0
            flow.ssthresh = 1e9
            try_send(flow, now)

        # --- boot flows -------------------------------------------------

        flows: List[_Flow] = []
        for pid, sizes in sorted(self._flow_plan.items()):
            links = self._net.path(pid).links
            cname = self._classes.class_of(pid)
            for size in sizes:
                flow = _Flow(
                    path_id=pid,
                    links=links,
                    class_name=cname,
                    size_packets=int(size),
                )
                flows.append(flow)
                start = float(self._rng.uniform(0.0, 0.1))
                schedule(start, lambda f=flow, t=start: try_send(f, t))

        # --- main loop --------------------------------------------------

        processed = 0
        limit = 5_000_000
        while events:
            when, _, action = heapq.heappop(events)
            if when > horizon + 1.0:
                break
            action()
            processed += 1
            if processed > limit:
                raise EmulationError("event budget exceeded")

        records = [
            PathRecord(pid, sent[pid], np.minimum(lost[pid], sent[pid]))
            for pid in sorted(self._flow_plan)
        ]
        return MeasurementData(records, interval_seconds)
