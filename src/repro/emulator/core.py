"""Batched packet-level emulator (DESIGN.md S12), vectorized.

A per-packet analogue of the paper's LINE emulator, promoted to a
first-class evaluation substrate. Every packet is individually
timestamped, policed, queued, early-dropped, or tail-dropped — but
the bookkeeping is *batched*: time advances in quanta (a third of
the smallest path RTT, clamped to [2 ms, 25 ms] — derived, never
passed in), and within a quantum each link serializes its whole
sorted arrival batch with closed-form numpy scans instead of
per-packet heap events:

* **FIFO serialization** is the classic Lindley recurrence
  ``dep_k = max(arr_k, dep_{k-1}) + 1/rate``, unrolled to
  ``dep_k = (k+1)/rate + max(free₀, cummax(arr_j − j/rate))`` — one
  ``maximum.accumulate`` per link batch.
* **Droptail and token-bucket admission** are greedy admission
  against a nondecreasing capacity curve; the number admitted among
  the first ``i`` packets has the closed form
  ``min(i, i − 1 + cummin(C_j − j))`` (see :func:`greedy_admission`),
  so drop decisions for a whole batch cost one ``minimum.accumulate``.
* **AQM early drop** draws one uniform per targeted packet against
  the RED-style ramp evaluated at a vectorized occupancy estimate.

The model matches the frozen per-event reference
(``tests/oracles/event_reference.py``) in structure — window-based
senders, slow start, congestion avoidance, one-RTT-delayed
multiplicative decrease, droptail queues, token-bucket policing —
and extends it with the full differentiation-mechanism vocabulary
(dual shaping, class-targeted AQM, weighted per-class service) plus
the fluid substrate's slot workload model and link-level ground
truth. Two deliberate batching approximations: ACKs and loss
reactions take effect at the next quantum boundary (≤ one quantum of
extra latency), and a link's departure-count estimate assumes the
server stays busy through a batch (exact whenever drops are
possible; a queue that empties mid-quantum drops nothing anyway).

**Phases over one state.** :class:`PacketState` holds the flow
arrays, the link runtimes, the ACK and transit buckets and the
interval counters. Each quantum runs the phases :func:`deliver_acks`,
:func:`react_to_losses`, :func:`start_flows`, :func:`emit_windows`,
:func:`forward_hops` (each link's batch through one function per
mechanism family) and :func:`schedule_reactions`, and an interval's
last quantum ends with :func:`close_interval`, busy or idle. Runs and
streams go through the one :class:`~repro.substrate.base.
EngineSession` of both engines, which pulls ``(1, …)`` columns from
:meth:`PacketNetwork._interval_loop` and owns the rest (timing check,
spec swaps, kept columns, telemetry, chunks and results).

Scale: ≥ 10⁶ packets per emulated run in well under wall-parity
(see ``benchmarks/bench_packet_engine.py``, which gates a ≥ 10×
packets/second advantage over the reference loop).
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError, EmulationError
from repro.fluid.params import (
    LinkSpec,
    PathWorkload,
    complete_link_specs,
    mb_to_packets,
)
from repro.substrate.base import EngineSession, SubstrateResult, run_session

#: Engine implementation tag; part of the sweep result-cache key so
#: cached packet-substrate outcomes are invalidated when this
#: emulation model changes (the packet analogue of
#: :data:`repro.fluid.engine.ENGINE_VERSION`). Names the numpy
#: closed-form quantum scans.
PACKET_ENGINE_VERSION = "packet-batch-1"

#: Runaway-emulation backstop (total packet transmissions).
DEFAULT_MAX_PACKETS = 50_000_000

#: Quantum ceiling/floor (seconds): small enough for sane TCP
#: feedback, large enough that batches amortize numpy dispatch.
_QUANTUM_MAX = 0.025
_QUANTUM_MIN = 0.002


def greedy_admission(caps: np.ndarray) -> np.ndarray:
    """Admission mask for a batch against a nondecreasing capacity.

    Packet ``i`` (arrival order) is admitted iff the count admitted
    before it is strictly below ``caps[i]``. With ``caps``
    nondecreasing the admitted prefix count has the closed form
    ``A_{i+1} = min(i + 1, i + cummin(caps_j − j))``; the mask is its
    forward difference. One accumulate, no Python loop.
    """
    n = caps.shape[0]
    idx = np.arange(n)
    run = np.minimum.accumulate(caps - idx)
    admitted_after = np.minimum(idx + 1, idx + run)
    mask = np.empty(n, dtype=bool)
    if n:
        mask[0] = admitted_after[0] > 0
        np.greater(admitted_after[1:], admitted_after[:-1], out=mask[1:])
    return mask


class _LinkRuntime:
    """Mutable per-link service state (plain attributes, no numpy).

    Built from a :class:`~repro.fluid.params.LinkSpec`, converted to
    packet units here: the rate in packets/second, the buffer in
    whole packets (at least one), and the fraction-based policer as a
    packet-rate token bucket of ``burst_seconds`` at that rate (at
    least one token).
    """

    __slots__ = (
        "index", "rate", "delay", "queue", "mech",
        "busy_until",
        "pol_rate", "pol_bucket", "pol_class_idx", "tokens", "tokens_at",
        "weight", "buf_t", "buf_o", "target_class_idx",
        "busy_t", "busy_o", "rate_t", "rate_o",
        "aqm_minth", "aqm_ramp", "aqm_pmax",
    )

    def __init__(self, index: int, spec: LinkSpec,
                 class_index: Mapping[str, int]) -> None:
        rate_pps = spec.capacity_pps
        self.index = index
        self.rate = float(rate_pps)
        self.delay = float(spec.delay_seconds)
        self.queue = max(1, int(round(spec.buffer_seconds * rate_pps)))
        self.busy_until = 0.0
        self.mech = "none"
        if spec.policer is not None:
            self.mech = "policer"
            policer_rate = spec.policer.rate_fraction * rate_pps
            self.pol_rate = float(policer_rate)
            self.pol_bucket = float(
                max(1.0, spec.policer.burst_seconds * policer_rate)
            )
            self.pol_class_idx = class_index[spec.policer.target_class]
            self.tokens = self.pol_bucket
            self.tokens_at = 0.0
        elif spec.aqm is not None:
            self.mech = "aqm"
            aq = spec.aqm
            self.target_class_idx = class_index[aq.target_class]
            self.aqm_minth = aq.min_threshold_fraction * self.queue
            self.aqm_ramp = (
                aq.max_threshold_fraction - aq.min_threshold_fraction
            ) * self.queue
            self.aqm_pmax = aq.max_drop_probability
        elif spec.shaper is not None or spec.weighted is not None:
            shaper = spec.shaper is not None
            dual = spec.shaper if shaper else spec.weighted
            self.mech = "shaper" if shaper else "weighted"
            w = dual.rate_fraction if shaper else dual.weight
            self.weight = float(w)
            self.target_class_idx = class_index[dual.target_class]
            self.rate_t = w * self.rate
            self.rate_o = (1.0 - w) * self.rate
            self.buf_t = max(
                1, int(round(dual.buffer_seconds * w * self.rate))
            )
            self.buf_o = max(
                1, int(round(dual.buffer_seconds * (1.0 - w) * self.rate))
            )
            self.busy_t = 0.0
            self.busy_o = 0.0

    def backlog_packets(self, now: float) -> float:
        """Estimated packets in system at ``now``."""
        if self.mech in ("shaper", "weighted"):
            t = max(0.0, (self.busy_t - now) * self.rate_t)
            o = max(0.0, (self.busy_o - now) * self.rate_o)
            return t + o
        return max(0.0, (self.busy_until - now) * self.rate)


def apply_specs(st: "PacketState", specs: Mapping[str, LinkSpec]) -> None:
    """Spec swap: build the per-link runtimes from ``specs``.

    The state's first build and every swap at an interval boundary.
    Service state carries over deterministically: standing backlog
    (``busy_until`` / the dual queues' busy horizons) survives the
    swap, token buckets persist for links that stay policed (clipped
    to the new bucket) and start full for newly policed links —
    mirroring the fluid engine's swap semantics.
    """
    old_links = st.links
    st.links = [
        _LinkRuntime(i, specs[lid], st.class_index)
        for i, lid in enumerate(st.link_ids)
    ]
    for old, new in zip(old_links, st.links):
        old_dual = old.mech in ("shaper", "weighted")
        if new.mech in ("shaper", "weighted"):
            new.busy_until = old.busy_until
            # A common-FIFO backlog becomes a standing horizon on both
            # virtual queues.
            new.busy_t = old.busy_t if old_dual else old.busy_until
            new.busy_o = old.busy_o if old_dual else old.busy_until
        elif old_dual:
            new.busy_until = max(old.busy_until, old.busy_t, old.busy_o)
        else:
            new.busy_until = old.busy_until
        if new.mech == "policer" and old.mech == "policer":
            new.tokens = min(old.tokens, new.pol_bucket)
            new.tokens_at = old.tokens_at


def _serve_fifo(
    arr: np.ndarray,
    rate: float,
    busy_until: float,
    capacity: int,
) -> Tuple[Optional[np.ndarray], np.ndarray, float]:
    """Serve one sorted arrival batch through a droptail FIFO.

    Returns ``(admit_mask, departure_times_of_admitted, new_busy)``;
    an admit mask of ``None`` means every packet was admitted (the
    common case, returned without allocating a mask).
    """
    n = arr.shape[0]
    if n == 0:
        return None, arr, busy_until
    service = 1.0 / rate
    if busy_until <= arr[0] and n <= capacity:
        # Fast path: no standing backlog and the whole batch fits in
        # the buffer even if it arrived at once — no drops possible.
        admit = None
        adm = arr
    else:
        idx = np.arange(n)
        backlog = np.maximum((busy_until - arr) * rate, 0.0)
        np.ceil(backlog, out=backlog)
        served_new = np.maximum((arr - busy_until) * rate, 0.0)
        np.floor(served_new, out=served_new)
        np.minimum(served_new, idx, out=served_new)
        caps = np.maximum(capacity - backlog + served_new, 0.0)
        admit = greedy_admission(caps.astype(np.int64))
        if admit.all():
            admit = None
            adm = arr
        else:
            adm = arr[admit]
    m = adm.shape[0]
    if m == 0:
        return admit, adm, busy_until
    k = np.arange(m)
    dep = (k + 1.0) * service + np.maximum(
        np.maximum.accumulate(adm - k * service), busy_until
    )
    return admit, dep, float(dep[-1])


class PacketNetwork:
    """A runnable packet-level emulation.

    Args:
        net: The network graph.
        classes: Class assignment (differentiation targets).
        link_specs: Per-link :class:`~repro.fluid.params.LinkSpec`;
            unspecified links get ``LinkSpec()``.
        flow_plan: Legacy traffic form — ``{path_id: [flow sizes in
            packets]}``; each entry is one TCP flow restarted (same
            size) after a 1-second idle gap, as in the reference
            engine.
        seed: RNG seed (stagger times, flow sizes, AQM draws).
        workloads: Slot-model traffic form — ``{path_id:
            PathWorkload}``, the fluid substrate's workload schema
            (parallel slots, Pareto or fixed sizes, exponential
            gaps, per-path ``measured`` flag). Exactly one of
            ``flow_plan`` / ``workloads`` must be given.

    The batch quantum is a third of the smallest path RTT (clamped to
    [2 ms, 25 ms]), rounded so a whole number of quanta tile each
    interval; a run stops with :class:`~repro.exceptions.
    EmulationError` past :data:`DEFAULT_MAX_PACKETS` transmissions.
    """

    def __init__(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec] = None,
        flow_plan: Mapping[str, List[int]] = None,
        seed: int = 0,
        workloads: Mapping[str, PathWorkload] = None,
    ) -> None:
        self._net = net
        self._classes = classes
        self._specs = complete_link_specs(net, classes, link_specs)
        if (flow_plan is None) == (workloads is None):
            raise ConfigurationError(
                "exactly one of flow_plan / workloads is required"
            )
        if flow_plan is not None:
            unknown = set(flow_plan) - set(net.path_ids)
            if unknown:
                raise ConfigurationError(
                    f"unknown paths: {sorted(unknown)}"
                )
            if not any(len(v) for v in flow_plan.values()):
                raise ConfigurationError("flow_plan is empty")
        else:
            missing = set(net.path_ids) - set(workloads)
            if missing:
                raise ConfigurationError(
                    f"paths without workloads: {sorted(missing)}"
                )
        self._flow_plan = (
            {pid: list(sizes) for pid, sizes in flow_plan.items()}
            if flow_plan is not None
            else None
        )
        self._workloads = dict(workloads) if workloads is not None else None
        self._seed = seed
        self._path_ids: List[str] = sorted(
            flow_plan if flow_plan is not None else net.path_ids
        )

    # ------------------------------------------------------------------

    def run(
        self,
        duration_seconds: float,
        interval_seconds: float = 0.1,
        warmup_seconds: float = 0.0,
    ) -> SubstrateResult:
        """Run the emulation in one shot: a :meth:`session` advanced by
        every interval at once (same arithmetic, same RNG stream)."""
        return run_session(
            self.session(interval_seconds, warmup_seconds), duration_seconds
        )

    def session(
        self,
        interval_seconds: float = 0.1,
        warmup_seconds: float = 0.0,
        keep_ground_truth: bool = True,
    ) -> EngineSession:
        """Open a resumable single-world session (streaming mode).

        The same :class:`~repro.substrate.base.EngineSession` as
        :meth:`repro.fluid.engine.FluidNetwork.session`: advance N
        intervals at a time, swap link specs at interval boundaries
        (with deterministic state carry-over, see
        :func:`apply_specs`), collect the cumulative result at
        any point. One session per :class:`PacketNetwork` instance.
        """
        # A flow plan measures every path it names.
        return EngineSession(
            self,
            "packet",
            self._path_ids,
            [
                self._flow_plan is not None or self._workloads[pid].measured
                for pid in self._path_ids
            ],
            interval_seconds=interval_seconds,
            warmup_seconds=warmup_seconds,
            keep_ground_truth=keep_ground_truth,
        )

    def _interval_loop(self, session: EngineSession):
        """The emulation loop, yielding once per closed interval the
        session's ``(1, …)`` columns.

        Open-ended like the fluid loop: the session stops pulling
        when its segment is complete, and pending link-spec swaps are
        applied at interval boundaries without consuming randomness.
        The session's step is a whole interval: the state picks its
        own quantum, and each quantum runs the phases in order.
        """
        st = PacketState(self, session)
        for q in count():
            if session.pending_specs is not None and q % st.qpi == 0:
                self._specs = session.pending_specs
                session.pending_specs = None
                apply_specs(st, self._specs)
            st.q = q
            st.now = q * st.dt
            st.q_end = st.now + st.dt
            st.measuring = q >= st.warm_quanta
            deliver_acks(st)
            react_to_losses(st)
            start_flows(st)
            emit_windows(st)
            forward_hops(st)
            schedule_reactions(st)
            if st.measuring and (q - st.warm_quanta + 1) % st.qpi == 0:
                yield close_interval(st)

    def _build_flows(self, path_ids: List[str], rng):
        """Flatten the traffic description into per-flow arrays."""
        # One (path, mean size, Pareto shape, gap, fixed gap) per flow.
        if self._flow_plan is not None:
            stagger = 0.1
            flows = [
                (p, float(size), 0.0, 1.0, True)
                for p, pid in enumerate(path_ids)
                for size in self._flow_plan[pid]
            ]
        else:
            stagger = 0.5
            flows = [
                (p, mb_to_packets(spec.mean_size_mb), spec.pareto_shape,
                 spec.mean_gap_seconds, False)
                for p, pid in enumerate(path_ids)
                for spec in self._workloads[pid].slots
            ]
        nf = len(flows)
        if nf == 0:
            raise ConfigurationError("no flows configured")
        f_path, f_mean, f_alpha, f_gap, f_gap_fixed = zip(*flows)
        # One uniform pair per flow, in flow order (stagger, rtt
        # perturbation) — deterministic for a given seed.
        starts = rng.uniform(0.0, stagger, size=nf)
        rttf = (
            rng.uniform(0.9, 1.1, size=nf)
            if self._workloads is not None
            else np.ones(nf)
        )
        return (
            np.array(f_path, dtype=np.intp),
            np.array(f_mean),
            np.array(f_alpha),
            np.array(f_gap),
            np.array(f_gap_fixed, dtype=bool),
            rttf,
            starts,
        )


class PacketState:
    """Everything one packet emulation keeps between quanta.

    Built at a session's first advance (the flow table is the RNG's
    first draws); the phases read and write it in place. The slots
    below are the whole state: a phase cannot keep anything else.
    """

    __slots__ = (
        # Geometry and timing: per-path link rows and full RTTs, the
        # quantum ``dt``, quanta per interval and warmup quanta.
        "rng", "link_ids", "class_index", "path_links",
        "full_rtt", "dt", "qpi", "warm_quanta",
        # Per-flow arrays: the static table (path, class, hop links,
        # hop count, return delay, RTT, size law, gap law) and the
        # window state; ``first_drop`` is this quantum's first drop.
        "f_path", "f_class", "flow_hop_link", "flow_path_len",
        "flow_return", "f_rtt", "f_mean", "f_alpha", "f_gap",
        "f_gap_fixed", "f_next_start", "f_size", "f_acked",
        "f_inflight", "f_cwnd", "f_ssthresh", "f_active", "f_loss_at",
        "f_completed", "first_drop",
        # Link runtimes; ACKs and in-transit packets bucketed by the
        # quantum they arrive in; the packet budget spent.
        "links", "acks_by_q", "transit_by_q", "emitted_total",
        # Interval counters.
        "sent_ivl", "lost_ivl", "link_arr_ivl", "link_drop_ivl",
        # The current quantum and the packets it moves (times, flows,
        # hop indices; ``None`` when idle).
        "q", "now", "q_end", "measuring", "batch",
    )

    def __init__(self, network: PacketNetwork, session: EngineSession):
        net = network._net
        classes = network._classes
        # The session wraps the generator in a counting proxy when
        # telemetry is on (a pure pass-through: the bit stream, and
        # therefore every record, is unchanged).
        self.rng = session.count_rng(np.random.default_rng(network._seed))
        path_ids = network._path_ids
        self.link_ids = link_ids = list(net.link_ids)
        num_paths = len(path_ids)
        lindex = {lid: i for i, lid in enumerate(link_ids)}
        self.class_index = cindex = {
            cn: i for i, cn in enumerate(classes.names)
        }
        self.links = []
        apply_specs(self, network._specs)
        self.path_links = [
            np.array([lindex[lid] for lid in net.path(pid).links], np.intp)
            for pid in path_ids
        ]
        max_hops = max(len(r) for r in self.path_links)
        # hop_link[p, h] = link index of path p's h-th hop (-1 past end)
        hop_link = np.full((num_paths, max_hops), -1, dtype=np.intp)
        for p, row in enumerate(self.path_links):
            hop_link[p, : len(row)] = row
        path_len = np.array([len(r) for r in self.path_links], np.intp)
        fwd_delay = np.array(
            [sum(self.links[l].delay for l in row) for row in self.path_links]
        )
        base_rtt = 2.0 * fwd_delay + 0.002
        path_class = np.array(
            [cindex[classes.class_of(pid)] for pid in path_ids], np.intp
        )
        (
            self.f_path, self.f_mean, self.f_alpha, self.f_gap,
            self.f_gap_fixed, f_rttf, self.f_next_start,
        ) = network._build_flows(path_ids, self.rng)
        f_path = self.f_path
        nf = f_path.shape[0]
        self.f_class = path_class[f_path]
        if network._workloads is not None:
            workload_rtt = np.array(
                [network._workloads[pid].rtt_seconds for pid in path_ids]
            )
            self.full_rtt = np.maximum(workload_rtt, base_rtt)
        else:
            self.full_rtt = base_rtt
        return_delay = np.maximum(
            self.full_rtt - fwd_delay, fwd_delay + 0.001
        )
        self.f_rtt = self.full_rtt[f_path] * f_rttf
        # Per-flow static lookups (avoid double gathers in the loop).
        self.flow_hop_link = hop_link[f_path]
        self.flow_path_len = path_len[f_path]
        self.flow_return = return_delay[f_path]
        self.f_size = np.zeros(nf, dtype=np.int64)
        self.f_acked = np.zeros(nf, dtype=np.int64)
        self.f_inflight = np.zeros(nf, dtype=np.int64)
        self.f_cwnd = np.full(nf, 2.0)
        self.f_ssthresh = np.full(nf, 1e9)
        self.f_active = np.zeros(nf, dtype=bool)
        self.f_loss_at = np.full(nf, np.inf)
        self.f_completed = np.zeros(nf, dtype=np.int64)
        self.first_drop = np.full(nf, np.inf)
        session.bind_flows(f_path, self.f_completed)

        interval_seconds = session.interval_seconds
        quantum_target = min(
            max(float(self.full_rtt.min()) / 3.0, _QUANTUM_MIN),
            _QUANTUM_MAX,
            interval_seconds,
        )
        self.qpi = max(1, int(round(interval_seconds / quantum_target)))
        self.dt = interval_seconds / self.qpi
        self.warm_quanta = session.warmup_steps * self.qpi
        self.acks_by_q: Dict[int, list] = {}
        self.transit_by_q: Dict[int, list] = {}
        self.emitted_total = 0
        num_classes = len(classes.names)
        self.sent_ivl = np.zeros(num_paths, dtype=np.int64)
        self.lost_ivl = np.zeros(num_paths, dtype=np.int64)
        self.link_arr_ivl = np.zeros((len(link_ids), num_classes), np.int64)
        self.link_drop_ivl = np.zeros((len(link_ids), num_classes), np.int64)


def deliver_acks(st: PacketState) -> None:
    """ACKs due by now: each acknowledged packet leaves flight and
    grows the window (slow start up to ``ssthresh``, then congestion
    avoidance); a flow fully acknowledged completes and schedules its
    next start after its gap."""
    due = st.acks_by_q.pop(st.q, None)
    if due is None:
        return
    ack_flows = np.concatenate([flows for flows, in due])
    k_acks = np.bincount(ack_flows, minlength=st.f_path.shape[0])
    hit = k_acks > 0
    kh = k_acks[hit]
    cwnd, inflight = st.f_cwnd, st.f_inflight
    st.f_acked[hit] += kh
    inflight[hit] = np.maximum(inflight[hit] - kh, 0)
    ss = np.minimum(
        kh, np.maximum(np.ceil(st.f_ssthresh[hit] - cwnd[hit]), 0.0)
    )
    cwnd[hit] += ss + (kh - ss) / np.maximum(cwnd[hit], 1.0)
    done = st.f_active & (st.f_acked >= st.f_size)
    if done.any():
        di = done.nonzero()[0]
        st.f_active[di] = False
        st.f_completed[di] += 1
        inflight[di] = 0
        gaps = st.f_gap[di].copy()
        var = ~st.f_gap_fixed[di] & (gaps > 0)
        if var.any():
            gaps[var] = st.rng.exponential(gaps[var])
        st.f_next_start[di] = st.now + gaps


def react_to_losses(st: PacketState) -> None:
    """Loss reactions due: one multiplicative decrease per loss event,
    one RTT after the event's first drop."""
    react = st.f_loss_at <= st.now
    if react.any():
        ri = react.nonzero()[0]
        st.f_ssthresh[ri] = np.maximum(st.f_cwnd[ri] / 2.0, 2.0)
        st.f_cwnd[ri] = st.f_ssthresh[ri]
        st.f_loss_at[ri] = np.inf


def start_flows(st: PacketState) -> None:
    """Start pending flows: draw each one's size (fixed, or Pareto
    with the slot's mean) and reset its window."""
    startable = ~st.f_active & (st.f_next_start <= st.now)
    if not startable.any():
        return
    si = startable.nonzero()[0]
    sizes = st.f_mean[si].copy()
    pareto = st.f_alpha[si] > 0
    if pareto.any():
        a = st.f_alpha[si][pareto]
        x_m = sizes[pareto] * (a - 1.0) / a
        sizes[pareto] = x_m * (1.0 + st.rng.pareto(a))
    st.f_size[si] = np.maximum(np.rint(sizes), 1.0).astype(np.int64)
    st.f_acked[si] = 0
    st.f_inflight[si] = 0
    st.f_cwnd[si] = 2.0
    st.f_ssthresh[si] = 1e9
    st.f_active[si] = True
    st.f_loss_at[si] = np.inf


def emit_windows(st: PacketState) -> None:
    """Emit this quantum's windows, paced across the quantum, and
    join them with the packets in transit that arrive in it; leaves
    the quantum's packets in ``st.batch``."""
    window = np.minimum(
        st.f_cwnd.astype(np.int64) - st.f_inflight,
        st.f_size - st.f_acked - st.f_inflight,
    )
    np.maximum(window, 0, out=window)
    window[~st.f_active] = 0
    total = int(window.sum())
    parts = []
    if total:
        st.emitted_total += total
        if st.emitted_total > DEFAULT_MAX_PACKETS:
            raise EmulationError("packet budget exceeded")
        senders = (window > 0).nonzero()[0]
        counts = window[senders]
        st.f_inflight[senders] += counts
        fvec = np.repeat(senders, counts)
        offs = np.cumsum(counts) - counts
        within = np.arange(total) - np.repeat(offs, counts)
        # Each flow's window goes out as a short ack-clocked burst at
        # a random phase inside the quantum: real TCP is neither
        # perfectly paced nor one giant line-rate burst, and the
        # sub-quantum burstiness sets the droptail/shaper loss-event
        # frequency (compare DEFAULT_SEND_JITTER_CV in the fluid
        # engine, which restores the same variance).
        phase = st.rng.random(senders.shape[0]) * st.dt * 0.7
        tvec = (
            st.now
            + np.repeat(phase, counts)
            + within * (st.dt * 0.3 / np.repeat(counts, counts))
        )
        parts.append((tvec, fvec, np.zeros(total, dtype=np.intp)))
        if st.measuring:
            np.add.at(st.sent_ivl, st.f_path[senders], counts)
    parts.extend(st.transit_by_q.pop(st.q, ()))
    st.batch = (
        tuple(np.concatenate(col) for col in zip(*parts)) if parts else None
    )


def forward_hops(st: PacketState) -> None:
    """Push the quantum's packets through links until none remain in
    it: each pass sorts them by (link, time), serves every link's
    batch (:func:`_serve_link`) and advances the survivors one hop."""
    if st.batch is None:
        return
    cur_t, cur_f, cur_h = st.batch
    while cur_t.size:
        lvec = st.flow_hop_link[cur_f, cur_h]
        order = np.lexsort((cur_t, lvec))
        cur_t = cur_t[order]
        cur_f = cur_f[order]
        cur_h = cur_h[order]
        lvec = lvec[order]
        bounds = np.flatnonzero(lvec[1:] != lvec[:-1])
        starts = np.concatenate(([0], bounds + 1))
        stops = np.concatenate((bounds + 1, [lvec.shape[0]]))
        next_t: List[np.ndarray] = []
        next_f: List[np.ndarray] = []
        next_h: List[np.ndarray] = []
        for s, e in zip(starts, stops):
            lr = st.links[lvec[s]]
            seg_t = cur_t[s:e]
            seg_f = cur_f[s:e]
            seg_h = cur_h[s:e]
            seg_cls = st.f_class[seg_f]
            admit, dep = _serve_link(lr, seg_t, seg_cls, st.rng)
            if st.measuring:
                np.add.at(st.link_arr_ivl[lr.index], seg_cls, 1)
            if admit is not None:
                df = seg_f[~admit]
                np.add.at(st.f_inflight, df, -1)
                np.minimum.at(st.first_drop, df, seg_t[~admit])
                if st.measuring:
                    np.add.at(st.lost_ivl, st.f_path[df], 1)
                    np.add.at(st.link_drop_ivl[lr.index], st.f_class[df], 1)
                seg_f = seg_f[admit]
                seg_h = seg_h[admit]
            if dep.shape[0] == 0:
                continue
            next_t.append(dep + lr.delay)
            next_f.append(seg_f)
            next_h.append(seg_h + 1)
        if not next_t:
            break
        cur_t, cur_f, cur_h = _route(
            st,
            np.concatenate(next_t),
            np.concatenate(next_f),
            np.concatenate(next_h),
        )


def _route(st: PacketState, cur_t, cur_f, cur_h):
    """Classify hop arrivals in one pass: delivered packets become ACK
    arrivals, beyond-quantum arrivals go to transit buckets; returns
    the rest, which take another hop now."""
    delivered = cur_h >= st.flow_path_len[cur_f]
    future = ~delivered & (cur_t >= st.q_end)
    if delivered.any():
        ack_f = cur_f[delivered]
        _bucket(
            st, st.acks_by_q, cur_t[delivered] + st.flow_return[ack_f],
            (ack_f,),
        )
    if future.any():
        ft = cur_t[future]
        _bucket(st, st.transit_by_q, ft, (ft, cur_f[future], cur_h[future]))
    if delivered.any() or future.any():
        keep = ~(delivered | future)
        return cur_t[keep], cur_f[keep], cur_h[keep]
    return cur_t, cur_f, cur_h


def _bucket(st: PacketState, buckets, times, arrays) -> None:
    """Append ``arrays`` to ``buckets`` by the quantum each entry's
    time falls in (never earlier than the next quantum)."""
    qi = (times / st.dt).astype(np.int64)
    np.maximum(qi, st.q + 1, out=qi)
    lo, hi = int(qi.min()), int(qi.max())
    if lo == hi:
        buckets.setdefault(lo, []).append(arrays)
        return
    # Destination quanta span a small range (one RTT) — a range scan
    # beats unique's hashing.
    for qq in range(lo, hi + 1):
        sel = qi == qq
        if sel.any():
            buckets.setdefault(qq, []).append(tuple(a[sel] for a in arrays))


def schedule_reactions(st: PacketState) -> None:
    """Schedule one loss reaction per flow that saw drops this quantum
    and has none pending, one RTT after its first drop."""
    saw = np.isfinite(st.first_drop)
    if saw.any():
        di = saw.nonzero()[0]
        pi = di[np.isinf(st.f_loss_at[di])]
        st.f_loss_at[pi] = st.first_drop[pi] + st.f_rtt[pi]
        st.first_drop[di] = np.inf


def close_interval(st: PacketState) -> tuple:
    """The interval's ``(1, …)`` columns for the session: its counters,
    and the link backlogs and path RTTs (full RTT plus queueing delay
    along the path) sampled at the quantum's end, busy or idle; resets
    the counters."""
    occ = np.array([lr.backlog_packets(st.q_end) for lr in st.links])
    qdelay = occ / np.array([lr.rate for lr in st.links])
    rtt = st.full_rtt + [qdelay[links].sum() for links in st.path_links]
    # One world: each column gains a leading axis of 1.
    cols = (
        st.sent_ivl.copy()[None],
        st.lost_ivl.copy()[None],
        rtt[None],
        st.link_arr_ivl.copy()[None],
        st.link_drop_ivl.copy()[None],
        occ[None],
    )
    st.sent_ivl[:] = 0
    st.lost_ivl[:] = 0
    st.link_arr_ivl[:] = 0
    st.link_drop_ivl[:] = 0
    return cols


def _serve_link(lr: _LinkRuntime, seg_t, seg_cls, rng):
    """Serve one sorted batch at one link: its mechanism family, then
    its queue(s).

    Returns ``(admit_mask, departure_times_of_admitted)`` in the
    batch's arrival order (departures for admitted packets only); an
    admit mask of ``None`` means nothing was dropped.
    """
    if lr.mech in ("shaper", "weighted"):
        return _serve_dual(lr, seg_t, seg_cls == lr.target_class_idx)
    admit = None
    if lr.mech == "policer":
        admit = _police(lr, seg_t, seg_cls == lr.pol_class_idx)
    elif lr.mech == "aqm":
        admit = _early_drop(lr, seg_t, seg_cls == lr.target_class_idx, rng)
    return _serve_droptail(lr, seg_t, admit)


def _police(lr: _LinkRuntime, seg_t, targeted) -> Optional[np.ndarray]:
    """Token-bucket admission of the targeted packets; the batch's
    admit mask, ``None`` when every packet conforms."""
    if not targeted.any():
        return None
    tt = seg_t[targeted]
    # Bucket refill is clipped at batch entry; within the batch tokens
    # accrue continuously (the clip error is < rate·Δ per quantum).
    t0 = lr.tokens + (tt[0] - lr.tokens_at) * lr.pol_rate
    t0 = min(t0, lr.pol_bucket)
    caps = np.floor(t0 + (tt - tt[0]) * lr.pol_rate)
    passed = greedy_admission(np.maximum(caps, 0.0).astype(np.int64))
    lr.tokens = max(
        0.0,
        min(
            lr.pol_bucket,
            t0 + (tt[-1] - tt[0]) * lr.pol_rate - passed.sum(),
        ),
    )
    lr.tokens_at = float(tt[-1])
    if passed.all():
        return None
    admit = np.ones(seg_t.shape[0], dtype=bool)
    admit[targeted] = passed
    return admit


def _early_drop(lr: _LinkRuntime, seg_t, targeted, rng):
    """Class-targeted AQM: one uniform per targeted packet against the
    RED-style ramp at its occupancy estimate; the batch's admit mask,
    ``None`` when nothing is dropped early."""
    if not targeted.any():
        return None
    # Occupancy estimate at each targeted arrival: the standing
    # backlog drained at link rate, plus the batch packets ahead,
    # minus the ones the server has already had time to serve
    # (otherwise a draining, uncongested queue would look as deep as
    # the raw batch and manufacture early drops).
    idx = np.arange(seg_t.shape[0])
    served = np.minimum(
        idx,
        np.floor(np.maximum((seg_t - lr.busy_until) * lr.rate, 0.0)),
    )
    occ = (
        np.maximum((lr.busy_until - seg_t) * lr.rate, 0.0) + idx - served
    )
    prob = lr.aqm_pmax * np.clip(
        (occ[targeted] - lr.aqm_minth) / lr.aqm_ramp, 0.0, 1.0
    )
    early = rng.random(int(targeted.sum())) < prob
    if not early.any():
        return None
    admit = np.ones(seg_t.shape[0], dtype=bool)
    admit[targeted.nonzero()[0][early]] = False
    return admit


def _serve_droptail(lr: _LinkRuntime, seg_t, admit):
    """The common droptail FIFO behind the policer or AQM (or alone),
    serving the packets ``admit`` let through."""
    surv_t = seg_t if admit is None else seg_t[admit]
    fadmit, dep, lr.busy_until = _serve_fifo(
        surv_t, lr.rate, lr.busy_until, lr.queue
    )
    if fadmit is None:
        return admit, dep
    if admit is None:
        return fadmit, dep
    surv = admit.nonzero()[0]
    admit[surv[~fadmit]] = False
    return admit, dep


def _serve_dual(lr: _LinkRuntime, seg_t, targeted):
    """Dual virtual queues: a shaper's fixed split, or weighted
    service, which first lends the idle side's share for this batch."""
    n = seg_t.shape[0]
    if lr.mech == "weighted":
        now = float(seg_t[0])
        rate_t, rate_o = lr.rate_t, lr.rate_o
        n_t = int(targeted.sum())
        horizon = max(float(seg_t[-1]) - now, 1.0 / lr.rate)
        nom_t = lr.weight * lr.rate
        nom_o = (1.0 - lr.weight) * lr.rate
        demand_t = max(0.0, (lr.busy_t - now) * rate_t) + n_t
        demand_o = max(0.0, (lr.busy_o - now) * rate_o) + (n - n_t)
        spare_t = max(0.0, nom_t - demand_t / horizon)
        spare_o = max(0.0, nom_o - demand_o / horizon)
        lr.rate_t = min(lr.rate, nom_t + spare_o)
        lr.rate_o = min(lr.rate, nom_o + spare_t)
        # Rescale standing backlogs to the new service rates.
        lr.busy_t = now + max(0.0, lr.busy_t - now) * (rate_t / lr.rate_t)
        lr.busy_o = now + max(0.0, lr.busy_o - now) * (rate_o / lr.rate_o)
    admit = np.ones(n, dtype=bool)
    dep_full = np.empty(n)
    if targeted.any():
        lr.busy_t = _serve_side(
            seg_t, targeted, lr.rate_t, lr.busy_t, lr.buf_t, admit, dep_full
        )
    other = ~targeted
    if other.any():
        lr.busy_o = _serve_side(
            seg_t, other, lr.rate_o, lr.busy_o, lr.buf_o, admit, dep_full
        )
    # dep_full[admit] lines up positionally with the caller's
    # seg_f[admit]: per-side departures were scattered back to their
    # batch positions.
    if admit.all():
        return None, dep_full
    return admit, dep_full[admit]


def _serve_side(seg_t, mask, rate, busy, buf, admit, dep_full) -> float:
    """Serve one side of a dual link through its FIFO, writing its
    drops into ``admit`` and its departures into ``dep_full``; returns
    the side's new busy horizon."""
    sadmit, dep, new_busy = _serve_fifo(seg_t[mask], rate, busy, buf)
    idx = mask.nonzero()[0]
    if sadmit is not None:
        admit[idx[~sadmit]] = False
        idx = idx[sadmit]
    dep_full[idx] = dep
    return new_busy
