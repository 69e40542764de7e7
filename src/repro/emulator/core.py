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

Runs and streams go through the one
:class:`~repro.substrate.base.EngineSession` of both engines: the
interval loop here yields one world's ``(1, …)`` columns per
interval, and the session owns the rest (timing check, spec swaps,
kept columns, telemetry, chunks and results).

Scale: ≥ 10⁶ packets per emulated run in well under wall-parity
(see ``benchmarks/bench_packet_engine.py``, which gates a ≥ 10×
packets/second advantage over the reference loop).
"""

from __future__ import annotations

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
            dual = spec.shaper if spec.shaper is not None else spec.weighted
            self.mech = "shaper" if spec.shaper is not None else "weighted"
            w = (
                dual.rate_fraction
                if spec.shaper is not None
                else dual.weight
            )
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


def _swap_link_runtimes(
    links: List["_LinkRuntime"],
    new_specs: Mapping[str, LinkSpec],
    link_ids: List[str],
    cindex: Mapping[str, int],
) -> List["_LinkRuntime"]:
    """Rebuild the per-link runtimes for swapped specs, mid-run.

    Service state carries over deterministically: standing backlog
    (``busy_until`` / the dual queues' busy horizons) survives the
    swap, token buckets persist for links that stay policed (clipped
    to the new bucket) and start full for newly policed links —
    mirroring the fluid engine's swap semantics.
    """
    swapped: List[_LinkRuntime] = []
    for i, lid in enumerate(link_ids):
        old = links[i]
        new = _LinkRuntime(i, new_specs[lid], cindex)
        old_dual = old.mech in ("shaper", "weighted")
        new_dual = new.mech in ("shaper", "weighted")
        if new_dual:
            new.busy_until = old.busy_until
            if old_dual:
                new.busy_t = old.busy_t
                new.busy_o = old.busy_o
            else:
                # A common-FIFO backlog becomes a standing horizon on
                # both virtual queues.
                new.busy_t = old.busy_until
                new.busy_o = old.busy_until
        elif old_dual:
            new.busy_until = max(old.busy_until, old.busy_t, old.busy_o)
        else:
            new.busy_until = old.busy_until
        if new.mech == "policer" and old.mech == "policer":
            new.tokens = min(old.tokens, new.pol_bucket)
            new.tokens_at = old.tokens_at
        swapped.append(new)
    return swapped


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
        :func:`_swap_link_runtimes`), collect the cumulative result at
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
        The session's step is a whole interval: the loop picks its
        own quantum.
        """
        net = self._net
        interval_seconds = session.interval_seconds
        warm_intervals = session.warmup_steps
        # The session wraps the generator in a counting proxy when
        # telemetry is on (a pure pass-through: the bit stream, and
        # therefore every record, is unchanged).
        rng = session.count_rng(np.random.default_rng(self._seed))
        path_ids = self._path_ids
        link_ids: List[str] = list(net.link_ids)
        class_names = self._classes.names
        num_paths = len(path_ids)
        num_links = len(link_ids)
        num_classes = len(class_names)
        lindex = {lid: i for i, lid in enumerate(link_ids)}
        cindex = {cn: i for i, cn in enumerate(class_names)}
        links = [
            _LinkRuntime(i, self._specs[lid], cindex)
            for i, lid in enumerate(link_ids)
        ]

        # --- static geometry -------------------------------------------
        path_links: List[np.ndarray] = []
        for pid in path_ids:
            path_links.append(
                np.array(
                    [lindex[lid] for lid in net.path(pid).links],
                    dtype=np.intp,
                )
            )
        max_hops = max(len(r) for r in path_links)
        # hop_link[p, h] = link index of path p's h-th hop (-1 past end)
        hop_link = np.full((num_paths, max_hops), -1, dtype=np.intp)
        for p, row in enumerate(path_links):
            hop_link[p, : len(row)] = row
        path_len = np.array([len(r) for r in path_links], dtype=np.intp)
        fwd_delay = np.array(
            [
                sum(links[l].delay for l in row)
                for row in path_links
            ]
        )
        base_rtt = 2.0 * fwd_delay + 0.002
        path_class = np.array(
            [cindex[self._classes.class_of(pid)] for pid in path_ids],
            dtype=np.intp,
        )

        # --- flows ------------------------------------------------------
        (
            f_path, f_mean, f_alpha, f_gap, f_gap_fixed, f_rttf,
            f_next_start,
        ) = self._build_flows(path_ids, rng)
        nf = f_path.shape[0]
        f_class = path_class[f_path]
        if self._workloads is not None:
            workload_rtt = np.array(
                [self._workloads[pid].rtt_seconds for pid in path_ids]
            )
            full_rtt = np.maximum(workload_rtt, base_rtt)
        else:
            full_rtt = base_rtt
        return_delay = np.maximum(
            full_rtt - fwd_delay, fwd_delay + 0.001
        )
        f_rtt = full_rtt[f_path] * f_rttf

        # Per-flow static lookups (avoid double gathers in the loop).
        flow_hop_link = hop_link[f_path]
        flow_path_len = path_len[f_path]
        flow_return = return_delay[f_path]

        f_size = np.zeros(nf, dtype=np.int64)
        f_acked = np.zeros(nf, dtype=np.int64)
        f_inflight = np.zeros(nf, dtype=np.int64)
        f_cwnd = np.full(nf, 2.0)
        f_ssthresh = np.full(nf, 1e9)
        f_active = np.zeros(nf, dtype=bool)
        f_loss_at = np.full(nf, np.inf)
        f_completed = np.zeros(nf, dtype=np.int64)

        # --- time discretization ---------------------------------------
        quantum_target = min(
            max(float(full_rtt.min()) / 3.0, _QUANTUM_MIN),
            _QUANTUM_MAX,
            interval_seconds,
        )
        qpi = max(1, int(round(interval_seconds / quantum_target)))
        dt = interval_seconds / qpi
        warm_quanta = warm_intervals * qpi

        # --- accumulators ----------------------------------------------
        # Within-interval accumulators only; closed intervals are
        # yielded to the session, which collects the columns.
        sent_ivl = np.zeros(num_paths, dtype=np.int64)
        lost_ivl = np.zeros(num_paths, dtype=np.int64)
        link_arr_ivl = np.zeros((num_links, num_classes), dtype=np.int64)
        link_drop_ivl = np.zeros((num_links, num_classes), dtype=np.int64)
        session.bind_flows(f_path, f_completed)

        def _close_interval(occ: np.ndarray, rtt_col: np.ndarray):
            # One world: each column gains a leading axis of 1 (a view).
            cols = (
                sent_ivl.copy()[None],
                lost_ivl.copy()[None],
                rtt_col[None],
                link_arr_ivl.copy()[None],
                link_drop_ivl.copy()[None],
                occ[None],
            )
            sent_ivl[:] = 0
            lost_ivl[:] = 0
            link_arr_ivl[:] = 0
            link_drop_ivl[:] = 0
            return cols

        # ACKs and in-transit packets bucketed by destination quantum.
        acks_by_q: Dict[int, List[np.ndarray]] = {}
        transit_by_q: Dict[int, List[Tuple[np.ndarray, ...]]] = {}
        first_drop = np.full(nf, np.inf)
        emitted_total = 0

        q = 0
        while True:
            if session.pending_specs is not None and q % qpi == 0:
                links = _swap_link_runtimes(
                    links, session.pending_specs, link_ids, cindex
                )
                self._specs = session.pending_specs
                session.pending_specs = None
            now = q * dt
            q_end = now + dt
            measuring = q >= warm_quanta

            # 1. Deliver ACKs due by now (bucketed by quantum index).
            due = acks_by_q.pop(q, None)
            if due is not None:
                ack_flows = np.concatenate(due)
                k_acks = np.bincount(ack_flows, minlength=nf)
                hit = k_acks > 0
                kh = k_acks[hit]
                f_acked[hit] += kh
                f_inflight[hit] = np.maximum(f_inflight[hit] - kh, 0)
                ss = np.minimum(
                    kh,
                    np.maximum(
                        np.ceil(f_ssthresh[hit] - f_cwnd[hit]), 0.0
                    ),
                )
                f_cwnd[hit] += ss + (kh - ss) / np.maximum(
                    f_cwnd[hit], 1.0
                )
                # Completions: schedule the next flow after the gap.
                done = f_active & (f_acked >= f_size)
                if done.any():
                    di = done.nonzero()[0]
                    f_active[di] = False
                    f_completed[di] += 1
                    f_inflight[di] = 0
                    gaps = f_gap[di].copy()
                    var = ~f_gap_fixed[di] & (gaps > 0)
                    if var.any():
                        gaps[var] = rng.exponential(gaps[var])
                    f_next_start[di] = now + gaps

            # 2. Loss reactions due (one multiplicative decrease per
            #    loss event, one RTT after the first drop).
            react = f_loss_at <= now
            if react.any():
                ri = react.nonzero()[0]
                f_ssthresh[ri] = np.maximum(f_cwnd[ri] / 2.0, 2.0)
                f_cwnd[ri] = f_ssthresh[ri]
                f_loss_at[ri] = np.inf

            # 3. Start pending flows.
            startable = ~f_active & (f_next_start <= now)
            if startable.any():
                si = startable.nonzero()[0]
                sizes = f_mean[si].copy()
                pareto = f_alpha[si] > 0
                if pareto.any():
                    a = f_alpha[si][pareto]
                    x_m = sizes[pareto] * (a - 1.0) / a
                    sizes[pareto] = x_m * (1.0 + rng.pareto(a))
                f_size[si] = np.maximum(np.rint(sizes), 1.0).astype(
                    np.int64
                )
                f_acked[si] = 0
                f_inflight[si] = 0
                f_cwnd[si] = 2.0
                f_ssthresh[si] = 1e9
                f_active[si] = True
                f_loss_at[si] = np.inf

            # 4. Emit this quantum's windows, paced across the quantum.
            window = np.minimum(
                f_cwnd.astype(np.int64) - f_inflight,
                f_size - f_acked - f_inflight,
            )
            np.maximum(window, 0, out=window)
            window[~f_active] = 0
            total = int(window.sum())
            parts_t: List[np.ndarray] = []
            parts_f: List[np.ndarray] = []
            parts_h: List[np.ndarray] = []
            if total:
                emitted_total += total
                if emitted_total > DEFAULT_MAX_PACKETS:
                    raise EmulationError("packet budget exceeded")
                senders = (window > 0).nonzero()[0]
                counts = window[senders]
                f_inflight[senders] += counts
                fvec = np.repeat(senders, counts)
                offs = np.cumsum(counts) - counts
                within = np.arange(total) - np.repeat(offs, counts)
                # Each flow's window goes out as a short ack-clocked
                # burst at a random phase inside the quantum: real
                # TCP is neither perfectly paced nor one giant
                # line-rate burst, and the sub-quantum burstiness
                # sets the droptail/shaper loss-event frequency
                # (compare DEFAULT_SEND_JITTER_CV in the fluid
                # engine, which restores the same variance).
                phase = rng.random(senders.shape[0]) * dt * 0.7
                tvec = (
                    now
                    + np.repeat(phase, counts)
                    + within * (dt * 0.3 / np.repeat(counts, counts))
                )
                parts_t.append(tvec)
                parts_f.append(fvec)
                parts_h.append(np.zeros(total, dtype=np.intp))
                if measuring:
                    np.add.at(sent_ivl, f_path[senders], counts)
            intransit = transit_by_q.pop(q, None)
            if intransit is not None:
                for t_a, f_a, h_a in intransit:
                    parts_t.append(t_a)
                    parts_f.append(f_a)
                    parts_h.append(h_a)
            if not parts_t:
                # Idle quantum. If it closes an interval, the interval
                # still gets its accumulated counters; queue/RTT
                # sampling is skipped (zeros), exactly as in the
                # historical one-shot loop, which 'continue'd past the
                # close here.
                if measuring and (q - warm_quanta + 1) % qpi == 0:
                    yield _close_interval(
                        np.zeros(num_links), np.zeros(num_paths)
                    )
                q += 1
                continue
            cur_t = np.concatenate(parts_t)
            cur_f = np.concatenate(parts_f)
            cur_h = np.concatenate(parts_h)

            # 5. Push packets through links until none remain in this
            #    quantum (each pass advances every packet one hop).
            while cur_t.size:
                lvec = flow_hop_link[cur_f, cur_h]
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
                    lr = links[lvec[s]]
                    seg_t = cur_t[s:e]
                    seg_f = cur_f[s:e]
                    admit, dep = self._serve_link(
                        lr, seg_t, f_class[seg_f], rng
                    )
                    if measuring:
                        np.add.at(
                            link_arr_ivl[lr.index],
                            f_class[seg_f],
                            1,
                        )
                    seg_h = cur_h[s:e]
                    if admit is not None:
                        df = seg_f[~admit]
                        dts = seg_t[~admit]
                        np.add.at(f_inflight, df, -1)
                        np.minimum.at(first_drop, df, dts)
                        if measuring:
                            np.add.at(lost_ivl, f_path[df], 1)
                            np.add.at(
                                link_drop_ivl[lr.index],
                                f_class[df],
                                1,
                            )
                        seg_f = seg_f[admit]
                        seg_h = seg_h[admit]
                    if dep.shape[0] == 0:
                        continue
                    next_t.append(dep + lr.delay)
                    next_f.append(seg_f)
                    next_h.append(seg_h + 1)
                if not next_t:
                    break
                cur_t = np.concatenate(next_t)
                cur_f = np.concatenate(next_f)
                cur_h = np.concatenate(next_h)
                # Classify in one pass: delivered packets become ACK
                # arrivals, beyond-quantum arrivals go to transit
                # buckets, the rest take another hop now.
                delivered = cur_h >= flow_path_len[cur_f]
                future = ~delivered & (cur_t >= q_end)
                if delivered.any():
                    ack_f = cur_f[delivered]
                    ack_t = cur_t[delivered] + flow_return[ack_f]
                    qi = (ack_t / dt).astype(np.int64)
                    np.maximum(qi, q + 1, out=qi)
                    lo, hi = int(qi.min()), int(qi.max())
                    if lo == hi:
                        acks_by_q.setdefault(lo, []).append(ack_f)
                    else:
                        # Destination quanta span a small range (one
                        # RTT) — a range scan beats unique's hashing.
                        for qq in range(lo, hi + 1):
                            sel = qi == qq
                            if sel.any():
                                acks_by_q.setdefault(qq, []).append(
                                    ack_f[sel]
                                )
                if future.any():
                    ft = cur_t[future]
                    ff = cur_f[future]
                    fh = cur_h[future]
                    qi = (ft / dt).astype(np.int64)
                    np.maximum(qi, q + 1, out=qi)
                    lo, hi = int(qi.min()), int(qi.max())
                    if lo == hi:
                        transit_by_q.setdefault(lo, []).append(
                            (ft, ff, fh)
                        )
                    else:
                        for qq in range(lo, hi + 1):
                            sel = qi == qq
                            if sel.any():
                                transit_by_q.setdefault(qq, []).append(
                                    (ft[sel], ff[sel], fh[sel])
                                )
                if delivered.any() or future.any():
                    keep = ~(delivered | future)
                    cur_t = cur_t[keep]
                    cur_f = cur_f[keep]
                    cur_h = cur_h[keep]

            # 6. Schedule loss reactions for flows that saw drops.
            saw = np.isfinite(first_drop)
            if saw.any():
                di = saw.nonzero()[0]
                pending = np.isinf(f_loss_at[di])
                pi = di[pending]
                f_loss_at[pi] = first_drop[pi] + f_rtt[pi]
                first_drop[di] = np.inf

            # 7. Close the interval: sample queue state.
            if measuring and (q - warm_quanta + 1) % qpi == 0:
                occ = np.array(
                    [lr.backlog_packets(q_end) for lr in links]
                )
                qdelay = occ / np.array([lr.rate for lr in links])
                rtt_col = np.empty(num_paths)
                for p in range(num_paths):
                    rtt_col[p] = full_rtt[p] + float(
                        qdelay[path_links[p]].sum()
                    )
                yield _close_interval(occ, rtt_col)
            q += 1

    # ------------------------------------------------------------------

    def _build_flows(self, path_ids: List[str], rng):
        """Flatten the traffic description into per-flow arrays."""
        f_path: List[int] = []
        f_mean: List[float] = []
        f_alpha: List[float] = []
        f_gap: List[float] = []
        f_gap_fixed: List[bool] = []
        if self._flow_plan is not None:
            stagger = 0.1
            for p, pid in enumerate(path_ids):
                for size in self._flow_plan[pid]:
                    f_path.append(p)
                    f_mean.append(float(size))
                    f_alpha.append(0.0)
                    f_gap.append(1.0)
                    f_gap_fixed.append(True)
        else:
            stagger = 0.5
            for p, pid in enumerate(path_ids):
                for spec in self._workloads[pid].slots:
                    f_path.append(p)
                    f_mean.append(mb_to_packets(spec.mean_size_mb))
                    f_alpha.append(spec.pareto_shape)
                    f_gap.append(spec.mean_gap_seconds)
                    f_gap_fixed.append(False)
        nf = len(f_path)
        if nf == 0:
            raise ConfigurationError("no flows configured")
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

    def _serve_link(
        self,
        lr: _LinkRuntime,
        seg_t: np.ndarray,
        seg_cls: np.ndarray,
        rng,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Serve one sorted batch at one link.

        Returns ``(admit_mask, departure_times_of_admitted)`` in the
        batch's arrival order (departures for admitted packets only);
        an admit mask of ``None`` means nothing was dropped.
        """
        n = seg_t.shape[0]
        if lr.mech == "none":
            admit, dep, lr.busy_until = _serve_fifo(
                seg_t, lr.rate, lr.busy_until, lr.queue
            )
            return admit, dep
        if lr.mech == "policer":
            targeted = seg_cls == lr.pol_class_idx
            admit = None
            if targeted.any():
                tt = seg_t[targeted]
                # Bucket refill is clipped at batch entry; within the
                # batch tokens accrue continuously (the clip error is
                # < rate·Δ per quantum).
                t0 = lr.tokens + (tt[0] - lr.tokens_at) * lr.pol_rate
                t0 = min(t0, lr.pol_bucket)
                caps = np.floor(
                    t0 + (tt - tt[0]) * lr.pol_rate
                )
                passed = greedy_admission(
                    np.maximum(caps, 0.0).astype(np.int64)
                )
                lr.tokens = max(
                    0.0,
                    min(
                        lr.pol_bucket,
                        t0
                        + (tt[-1] - tt[0]) * lr.pol_rate
                        - passed.sum(),
                    ),
                )
                lr.tokens_at = float(tt[-1])
                if not passed.all():
                    admit = np.ones(n, dtype=bool)
                    admit[targeted] = passed
        elif lr.mech == "aqm":
            targeted = seg_cls == lr.target_class_idx
            admit = None
            if targeted.any():
                # Occupancy estimate at each targeted arrival: the
                # standing backlog drained at link rate, plus the
                # batch packets ahead, minus the ones the server has
                # already had time to serve (otherwise a draining,
                # uncongested queue would look as deep as the raw
                # batch and manufacture early drops).
                idx = np.arange(n)
                served = np.minimum(
                    idx,
                    np.floor(
                        np.maximum((seg_t - lr.busy_until) * lr.rate, 0.0)
                    ),
                )
                occ = (
                    np.maximum((lr.busy_until - seg_t) * lr.rate, 0.0)
                    + idx
                    - served
                )
                prob = lr.aqm_pmax * np.clip(
                    (occ[targeted] - lr.aqm_minth) / lr.aqm_ramp,
                    0.0,
                    1.0,
                )
                early = rng.random(int(targeted.sum())) < prob
                if early.any():
                    admit = np.ones(n, dtype=bool)
                    admit[targeted.nonzero()[0][early]] = False
        if lr.mech in ("policer", "aqm"):
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
        # Dual-queue mechanisms: shaper (fixed split) and weighted
        # (work-conserving split).
        targeted = seg_cls == lr.target_class_idx
        now = float(seg_t[0])
        rate_t, rate_o = lr.rate_t, lr.rate_o
        if lr.mech == "weighted":
            # Reallocate the idle side's share for this batch.
            n_t = int(targeted.sum())
            n_o = n - n_t
            horizon = max(float(seg_t[-1]) - now, 1.0 / lr.rate)
            nom_t = lr.weight * lr.rate
            nom_o = (1.0 - lr.weight) * lr.rate
            demand_t = max(0.0, (lr.busy_t - now) * rate_t) + n_t
            demand_o = max(0.0, (lr.busy_o - now) * rate_o) + n_o
            spare_t = max(0.0, nom_t - demand_t / horizon)
            spare_o = max(0.0, nom_o - demand_o / horizon)
            new_rate_t = min(lr.rate, nom_t + spare_o)
            new_rate_o = min(lr.rate, nom_o + spare_t)
            # Rescale standing backlogs to the new service rates.
            lr.busy_t = now + max(0.0, lr.busy_t - now) * (
                rate_t / new_rate_t
            )
            lr.busy_o = now + max(0.0, lr.busy_o - now) * (
                rate_o / new_rate_o
            )
            lr.rate_t, lr.rate_o = new_rate_t, new_rate_o
            rate_t, rate_o = new_rate_t, new_rate_o
        admit = np.ones(n, dtype=bool)
        dep_full = np.empty(n)
        for mask, rate, buf, side in (
            (targeted, rate_t, lr.buf_t, "t"),
            (~targeted, rate_o, lr.buf_o, "o"),
        ):
            if not mask.any():
                continue
            busy = lr.busy_t if side == "t" else lr.busy_o
            sadmit, dep, new_busy = _serve_fifo(
                seg_t[mask], rate, busy, buf
            )
            if side == "t":
                lr.busy_t = new_busy
            else:
                lr.busy_o = new_busy
            idx = mask.nonzero()[0]
            if sadmit is not None:
                admit[idx[~sadmit]] = False
                idx = idx[sadmit]
            dep_full[idx] = dep
        # dep_full[admit] lines up positionally with the caller's
        # seg_f[admit] — per-side departures were scattered back to
        # their batch positions above.
        if admit.all():
            return None, dep_full
        return admit, dep_full[admit]
