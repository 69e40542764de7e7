"""The fluid network emulator (DESIGN.md S11), vectorized.

A time-stepped fluid analogue of the paper's user-level emulator:
flows offer ``cwnd/RTT`` worth of traffic per step, links serve at
capacity through droptail queues, policers and shapers differentiate
per class, and TCP reacts to the loss each step produced. The paper's
inference pipeline only consumes per-interval *(sent, lost)* counts
per path — which this model produces with the right event structure —
plus per-link ground truth and queue-occupancy traces for Figures 10a
and 11.

The inner loop is batched numpy over flow/link/path arrays: per-slot
offers, per-link service, drop attribution, and TCP window updates
all advance every object at once (see :class:`~repro.fluid.tcp.
TcpArrayState` and :class:`~repro.fluid.traffic.SlotArrays`). The
seed's per-object implementation is frozen as
:mod:`repro.fluid.engine_scalar` and pins this one through the golden
equivalence tests. Rare events (flow starts/completions, droptail
bursts) fall back to index subsets, so the common loss-free step
costs a fixed number of array operations regardless of flow count.

Loss-attribution model (important for fidelity):

* **Drops hit every present path proportionally.** Both policer
  shedding and droptail overflow are spread over the step's arrivals
  pro-rata. Combined with TCP's one-RTT loss-reaction delay (flows
  keep sending into a full queue until they detect the loss), drop
  epochs last long enough that every path with traffic in a
  congested interval records non-negligible loss — the correlation
  property the paper's §6.5 robustness argument rests on ("a neutral
  link is unlikely to introduce non-negligible packet loss in one
  path and not in the other during the same time interval").
* **Per-flow application differs by mechanism**: a path's policer
  losses are spread over all its flows (continuous shedding), while
  its queue-overflow losses land on one randomly chosen flow per
  step (a droptail burst is a contiguous packet run) — keeping flow
  sawtooths desynchronized, which sets a realistic loss-event
  frequency.
* **Per-flow send jitter** (gamma, cv 0.5) restores the sub-step
  burstiness a fluid model otherwise averages away; without it a
  full queue sheds only the aggregate window-growth rate.

Other approximations (all second-order for the reproduced
quantities): within one step, traffic dropped upstream still counts
as arrival downstream (< dt smearing); queueing delay enters RTT as
``queue/capacity`` summed along the path, updated once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError, EmulationError
from repro.fluid.params import FluidLinkSpec, PathWorkload, build_link_arrays
from repro.fluid.tcp import TcpArrayState
from repro.fluid.traffic import SlotArrays
from repro.measurement.records import (
    MeasurementData,
    PathRecord,
    RecordChunk,
    chunk_from_columns,
    link_congestion_probability,
)

#: Engine implementation tag; part of the sweep result-cache key so
#: cached outcomes are invalidated when the emulation model changes.
#: This tag names the *numpy* step loop, whose arithmetic is frozen by
#: the PR 1 goldens.
ENGINE_VERSION = "fluid-vec-2"


#: Default step length (seconds).
DEFAULT_DT = 0.01

#: Default measurement interval (seconds) — Table 1's bold value.
DEFAULT_INTERVAL = 0.1

#: Default coefficient of variation of per-flow send jitter. Packet
#: transmission is bursty at sub-step timescales (back-to-back window
#: bursts, ACK compression); a fluid model without this variance
#: reaches a noiseless equilibrium in which a full droptail queue
#: sheds only the aggregate window-growth rate — orders of magnitude
#: less loss than a real queue, whose arrivals fluctuate at RTT
#: timescale. Jitter restores the fluctuation: each flow's step volume
#: is multiplied by a Gamma(1/cv², cv²) factor (mean 1).
DEFAULT_SEND_JITTER_CV = 0.5

#: Time constant (seconds) of the smoothed-RTT filter flows pace on.
SRTT_TIME_CONSTANT = 0.2

#: Steps of send jitter drawn per RNG call (amortizes call overhead).
_JITTER_BLOCK_STEPS = 256


@dataclass(frozen=True)
class FluidResult:
    """Everything one emulation run produced.

    Attributes:
        measurements: Per-interval (sent, lost) for *measured* paths —
            the input to Algorithm 2.
        link_class_arrivals: ``{link: {class: array[T]}}`` packets
            arriving per interval (ground truth).
        link_class_drops: Same shape, packets dropped.
        queue_occupancy: ``{link: array[T]}`` total buffered packets
            sampled at each interval end (Figure 11's y-axis, in
            packets; multiply by MSS to get bits).
        interval_seconds: Measurement interval length.
        flows_completed: ``{path: completed flow count}`` sanity data.
    """

    measurements: MeasurementData
    link_class_arrivals: Dict[str, Dict[str, np.ndarray]]
    link_class_drops: Dict[str, Dict[str, np.ndarray]]
    queue_occupancy: Dict[str, np.ndarray]
    interval_seconds: float
    flows_completed: Dict[str, int]
    #: Mean effective RTT (base + queueing) per path per interval, in
    #: seconds — the input to the §7 latency-threshold metric
    #: (:mod:`repro.measurement.latency`).
    path_rtt_seconds: Optional[Dict[str, np.ndarray]] = None

    def link_congestion_probability(
        self, link_id: str, class_name: str, loss_threshold: float = 0.01
    ) -> float:
        """Ground-truth congestion probability of a link for a class
        (the shared definition in :func:`repro.measurement.records.
        link_congestion_probability` — Figure 10(a)'s quantity)."""
        return link_congestion_probability(
            self.link_class_arrivals[link_id][class_name],
            self.link_class_drops[link_id][class_name],
            loss_threshold,
        )


def package_result(
    path_ids,
    link_ids,
    class_names,
    workloads,
    sent_out: np.ndarray,
    lost_out: np.ndarray,
    rtt_out: np.ndarray,
    link_arr_out: np.ndarray,
    link_drop_out: np.ndarray,
    queue_occ_out: np.ndarray,
    flows_by_path: np.ndarray,
    interval_seconds: float,
) -> FluidResult:
    """Package per-interval output arrays as a :class:`FluidResult`.

    The one place measured-path integer rounding and the per-link /
    per-path dict layouts are produced, shared by the single-run
    session (:meth:`FluidSession.result`) and the scenario-batched
    engine (:mod:`repro.fluid.batch`) — so a batched scenario's
    packaged result cannot drift from its single-run counterpart.

    Args:
        sent_out / lost_out / rtt_out: ``(|paths|, T)`` per-interval
            columns.
        link_arr_out / link_drop_out: ``(|links|, |classes|, T)``.
        queue_occ_out: ``(|links|, T)``.
        flows_by_path: ``(|paths|,)`` completed-flow counts.
    """
    flows_completed = {
        pid: int(flows_by_path[p]) for p, pid in enumerate(path_ids)
    }
    measured_rows = np.array(
        [p for p, pid in enumerate(path_ids) if workloads[pid].measured],
        dtype=np.intp,
    )
    sent_i = np.rint(sent_out[measured_rows]).astype(np.int64)
    lost_i = np.minimum(
        np.rint(lost_out[measured_rows]).astype(np.int64), sent_i
    )
    records = [
        PathRecord(path_ids[p], sent_i[k], lost_i[k])
        for k, p in enumerate(measured_rows.tolist())
    ]
    link_arr = {
        lid: {
            cn: link_arr_out[l, c]
            for c, cn in enumerate(class_names)
        }
        for l, lid in enumerate(link_ids)
    }
    link_drop = {
        lid: {
            cn: link_drop_out[l, c]
            for c, cn in enumerate(class_names)
        }
        for l, lid in enumerate(link_ids)
    }
    queue_occ = {
        lid: queue_occ_out[l] for l, lid in enumerate(link_ids)
    }
    rtt_by_path = {
        pid: rtt_out[p] for p, pid in enumerate(path_ids)
    }
    return FluidResult(
        measurements=MeasurementData(records, interval_seconds),
        link_class_arrivals=link_arr,
        link_class_drops=link_drop,
        queue_occupancy=queue_occ,
        interval_seconds=interval_seconds,
        flows_completed=flows_completed,
        path_rtt_seconds=rtt_by_path,
    )


def _allocate_bursts(
    rng, path_burst, path_send, slots_of_path, send, slot_burst
) -> None:
    """Allocate each path's burst-drop volume to its active flows.

    A droptail burst is a contiguous packet run, so it lands on one
    randomly chosen flow per step (weighted by what each sent),
    spilling to the next only when the burst exceeds the flow's
    traffic — the weighted order without replacement comes from
    Gumbel keys (Efraimidis–Spirakis). The uniforms for every bursty
    path are drawn in one flat RNG call and sliced per path, which
    consumes the bit-identical stream of the former per-path
    ``rng.random(len(members))`` loop (Generator.random fills a
    buffer sequentially, so one draw of ``n1+n2`` equals draws of
    ``n1`` then ``n2``).
    """
    todo = []
    total = 0
    for p in np.nonzero((path_burst > 0.0) & (path_send > 0.0))[0]:
        members = slots_of_path[p]
        weights = send[members]
        present = weights > 0.0
        if not present.any():
            continue
        todo.append((p, members[present], weights[present]))
        total += int(present.sum())
    if not todo:
        return
    u_all = rng.random(total)
    pos = 0
    for p, members, weights in todo:
        u = u_all[pos : pos + len(members)]
        pos += len(members)
        burst = min(path_burst[p], path_send[p])
        order = (np.log(-np.log(u)) - np.log(weights)).argsort()
        ordered = weights[order]
        ahead = ordered.cumsum() - ordered
        slot_burst[members[order]] = np.minimum(
            ordered, np.maximum(burst - ahead, 0.0)
        )


class FluidNetwork:
    """A runnable fluid emulation of a network.

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
        link_specs: Mapping[str, FluidLinkSpec] = None,
        workloads: Mapping[str, PathWorkload] = None,
        seed: int = 0,
        send_jitter_cv: float = DEFAULT_SEND_JITTER_CV,
    ) -> None:
        if send_jitter_cv < 0:
            raise ConfigurationError("send_jitter_cv must be >= 0")
        self._send_jitter_cv = send_jitter_cv
        self._net = net
        self._classes = classes
        self._link_specs = self._complete_specs(link_specs)
        if workloads is None:
            raise ConfigurationError("workloads are required")
        missing = set(net.path_ids) - set(workloads)
        if missing:
            raise ConfigurationError(
                f"paths without workloads: {sorted(missing)}"
            )
        self._workloads: Dict[str, PathWorkload] = dict(workloads)
        self._rng = np.random.default_rng(seed)

    def _complete_specs(
        self, link_specs: Optional[Mapping[str, FluidLinkSpec]]
    ) -> Dict[str, FluidLinkSpec]:
        """Validate a spec mapping and fill unspecified links.

        Shared by the constructor and mid-run spec swaps
        (:meth:`FluidSession.set_link_specs`), so a swapped policy
        set passes exactly the construction-time checks.
        """
        specs = dict(link_specs or {})
        unknown = set(specs) - set(self._net.link_ids)
        if unknown:
            raise ConfigurationError(
                f"link specs for unknown links: {sorted(unknown)}"
            )
        complete = {
            lid: specs.get(lid, FluidLinkSpec())
            for lid in self._net.link_ids
        }
        for lid, spec in complete.items():
            for mech in (spec.policer, spec.shaper):
                if (
                    mech is not None
                    and mech.target_class not in self._classes.names
                ):
                    raise ConfigurationError(
                        f"link {lid!r} differentiates against unknown "
                        f"class {mech.target_class!r}"
                    )
        return complete

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
        """Run the emulation in one shot.

        Equivalent to opening a :meth:`session` and advancing it by
        every interval at once — same arithmetic, same RNG stream.

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
        session = self.session(
            dt=dt,
            interval_seconds=interval_seconds,
            warmup_seconds=warmup_seconds,
        )
        num_intervals = int(round(duration_seconds / interval_seconds))
        if num_intervals < 1:
            raise EmulationError("duration shorter than one interval")
        session.advance(num_intervals)
        return session.result()

    @classmethod
    def run_batch(
        cls,
        net: Network,
        classes: ClassAssignment,
        spec_sets,
        workloads: Mapping[str, PathWorkload],
        seeds,
        duration_seconds,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
        send_jitter_cv: float = DEFAULT_SEND_JITTER_CV,
    ):
        """Run ``B`` link-spec variants of one topology in lockstep.

        One time-stepped numpy program advances every scenario at
        once (:mod:`repro.fluid.batch`); scenario ``b``'s
        :class:`FluidResult` is floating-point-identical to
        ``FluidNetwork(net, classes, spec_sets[b], workloads,
        seed=seeds[b]).run(...)``. ``duration_seconds`` may be a
        scalar or one duration per scenario (shorter worlds drop out
        of the batch early via the active mask).

        Returns:
            One :class:`FluidResult` per scenario, in order.
        """
        from repro.fluid.batch import FluidBatchNetwork

        return FluidBatchNetwork(
            net,
            classes,
            spec_sets,
            workloads,
            seeds,
            send_jitter_cv=send_jitter_cv,
        ).run(
            duration_seconds,
            dt=dt,
            interval_seconds=interval_seconds,
            warmup_seconds=warmup_seconds,
        )

    def session(
        self,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
        keep_ground_truth: bool = True,
    ) -> "FluidSession":
        """Open a resumable emulation session (streaming mode).

        The session advances the emulation a chosen number of
        measurement intervals at a time, carrying all flow/queue/RNG
        state in between, and accepts link-spec swaps at interval
        boundaries (mid-run differentiation onset/offset). Only one
        session may be driven per :class:`FluidNetwork` instance —
        sessions consume the instance's RNG.

        ``keep_ground_truth=False`` discards every interval's columns
        once its chunk is emitted, bounding a long monitoring run's
        memory; :meth:`FluidSession.result` is then unavailable.
        """
        return FluidSession(
            self, dt, interval_seconds, warmup_seconds, keep_ground_truth
        )

    def _interval_loop(
        self,
        session: "FluidSession",
        dt: float,
        steps_per_interval: int,
        warmup_steps: int,
    ):
        """The emulation loop, yielding once per closed interval.

        Each yield hands the session the interval's per-path sent /
        lost / RTT columns and per-link ground-truth columns. The
        loop is open-ended: the consumer stops pulling when its run
        (or stream segment) is complete. Pending link-spec swaps
        (``session._pending_specs``) are applied exactly at interval
        boundaries and consume no randomness, so a segmented run with
        no swaps is bit-identical to a one-shot run.
        """
        net = self._net
        rng = self._rng
        path_ids: List[str] = list(net.path_ids)
        link_ids: List[str] = list(net.link_ids)
        class_names = self._classes.names
        num_paths = len(path_ids)
        num_links = len(link_ids)
        num_classes = len(class_names)
        lindex = {lid: i for i, lid in enumerate(link_ids)}
        cindex = {cn: i for i, cn in enumerate(class_names)}

        # --- static geometry -------------------------------------------
        # Incidence (links × paths) for arrival scatter and its
        # transpose for the RTT matvec; hop lists (link idx, path idx)
        # in path order for the attenuated-arrival walk.
        inc_lp = np.zeros((num_links, num_paths))
        path_link_rows: List[np.ndarray] = []
        for p, pid in enumerate(path_ids):
            row = np.array(
                [lindex[lid] for lid in net.path(pid).links], dtype=np.intp
            )
            path_link_rows.append(row)
            inc_lp[row, p] = 1.0
        inc_pl = np.ascontiguousarray(inc_lp.T)
        max_hops = max(len(r) for r in path_link_rows)
        hops: List[Tuple[np.ndarray, np.ndarray]] = []
        for d in range(max_hops):
            pp = np.array(
                [p for p in range(num_paths) if len(path_link_rows[p]) > d],
                dtype=np.intp,
            )
            ll = np.array(
                [path_link_rows[p][d] for p in pp], dtype=np.intp
            )
            hops.append((ll, pp))
        class_onehot = np.zeros((num_paths, num_classes))
        for p, pid in enumerate(path_ids):
            class_onehot[p, cindex[self._classes.class_of(pid)]] = 1.0
        base_rtt = np.array(
            [self._workloads[pid].rtt_seconds for pid in path_ids]
        )

        # --- link state -------------------------------------------------
        # The queues persist across mid-run spec swaps (a policy
        # switch does not empty standing buffers); everything derived
        # from the specs is rebuilt by ``_compile_mechanisms``.
        queue = np.zeros(num_links)
        shaper_tq = np.zeros(num_links)
        shaper_oq = np.zeros(num_links)

        def _target_mask(target_class: str) -> np.ndarray:
            return np.array(
                [
                    self._classes.class_of(pid) == target_class
                    for pid in path_ids
                ]
            )

        def _compile_mechanisms(link_specs, prev_tokens, prev_policed):
            """Lower link specs to the loop's per-mechanism constants.

            Pure (no RNG): called once at start and again whenever a
            session swaps specs at an interval boundary. Token
            buckets carry over for links that stay policed (clipped
            to the new bucket depth); newly policed links start with
            a full bucket, exactly like a fresh run.
            """
            la = build_link_arrays(link_ids, link_specs)
            capacity = la.capacity_pps
            inv_capacity = 1.0 / capacity
            cap_dt = capacity * dt
            buffers = la.buffer_packets
            # Per-mechanism constants: (link, rate, bucket/buffer,
            # target mask over paths as bool and float).
            policers = []
            for l, pol in la.policers:
                rate = pol.rate_fraction * capacity[l]
                tmask = _target_mask(pol.target_class)
                policers.append(
                    (l, rate * dt, pol.burst_seconds * rate, tmask,
                     tmask.astype(float))
                )
            tokens = np.zeros(num_links)
            for l, _rate_dt, bucket, _m, _mf in policers:
                if prev_tokens is not None and l in prev_policed:
                    tokens[l] = min(float(prev_tokens[l]), bucket)
                else:
                    tokens[l] = bucket
            shapers = []
            # Links whose traffic bypasses the common droptail queue:
            # dual shapers and weighted-service links both keep their
            # own pair of virtual queues (shaper_tq / shaper_oq).
            shaper_links = np.array(
                [l for l, _ in la.shapers] + [l for l, _ in la.weighted],
                dtype=np.intp,
            )
            for l, sh in la.shapers:
                t_rate = sh.rate_fraction * capacity[l]
                o_rate = (1.0 - sh.rate_fraction) * capacity[l]
                tmask = _target_mask(sh.target_class).astype(float)
                shapers.append(
                    (l, t_rate * dt, o_rate * dt,
                     sh.buffer_seconds * t_rate, sh.buffer_seconds * o_rate,
                     tmask)
                )
            weighted = []
            for l, ws in la.weighted:
                t_rate = ws.weight * capacity[l]
                o_rate = (1.0 - ws.weight) * capacity[l]
                weighted.append(
                    (l, t_rate * dt, o_rate * dt, capacity[l] * dt,
                     ws.buffer_seconds * t_rate, ws.buffer_seconds * o_rate,
                     _target_mask(ws.target_class).astype(float))
                )
            aqms = []
            for l, aq in la.aqms:
                ramp = (
                    aq.max_threshold_fraction - aq.min_threshold_fraction
                ) * buffers[l]
                tmask = _target_mask(aq.target_class)
                aqms.append(
                    (l, aq.min_threshold_fraction * buffers[l], ramp,
                     aq.max_drop_probability, tmask, tmask.astype(float))
                )
            has_shapers = bool(shapers) or bool(weighted)
            policed = frozenset(l for l, *_ in policers)
            # Per-dual-queue service shares (of capacity), for moving
            # standing backlog between the common droptail queue and
            # the virtual queues when a swap changes a link's
            # mechanism family.
            dual_shares = {l: (sh.rate_fraction, 1.0 - sh.rate_fraction)
                           for l, sh in la.shapers}
            dual_shares.update(
                (l, (ws.weight, 1.0 - ws.weight)) for l, ws in la.weighted
            )
            return (
                inv_capacity, cap_dt, buffers, policers, tokens,
                shapers, weighted, aqms, shaper_links, has_shapers,
                policed, dual_shares,
            )

        (
            inv_capacity, cap_dt, buffers, policers, tokens, shapers,
            weighted, aqms, shaper_links, has_shapers, policed,
            dual_shares,
        ) = _compile_mechanisms(self._link_specs, None, frozenset())

        # --- slot / TCP state ------------------------------------------
        slots = SlotArrays(self._workloads, path_ids, rng)
        num_slots = len(slots)
        spath = slots.path_index
        tcp = TcpArrayState(slots.is_cubic)
        slots_of_path: List[np.ndarray] = [
            np.nonzero(spath == p)[0] for p in range(num_paths)
        ]

        # --- accumulators ----------------------------------------------
        # Per-interval outputs are yielded to the session (which
        # collects them), so only the within-interval accumulators
        # live here.
        slot_sent_acc = np.zeros(num_slots)
        slot_lost_acc = np.zeros(num_slots)
        rtt_acc = np.zeros(num_paths)
        link_arr_acc = np.zeros((num_links, num_paths))
        link_drop_acc = np.zeros((num_links, num_paths))
        session._bind(slots, spath)

        # --- per-step scratch ------------------------------------------
        arrivals = np.zeros((num_links, num_paths))
        drop_frac = np.zeros((num_links, num_paths))
        dirty_frac_rows: List[int] = []
        path_smooth = np.zeros(num_paths)
        path_burst = np.zeros(num_paths)
        slot_burst = np.zeros(num_slots)
        smooth_dirty = False
        burst_dirty = False
        srtt = None
        srtt_gain = min(dt / SRTT_TIME_CONSTANT, 1.0)
        jitter_block = None
        jitter_pos = _JITTER_BLOCK_STEPS
        jitter_cv = self._send_jitter_cv
        jitter_shape = 1.0 / (jitter_cv * jitter_cv) if jitter_cv > 0 else 0.0
        # Earliest pending flow start among idle slots, so quiet steps
        # skip the start scan with one float comparison.
        next_start_min = float(slots.next_start.min())

        def shed_overflow(l, q, buf, inflow, drop_rows):
            """Clamp a virtual queue to its buffer, shedding the
            overflow pro rata over this step's inflow as a burst
            drop. Returns ``(clamped q, whether anything shed)``."""
            nonlocal burst_dirty, path_burst
            if q <= buf:
                return q, False
            overflow = q - buf
            total = float(inflow.sum())
            if total > 0.0:
                f = min(overflow / total, 1.0)
                burst_row = inflow * f
                drop_rows[l] = drop_rows.get(l, 0.0) + burst_row
                path_burst += burst_row
                burst_dirty = True
            return buf, True

        step = 0
        while True:
            if session._pending_specs is not None and (
                step == 0
                or (
                    step >= warmup_steps
                    and (step - warmup_steps) % steps_per_interval == 0
                )
            ):
                old_dual = dual_shares
                (
                    inv_capacity, cap_dt, buffers, policers, tokens,
                    shapers, weighted, aqms, shaper_links, has_shapers,
                    policed, dual_shares,
                ) = _compile_mechanisms(
                    session._pending_specs, tokens, policed
                )
                # Standing backlog follows the link's queueing
                # discipline across the swap: a link that stops
                # running a dual mechanism folds its virtual queues
                # back into the common droptail queue (the next
                # overfull check clamps any excess), and a link that
                # starts one hands its droptail backlog to the
                # virtual queues split by their service shares — no
                # buffered traffic is stranded or double-served.
                for l in old_dual:
                    if l not in dual_shares:
                        queue[l] += shaper_tq[l] + shaper_oq[l]
                        shaper_tq[l] = 0.0
                        shaper_oq[l] = 0.0
                for l, (t_share, o_share) in dual_shares.items():
                    if l not in old_dual and queue[l] > 0.0:
                        shaper_tq[l] += queue[l] * t_share
                        shaper_oq[l] += queue[l] * o_share
                        queue[l] = 0.0
                self._link_specs = session._pending_specs
                session._pending_specs = None
            now = step * dt
            measuring = step >= warmup_steps

            # 0. Per-flow send jitter, drawn in blocks (same gamma
            #    distribution as the scalar engine's per-step draw),
            #    pre-scaled by dt.
            if jitter_pos == _JITTER_BLOCK_STEPS:
                if jitter_cv > 0:
                    jitter_block = rng.gamma(
                        jitter_shape,
                        1.0 / jitter_shape,
                        size=(_JITTER_BLOCK_STEPS, num_slots),
                    )
                    jitter_block *= dt
                else:
                    jitter_block = np.full(
                        (_JITTER_BLOCK_STEPS, num_slots), dt
                    )
                jitter_pos = 0
            jit_dt = jitter_block[jitter_pos]
            jitter_pos += 1

            # 2. Start pending flows (hoisted above the RTT update,
            #    which consumes no RNG and shares no state with the
            #    scan — the stream and results are unchanged).
            if now >= next_start_min:
                startable = (slots.remaining <= 0.0) & (
                    slots.next_start <= now
                )
                idx = startable.nonzero()[0]
                slots.start_flows(idx, rng)
                tcp.reset(idx)
                idle = slots.remaining <= 0.0
                next_start_min = (
                    float(slots.next_start[idle].min())
                    if np.count_nonzero(idle)
                    else np.inf
                )

            # Clear the previous step's loss attribution.
            if smooth_dirty:
                path_smooth[:] = 0.0
                smooth_dirty = False
            if burst_dirty:
                path_burst[:] = 0.0
                slot_burst[:] = 0.0
                burst_dirty = False

            # 1. Effective RTTs: queueing delay along the path on top
            #    of the base, smoothed per path (EWMA, time constant
            #    SRTT_TC) — responding to the instantaneous queue
            #    delay would synchronize every flow sharing a queue
            #    into a common-mode oscillation that real stacks' RTT
            #    filtering damps away.
            if has_shapers:
                occupancy = queue + shaper_tq + shaper_oq
            else:
                occupancy = queue
            instant = base_rtt + inc_pl @ (occupancy * inv_capacity)
            if srtt is None:
                srtt = instant.copy()
            else:
                srtt += srtt_gain * (instant - srtt)
            if measuring:
                rtt_acc += instant

            # 2b. Per-slot offers.
            rtt_slot = srtt[spath] * slots.rtt_factor
            np.maximum(rtt_slot, 1e-3, out=rtt_slot)
            send = tcp.cwnd * jit_dt / rtt_slot
            np.minimum(send, slots.remaining, out=send)
            sending = send > 0.0
            path_send = np.bincount(
                spath, weights=send, minlength=num_paths
            )

            # 3. Per-link, per-path arrivals, attenuated by upstream
            #    drops. A policer shedding 30–80 % of a path's volume
            #    must not present phantom traffic to downstream
            #    queues — that would congest them in lockstep with
            #    the policed paths and fabricate correlations. The
            #    previous step's per-link drop fractions stand in for
            #    this step's (one-step lag, smooth in the fluid
            #    limit).
            if dirty_frac_rows:
                volume = path_send.copy()
                for link_row, path_row in hops:
                    v = volume[path_row]
                    arrivals[link_row, path_row] = v
                    volume[path_row] = v * (
                        1.0 - drop_frac[link_row, path_row]
                    )
                drop_frac[dirty_frac_rows] = 0.0
                dirty_frac_rows = []
            else:
                np.multiply(inc_lp, path_send, out=arrivals)
            total_in = arrivals.sum(axis=1)

            # 4. Serve links. "Smooth" drops (policer shedding) hit
            #    every flow of a path proportionally; "burst" drops
            #    (droptail overflow) are concentrated on a single
            #    flow — keeping flow sawtooths independent, which
            #    sets the realistic loss-event frequency.
            drop_rows: Dict[int, np.ndarray] = {}
            queue_in = total_in  # adjusted in place below
            for l, rate_dt, bucket, tmask, tmask_f in policers:
                refilled = min(bucket, tokens[l] + rate_dt)
                row = arrivals[l]
                demand = float(row @ tmask_f)
                allowed = demand if demand <= refilled else refilled
                tokens[l] = refilled - allowed
                excess = demand - allowed
                if excess > 0.0:
                    # Continuous shedding: proportional over policed
                    # paths, i.e. the same fraction for each.
                    f = excess / demand
                    shed = row * tmask_f
                    shed *= f
                    drop_rows[l] = shed
                    queue_in[l] -= excess
                    present = tmask & (row > 0.0)
                    path_smooth[present] = 1.0 - (
                        1.0 - path_smooth[present]
                    ) * (1.0 - f)
                    smooth_dirty = True
            for l, minth, ramp, pmax, tmask, tmask_f in aqms:
                # RED-style early drop of the targeted class: the
                # drop probability ramps with the droptail queue's
                # fill level; in the fluid limit the expected shed
                # fraction is applied deterministically (smooth
                # drops, like policer shedding).
                f = pmax * min(max((queue[l] - minth) / ramp, 0.0), 1.0)
                if f <= 0.0:
                    continue
                row = arrivals[l]
                shed = row * tmask_f
                demand = float(shed.sum())
                if demand <= 0.0:
                    continue
                shed *= f
                drop_rows[l] = drop_rows.get(l, 0.0) + shed
                queue_in[l] -= f * demand
                present = tmask & (row > 0.0)
                path_smooth[present] = 1.0 - (
                    1.0 - path_smooth[present]
                ) * (1.0 - f)
                smooth_dirty = True
            for l, t_rate_dt, o_rate_dt, t_buf, o_buf, tmask_f in shapers:
                row = arrivals[l]
                t_in = row * tmask_f
                o_in = row - t_in
                for q_arr, inflow, served, buf in (
                    (shaper_tq, t_in, t_rate_dt, t_buf),
                    (shaper_oq, o_in, o_rate_dt, o_buf),
                ):
                    q = q_arr[l] + float(inflow.sum())
                    q -= min(q, served)
                    q_arr[l], _ = shed_overflow(
                        l, q, buf, inflow, drop_rows
                    )
            for l, t_rate_dt, o_rate_dt, cap_l_dt, t_buf, o_buf, \
                    tmask_f in weighted:
                row = arrivals[l]
                t_in = row * tmask_f
                o_in = row - t_in
                t_total = shaper_tq[l] + float(t_in.sum())
                o_total = shaper_oq[l] + float(o_in.sum())
                # Work-conserving weighted service: each virtual
                # queue is guaranteed its share; whatever one queue
                # cannot use, the other absorbs (capped at total
                # capacity).
                t_served = min(t_total, t_rate_dt)
                o_served = min(o_total, o_rate_dt)
                spare = cap_l_dt - t_served - o_served
                if spare > 0.0:
                    extra_o = min(spare, o_total - o_served)
                    o_served += extra_o
                    spare -= extra_o
                    t_served += min(spare, t_total - t_served)
                for q_val, inflow, buf, q_arr in (
                    (t_total - t_served, t_in, t_buf, shaper_tq),
                    (o_total - o_served, o_in, o_buf, shaper_oq),
                ):
                    q_arr[l], _ = shed_overflow(
                        l, q_val, buf, inflow, drop_rows
                    )
            if len(shaper_links):
                queue_in[shaper_links] = 0.0
            # Droptail FIFO on the common queues: serve at capacity,
            # spill the overflow pro rata over this step's arrivals
            # (sustained congestion: a persistently full queue drops
            # everyone's packets with roughly equal per-packet
            # probability).
            queue += queue_in
            queue -= np.minimum(queue, cap_dt)
            overfull = queue > buffers
            if np.count_nonzero(overfull):
                for l in overfull.nonzero()[0]:
                    overflow = queue[l] - buffers[l]
                    queue[l] = buffers[l]
                    total = queue_in[l]
                    if total <= 0.0:
                        continue
                    f = min(overflow / total, 1.0)
                    if l in drop_rows:
                        remaining_row = arrivals[l] - drop_rows[l]
                        burst_row = remaining_row * f
                        drop_rows[l] = drop_rows[l] + burst_row
                    else:
                        burst_row = arrivals[l] * f
                        drop_rows[l] = burst_row
                    path_burst += burst_row
                    burst_dirty = True
            if drop_rows:
                for l, drow in drop_rows.items():
                    # Zero arrivals imply zero drops, so the guarded
                    # denominator never manufactures a fraction.
                    drop_frac[l] = np.minimum(
                        drow / np.maximum(arrivals[l], 1e-300), 1.0
                    )
                    dirty_frac_rows.append(l)
                    if measuring:
                        link_drop_acc[l] += drow

            # 5. Allocate each path's burst volume to one of its
            #    active flows (weighted by what each sent), spilling
            #    to the next only when the burst exceeds the flow's
            #    traffic.
            if burst_dirty:
                _allocate_bursts(
                    rng, path_burst, path_send, slots_of_path,
                    send, slot_burst,
                )

            # 6. TCP reactions, flow completion, path accounting.
            if smooth_dirty or burst_dirty:
                lost = send * path_smooth[spath]
                if burst_dirty:
                    lost += slot_burst
                np.minimum(lost, send, out=lost)
                delivered = send - lost
            else:
                lost = None
                delivered = send
            tcp.advance(now, send, sending, lost, delivered, rtt_slot)
            slots.remaining -= delivered
            completed = sending & (slots.remaining <= 1e-9)
            if np.count_nonzero(completed):
                idx = completed.nonzero()[0]
                slots.complete_flows(idx, now, rng)
                next_start_min = min(
                    next_start_min, float(slots.next_start[idx].min())
                )
            if measuring:
                slot_sent_acc += send
                if lost is not None:
                    slot_lost_acc += lost
                link_arr_acc += arrivals

                # 7. Close the interval: hand the session this
                #    interval's columns and reset the accumulators.
                if (step - warmup_steps + 1) % steps_per_interval == 0:
                    yield (
                        np.bincount(
                            spath,
                            weights=slot_sent_acc,
                            minlength=num_paths,
                        ),
                        np.bincount(
                            spath,
                            weights=slot_lost_acc,
                            minlength=num_paths,
                        ),
                        rtt_acc / steps_per_interval,
                        link_arr_acc @ class_onehot,
                        link_drop_acc @ class_onehot,
                        queue + shaper_tq + shaper_oq,
                    )
                    slot_sent_acc[:] = 0.0
                    slot_lost_acc[:] = 0.0
                    rtt_acc[:] = 0.0
                    link_arr_acc[:] = 0.0
                    link_drop_acc[:] = 0.0
            step += 1


class FluidSession:
    """A resumable fluid emulation, advanced N intervals at a time.

    Created by :meth:`FluidNetwork.session`. Advancing a session in
    any segmentation produces *bit-identical* records to a one-shot
    :meth:`FluidNetwork.run` of the same total length (the loop and
    its RNG stream are shared; segmentation only changes where the
    generator pauses). Between segments the session accepts link-spec
    swaps, which take effect at the next interval boundary — the
    substrate hook behind the streaming monitor's mid-run
    differentiation onset/offset scenarios.
    """

    def __init__(
        self,
        sim: FluidNetwork,
        dt: float,
        interval_seconds: float,
        warmup_seconds: float,
        keep_ground_truth: bool = True,
    ) -> None:
        steps_per_interval = int(round(interval_seconds / dt))
        if steps_per_interval < 1 or abs(
            steps_per_interval * dt - interval_seconds
        ) > 1e-9:
            raise EmulationError(
                f"dt={dt} must divide interval_seconds={interval_seconds}"
            )
        self._sim = sim
        self.interval_seconds = float(interval_seconds)
        self._steps_per_interval = steps_per_interval
        self._keep_history = bool(keep_ground_truth)
        self._pending_specs: Optional[Dict[str, FluidLinkSpec]] = None
        self._gen = sim._interval_loop(
            self, dt, steps_per_interval, int(round(warmup_seconds / dt))
        )
        self._slots = None
        self._spath = None
        path_ids = list(sim._net.path_ids)
        self._path_ids = path_ids
        self._measured_rows = np.array(
            [
                p
                for p, pid in enumerate(path_ids)
                if sim._workloads[pid].measured
            ],
            dtype=np.intp,
        )
        self._measured_ids = tuple(
            path_ids[p] for p in self._measured_rows.tolist()
        )
        if not self._measured_ids:
            raise EmulationError("no measured paths in the workload")
        self._sent_cols: List[np.ndarray] = []
        self._lost_cols: List[np.ndarray] = []
        self._rtt_cols: List[np.ndarray] = []
        self._arr_cols: List[np.ndarray] = []
        self._drop_cols: List[np.ndarray] = []
        self._occ_cols: List[np.ndarray] = []
        self.intervals_done = 0
        # Telemetry enablement is sampled once per session: the
        # disabled path costs one boolean and nothing else. The RNG
        # proxy forwards every call to the same Generator, so the draw
        # stream (and all records) stay bit-identical with telemetry
        # on or off.
        self._tel = telemetry.enabled()
        if self._tel:
            reg = telemetry.get_registry()
            self._tel_intervals = reg.counter(
                "repro_engine_intervals_total",
                "measurement intervals emulated", substrate="fluid",
            )
            self._tel_steps = reg.counter(
                "repro_engine_steps_total",
                "engine steps emulated", substrate="fluid",
            )
            self._tel_swaps = reg.counter(
                "repro_engine_spec_swaps_total",
                "mid-run link-spec swaps applied", substrate="fluid",
            )
            rng_counter = reg.counter(
                "repro_engine_rng_draws_total",
                "RNG method calls made by the engine", substrate="fluid",
            )
            if not isinstance(sim._rng, telemetry.CountingRNG):
                sim._rng = telemetry.CountingRNG(sim._rng, rng_counter)

    def _bind(self, slots, spath) -> None:
        """Called by the loop once its state exists (first advance)."""
        self._slots = slots
        self._spath = spath

    def set_link_specs(
        self, link_specs: Mapping[str, FluidLinkSpec] = None
    ) -> None:
        """Swap the per-link specs at the next interval boundary.

        The mapping is validated and completed exactly like the
        constructor's (unspecified links revert to defaults). Queues
        and in-flight flow state carry over; token buckets persist
        for links that stay policed and start full for newly policed
        links.
        """
        self._pending_specs = self._sim._complete_specs(link_specs)
        if self._tel:
            self._tel_swaps.inc()

    def advance(self, num_intervals: int) -> RecordChunk:
        """Emulate ``num_intervals`` more measurement intervals.

        Returns:
            The new intervals' measured-path records (the same
            integer counters the final :meth:`result` will contain
            for this span).
        """
        if num_intervals < 1:
            raise EmulationError("must advance by at least one interval")
        start = self.intervals_done
        span = (
            telemetry.span(
                "engine.advance", substrate="fluid",
                intervals=int(num_intervals), start=start,
            )
            if self._tel
            else telemetry.NOOP_SPAN
        )
        new_sent: List[np.ndarray] = []
        new_lost: List[np.ndarray] = []
        with span:
            for _ in range(int(num_intervals)):
                sent, lost, rtt, arr, drop, occ = next(self._gen)
                new_sent.append(sent)
                new_lost.append(lost)
                if self._keep_history:
                    self._sent_cols.append(sent)
                    self._lost_cols.append(lost)
                    self._rtt_cols.append(rtt)
                    self._arr_cols.append(arr)
                    self._drop_cols.append(drop)
                    self._occ_cols.append(occ)
        self.intervals_done = start + int(num_intervals)
        if self._tel:
            self._tel_intervals.inc(int(num_intervals))
            self._tel_steps.inc(
                int(num_intervals) * self._steps_per_interval
            )
        return chunk_from_columns(
            self._measured_ids,
            new_sent,
            new_lost,
            self._measured_rows,
            self.interval_seconds,
            start,
        )

    def result(self) -> FluidResult:
        """Package everything emulated so far as a :class:`FluidResult`.

        Identical to what :meth:`FluidNetwork.run` would have
        returned for the same total number of intervals.
        """
        if self.intervals_done == 0:
            raise EmulationError("no intervals emulated yet")
        if not self._keep_history:
            raise EmulationError(
                "ground-truth history was discarded "
                "(keep_ground_truth=False); no result to package"
            )
        sim = self._sim
        path_ids = self._path_ids
        flows_by_path = np.bincount(
            self._spath,
            weights=self._slots.flows_completed,
            minlength=len(path_ids),
        )
        return package_result(
            path_ids,
            list(sim._net.link_ids),
            sim._classes.names,
            sim._workloads,
            np.stack(self._sent_cols, axis=1),
            np.stack(self._lost_cols, axis=1),
            np.stack(self._rtt_cols, axis=1),
            np.stack(self._arr_cols, axis=2),
            np.stack(self._drop_cols, axis=2),
            np.stack(self._occ_cols, axis=1),
            flows_by_path,
            self.interval_seconds,
        )


#: Public alias: the vectorized engine is *the* fluid engine.
FluidEngine = FluidNetwork
