"""The fluid step program: B link-spec variants in lockstep.

One time-stepped numpy program advances ``B`` *scenarios* — link-spec
variants of a shared topology/workload — simultaneously. It is the
only fluid step loop, :func:`interval_loop`:
:class:`~repro.fluid.engine.FluidNetwork` runs it at ``B = 1`` (see
:mod:`repro.fluid.engine` for the model and its loss-attribution
rationale) and :class:`FluidBatchNetwork` at any ``B``, both through
the one :class:`~repro.substrate.base.EngineSession` of both
engines.

**Flat rows.** The scenario axis is folded into the leading axis of
every state array, so each operation has the shape a lone scenario
would give it and ``B = 1`` runs exactly the single-scenario ops:

* slot state at ``b·S + i`` (:class:`~repro.fluid.tcp.TcpArrayState`
  and :class:`~repro.fluid.traffic.SlotArrays` apply unchanged);
* link state (queues, tokens, capacities) at ``b·L + l``;
* path state (sends, smooth/burst loss, RTTs) at ``b·P + p``;
* per-link per-path arrivals and drop fractions as ``(B·L, P)``
  arrays whose row ``b·L + l`` is scenario ``b``'s link ``l``.

Differentiation mechanisms compile to one entry per flat link row, in
(family, scenario, link) order — policers, then AQMs, then shapers,
then weighted service — so every scenario applies its mechanisms in
the same order at any ``B``.

**The contract is floating-point identity**: scenario ``b``'s output
is bit-for-bit the output of a ``B = 1`` run with ``spec_sets[b]``
and ``seeds[b]`` (pinned by ``tests/fluid/test_batch_equivalence.py``
and the ``bench_batch.py`` gate). Three rules make that possible:

* **Per-scenario RNG streams.** Every scenario owns its own
  :class:`numpy.random.Generator`; data-dependent draws (flow
  starts/completions, droptail burst allocation, jitter blocks) are
  made per scenario in the same within-step order at any ``B``.
* **Batch-invariant reductions only.** Elementwise ufuncs, last-axis
  ``sum`` (pairwise per row) and flattened ``bincount`` (sequential
  by construction) produce per-scenario slices identical to a lone
  scenario's. BLAS matvec/dot do *not* (GEMM row blocking differs
  from GEMV), so the queueing-delay RTT term, each policer's demand
  dot and the interval-close class sums are issued per scenario.
* **Per-row mechanisms.** Mechanism state and its shared-state
  accumulations (per-path smooth-loss fractions, burst volumes) are
  updated row by row through per-scenario views, in the order above.

Every world runs for the same duration, and a session's link-spec
swap applies to every world at once (the paper's runs emulate all
their worlds for one span and switch one policy for all of them).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError
from repro.fluid.engine import (
    DEFAULT_DT,
    DEFAULT_INTERVAL,
    DEFAULT_SEND_JITTER_CV,
    SRTT_TIME_CONSTANT,
    _JITTER_BLOCK_STEPS,
    FluidNetwork,
)
from repro.fluid.params import LinkSpec, PathWorkload, build_link_arrays
from repro.fluid.tcp import TcpArrayState
from repro.fluid.traffic import SlotArrays
from repro.substrate.base import EngineSession, SubstrateResult, run_session


def _allocate_bursts(
    rngs, num_paths, path_burst, path_send, slots_of_path, send, slot_burst
) -> None:
    """Allocate each path's burst-drop volume to its active flows.

    A droptail burst is a contiguous packet run, so it lands on one
    randomly chosen flow per step (weighted by what each sent),
    spilling to the next only when the burst exceeds the flow's
    traffic — the weighted order without replacement comes from
    Gumbel keys (Efraimidis–Spirakis). Paths are flat (``b·P + p``),
    hence grouped by scenario; each scenario's uniforms are drawn in
    one RNG call and sliced per path, which consumes the same stream
    as one ``rng.random(len(members))`` per path (Generator.random
    fills a buffer sequentially).
    """
    todo: Dict[int, list] = {}
    for fp in np.nonzero((path_burst > 0.0) & (path_send > 0.0))[0]:
        members = slots_of_path[fp]
        weights = send[members]
        present = weights > 0.0
        if not present.any():
            continue
        todo.setdefault(fp // num_paths, []).append(
            (fp, members[present], weights[present])
        )
    for b, paths in todo.items():
        u_all = rngs[b].random(sum(len(m) for _, m, _ in paths))
        pos = 0
        for fp, members, weights in paths:
            u = u_all[pos : pos + len(members)]
            pos += len(members)
            burst = min(path_burst[fp], path_send[fp])
            order = (np.log(-np.log(u)) - np.log(weights)).argsort()
            ordered = weights[order]
            ahead = ordered.cumsum() - ordered
            slot_burst[members[order]] = np.minimum(
                ordered, np.maximum(burst - ahead, 0.0)
            )


def _by_scenario(idx, width):
    """Split sorted flat slot indices into ``(scenario, indices)`` runs
    (scenario ``b`` owns slots ``[b·width, (b+1)·width)``)."""
    if not len(idx):
        return []
    first = int(idx[0]) // width
    last = int(idx[-1]) // width
    if first == last:
        return [(first, idx)]
    cuts = np.searchsorted(idx, np.arange(first + 1, last + 1) * width)
    return [
        (b, part)
        for b, part in zip(range(first, last + 1), np.split(idx, cuts))
        if len(part)
    ]


class FluidBatchNetwork:
    """``B`` fluid emulations of one topology, advanced together.

    Args:
        net: The shared network graph.
        classes: The shared class assignment.
        spec_sets: One per-link spec mapping per scenario (links not
            mentioned get defaults, exactly like a single run).
        workloads: The shared per-path traffic description.
        seeds: One emulation seed per scenario; scenario ``b``
            consumes the same RNG stream its single run would.
    """

    def __init__(
        self,
        net: Network,
        classes: ClassAssignment,
        spec_sets: Sequence[Mapping[str, LinkSpec]],
        workloads: Mapping[str, PathWorkload],
        seeds: Sequence[int],
    ) -> None:
        if not len(spec_sets):
            raise ConfigurationError(
                "a scenario batch needs at least one spec set"
            )
        if len(seeds) != len(spec_sets):
            raise ConfigurationError(
                f"got {len(spec_sets)} spec sets but {len(seeds)} seeds"
            )
        # One FluidNetwork per scenario performs the spec/workload
        # validation, spec completion, and RNG construction, and holds
        # the scenario's current specs and RNG for the program.
        self._worlds = [
            FluidNetwork(net, classes, specs, workloads, seed=seed)
            for specs, seed in zip(spec_sets, seeds)
        ]
        self._net = net
        self._classes = classes
        self._workloads = self._worlds[0]._workloads

    def run(
        self,
        duration_seconds: float,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
    ) -> List[SubstrateResult]:
        """Run every scenario for ``duration_seconds`` in one lockstep
        program (the arguments of :meth:`FluidNetwork.run`)."""
        return run_session(
            self.session(dt, interval_seconds, warmup_seconds),
            duration_seconds,
        )

    def session(
        self,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
        keep_ground_truth: bool = True,
    ) -> EngineSession:
        """Open a resumable batched session (streaming mode).

        The :class:`~repro.substrate.base.EngineSession` advances every
        scenario N measurement intervals at a time, returning one
        chunk per scenario, and swaps every scenario's specs at
        interval boundaries (the many-worlds counterpart of
        :meth:`FluidNetwork.session`). Scenario ``b``'s chunks and
        ``result(b)`` are bit-identical to a single session's with
        its specs and seed.
        """
        path_ids = self._net.path_ids
        return EngineSession(
            self,
            "fluid",
            path_ids,
            [self._workloads[pid].measured for pid in path_ids],
            interval_seconds=interval_seconds,
            warmup_seconds=warmup_seconds,
            dt=dt,
            worlds=len(self._worlds),
            keep_ground_truth=keep_ground_truth,
        )

    def _interval_loop(self, session: EngineSession):
        return interval_loop(self._worlds, session)


def interval_loop(worlds: Sequence[FluidNetwork], session: EngineSession):
    """The fluid step program over ``worlds``, yielding once per
    closed interval.

    The worlds share the first one's network, classes and workloads;
    each keeps its own specs and RNG, which the program consumes. Each
    yield hands the session the interval's ``(B, …)`` per-path sent /
    lost / RTT columns and per-link ground-truth columns. The loop is
    open-ended: the consumer stops pulling when its run (or stream
    segment) is complete. A pending link-spec swap
    (``session.pending_specs``) is applied exactly at an interval
    boundary and consumes no randomness, so a segmented run with no
    swaps is bit-identical to a one-shot run.
    """
    first = worlds[0]
    classes = first._classes
    workloads = first._workloads
    dt = session.dt
    steps_per_interval = session.steps_per_interval
    warmup_steps = session.warmup_steps
    rngs = [session.count_rng(w._rng) for w in worlds]
    num_scenarios = len(worlds)
    net = first._net
    path_ids: List[str] = list(net.path_ids)
    link_ids: List[str] = list(net.link_ids)
    class_names = classes.names
    num_paths = len(path_ids)
    num_links = len(link_ids)
    num_rows = num_scenarios * num_links
    lindex = {lid: i for i, lid in enumerate(link_ids)}
    cindex = {cn: i for i, cn in enumerate(class_names)}

    # --- static geometry -------------------------------------------
    # Incidence (links × paths) for arrival scatter and its
    # transpose for the per-scenario RTT matvec.
    inc_lp = np.zeros((num_links, num_paths))
    path_links: List[List[int]] = []
    for p, pid in enumerate(path_ids):
        path_links.append([lindex[lid] for lid in net.path(pid).links])
        inc_lp[path_links[p], p] = 1.0
    inc_pl = np.ascontiguousarray(inc_lp.T)
    # Hop table for the attenuated-arrival walk: hop d of flat path
    # b·P + p crosses flat link row hop_rows[d, b·P + p] (padded
    # with the path's last hop past its end). walk[d] holds the
    # volume entering hop d: the path's send, times (1 − drop
    # fraction) of each earlier hop, multiplied in hop order.
    max_hops = max(len(links) for links in path_links)
    hop_rows = np.empty((max_hops, num_scenarios * num_paths), np.intp)
    hop_cols = np.empty_like(hop_rows)
    on_path = np.zeros(hop_rows.shape, dtype=bool)
    for b in range(num_scenarios):
        for p, links in enumerate(path_links):
            padded = links + links[-1:] * (max_hops - len(links))
            hop_rows[:, b * num_paths + p] = b * num_links + np.array(
                padded
            )
            hop_cols[:, b * num_paths + p] = p
            on_path[: len(links), b * num_paths + p] = True
    walk = np.empty(hop_rows.shape)
    walk_pos = np.flatnonzero(on_path)
    arr_rows = hop_rows.ravel()[walk_pos]
    arr_cols = hop_cols.ravel()[walk_pos]
    # Hops whose drop fraction attenuates a later hop's arrivals.
    up_rows, up_cols, up_walk = hop_rows[:-1], hop_cols[:-1], walk[1:]
    class_onehot = np.zeros((num_paths, len(class_names)))
    for p, pid in enumerate(path_ids):
        class_onehot[p, cindex[classes.class_of(pid)]] = 1.0
    base_rtt = np.tile(
        [workloads[pid].rtt_seconds for pid in path_ids],
        num_scenarios,
    )

    # --- link / path state (flat rows) -----------------------------
    # The queues persist across mid-run spec swaps (a policy
    # switch does not empty standing buffers); everything derived
    # from the specs is rebuilt by ``compile_mechanisms``.
    queue = np.zeros(num_rows)
    shaper_tq = np.zeros(num_rows)
    shaper_oq = np.zeros(num_rows)
    path_smooth = np.zeros(num_scenarios * num_paths)
    path_burst = np.zeros(num_scenarios * num_paths)
    smooth_of = [
        path_smooth[b * num_paths : (b + 1) * num_paths]
        for b in range(num_scenarios)
    ]
    burst_of = [
        path_burst[b * num_paths : (b + 1) * num_paths]
        for b in range(num_scenarios)
    ]
    burst_of_row = [burst_of[r // num_links] for r in range(num_rows)]

    target_masks: Dict[str, np.ndarray] = {}

    def target_mask(target_class: str) -> np.ndarray:
        if target_class not in target_masks:
            target_masks[target_class] = np.array(
                [
                    classes.class_of(pid) == target_class
                    for pid in path_ids
                ]
            )
        return target_masks[target_class]

    def compile_mechanisms(spec_sets, prev_tokens=None, prev_policers=()):
        """Lower every scenario's link specs to per-row constants.

        Pure (no RNG): called once at start and again whenever a
        session swaps specs at an interval boundary. Token
        buckets carry over for rows that stay policed (clipped to
        the new bucket depth); newly policed rows start with a
        full bucket, exactly like a fresh run.
        """
        per_scenario = [
            build_link_arrays(link_ids, specs) for specs in spec_sets
        ]
        capacity = np.concatenate(
            [la.capacity_pps for la in per_scenario]
        )
        buffers = np.concatenate(
            [la.buffer_packets for la in per_scenario]
        )
        prev_policed = {r for r, *_ in prev_policers}
        # Per-row token buckets as Python floats: the policer step
        # is scalar arithmetic, cheaper on floats than on numpy
        # scalars (same IEEE results).
        tokens = [0.0] * num_rows
        policers, aqms, shapers, weighted = [], [], [], []
        # Per-dual-queue service shares (of capacity), for moving
        # standing backlog between the common droptail queue and
        # the virtual queues when a swap changes a row's
        # mechanism family.
        dual_shares = {}
        for b, la in enumerate(per_scenario):
            base = b * num_links
            for l, pol in la.policers:
                r = base + l
                rate = float(pol.rate_fraction * capacity[r])
                bucket = pol.burst_seconds * rate
                tmask = target_mask(pol.target_class)
                policers.append(
                    (r, rate * dt, bucket, tmask, tmask.astype(float),
                     smooth_of[b])
                )
                if r in prev_policed:
                    tokens[r] = min(prev_tokens[r], bucket)
                else:
                    tokens[r] = bucket
            for l, aq in la.aqms:
                r = base + l
                ramp = (
                    aq.max_threshold_fraction - aq.min_threshold_fraction
                ) * buffers[r]
                tmask = target_mask(aq.target_class)
                aqms.append(
                    (r, aq.min_threshold_fraction * buffers[r], ramp,
                     aq.max_drop_probability, tmask, tmask.astype(float),
                     smooth_of[b])
                )
            for l, sh in la.shapers:
                r = base + l
                t_rate = sh.rate_fraction * capacity[r]
                o_rate = (1.0 - sh.rate_fraction) * capacity[r]
                shapers.append(
                    (r, t_rate * dt, o_rate * dt,
                     sh.buffer_seconds * t_rate,
                     sh.buffer_seconds * o_rate,
                     target_mask(sh.target_class).astype(float),
                     burst_of[b])
                )
                dual_shares[r] = (sh.rate_fraction, 1.0 - sh.rate_fraction)
            for l, ws in la.weighted:
                r = base + l
                t_rate = ws.weight * capacity[r]
                o_rate = (1.0 - ws.weight) * capacity[r]
                weighted.append(
                    (r, t_rate * dt, o_rate * dt, capacity[r] * dt,
                     ws.buffer_seconds * t_rate,
                     ws.buffer_seconds * o_rate,
                     target_mask(ws.target_class).astype(float),
                     burst_of[b])
                )
                dual_shares[r] = (ws.weight, 1.0 - ws.weight)
        # Rows whose traffic bypasses the common droptail queue:
        # dual shapers and weighted-service links keep their own
        # pair of virtual queues.
        dual_rows = np.array(sorted(dual_shares), dtype=np.intp)
        return (
            1.0 / capacity, capacity * dt, buffers, tokens,
            policers, aqms, shapers, weighted, dual_shares, dual_rows,
        )

    (
        inv_capacity, cap_dt, buffers, tokens,
        policers, aqms, shapers, weighted, dual_shares, dual_rows,
    ) = compile_mechanisms([w._link_specs for w in worlds])

    # --- slot / TCP state ------------------------------------------
    # Each scenario's slots are built from its own RNG (its first
    # draws), then flattened to B·S.
    parts = [
        SlotArrays(workloads, path_ids, rng) for rng in rngs
    ]
    slots_per_scenario = len(parts[0])
    slots = SlotArrays.concat(parts, num_paths)
    num_slots = len(slots)
    spath = slots.path_index  # slot -> b·P + p
    tcp = TcpArrayState(slots.is_cubic)
    slots_of_path: List[np.ndarray] = [
        np.nonzero(spath == fp)[0]
        for fp in range(num_scenarios * num_paths)
    ]
    session.bind_flows(spath, slots.flows_completed)

    # --- accumulators ----------------------------------------------
    shape_blp = (num_scenarios, num_links, num_paths)
    slot_sent_acc = np.zeros(num_slots)
    slot_lost_acc = np.zeros(num_slots)
    rtt_acc = np.zeros(num_scenarios * num_paths)
    link_arr_acc = np.zeros((num_rows, num_paths))
    link_drop_acc = np.zeros((num_rows, num_paths))
    link_arr_acc_3d = link_arr_acc.reshape(shape_blp)
    link_drop_acc_3d = link_drop_acc.reshape(shape_blp)

    # --- per-step scratch ------------------------------------------
    arrivals = np.zeros((num_rows, num_paths))
    arrivals_3d = arrivals.reshape(shape_blp)
    drop_frac = np.zeros((num_rows, num_paths))
    dirty_frac_rows: List[int] = []
    slot_burst = np.zeros(num_slots)
    smooth_dirty = False
    burst_dirty = False
    # Column stacks for the RTT matvec: a stacked matmul issues one
    # (P, L) @ (L,) GEMV per scenario.
    scaled_3d = np.empty((num_scenarios, num_links, 1))
    scaled = scaled_3d.reshape(-1)
    qdelay_3d = np.empty((num_scenarios, num_paths, 1))
    qdelay = qdelay_3d.reshape(-1)
    srtt = None
    srtt_gain = min(dt / SRTT_TIME_CONSTANT, 1.0)
    jitter_block = np.empty((_JITTER_BLOCK_STEPS, num_slots))
    jitter_pos = _JITTER_BLOCK_STEPS
    jitter_shape = 1.0 / (DEFAULT_SEND_JITTER_CV * DEFAULT_SEND_JITTER_CV)
    # Earliest pending flow start among idle slots, so quiet steps
    # skip the start scan with one float comparison.
    next_start_min = float(slots.next_start.min())

    def shed_overflow(r, q, buf, inflow, drop_rows, burst):
        """Clamp a virtual queue to its buffer, shedding the
        overflow pro rata over this step's inflow as a burst
        drop. Returns the clamped queue."""
        nonlocal burst_dirty
        if q <= buf:
            return q
        overflow = q - buf
        total = float(inflow.sum())
        if total > 0.0:
            f = min(overflow / total, 1.0)
            burst_row = inflow * f
            drop_rows[r] = drop_rows.get(r, 0.0) + burst_row
            burst += burst_row
            burst_dirty = True
        return buf

    step = 0
    while True:
        if session.pending_specs is not None and (
            step == 0
            or (
                step >= warmup_steps
                and (step - warmup_steps) % steps_per_interval == 0
            )
        ):
            for world in worlds:
                world._link_specs = session.pending_specs
            old_dual = dual_shares
            (
                inv_capacity, cap_dt, buffers, tokens,
                policers, aqms, shapers, weighted, dual_shares, dual_rows,
            ) = compile_mechanisms(
                [w._link_specs for w in worlds], tokens, policers
            )
            # Standing backlog follows the row's queueing
            # discipline across the swap: a row that stops
            # running a dual mechanism folds its virtual queues
            # back into the common droptail queue (the next
            # overfull check clamps any excess), and a row that
            # starts one hands its droptail backlog to the
            # virtual queues split by their service shares — no
            # buffered traffic is stranded or double-served.
            for r in old_dual:
                if r not in dual_shares:
                    queue[r] += shaper_tq[r] + shaper_oq[r]
                    shaper_tq[r] = 0.0
                    shaper_oq[r] = 0.0
            for r, (t_share, o_share) in dual_shares.items():
                if r not in old_dual and queue[r] > 0.0:
                    shaper_tq[r] += queue[r] * t_share
                    shaper_oq[r] += queue[r] * o_share
                    queue[r] = 0.0
            session.pending_specs = None
        now = step * dt
        measuring = step >= warmup_steps

        # 0. Per-flow send jitter, drawn in per-scenario blocks,
        #    pre-scaled by dt.
        if jitter_pos == _JITTER_BLOCK_STEPS:
            for b, rng in enumerate(rngs):
                seg = slice(
                    b * slots_per_scenario, (b + 1) * slots_per_scenario
                )
                blk = rng.gamma(
                    jitter_shape,
                    1.0 / jitter_shape,
                    size=(_JITTER_BLOCK_STEPS, slots_per_scenario),
                )
                blk *= dt
                jitter_block[:, seg] = blk
            jitter_pos = 0
        jit_dt = jitter_block[jitter_pos]
        jitter_pos += 1

        # 2. Start pending flows (per-scenario RNG; hoisted above
        #    the RTT update, which consumes no RNG and shares no
        #    state with the scan).
        if now >= next_start_min:
            startable = (slots.remaining <= 0.0) & (
                slots.next_start <= now
            )
            idx = startable.nonzero()[0]
            for b, sub in _by_scenario(idx, slots_per_scenario):
                slots.start_flows(sub, rngs[b])
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
        #    SRTT_TIME_CONSTANT).
        if dual_shares:
            occupancy = queue + shaper_tq + shaper_oq
        else:
            occupancy = queue
        np.multiply(occupancy, inv_capacity, out=scaled)
        np.matmul(inc_pl, scaled_3d, out=qdelay_3d)
        instant = base_rtt + qdelay
        if srtt is None:
            srtt = instant.copy()
        else:
            srtt += srtt_gain * (instant - srtt)
        if measuring:
            rtt_acc += instant

        # 2b. Per-slot offers.
        rtt_slot = srtt[spath]
        rtt_slot *= slots.rtt_factor
        np.maximum(rtt_slot, 1e-3, out=rtt_slot)
        send = tcp.cwnd * jit_dt / rtt_slot
        np.minimum(send, slots.remaining, out=send)
        sending = send > 0.0
        path_send = np.bincount(
            spath, weights=send, minlength=num_scenarios * num_paths
        )

        # 3. Per-link, per-path arrivals, attenuated by upstream
        #    drops (the previous step's per-row drop fractions
        #    stand in for this step's).
        if dirty_frac_rows:
            walk[0] = path_send
            np.subtract(1.0, drop_frac[up_rows, up_cols], out=up_walk)
            np.multiply.accumulate(walk, axis=0, out=walk)
            arrivals[arr_rows, arr_cols] = walk.take(walk_pos)
            drop_frac[dirty_frac_rows] = 0.0
            dirty_frac_rows = []
        else:
            np.multiply(
                inc_lp,
                path_send.reshape(num_scenarios, 1, num_paths),
                out=arrivals_3d,
            )
        total_in = arrivals.sum(axis=1)

        # 4. Serve links. "Smooth" drops (policer shedding, AQM)
        #    hit every flow of a path proportionally; "burst"
        #    drops (queue overflow) land on single flows.
        drop_rows: Dict[int, np.ndarray] = {}
        queue_in = total_in  # adjusted in place below
        for r, rate_dt, bucket, tmask, tmask_f, smooth in policers:
            refilled = min(bucket, tokens[r] + rate_dt)
            row = arrivals[r]
            demand = float(row @ tmask_f)
            allowed = demand if demand <= refilled else refilled
            tokens[r] = refilled - allowed
            excess = demand - allowed
            if excess > 0.0:
                # Continuous shedding: proportional over policed
                # paths, i.e. the same fraction for each.
                f = excess / demand
                shed = row * tmask_f
                shed *= f
                drop_rows[r] = shed
                queue_in[r] -= excess
                present = tmask & (row > 0.0)
                smooth[present] = 1.0 - (1.0 - smooth[present]) * (
                    1.0 - f
                )
                smooth_dirty = True
        for r, minth, ramp, pmax, tmask, tmask_f, smooth in aqms:
            # RED-style early drop of the targeted class: the
            # expected shed fraction ramps with the droptail
            # queue's fill level, applied deterministically.
            f = pmax * min(max((queue[r] - minth) / ramp, 0.0), 1.0)
            if f <= 0.0:
                continue
            row = arrivals[r]
            shed = row * tmask_f
            demand = float(shed.sum())
            if demand <= 0.0:
                continue
            shed *= f
            drop_rows[r] = drop_rows.get(r, 0.0) + shed
            queue_in[r] -= f * demand
            present = tmask & (row > 0.0)
            smooth[present] = 1.0 - (1.0 - smooth[present]) * (1.0 - f)
            smooth_dirty = True
        for r, t_rate_dt, o_rate_dt, t_buf, o_buf, tmask_f, burst \
                in shapers:
            row = arrivals[r]
            t_in = row * tmask_f
            o_in = row - t_in
            for q_arr, inflow, served, buf in (
                (shaper_tq, t_in, t_rate_dt, t_buf),
                (shaper_oq, o_in, o_rate_dt, o_buf),
            ):
                q = q_arr[r] + float(inflow.sum())
                q -= min(q, served)
                q_arr[r] = shed_overflow(
                    r, q, buf, inflow, drop_rows, burst
                )
        for r, t_rate_dt, o_rate_dt, cap_r_dt, t_buf, o_buf, \
                tmask_f, burst in weighted:
            row = arrivals[r]
            t_in = row * tmask_f
            o_in = row - t_in
            t_total = shaper_tq[r] + float(t_in.sum())
            o_total = shaper_oq[r] + float(o_in.sum())
            # Work-conserving weighted service: each virtual
            # queue is guaranteed its share; whatever one queue
            # cannot use, the other absorbs (capped at total
            # capacity).
            t_served = min(t_total, t_rate_dt)
            o_served = min(o_total, o_rate_dt)
            spare = cap_r_dt - t_served - o_served
            if spare > 0.0:
                extra_o = min(spare, o_total - o_served)
                o_served += extra_o
                spare -= extra_o
                t_served += min(spare, t_total - t_served)
            for q_val, inflow, buf, q_arr in (
                (t_total - t_served, t_in, t_buf, shaper_tq),
                (o_total - o_served, o_in, o_buf, shaper_oq),
            ):
                q_arr[r] = shed_overflow(
                    r, q_val, buf, inflow, drop_rows, burst
                )
        if dual_shares:
            queue_in[dual_rows] = 0.0
        # Droptail FIFO on the common queues: serve at capacity,
        # spill the overflow pro rata over this step's arrivals.
        queue += queue_in
        queue -= np.minimum(queue, cap_dt)
        overfull = queue > buffers
        if np.count_nonzero(overfull):
            for r in overfull.nonzero()[0]:
                overflow = queue[r] - buffers[r]
                queue[r] = buffers[r]
                total = queue_in[r]
                if total <= 0.0:
                    continue
                f = min(overflow / total, 1.0)
                if r in drop_rows:
                    burst_row = (arrivals[r] - drop_rows[r]) * f
                    drop_rows[r] = drop_rows[r] + burst_row
                else:
                    burst_row = arrivals[r] * f
                    drop_rows[r] = burst_row
                burst_of_row[r] += burst_row
                burst_dirty = True
        if drop_rows:
            for r, drow in drop_rows.items():
                # Zero arrivals imply zero drops, so the guarded
                # denominator never manufactures a fraction.
                drop_frac[r] = np.minimum(
                    drow / np.maximum(arrivals[r], 1e-300), 1.0
                )
                dirty_frac_rows.append(r)
                if measuring:
                    link_drop_acc[r] += drow

        # 5. Allocate each path's burst volume to its flows.
        if burst_dirty:
            _allocate_bursts(
                rngs, num_paths, path_burst, path_send, slots_of_path,
                send, slot_burst,
            )

        # 6. TCP reactions, flow completion, path accounting (every
        #    op is per-slot, so scenarios cannot mix).
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
            for b, sub in _by_scenario(idx, slots_per_scenario):
                slots.complete_flows(sub, now, rngs[b])
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
                        minlength=num_scenarios * num_paths,
                    ).reshape(num_scenarios, num_paths),
                    np.bincount(
                        spath,
                        weights=slot_lost_acc,
                        minlength=num_scenarios * num_paths,
                    ).reshape(num_scenarios, num_paths),
                    (rtt_acc / steps_per_interval).reshape(
                        num_scenarios, num_paths
                    ),
                    # A stacked matmul issues one (L, P) @ (P, C)
                    # GEMM per scenario, whatever B is.
                    link_arr_acc_3d @ class_onehot,
                    link_drop_acc_3d @ class_onehot,
                    (queue + shaper_tq + shaper_oq).reshape(
                        num_scenarios, num_links
                    ),
                )
                slot_sent_acc[:] = 0.0
                slot_lost_acc[:] = 0.0
                rtt_acc[:] = 0.0
                link_arr_acc[:] = 0.0
                link_drop_acc[:] = 0.0
        step += 1
