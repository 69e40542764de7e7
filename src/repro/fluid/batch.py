"""The fluid step program: B link-spec variants in lockstep.

One time-stepped numpy program advances ``B`` *scenarios* — link-spec
variants of a shared topology/workload — simultaneously. It is the
only fluid step program, :func:`interval_loop`:
:class:`~repro.fluid.engine.FluidNetwork` runs it at ``B = 1`` (see
:mod:`repro.fluid.engine` for the model and its loss-attribution
rationale) and :class:`FluidBatchNetwork` at any ``B``, both through
the one :class:`~repro.substrate.base.EngineSession` of both
engines.

**Phases over one state.** :class:`FluidState` holds every array the
program keeps: geometry, mechanism constants, queues and token
buckets, slot and TCP state, per-path loss, accumulators, the jitter
position and the current step's offers and arrivals. A step is a
fixed sequence of module-level phases over it, each reading what the
one before left: :func:`apply_specs` (the spec swap, at an interval
boundary), :func:`draw_jitter`, :func:`start_flows`, :func:`offer`
(RTTs and offers), :func:`arrive`, the mechanism dispatch per family
(:func:`police`, :func:`early_drop`, :func:`serve_dual`),
:func:`droptail`, :func:`allocate_bursts`, :func:`react` (TCP
reaction and accounting), and :func:`close_interval` at an interval's
last step. :func:`run_steps` is the sequence.

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
(family, scenario, link) order — policers, then AQMs, then dual
queues (shapers before weighted service) — so every scenario applies
its mechanisms in the same order at any ``B``.

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

from itertools import count
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


class FluidState:
    """Everything the fluid step program keeps, for ``B`` worlds.

    Built at a session's first advance (the slot tables are each
    world's first RNG draws); the phases read and write it in place.
    Link rows are ``b·L + l``, path rows ``b·P + p`` and slots
    ``b·S + i`` (module docstring). The slots below are the whole
    state: a phase cannot keep anything else between steps.
    """

    __slots__ = (
        # Geometry, fixed when the state is built; class_masks[c] is
        # class c's 0/1 path mask (a contiguous row of class_onehot.T).
        "worlds", "rngs", "link_ids", "num_worlds", "num_paths",
        "num_links", "slots_per_world", "dt", "steps_per_interval",
        "inc_lp", "inc_pl", "walk", "walk_pos", "arr_rows", "arr_cols",
        "up_rows", "up_cols", "up_walk", "class_index", "class_onehot",
        "class_masks", "base_rtt", "srtt_gain", "jitter_shape",
        # Mechanism constants, rebuilt by apply_specs.
        "inv_capacity", "cap_dt", "buffers", "tokens", "policers",
        "aqms", "duals", "dual_shares", "dual_rows",
        # Link and path state: the common droptail queues, the dual
        # rows' targeted and other virtual queues, this step's smooth
        # loss fraction and burst volume per path (and (B, P) views),
        # the smoothed RTTs, arrivals, and last step's drop fractions.
        "queue", "shaper_tq", "shaper_oq", "path_smooth", "path_burst",
        "smooth_bp", "burst_bp", "smooth_dirty", "burst_dirty", "srtt",
        "scaled", "scaled_3d", "qdelay", "qdelay_3d", "arrivals",
        "arrivals_3d", "drop_frac", "dirty_frac_rows",
        # Slot and TCP state; spath maps a slot to its b·P + p row.
        "slots", "tcp", "spath", "slots_of_path", "slot_burst",
        "next_start_min", "jitter_block", "jitter_pos",
        # Interval accumulators.
        "slot_sent_acc", "slot_lost_acc", "rtt_acc", "link_arr_acc",
        "link_drop_acc",
        # The current step, each value left by one phase for the next.
        "now", "measuring", "jit_dt", "rtt_slot", "send", "sending",
        "path_send", "queue_in", "drop_rows",
    )

    def __init__(self, worlds: Sequence[FluidNetwork], session) -> None:
        first = worlds[0]
        classes = first._classes
        workloads = first._workloads
        net = first._net
        path_ids: List[str] = list(net.path_ids)
        self.worlds = list(worlds)
        self.rngs = [session.count_rng(w._rng) for w in worlds]
        self.link_ids = link_ids = list(net.link_ids)
        self.num_worlds = B = len(worlds)
        self.num_paths = P = len(path_ids)
        self.num_links = L = len(link_ids)
        self.dt = dt = session.dt
        self.steps_per_interval = session.steps_per_interval
        lindex = {lid: i for i, lid in enumerate(link_ids)}
        self.inc_lp = inc_lp = np.zeros((L, P))
        path_links: List[List[int]] = []
        for p, pid in enumerate(path_ids):
            path_links.append([lindex[lid] for lid in net.path(pid).links])
            inc_lp[path_links[p], p] = 1.0
        self.inc_pl = np.ascontiguousarray(inc_lp.T)
        self._open_walk(path_links)
        self.class_index = {cn: i for i, cn in enumerate(classes.names)}
        self.class_onehot = np.zeros((P, len(classes.names)))
        for p, pid in enumerate(path_ids):
            self.class_onehot[p, self.class_index[classes.class_of(pid)]] = 1.0
        self.class_masks = np.ascontiguousarray(self.class_onehot.T)
        self.base_rtt = np.tile(
            [workloads[pid].rtt_seconds for pid in path_ids], B
        )
        self.srtt_gain = min(dt / SRTT_TIME_CONSTANT, 1.0)
        self.jitter_shape = 1.0 / (
            DEFAULT_SEND_JITTER_CV * DEFAULT_SEND_JITTER_CV
        )

        # The queues persist across spec swaps (a policy switch does
        # not empty standing buffers); apply_specs rebuilds the rest.
        self.queue = np.zeros(B * L)
        self.shaper_tq = np.zeros(B * L)
        self.shaper_oq = np.zeros(B * L)
        self.path_smooth = np.zeros(B * P)
        self.path_burst = np.zeros(B * P)
        self.smooth_bp = self.path_smooth.reshape(B, P)
        self.burst_bp = self.path_burst.reshape(B, P)
        self.tokens, self.policers, self.dual_shares = [], [], {}
        apply_specs(self)

        # Each world's slots are built from its own RNG (its first
        # draws), then flattened to B·S.
        parts = [SlotArrays(workloads, path_ids, rng) for rng in self.rngs]
        self.slots_per_world = len(parts[0])
        self.slots = slots = SlotArrays.concat(parts, P)
        self.spath = slots.path_index
        self.tcp = TcpArrayState(slots.is_cubic)
        self.slots_of_path = [
            np.nonzero(self.spath == fp)[0] for fp in range(B * P)
        ]
        session.bind_flows(self.spath, slots.flows_completed)
        self.slot_burst = np.zeros(len(slots))
        self.next_start_min = float(slots.next_start.min())
        self.jitter_block = np.empty((_JITTER_BLOCK_STEPS, len(slots)))
        self.jitter_pos = _JITTER_BLOCK_STEPS

        self.slot_sent_acc = np.zeros(len(slots))
        self.slot_lost_acc = np.zeros(len(slots))
        self.rtt_acc = np.zeros(B * P)
        self.link_arr_acc = np.zeros((B * L, P))
        self.link_drop_acc = np.zeros((B * L, P))

        self.arrivals = np.zeros((B * L, P))
        self.arrivals_3d = self.arrivals.reshape(B, L, P)
        self.drop_frac = np.zeros((B * L, P))
        self.dirty_frac_rows = []
        self.smooth_dirty = self.burst_dirty = False
        # Column stacks for the RTT matvec: a stacked matmul issues one
        # (P, L) @ (L,) GEMV per world.
        self.scaled_3d = np.empty((B, L, 1))
        self.scaled = self.scaled_3d.reshape(-1)
        self.qdelay_3d = np.empty((B, P, 1))
        self.qdelay = self.qdelay_3d.reshape(-1)
        self.srtt = None

    def _open_walk(self, path_links: List[List[int]]) -> None:
        """Hop table for the attenuated-arrival walk: hop d of flat path
        b·P + p crosses flat link row ``hop_rows[d, b·P + p]`` (padded
        with the path's last hop past its end). ``walk[d]`` holds the
        volume entering hop d: the path's send, times (1 − drop
        fraction) of each earlier hop, multiplied in hop order."""
        B, P, L = self.num_worlds, self.num_paths, self.num_links
        max_hops = max(len(links) for links in path_links)
        hop_rows = np.empty((max_hops, B * P), np.intp)
        hop_cols = np.empty_like(hop_rows)
        on_path = np.zeros(hop_rows.shape, dtype=bool)
        for b in range(B):
            for p, links in enumerate(path_links):
                padded = links + links[-1:] * (max_hops - len(links))
                hop_rows[:, b * P + p] = b * L + np.array(padded)
                hop_cols[:, b * P + p] = p
                on_path[: len(links), b * P + p] = True
        self.walk = np.empty(hop_rows.shape)
        self.walk_pos = np.flatnonzero(on_path)
        self.arr_rows = hop_rows.ravel()[self.walk_pos]
        self.arr_cols = hop_cols.ravel()[self.walk_pos]
        # Hops whose drop fraction attenuates a later hop's arrivals.
        self.up_rows, self.up_cols = hop_rows[:-1], hop_cols[:-1]
        self.up_walk = self.walk[1:]


def interval_loop(worlds: Sequence[FluidNetwork], session: EngineSession):
    """The fluid step program over ``worlds``, yielding once per
    closed interval.

    The worlds share the first one's network, classes and workloads;
    each keeps its own specs and RNG, which the program consumes. The
    state is built at the first advance; :func:`run_steps` then
    yields the session each interval's ``(B, …)`` columns.
    """
    yield from run_steps(FluidState(worlds, session), session)


def run_steps(st: FluidState, session: EngineSession):
    """Advance ``st`` step by step, yielding at every closed interval.

    Open-ended: the consumer stops pulling when its run (or stream
    segment) is complete. A pending link-spec swap
    (``session.pending_specs``) is applied exactly at an interval
    boundary and consumes no randomness, so a segmented run with no
    swaps is bit-identical to a one-shot run.
    """
    spi, warm = session.steps_per_interval, session.warmup_steps
    for step in count():
        if session.pending_specs is not None and (
            step == 0 or (step >= warm and (step - warm) % spi == 0)
        ):
            for world in st.worlds:
                world._link_specs = session.pending_specs
            session.pending_specs = None
            apply_specs(st)
        st.now = step * st.dt
        st.measuring = step >= warm
        draw_jitter(st)
        start_flows(st)
        offer(st)
        arrive(st)
        police(st)
        early_drop(st)
        serve_dual(st)
        droptail(st)
        allocate_bursts(st)
        react(st)
        if st.measuring and (step - warm + 1) % spi == 0:
            yield close_interval(st)


def apply_specs(st: FluidState) -> None:
    """Spec swap: lower every world's link specs to per-row constants.

    Pure (no RNG): the state's first compile and every swap at an
    interval boundary. Token buckets carry over for rows that stay
    policed (clipped to the new bucket depth); newly policed rows
    start with a full bucket, exactly like a fresh run. Standing
    backlog follows the row's queueing discipline: a row that stops
    running a dual mechanism folds its virtual queues back into the
    common droptail queue (the next overfull check clamps any
    excess), and a row that starts one hands its droptail backlog to
    the virtual queues split by their service shares — no buffered
    traffic is stranded or double-served.
    """
    L, dt = st.num_links, st.dt
    per_world = [
        build_link_arrays(st.link_ids, w._link_specs) for w in st.worlds
    ]
    capacity = np.concatenate([la.capacity_pps for la in per_world])
    buffers = np.concatenate([la.buffer_packets for la in per_world])
    prev_policed = {r for r, *_ in st.policers}
    prev_tokens = st.tokens
    # Per-row token buckets as Python floats: the policer step is
    # scalar arithmetic, cheaper on floats than on numpy scalars
    # (same IEEE results).
    tokens = [0.0] * len(capacity)
    policers, aqms, shapers, weighted = [], [], [], []
    # Per-dual-queue service shares (of capacity).
    dual_shares = {}
    for b, la in enumerate(per_world):
        base = b * L
        smooth, burst = st.smooth_bp[b], st.burst_bp[b]
        for l, pol in la.policers:
            r = base + l
            rate = float(pol.rate_fraction * capacity[r])
            bucket = pol.burst_seconds * rate
            mask = st.class_masks[st.class_index[pol.target_class]]
            policers.append((r, rate * dt, bucket, mask, smooth))
            if r in prev_policed:
                tokens[r] = min(prev_tokens[r], bucket)
            else:
                tokens[r] = bucket
        for l, aq in la.aqms:
            r = base + l
            ramp = (
                aq.max_threshold_fraction - aq.min_threshold_fraction
            ) * buffers[r]
            mask = st.class_masks[st.class_index[aq.target_class]]
            aqms.append(
                (r, aq.min_threshold_fraction * buffers[r], ramp,
                 aq.max_drop_probability, mask, smooth)
            )
        # A shaper row is a weighted-service row with no spare
        # capacity to lend (its lendable service per step is 0).
        for rows, family, lends in (
            (la.shapers, shapers, False), (la.weighted, weighted, True)
        ):
            for l, dual in rows:
                r = base + l
                share = dual.weight if lends else dual.rate_fraction
                t_rate = share * capacity[r]
                o_rate = (1.0 - share) * capacity[r]
                family.append(
                    (r, t_rate * dt, o_rate * dt,
                     capacity[r] * dt if lends else 0.0,
                     dual.buffer_seconds * t_rate,
                     dual.buffer_seconds * o_rate,
                     st.class_masks[st.class_index[dual.target_class]],
                     burst)
                )
                dual_shares[r] = (share, 1.0 - share)
    queue, tq, oq = st.queue, st.shaper_tq, st.shaper_oq
    for r in st.dual_shares:
        if r not in dual_shares:
            queue[r] += tq[r] + oq[r]
            tq[r] = 0.0
            oq[r] = 0.0
    for r, (t_share, o_share) in dual_shares.items():
        if r not in st.dual_shares and queue[r] > 0.0:
            tq[r] += queue[r] * t_share
            oq[r] += queue[r] * o_share
            queue[r] = 0.0
    st.inv_capacity = 1.0 / capacity
    st.cap_dt = capacity * dt
    st.buffers = buffers
    st.tokens = tokens
    st.policers, st.aqms = policers, aqms
    st.duals = shapers + weighted
    st.dual_shares = dual_shares
    # Rows whose traffic bypasses the common droptail queue.
    st.dual_rows = np.array(sorted(dual_shares), dtype=np.intp)


def draw_jitter(st: FluidState) -> None:
    """Per-flow send jitter, drawn in per-world blocks, pre-scaled by
    ``dt``; leaves this step's row in ``st.jit_dt``."""
    if st.jitter_pos == _JITTER_BLOCK_STEPS:
        width = st.slots_per_world
        for b, rng in enumerate(st.rngs):
            blk = rng.gamma(
                st.jitter_shape,
                1.0 / st.jitter_shape,
                size=(_JITTER_BLOCK_STEPS, width),
            )
            blk *= st.dt
            st.jitter_block[:, b * width : (b + 1) * width] = blk
        st.jitter_pos = 0
    st.jit_dt = st.jitter_block[st.jitter_pos]
    st.jitter_pos += 1


def start_flows(st: FluidState) -> None:
    """Start pending flows (per-world RNG). Quiet steps skip the scan
    with one comparison against the earliest pending start."""
    if st.now < st.next_start_min:
        return
    slots = st.slots
    startable = (slots.remaining <= 0.0) & (slots.next_start <= st.now)
    idx = startable.nonzero()[0]
    for b, sub in _by_scenario(idx, st.slots_per_world):
        slots.start_flows(sub, st.rngs[b])
    st.tcp.reset(idx)
    idle = slots.remaining <= 0.0
    st.next_start_min = (
        float(slots.next_start[idle].min())
        if np.count_nonzero(idle)
        else np.inf
    )


def offer(st: FluidState) -> None:
    """Effective RTTs and per-slot offers.

    The queueing delay along each path sits on top of its base RTT,
    smoothed per path (EWMA, time constant ``SRTT_TIME_CONSTANT``);
    each slot offers ``cwnd · jitter · dt / RTT``, capped at what its
    flow has left.
    """
    if st.dual_shares:
        occupancy = st.queue + st.shaper_tq + st.shaper_oq
    else:
        occupancy = st.queue
    np.multiply(occupancy, st.inv_capacity, out=st.scaled)
    np.matmul(st.inc_pl, st.scaled_3d, out=st.qdelay_3d)
    instant = st.base_rtt + st.qdelay
    if st.srtt is None:
        st.srtt = instant.copy()
    else:
        st.srtt += st.srtt_gain * (instant - st.srtt)
    if st.measuring:
        st.rtt_acc += instant
    rtt_slot = st.srtt[st.spath]
    rtt_slot *= st.slots.rtt_factor
    np.maximum(rtt_slot, 1e-3, out=rtt_slot)
    send = st.tcp.cwnd * st.jit_dt / rtt_slot
    np.minimum(send, st.slots.remaining, out=send)
    st.rtt_slot = rtt_slot
    st.send = send
    st.sending = send > 0.0
    st.path_send = np.bincount(
        st.spath, weights=send, minlength=st.num_worlds * st.num_paths
    )


def arrive(st: FluidState) -> None:
    """Per-link, per-path arrivals, attenuated by upstream drops (the
    previous step's per-row drop fractions stand in for this
    step's)."""
    if st.dirty_frac_rows:
        walk = st.walk
        walk[0] = st.path_send
        np.subtract(1.0, st.drop_frac[st.up_rows, st.up_cols], out=st.up_walk)
        np.multiply.accumulate(walk, axis=0, out=walk)
        st.arrivals[st.arr_rows, st.arr_cols] = walk.take(st.walk_pos)
        st.drop_frac[st.dirty_frac_rows] = 0.0
        st.dirty_frac_rows = []
    else:
        np.multiply(
            st.inc_lp,
            st.path_send.reshape(st.num_worlds, 1, st.num_paths),
            out=st.arrivals_3d,
        )
    # Each row's volume bound for its droptail queue; the mechanisms
    # take out what they drop or divert.
    st.queue_in = st.arrivals.sum(axis=1)
    st.drop_rows = {}


def police(st: FluidState) -> None:
    """Token-bucket policers: continuous shedding of the targeted
    class's excess, the same fraction for each policed path (a
    "smooth" drop that hits every flow of a path proportionally)."""
    arrivals, tokens, queue_in = st.arrivals, st.tokens, st.queue_in
    for r, rate_dt, bucket, mask, smooth in st.policers:
        refilled = min(bucket, tokens[r] + rate_dt)
        row = arrivals[r]
        demand = float(row @ mask)
        allowed = demand if demand <= refilled else refilled
        tokens[r] = refilled - allowed
        excess = demand - allowed
        if excess > 0.0:
            f = excess / demand
            shed = row * mask
            present = shed > 0.0
            shed *= f
            st.drop_rows[r] = shed
            queue_in[r] -= excess
            smooth[present] = 1.0 - (1.0 - smooth[present]) * (1.0 - f)
            st.smooth_dirty = True


def early_drop(st: FluidState) -> None:
    """RED-style early drop of the targeted class: the expected shed
    fraction ramps with the droptail queue's fill level, applied
    deterministically (a smooth drop)."""
    arrivals, queue, queue_in = st.arrivals, st.queue, st.queue_in
    drop_rows = st.drop_rows
    for r, minth, ramp, pmax, mask, smooth in st.aqms:
        f = pmax * min(max((queue[r] - minth) / ramp, 0.0), 1.0)
        if f <= 0.0:
            continue
        shed = arrivals[r] * mask
        demand = float(shed.sum())
        if demand <= 0.0:
            continue
        present = shed > 0.0
        shed *= f
        drop_rows[r] = drop_rows.get(r, 0.0) + shed
        queue_in[r] -= f * demand
        smooth[present] = 1.0 - (1.0 - smooth[present]) * (1.0 - f)
        st.smooth_dirty = True


def _shed_overflow(st, r, q, buf, inflow, burst):
    """Clamp a virtual queue to its buffer, shedding the overflow pro
    rata over this step's inflow as a burst drop. Returns the clamped
    queue."""
    if q <= buf:
        return q
    overflow = q - buf
    total = float(inflow.sum())
    if total > 0.0:
        f = min(overflow / total, 1.0)
        burst_row = inflow * f
        st.drop_rows[r] = st.drop_rows.get(r, 0.0) + burst_row
        burst += burst_row
        st.burst_dirty = True
    return buf


def serve_dual(st: FluidState) -> None:
    """Dual virtual queues (shapers, then weighted service).

    Each queue is guaranteed its share of capacity; a weighted row is
    work-conserving (whatever one queue cannot use, the other absorbs,
    capped at total capacity), a shaper row lends nothing. Dual rows
    bypass the common droptail queue.
    """
    arrivals, tq, oq = st.arrivals, st.shaper_tq, st.shaper_oq
    for r, t_rate_dt, o_rate_dt, lend_dt, t_buf, o_buf, mask, burst \
            in st.duals:
        row = arrivals[r]
        t_in = row * mask
        o_in = row - t_in
        t_total = tq[r] + float(t_in.sum())
        o_total = oq[r] + float(o_in.sum())
        t_served = min(t_total, t_rate_dt)
        o_served = min(o_total, o_rate_dt)
        spare = lend_dt - t_served - o_served
        if spare > 0.0:
            extra_o = min(spare, o_total - o_served)
            o_served += extra_o
            spare -= extra_o
            t_served += min(spare, t_total - t_served)
        tq[r] = _shed_overflow(st, r, t_total - t_served, t_buf, t_in, burst)
        oq[r] = _shed_overflow(st, r, o_total - o_served, o_buf, o_in, burst)
    if st.dual_shares:
        st.queue_in[st.dual_rows] = 0.0


def droptail(st: FluidState) -> None:
    """Droptail FIFO on the common queues: serve at capacity, spill
    the overflow pro rata over this step's arrivals (a "burst" drop,
    which lands on single flows); then record every row's drop
    fraction for the next step's attenuation."""
    queue, queue_in, buffers = st.queue, st.queue_in, st.buffers
    arrivals, drop_rows = st.arrivals, st.drop_rows
    queue += queue_in
    queue -= np.minimum(queue, st.cap_dt)
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
            st.burst_bp[r // st.num_links] += burst_row
            st.burst_dirty = True
    for r, drow in drop_rows.items():
        # Zero arrivals imply zero drops, so the guarded denominator
        # never manufactures a fraction.
        st.drop_frac[r] = np.minimum(
            drow / np.maximum(arrivals[r], 1e-300), 1.0
        )
        st.dirty_frac_rows.append(r)
        if st.measuring:
            st.link_drop_acc[r] += drow


def allocate_bursts(st: FluidState) -> None:
    """Allocate each path's burst volume to its flows
    (:func:`_allocate_bursts`)."""
    if st.burst_dirty:
        _allocate_bursts(
            st.rngs, st.num_paths, st.path_burst, st.path_send,
            st.slots_of_path, st.send, st.slot_burst,
        )


def react(st: FluidState) -> None:
    """TCP reaction, flow completion and path accounting (every op is
    per-slot, so worlds cannot mix); then clear this step's loss
    attribution."""
    send = st.send
    if st.smooth_dirty or st.burst_dirty:
        lost = send * st.path_smooth[st.spath]
        if st.burst_dirty:
            lost += st.slot_burst
        np.minimum(lost, send, out=lost)
        delivered = send - lost
    else:
        lost = None
        delivered = send
    st.tcp.advance(st.now, send, st.sending, lost, delivered, st.rtt_slot)
    slots = st.slots
    slots.remaining -= delivered
    completed = st.sending & (slots.remaining <= 1e-9)
    if np.count_nonzero(completed):
        idx = completed.nonzero()[0]
        for b, sub in _by_scenario(idx, st.slots_per_world):
            slots.complete_flows(sub, st.now, st.rngs[b])
        st.next_start_min = min(
            st.next_start_min, float(slots.next_start[idx].min())
        )
    if st.measuring:
        st.slot_sent_acc += send
        if lost is not None:
            st.slot_lost_acc += lost
        st.link_arr_acc += st.arrivals
    if st.smooth_dirty:
        st.path_smooth[:] = 0.0
        st.smooth_dirty = False
    if st.burst_dirty:
        st.path_burst[:] = 0.0
        st.slot_burst[:] = 0.0
        st.burst_dirty = False


def close_interval(st: FluidState) -> tuple:
    """The interval's ``(B, …)`` columns for the session; resets the
    accumulators."""
    B, P, L = st.num_worlds, st.num_paths, st.num_links
    cols = (
        np.bincount(
            st.spath, weights=st.slot_sent_acc, minlength=B * P
        ).reshape(B, P),
        np.bincount(
            st.spath, weights=st.slot_lost_acc, minlength=B * P
        ).reshape(B, P),
        (st.rtt_acc / st.steps_per_interval).reshape(B, P),
        # A stacked matmul issues one (L, P) @ (P, C) GEMM per world,
        # whatever B is.
        st.link_arr_acc.reshape(B, L, P) @ st.class_onehot,
        st.link_drop_acc.reshape(B, L, P) @ st.class_onehot,
        (st.queue + st.shaper_tq + st.shaper_oq).reshape(B, L),
    )
    st.slot_sent_acc[:] = 0.0
    st.slot_lost_acc[:] = 0.0
    st.rtt_acc[:] = 0.0
    st.link_arr_acc[:] = 0.0
    st.link_drop_acc[:] = 0.0
    return cols
