"""Scenario-batched fluid engine: B link-spec variants in lockstep.

One time-stepped numpy program advances ``B`` *scenarios* — link-spec
variants of a shared topology/workload — simultaneously, by giving
every state array of the single-scenario engine
(:mod:`repro.fluid.engine`) a leading scenario axis. Slot-shaped
state folds the scenario axis into the slot axis (scenario ``b``'s
slot ``i`` lives at flat index ``b·S + i``), so
:class:`~repro.fluid.tcp.TcpArrayState` and
:class:`~repro.fluid.traffic.SlotArrays` apply unchanged; link- and
path-shaped state becomes ``(B, L)`` / ``(B, P)`` arrays.

**The contract is floating-point identity**: scenario ``b``'s output
is bit-for-bit the output of a single
:class:`~repro.fluid.engine.FluidNetwork` run with ``spec_sets[b]``
and ``seeds[b]`` (pinned by ``tests/fluid/test_batch_equivalence.py``
and the ``bench_batch.py`` gate). Three rules make that possible:

* **Per-scenario RNG streams.** Every scenario owns its own
  :class:`numpy.random.Generator`; data-dependent draws (flow
  starts/completions, droptail burst allocation, jitter blocks) are
  made per scenario in exactly the single engine's within-step order.
* **Batch-invariant reductions only.** Elementwise ufuncs, last-axis
  ``sum`` (pairwise per row), flattened ``bincount`` (sequential by
  construction) and ``np.add.at`` produce per-scenario slices
  identical to the single-scenario call. BLAS matvec/dot do *not*
  (GEMM row blocking differs from GEMV), so the two matvec sites —
  the queueing-delay RTT term and each policer's demand dot — loop
  over scenarios and issue the very same GEMV/dot the single engine
  issues.
* **Order-preserving mechanism groups.** Differentiation mechanisms
  vectorize *across scenarios*, grouped by (family, link, class) and
  applied in family-rank/link order
  (:data:`repro.fluid.params.MECHANISM_FAMILY_RANK`) — each
  scenario's mechanisms run in its own single-run order, so
  order-sensitive shared accumulations (per-path smooth-loss
  fractions, burst volumes) agree bitwise.

Scenarios may have different durations: a world that reaches its own
interval limit is removed from the *active mask* — its slots stop
offering traffic and its RNG is never touched again, which is
exactly the state of its finished single run. The batch keeps
stepping until every world is done.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError, EmulationError
from repro.fluid.engine import (
    DEFAULT_DT,
    DEFAULT_INTERVAL,
    DEFAULT_SEND_JITTER_CV,
    SRTT_TIME_CONSTANT,
    _JITTER_BLOCK_STEPS,
    FluidNetwork,
    FluidResult,
    package_result,
)
from repro.fluid.params import (
    FluidLinkSpec,
    PathWorkload,
    build_batch_link_arrays,
)
from repro.fluid.tcp import TcpArrayState
from repro.fluid.traffic import SlotArrays
from repro.measurement.records import RecordChunk, chunk_from_columns


class _PolicerGroup:
    """Token-bucket policers of one (link, class) across scenarios."""

    __slots__ = (
        "link", "bs", "tmask", "tmask_f", "rate_dt", "bucket", "tokens",
    )

    def __init__(self, link, bs, tmask, tmask_f, rate_dt, bucket, tokens):
        self.link = link
        self.bs = bs
        self.tmask = tmask
        self.tmask_f = tmask_f
        self.rate_dt = rate_dt
        self.bucket = bucket
        self.tokens = tokens


class _AqmGroup:
    __slots__ = ("link", "bs", "tmask", "tmask_f", "minth", "ramp", "pmax")

    def __init__(self, link, bs, tmask, tmask_f, minth, ramp, pmax):
        self.link = link
        self.bs = bs
        self.tmask = tmask
        self.tmask_f = tmask_f
        self.minth = minth
        self.ramp = ramp
        self.pmax = pmax


class _DualGroup:
    """Dual-queue mechanisms (shaper / weighted) of one (link, class)."""

    __slots__ = (
        "link", "bs", "tmask_f", "t_rate_dt", "o_rate_dt", "cap_dt",
        "t_buf", "o_buf", "work_conserving",
    )

    def __init__(
        self, link, bs, tmask_f, t_rate_dt, o_rate_dt, cap_dt,
        t_buf, o_buf, work_conserving,
    ):
        self.link = link
        self.bs = bs
        self.tmask_f = tmask_f
        self.t_rate_dt = t_rate_dt
        self.o_rate_dt = o_rate_dt
        self.cap_dt = cap_dt
        self.t_buf = t_buf
        self.o_buf = o_buf
        self.work_conserving = work_conserving


class FluidBatchNetwork:
    """``B`` fluid emulations of one topology, advanced together.

    Args:
        net: The shared network graph.
        classes: The shared class assignment.
        spec_sets: One per-link spec mapping per scenario (links not
            mentioned get defaults, exactly like the single engine).
        workloads: The shared per-path traffic description.
        seeds: One emulation seed per scenario; scenario ``b``
            consumes the same RNG stream its single run would.
        send_jitter_cv: Per-flow send-jitter coefficient of
            variation (shared).
    """

    def __init__(
        self,
        net: Network,
        classes: ClassAssignment,
        spec_sets: Sequence[Mapping[str, FluidLinkSpec]],
        workloads: Mapping[str, PathWorkload],
        seeds: Sequence[int],
        send_jitter_cv: float = DEFAULT_SEND_JITTER_CV,
    ) -> None:
        if not len(spec_sets):
            raise ConfigurationError(
                "a scenario batch needs at least one spec set"
            )
        if len(seeds) != len(spec_sets):
            raise ConfigurationError(
                f"got {len(spec_sets)} spec sets but {len(seeds)} seeds"
            )
        # One single-engine instance per scenario performs the
        # spec/workload validation, spec completion, and RNG
        # construction — so batched scenarios cannot drift from the
        # single engine in any of those.
        self._templates = [
            FluidNetwork(
                net,
                classes,
                specs,
                workloads,
                seed=seed,
                send_jitter_cv=send_jitter_cv,
            )
            for specs, seed in zip(spec_sets, seeds)
        ]
        self._net = net
        self._classes = classes
        self._workloads = dict(workloads)
        self._spec_sets: List[Dict[str, FluidLinkSpec]] = [
            t._link_specs for t in self._templates
        ]
        self._rngs = [t._rng for t in self._templates]
        self._send_jitter_cv = send_jitter_cv

    @property
    def num_scenarios(self) -> int:
        return len(self._templates)

    def run(
        self,
        duration_seconds,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
    ) -> List[FluidResult]:
        """Run every scenario to completion in one lockstep program.

        ``duration_seconds`` may be a scalar (all scenarios run the
        same span) or one value per scenario; shorter worlds leave
        the active mask early.
        """
        try:
            durations = np.broadcast_to(
                np.asarray(duration_seconds, dtype=float),
                (self.num_scenarios,),
            )
        except ValueError:
            raise ConfigurationError(
                f"duration_seconds must be a scalar or one value per "
                f"scenario ({self.num_scenarios})"
            ) from None
        if (durations <= 0).any():
            raise EmulationError("duration must be positive")
        limits = [
            int(round(d / interval_seconds)) for d in durations
        ]
        if min(limits) < 1:
            raise EmulationError("duration shorter than one interval")
        session = self.session(
            dt=dt,
            interval_seconds=interval_seconds,
            warmup_seconds=warmup_seconds,
            interval_limits=limits,
        )
        session.advance(max(limits))
        return session.results()

    def session(
        self,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
        keep_ground_truth: bool = True,
        interval_limits: Optional[Sequence[int]] = None,
    ) -> "FluidBatchSession":
        """Open a resumable batched session (streaming mode).

        The session advances every active scenario N measurement
        intervals at a time and accepts per-scenario link-spec swaps
        at interval boundaries (the many-worlds counterpart of
        :meth:`FluidNetwork.session`). ``interval_limits`` bounds
        each scenario's lifetime; ``None`` entries run unbounded.
        """
        return FluidBatchSession(
            self,
            dt,
            interval_seconds,
            warmup_seconds,
            keep_ground_truth,
            interval_limits,
        )

    # ------------------------------------------------------------------
    # Mechanism compilation (batched counterpart of the single
    # engine's ``_compile_mechanisms``)
    # ------------------------------------------------------------------

    def _target_mask(self, path_ids, target_class: str) -> np.ndarray:
        return np.array(
            [
                self._classes.class_of(pid) == target_class
                for pid in path_ids
            ]
        )

    def _compile(
        self,
        spec_sets,
        path_ids,
        link_ids,
        dt: float,
        prev_tokens: Optional[np.ndarray],
        prev_policed: Optional[np.ndarray],
    ):
        """Lower per-scenario specs to batched per-step constants.

        Pure (no RNG), like the single engine's compile: called once
        at start and again at every spec swap. Token buckets carry
        over per (scenario, link) that stays policed — clipped to the
        new bucket — and start full elsewhere, exactly the single
        engine's rule applied per scenario.
        """
        bla = build_batch_link_arrays(link_ids, spec_sets)
        capacity = bla.capacity_pps
        inv_capacity = 1.0 / capacity
        cap_dt = capacity * dt
        buffers = bla.buffer_packets
        policers: List[_PolicerGroup] = []
        aqms: List[_AqmGroup] = []
        duals: List[_DualGroup] = []
        for group in bla.groups:
            l = group.link_index
            bs = group.scenarios
            cap_bl = capacity[bs, l]
            tmask = self._target_mask(path_ids, group.target_class)
            tmask_f = tmask.astype(float)
            if group.family == "policer":
                rate = (
                    np.array([s.rate_fraction for s in group.specs])
                    * cap_bl
                )
                bucket = (
                    np.array([s.burst_seconds for s in group.specs])
                    * rate
                )
                tokens = np.empty(len(bs))
                for j, b in enumerate(bs):
                    if prev_tokens is not None and prev_policed[b, l]:
                        tokens[j] = min(
                            float(prev_tokens[b, l]), bucket[j]
                        )
                    else:
                        tokens[j] = bucket[j]
                policers.append(
                    _PolicerGroup(
                        l, bs, tmask, tmask_f, rate * dt, bucket, tokens
                    )
                )
            elif group.family == "aqm":
                buf_bl = buffers[bs, l]
                minth = (
                    np.array(
                        [s.min_threshold_fraction for s in group.specs]
                    )
                    * buf_bl
                )
                ramp = (
                    np.array(
                        [
                            s.max_threshold_fraction
                            - s.min_threshold_fraction
                            for s in group.specs
                        ]
                    )
                    * buf_bl
                )
                pmax = np.array(
                    [s.max_drop_probability for s in group.specs]
                )
                aqms.append(
                    _AqmGroup(l, bs, tmask, tmask_f, minth, ramp, pmax)
                )
            elif group.family == "shaper":
                rf = np.array([s.rate_fraction for s in group.specs])
                bufs = np.array([s.buffer_seconds for s in group.specs])
                t_rate = rf * cap_bl
                o_rate = (1.0 - rf) * cap_bl
                duals.append(
                    _DualGroup(
                        l, bs, tmask_f, t_rate * dt, o_rate * dt, None,
                        bufs * t_rate, bufs * o_rate,
                        work_conserving=False,
                    )
                )
            else:  # weighted
                w = np.array([s.weight for s in group.specs])
                bufs = np.array([s.buffer_seconds for s in group.specs])
                t_rate = w * cap_bl
                o_rate = (1.0 - w) * cap_bl
                duals.append(
                    _DualGroup(
                        l, bs, tmask_f, t_rate * dt, o_rate * dt,
                        cap_bl * dt, bufs * t_rate, bufs * o_rate,
                        work_conserving=True,
                    )
                )
        # Per-scenario dual-queue service shares, for reconciling
        # standing backlog when a swap changes a link's mechanism
        # family (mirrors the single engine's ``dual_shares``).
        dual_shares: List[Dict[int, Tuple[float, float]]] = [
            {} for _ in range(bla.num_scenarios)
        ]
        lindex = {lid: i for i, lid in enumerate(link_ids)}
        for b, scenario_specs in enumerate(spec_sets):
            for lid, spec in scenario_specs.items():
                if spec.shaper is not None:
                    dual_shares[b][lindex[lid]] = (
                        spec.shaper.rate_fraction,
                        1.0 - spec.shaper.rate_fraction,
                    )
                elif spec.weighted is not None:
                    dual_shares[b][lindex[lid]] = (
                        spec.weighted.weight,
                        1.0 - spec.weighted.weight,
                    )
        return (
            inv_capacity,
            cap_dt,
            buffers,
            policers,
            aqms,
            duals,
            bla.dual_mask,
            bla.policed_mask,
            dual_shares,
        )

    @staticmethod
    def _dense_tokens(
        policers: List[_PolicerGroup], shape: Tuple[int, int]
    ) -> np.ndarray:
        dense = np.zeros(shape)
        for g in policers:
            dense[g.bs, g.link] = g.tokens
        return dense

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _interval_loop(
        self,
        session: "FluidBatchSession",
        dt: float,
        steps_per_interval: int,
        warmup_steps: int,
    ):
        """The lockstep emulation loop, yielding once per interval.

        A line-by-line batched transcription of
        :meth:`FluidNetwork._interval_loop`; comments here focus on
        the batching — see the single engine for the model rationale.
        Every yield hands the session ``(B, …)`` column stacks; rows
        of inactive scenarios carry unused zeros.
        """
        net = self._net
        rngs = self._rngs
        num_scenarios = len(rngs)
        path_ids: List[str] = list(net.path_ids)
        link_ids: List[str] = list(net.link_ids)
        class_names = self._classes.names
        num_paths = len(path_ids)
        num_links = len(link_ids)
        lindex = {lid: i for i, lid in enumerate(link_ids)}

        # --- static geometry (shared across scenarios) -----------------
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
        cindex = {cn: i for i, cn in enumerate(class_names)}
        class_onehot = np.zeros((num_paths, len(class_names)))
        for p, pid in enumerate(path_ids):
            class_onehot[p, cindex[self._classes.class_of(pid)]] = 1.0
        base_rtt = np.array(
            [self._workloads[pid].rtt_seconds for pid in path_ids]
        )

        # --- link state: (B, L) ----------------------------------------
        queue = np.zeros((num_scenarios, num_links))
        shaper_tq = np.zeros((num_scenarios, num_links))
        shaper_oq = np.zeros((num_scenarios, num_links))

        (
            inv_capacity, cap_dt, buffers, policers, aqms, duals,
            dual_mask, policed_mask, dual_shares,
        ) = self._compile(
            self._spec_sets, path_ids, link_ids, dt, None, None
        )
        has_dual = bool(dual_mask.any())

        # --- slot / TCP state: scenario axis folded into slots ---------
        # Each scenario's slots are built from its own RNG (the single
        # engine's first draws), then flattened to B·S.
        parts = [
            SlotArrays(self._workloads, path_ids, rng) for rng in rngs
        ]
        slots_per_scenario = len(parts[0])
        slots = SlotArrays.concat(parts, num_paths)
        num_slots = len(slots)
        spath_flat = slots.path_index  # slot -> b * P + p
        spath_local = parts[0].path_index
        tcp = TcpArrayState(slots.is_cubic)
        slots_of_path_local: List[np.ndarray] = [
            np.nonzero(spath_local == p)[0] for p in range(num_paths)
        ]
        session._bind(slots, spath_flat)

        # --- accumulators ----------------------------------------------
        slot_sent_acc = np.zeros(num_slots)
        slot_lost_acc = np.zeros(num_slots)
        rtt_acc = np.zeros((num_scenarios, num_paths))
        link_arr_acc = np.zeros((num_scenarios, num_links, num_paths))
        link_drop_acc = np.zeros((num_scenarios, num_links, num_paths))

        # --- per-step scratch ------------------------------------------
        arrivals = np.zeros((num_scenarios, num_links, num_paths))
        drop_frac = np.zeros((num_scenarios, num_links, num_paths))
        drop_acc = np.zeros((num_scenarios, num_links, num_paths))
        row_dropped = np.zeros((num_scenarios, num_links), dtype=bool)
        dirty: Optional[Tuple[np.ndarray, np.ndarray]] = None
        path_smooth = np.zeros((num_scenarios, num_paths))
        path_burst = np.zeros((num_scenarios, num_paths))
        slot_burst = np.zeros(num_slots)
        qdelay = np.empty((num_scenarios, num_paths))
        smooth_dirty = False
        burst_dirty = False
        srtt = None
        srtt_gain = min(dt / SRTT_TIME_CONSTANT, 1.0)
        jitter_block = np.zeros(
            (_JITTER_BLOCK_STEPS, num_scenarios, slots_per_scenario)
        )
        jitter_pos = _JITTER_BLOCK_STEPS
        jitter_cv = self._send_jitter_cv
        jitter_shape = 1.0 / (jitter_cv * jitter_cv) if jitter_cv > 0 else 0.0
        next_start_min_b = slots.next_start.reshape(
            num_scenarios, slots_per_scenario
        ).min(axis=1)
        # Scalar gate over all worlds: quiet steps skip the per-world
        # start scan with one Python comparison (min is exact, so
        # this cannot change which scans fire).
        next_start_global = float(next_start_min_b.min())
        path_smooth_flat = path_smooth.reshape(-1)
        srtt_flat = None
        # Reused per-step buffers (the single engine's temporaries,
        # preallocated; op sequences — hence values — unchanged).
        scaled = np.empty((num_scenarios, num_links))
        instant = np.empty((num_scenarios, num_paths))
        srtt_delta = np.empty((num_scenarios, num_paths))
        rtt_slot = np.empty(num_slots)
        send = np.empty(num_slots)
        total_in = np.empty((num_scenarios, num_links))

        # --- active mask -----------------------------------------------
        # end_step[b]: first step scenario b no longer executes (its
        # single run ends after the last measured interval closes).
        limits = session._limits
        end_step = np.array(
            [
                np.inf
                if lim is None
                else warmup_steps + lim * steps_per_interval
                for lim in limits
            ]
        )
        active = np.ones(num_scenarios, dtype=bool)
        act_idx = np.arange(num_scenarios)

        def deactivate(b: int) -> None:
            """Freeze a finished world: no sends, no events, no RNG."""
            lo = b * slots_per_scenario
            seg_idx = np.arange(lo, lo + slots_per_scenario)
            slots.remaining[seg_idx] = 0.0
            slots.next_start[seg_idx] = np.inf
            next_start_min_b[b] = np.inf
            tcp.reset(seg_idx)
            active[b] = False

        intervals_emitted = 0
        step = 0
        while True:
            if session._pending is not None and (
                step == 0
                or (
                    step >= warmup_steps
                    and (step - warmup_steps) % steps_per_interval == 0
                )
            ):
                pending = session._pending
                new_sets = [
                    p if p is not None else cur
                    for p, cur in zip(pending, self._spec_sets)
                ]
                old_dual = dual_shares
                prev_tokens = self._dense_tokens(
                    policers, (num_scenarios, num_links)
                )
                (
                    inv_capacity, cap_dt, buffers, policers, aqms,
                    duals, dual_mask, policed_mask, dual_shares,
                ) = self._compile(
                    new_sets, path_ids, link_ids, dt,
                    prev_tokens, policed_mask,
                )
                has_dual = bool(dual_mask.any())
                # Standing backlog follows the queueing discipline
                # across the swap, per scenario (single engine rule:
                # off-swap folds virtual queues into the droptail
                # queue, on-swap splits droptail backlog by service
                # share). Only swapped scenarios are touched.
                for b, spec in enumerate(pending):
                    if spec is None:
                        continue
                    for l in old_dual[b]:
                        if l not in dual_shares[b]:
                            queue[b, l] += shaper_tq[b, l] + shaper_oq[b, l]
                            shaper_tq[b, l] = 0.0
                            shaper_oq[b, l] = 0.0
                    for l, (t_share, o_share) in dual_shares[b].items():
                        if l not in old_dual[b] and queue[b, l] > 0.0:
                            shaper_tq[b, l] += queue[b, l] * t_share
                            shaper_oq[b, l] += queue[b, l] * o_share
                            queue[b, l] = 0.0
                self._spec_sets = new_sets
                session._spec_sets = new_sets
                session._pending = None
            now = step * dt
            measuring = step >= warmup_steps

            # 0. Per-flow send jitter, per-scenario blocks (each
            #    scenario's gamma stream matches its single run).
            if jitter_pos == _JITTER_BLOCK_STEPS:
                for b in act_idx:
                    if jitter_cv > 0:
                        blk = rngs[b].gamma(
                            jitter_shape,
                            1.0 / jitter_shape,
                            size=(
                                _JITTER_BLOCK_STEPS,
                                slots_per_scenario,
                            ),
                        )
                        blk *= dt
                        jitter_block[:, b, :] = blk
                    else:
                        jitter_block[:, b, :] = dt
                jitter_pos = 0
            jit_flat = jitter_block[jitter_pos].reshape(-1)
            jitter_pos += 1

            # 1. Effective RTTs. The queueing-delay matvec must be
            #    the single engine's exact GEMV, so it loops over
            #    active scenarios (GEMM rows are not bit-identical
            #    to GEMV on all BLAS kernels).
            if has_dual:
                occupancy = queue + shaper_tq + shaper_oq
            else:
                occupancy = queue
            np.multiply(occupancy, inv_capacity, out=scaled)
            for b in act_idx:
                # np.matmul with ``out`` is the same gufunc (hence
                # the same GEMV result) as ``@`` minus the temp.
                np.matmul(inc_pl, scaled[b], out=qdelay[b])
            np.add(base_rtt, qdelay, out=instant)
            if srtt is None:
                srtt = instant.copy()
                srtt_flat = srtt.reshape(-1)
            else:
                np.subtract(instant, srtt, out=srtt_delta)
                srtt_delta *= srtt_gain
                srtt += srtt_delta
            if measuring:
                rtt_acc += instant

            # 2. Start pending flows (per-scenario RNG), then offers.
            if now >= next_start_global:
                for b in (next_start_min_b <= now).nonzero()[0]:
                    lo = b * slots_per_scenario
                    seg = slice(lo, lo + slots_per_scenario)
                    startable = (slots.remaining[seg] <= 0.0) & (
                        slots.next_start[seg] <= now
                    )
                    idx = startable.nonzero()[0] + lo
                    slots.start_flows(idx, rngs[b])
                    tcp.reset(idx)
                    idle = slots.remaining[seg] <= 0.0
                    next_start_min_b[b] = (
                        float(slots.next_start[seg][idle].min())
                        if np.count_nonzero(idle)
                        else np.inf
                    )
                next_start_global = float(next_start_min_b.min())
            np.take(srtt_flat, spath_flat, out=rtt_slot)
            rtt_slot *= slots.rtt_factor
            np.maximum(rtt_slot, 1e-3, out=rtt_slot)
            np.multiply(tcp.cwnd, jit_flat, out=send)
            send /= rtt_slot
            np.minimum(send, slots.remaining, out=send)
            sending = send > 0.0
            path_send = np.bincount(
                spath_flat,
                weights=send,
                minlength=num_scenarios * num_paths,
            ).reshape(num_scenarios, num_paths)

            # 3. Per-link, per-path arrivals with upstream-drop
            #    attenuation (shared hop walk; per-scenario values).
            if dirty is not None:
                volume = path_send.copy()
                for link_row, path_row in hops:
                    v = volume[:, path_row]
                    arrivals[:, link_row, path_row] = v
                    volume[:, path_row] = v * (
                        1.0 - drop_frac[:, link_row, path_row]
                    )
                drop_frac[dirty] = 0.0
                dirty = None
            else:
                np.multiply(
                    inc_lp, path_send[:, None, :], out=arrivals
                )
            arrivals.sum(axis=2, out=total_in)

            # 4. Serve links: mechanism groups in family/link order.
            if smooth_dirty:
                path_smooth[:] = 0.0
                smooth_dirty = False
            if burst_dirty:
                path_burst[:] = 0.0
                slot_burst[:] = 0.0
                burst_dirty = False
            queue_in = total_in  # adjusted in place below
            for g in policers:
                refilled = np.minimum(g.bucket, g.tokens + g.rate_dt)
                if len(g.bs) == num_scenarios:
                    rows = arrivals[:, g.link, :]  # view, same values
                else:
                    rows = arrivals[g.bs, g.link]
                tmask_f = g.tmask_f
                demand = np.empty(len(g.bs))
                dot = np.dot  # same kernel as the single @
                for j in range(len(g.bs)):
                    demand[j] = dot(rows[j], tmask_f)
                allowed = np.minimum(demand, refilled)
                g.tokens[:] = refilled - allowed
                excess = demand - allowed
                shedding = excess > 0.0
                if shedding.any():
                    js = shedding.nonzero()[0]
                    bsh = g.bs[js]
                    f = excess[js] / demand[js]
                    shed = rows[js] * g.tmask_f
                    shed *= f[:, None]
                    drop_acc[bsh, g.link] += shed
                    row_dropped[bsh, g.link] = True
                    queue_in[bsh, g.link] -= excess[js]
                    present = g.tmask & (rows[js] > 0.0)
                    sub = path_smooth[bsh]
                    upd = 1.0 - (1.0 - sub) * (1.0 - f[:, None])
                    path_smooth[bsh] = np.where(present, upd, sub)
                    smooth_dirty = True
            for g in aqms:
                f = g.pmax * np.minimum(
                    np.maximum((queue[g.bs, g.link] - g.minth) / g.ramp, 0.0),
                    1.0,
                )
                on = f > 0.0
                if not on.any():
                    continue
                js = on.nonzero()[0]
                rows = arrivals[g.bs[js], g.link]
                shed = rows * g.tmask_f
                demand = shed.sum(axis=1)
                pos = demand > 0.0
                if not pos.any():
                    continue
                js = js[pos]
                bsh = g.bs[js]
                fj = f[js][:, None]
                shed = shed[pos]
                shed *= fj
                drop_acc[bsh, g.link] += shed
                row_dropped[bsh, g.link] = True
                queue_in[bsh, g.link] -= f[js] * demand[pos]
                present = g.tmask & (rows[pos] > 0.0)
                sub = path_smooth[bsh]
                upd = 1.0 - (1.0 - sub) * (1.0 - fj)
                path_smooth[bsh] = np.where(present, upd, sub)
                smooth_dirty = True
            for g in duals:
                rows = arrivals[g.bs, g.link]
                t_in = rows * g.tmask_f
                o_in = rows - t_in
                t_sums = t_in.sum(axis=1)
                o_sums = o_in.sum(axis=1)
                if g.work_conserving:
                    t_total = shaper_tq[g.bs, g.link] + t_sums
                    o_total = shaper_oq[g.bs, g.link] + o_sums
                    t_served = np.minimum(t_total, g.t_rate_dt)
                    o_served = np.minimum(o_total, g.o_rate_dt)
                    spare = g.cap_dt - t_served - o_served
                    has_spare = spare > 0.0
                    if has_spare.any():
                        extra_o = np.where(
                            has_spare,
                            np.minimum(spare, o_total - o_served),
                            0.0,
                        )
                        o_served = o_served + extra_o
                        spare = spare - extra_o
                        t_served = t_served + np.where(
                            has_spare,
                            np.minimum(spare, t_total - t_served),
                            0.0,
                        )
                    queues = (
                        (t_total - t_served, t_in, t_sums, g.t_buf,
                         shaper_tq),
                        (o_total - o_served, o_in, o_sums, g.o_buf,
                         shaper_oq),
                    )
                else:
                    tq = shaper_tq[g.bs, g.link] + t_sums
                    tq -= np.minimum(tq, g.t_rate_dt)
                    oq = shaper_oq[g.bs, g.link] + o_sums
                    oq -= np.minimum(oq, g.o_rate_dt)
                    queues = (
                        (tq, t_in, t_sums, g.t_buf, shaper_tq),
                        (oq, o_in, o_sums, g.o_buf, shaper_oq),
                    )
                for q, inflow, sums, buf, q_arr in queues:
                    over = q > buf
                    if over.any():
                        js = over.nonzero()[0]
                        overflow = q[js] - buf[js]
                        totals = sums[js]
                        pos = totals > 0.0
                        if pos.any():
                            k = js[pos]
                            fsub = np.minimum(
                                overflow[pos] / totals[pos], 1.0
                            )
                            burst = inflow[k] * fsub[:, None]
                            bsel = g.bs[k]
                            drop_acc[bsel, g.link] += burst
                            row_dropped[bsel, g.link] = True
                            path_burst[bsel] += burst
                            burst_dirty = True
                        q[js] = buf[js]
                    q_arr[g.bs, g.link] = q
            if has_dual:
                queue_in[dual_mask] = 0.0
            # Droptail FIFO on the common queues.
            queue += queue_in
            queue -= np.minimum(queue, cap_dt)
            overfull = queue > buffers
            if np.count_nonzero(overfull):
                ob, ol = overfull.nonzero()
                overflow_v = queue[ob, ol] - buffers[ob, ol]
                queue[ob, ol] = buffers[ob, ol]
                totals = queue_in[ob, ol]
                pos = totals > 0.0
                if pos.any():
                    ob = ob[pos]
                    ol = ol[pos]
                    f = np.minimum(overflow_v[pos] / totals[pos], 1.0)
                    # With a dense zero-initialized drop accumulator,
                    # "arrivals minus drops so far" covers both the
                    # fresh-row and already-shedding cases of the
                    # single engine bitwise (x - 0.0 == x).
                    burst = (
                        arrivals[ob, ol] - drop_acc[ob, ol]
                    ) * f[:, None]
                    drop_acc[ob, ol] += burst
                    row_dropped[ob, ol] = True
                    # Ordered scatter-add: one scenario may overflow
                    # several links; np.add.at applies them in the
                    # single engine's link order.
                    np.add.at(path_burst, ob, burst)
                    burst_dirty = True
            db, dl = row_dropped.nonzero()
            if len(db):
                drows = drop_acc[db, dl]
                drop_frac[db, dl] = np.minimum(
                    drows / np.maximum(arrivals[db, dl], 1e-300), 1.0
                )
                dirty = (db, dl)
                if measuring:
                    link_drop_acc[db, dl] += drows
                drop_acc[db, dl] = 0.0
                row_dropped[db, dl] = False

            # 5. Allocate burst volume to flows (per-scenario RNG,
            #    paths ascending within each scenario).
            if burst_dirty:
                cand = (path_burst > 0.0) & (path_send > 0.0)
                for b, p in zip(*cand.nonzero()):
                    burst = min(
                        float(path_burst[b, p]), float(path_send[b, p])
                    )
                    members = (
                        slots_of_path_local[p] + b * slots_per_scenario
                    )
                    weights = send[members]
                    present = weights > 0.0
                    if not present.any():
                        continue
                    members = members[present]
                    weights = weights[present]
                    u = rngs[b].random(len(members))
                    order = (
                        np.log(-np.log(u)) - np.log(weights)
                    ).argsort()
                    ordered = weights[order]
                    ahead = ordered.cumsum() - ordered
                    slot_burst[members[order]] = np.minimum(
                        ordered, np.maximum(burst - ahead, 0.0)
                    )

            # 6. TCP reactions, completions, accounting (flattened:
            #    every op is per-slot, so scenarios cannot mix).
            if smooth_dirty or burst_dirty:
                lost = send * path_smooth_flat[spath_flat]
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
                comp2d = completed.reshape(
                    num_scenarios, slots_per_scenario
                )
                for b in comp2d.any(axis=1).nonzero()[0]:
                    idx = (
                        comp2d[b].nonzero()[0] + b * slots_per_scenario
                    )
                    slots.complete_flows(idx, now, rngs[b])
                    next_start_min_b[b] = min(
                        next_start_min_b[b],
                        float(slots.next_start[idx].min()),
                    )
                    next_start_global = min(
                        next_start_global, next_start_min_b[b]
                    )
            if measuring:
                slot_sent_acc += send
                if lost is not None:
                    slot_lost_acc += lost
                link_arr_acc += arrivals

                # 7. Close the interval: hand the session the column
                #    stacks, then retire worlds at their limit.
                if (step - warmup_steps + 1) % steps_per_interval == 0:
                    sent_col = np.bincount(
                        spath_flat,
                        weights=slot_sent_acc,
                        minlength=num_scenarios * num_paths,
                    ).reshape(num_scenarios, num_paths)
                    lost_col = np.bincount(
                        spath_flat,
                        weights=slot_lost_acc,
                        minlength=num_scenarios * num_paths,
                    ).reshape(num_scenarios, num_paths)
                    arr_cls = np.zeros(
                        (num_scenarios, num_links, len(class_names))
                    )
                    drop_cls = np.zeros_like(arr_cls)
                    for b in act_idx:
                        # Same contiguous (L, P) @ (P, C) GEMM as the
                        # single engine's interval close.
                        arr_cls[b] = link_arr_acc[b] @ class_onehot
                        drop_cls[b] = link_drop_acc[b] @ class_onehot
                    yield (
                        sent_col,
                        lost_col,
                        rtt_acc / steps_per_interval,
                        arr_cls,
                        drop_cls,
                        queue + shaper_tq + shaper_oq,
                    )
                    slot_sent_acc[:] = 0.0
                    slot_lost_acc[:] = 0.0
                    rtt_acc[:] = 0.0
                    link_arr_acc[:] = 0.0
                    link_drop_acc[:] = 0.0
                    intervals_emitted += 1
                    retiring = active & (
                        end_step
                        <= warmup_steps
                        + intervals_emitted * steps_per_interval
                    )
                    if retiring.any():
                        for b in retiring.nonzero()[0]:
                            deactivate(b)
                        act_idx = active.nonzero()[0]
            step += 1


class FluidBatchSession:
    """A resumable many-worlds emulation, advanced N intervals at a
    time.

    Created by :meth:`FluidBatchNetwork.session`. Each
    :meth:`advance` returns one
    :class:`~repro.measurement.records.RecordChunk` per scenario
    (``None`` once a scenario has exhausted its interval limit);
    scenario ``b``'s chunk stream is bit-identical to the chunks of a
    single :class:`~repro.fluid.engine.FluidSession` run with its
    specs and seed. Between segments, :meth:`set_link_specs` swaps
    specs for one scenario or all of them, effective at the next
    interval boundary — per-world differentiation onset/offset.
    """

    def __init__(
        self,
        sim: FluidBatchNetwork,
        dt: float,
        interval_seconds: float,
        warmup_seconds: float,
        keep_ground_truth: bool = True,
        interval_limits: Optional[Sequence[int]] = None,
    ) -> None:
        steps_per_interval = int(round(interval_seconds / dt))
        if steps_per_interval < 1 or abs(
            steps_per_interval * dt - interval_seconds
        ) > 1e-9:
            raise EmulationError(
                f"dt={dt} must divide interval_seconds={interval_seconds}"
            )
        num = sim.num_scenarios
        if interval_limits is None:
            limits: List[Optional[int]] = [None] * num
        else:
            if len(interval_limits) != num:
                raise ConfigurationError(
                    f"{len(interval_limits)} interval limits for "
                    f"{num} scenarios"
                )
            limits = [
                None if lim is None else int(lim)
                for lim in interval_limits
            ]
            if any(lim is not None and lim < 1 for lim in limits):
                raise EmulationError(
                    "interval limits must be >= 1 (or None)"
                )
        self._sim = sim
        self.interval_seconds = float(interval_seconds)
        self._steps_per_interval = steps_per_interval
        self._keep_history = bool(keep_ground_truth)
        self._limits = limits
        self._pending: Optional[List[Optional[Dict[str, FluidLinkSpec]]]] = (
            None
        )
        self._spec_sets = sim._spec_sets
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
        # Same once-per-session telemetry contract as FluidSession;
        # the per-scenario RNG proxies are pure pass-throughs, so all
        # scenario streams stay bit-identical to single runs.
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
            for b, rng in enumerate(sim._rngs):
                if not isinstance(rng, telemetry.CountingRNG):
                    sim._rngs[b] = telemetry.CountingRNG(rng, rng_counter)

    @property
    def num_scenarios(self) -> int:
        return self._sim.num_scenarios

    def _bind(self, slots, spath) -> None:
        self._slots = slots
        self._spath = spath

    def _limit_of(self, b: int) -> float:
        lim = self._limits[b]
        return np.inf if lim is None else lim

    def scenario_intervals_done(self, b: int) -> int:
        """Intervals scenario ``b`` has emulated (≤ its limit)."""
        return int(min(self.intervals_done, self._limit_of(b)))

    def set_link_specs(
        self,
        link_specs: Mapping[str, FluidLinkSpec] = None,
        scenario: Optional[int] = None,
    ) -> None:
        """Swap link specs at the next interval boundary.

        ``scenario=None`` applies the mapping to every scenario;
        otherwise only the given world swaps (the others' mechanism
        state — token buckets, virtual queues — carries over
        untouched, so their streams stay bit-identical to unswapped
        single runs). Validation and completion are the single
        engine's.
        """
        completed = self._sim._templates[
            scenario if scenario is not None else 0
        ]._complete_specs(link_specs)
        if self._pending is None:
            self._pending = [None] * self.num_scenarios
        if scenario is None:
            for b in range(self.num_scenarios):
                self._pending[b] = completed
        else:
            self._pending[scenario] = completed
        if self._tel:
            self._tel_swaps.inc()

    def advance(self, num_intervals: int) -> List[Optional[RecordChunk]]:
        """Emulate up to ``num_intervals`` more intervals per world.

        Scenarios short of their limit advance by
        ``min(num_intervals, remaining)``; finished scenarios return
        ``None``. Raises once every scenario is done.
        """
        if num_intervals < 1:
            raise EmulationError("must advance by at least one interval")
        start = self.intervals_done
        remaining = [
            self._limit_of(b) - start for b in range(self.num_scenarios)
        ]
        max_remaining = max(remaining)
        if max_remaining <= 0:
            raise EmulationError("every scenario has finished")
        pulls = int(min(num_intervals, max_remaining))
        tel_span = (
            telemetry.span(
                "engine.advance", substrate="fluid",
                intervals=pulls, start=start,
                scenarios=self.num_scenarios,
            )
            if self._tel
            else telemetry.NOOP_SPAN
        )
        new_sent: List[np.ndarray] = []
        new_lost: List[np.ndarray] = []
        with tel_span:
            for _ in range(pulls):
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
        self.intervals_done = start + pulls
        if self._tel:
            self._tel_intervals.inc(pulls * self.num_scenarios)
            self._tel_steps.inc(pulls * self._steps_per_interval)
        chunks: List[Optional[RecordChunk]] = []
        for b in range(self.num_scenarios):
            span = int(min(max(remaining[b], 0), pulls))
            if span <= 0:
                chunks.append(None)
                continue
            chunks.append(
                chunk_from_columns(
                    self._measured_ids,
                    [col[b] for col in new_sent[:span]],
                    [col[b] for col in new_lost[:span]],
                    self._measured_rows,
                    self.interval_seconds,
                    start,
                )
            )
        return chunks

    def result(self, scenario: int) -> FluidResult:
        """Package one scenario's emulated span as a
        :class:`FluidResult` — identical to its single run's."""
        span = self.scenario_intervals_done(scenario)
        if span == 0:
            raise EmulationError("no intervals emulated yet")
        if not self._keep_history:
            raise EmulationError(
                "ground-truth history was discarded "
                "(keep_ground_truth=False); no result to package"
            )
        sim = self._sim
        b = scenario
        num_paths = len(self._path_ids)
        flows_by_path = np.bincount(
            self._spath,
            weights=self._slots.flows_completed,
            minlength=sim.num_scenarios * num_paths,
        ).reshape(sim.num_scenarios, num_paths)[b]
        return package_result(
            self._path_ids,
            list(sim._net.link_ids),
            sim._classes.names,
            sim._workloads,
            np.stack(
                [col[b] for col in self._sent_cols[:span]], axis=1
            ),
            np.stack(
                [col[b] for col in self._lost_cols[:span]], axis=1
            ),
            np.stack([col[b] for col in self._rtt_cols[:span]], axis=1),
            np.stack([col[b] for col in self._arr_cols[:span]], axis=2),
            np.stack(
                [col[b] for col in self._drop_cols[:span]], axis=2
            ),
            np.stack([col[b] for col in self._occ_cols[:span]], axis=1),
            flows_by_path,
            self.interval_seconds,
        )

    def results(self) -> List[FluidResult]:
        """Every scenario's :class:`FluidResult`, in scenario order."""
        return [self.result(b) for b in range(self.num_scenarios)]


def run_batch(
    net: Network,
    classes: ClassAssignment,
    spec_sets: Sequence[Mapping[str, FluidLinkSpec]],
    workloads: Mapping[str, PathWorkload],
    seeds: Sequence[int],
    duration_seconds,
    dt: float = DEFAULT_DT,
    interval_seconds: float = DEFAULT_INTERVAL,
    warmup_seconds: float = 0.0,
    send_jitter_cv: float = DEFAULT_SEND_JITTER_CV,
) -> List[FluidResult]:
    """Functional form of :meth:`FluidNetwork.run_batch`."""
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
