"""Compiled step kernels for the hot loops (DESIGN.md S21).

Every records-producing workload bottoms out in a time-stepped inner
loop: the fluid engine advances ~dozens of small numpy ops per step,
and the packet engine runs closed-form numpy scans per link batch.
This module fuses those loops into *step kernels* — one call advances
a whole emulation step — compiled with numba ``@njit`` (nopython,
cached) when numba is importable, so the per-step interpreter
dispatch disappears entirely.

Three backends, selected at import (and overridable at runtime):

* ``"numba"`` — the fused kernels, JIT-compiled. Default whenever
  numba imports. Results match the numpy backend within calibrated
  tolerances (scalar loops reassociate sums and the packet Lindley
  scan runs as a recurrence instead of a ``maximum.accumulate``);
  verdict-level quantities are invariant (see
  ``tests/fluid/test_kernel_equivalence.py``).
* ``"numpy"`` — the legacy vectorized step loop, bit-identical to the
  PR 1–6 goldens. Default when numba is absent; the reference
  semantics every golden/equivalence suite pins.
* ``"python"`` — the *same* fused kernel functions executed
  uncompiled. Slow, but it exercises the exact kernel code paths, so
  the equivalence suites can validate kernel semantics on machines
  without numba (numba runs the very same function objects).

Selection: the ``REPRO_KERNEL`` environment variable (``numba`` /
``numpy`` / ``python``) wins; naming ``numba`` where numba is not
importable is a :class:`~repro.exceptions.ConfigurationError` rather
than a silent fallback. Engines consult :func:`step_kernels_enabled`
once per session, so a backend override is picked up at the next
session/run, never mid-loop.

Floating-point policy: kernels accumulate with sequential scalar
loops where the numpy path used BLAS/pairwise reductions, so results
under the fused backends are *not* bitwise-equal to the numpy
backend. The engine version tags (``repro.fluid.engine.
engine_version`` / ``repro.emulator.core.packet_engine_version``)
therefore differ per backend family, keeping sweep cache keys honest.
The integer kernel (greedy admission) is exact and backend-invariant.
Pair counts for Algorithm 2 have no kernel: they are one numpy
primitive, :func:`repro.measurement.normalize.pair_joint_counts`.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fluid.tcp import (
    _RENO_SLOPE,
    CUBIC_BETA,
    CUBIC_C,
    INITIAL_WINDOW,
    MAX_WINDOW,
    MIN_WINDOW,
    SEVERE_LOSS_FRACTION,
)

#: Environment variable naming the backend (``numba``/``numpy``/
#: ``python``), read once at import.
ENV_VAR = "REPRO_KERNEL"

#: Valid backend names.
BACKENDS = ("numba", "numpy", "python")

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba

    NUMBA_AVAILABLE = True
    NUMBA_VERSION = _numba.__version__
except ImportError:
    _numba = None
    NUMBA_AVAILABLE = False
    NUMBA_VERSION = None


def _resolve_backend(name: str, explicit: bool) -> str:
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; choose one of {BACKENDS}"
        )
    if name == "numba" and not NUMBA_AVAILABLE:
        if explicit:
            raise ConfigurationError(
                "kernel backend 'numba' requested but numba is not "
                "importable; install numba or use REPRO_KERNEL=numpy"
            )
        return "numpy"  # pragma: no cover - defensive, callers pass explicit
    return name


_env = os.environ.get(ENV_VAR)
if _env is not None:
    _backend = _resolve_backend(_env.strip().lower(), explicit=True)
else:
    _backend = "numba" if NUMBA_AVAILABLE else "numpy"


def active_backend() -> str:
    """The backend engines will use for their *next* session."""
    return _backend


def step_kernels_enabled() -> bool:
    """Whether the fused step kernels are active (non-numpy backend)."""
    return _backend != "numpy"


def set_backend(name: str) -> str:
    """Select a backend; returns the previous one (for restoring)."""
    global _backend
    prev = _backend
    _backend = _resolve_backend(name, explicit=True)
    return prev


@contextmanager
def use_backend(name: str):
    """Temporarily select a kernel backend (tests, benches)."""
    prev = set_backend(name)
    try:
        yield
    finally:
        set_backend(prev)


def kernel_info() -> dict:
    """Everything ``repro info`` and sweep logs report about kernels."""
    return {
        "backend": _backend,
        "compiled": _backend == "numba",
        "numba_available": NUMBA_AVAILABLE,
        "numba_version": NUMBA_VERSION,
        "env_override": os.environ.get(ENV_VAR),
    }


# ----------------------------------------------------------------------
# Fused fluid step kernels
#
# The two halves of one engine step, split where the engine's RNG
# must run (droptail-burst allocation draws between them). All state
# lives in the caller's flat arrays — the kernels are pure loops over
# them, written in njit-compatible style (no dicts, no allocation in
# the hot path) and executed either compiled (numba) or as-is
# (python backend).
# ----------------------------------------------------------------------


def _fluid_step_pre(
    init_srtt,
    measuring,
    srtt_gain,
    # --- geometry
    hop_link,  # (P, H) link index per hop, -1 padded
    path_len,  # (P,)
    base_rtt,  # (P,)
    # --- link constants
    inv_capacity,  # (L,)
    cap_dt,  # (L,)
    buffers,  # (L,)
    is_bypass,  # (L,) bool: dual-queue links skip the common FIFO
    # --- mechanism constants (packed by engine._pack_mechanisms)
    pol_link,
    pol_rate_dt,
    pol_bucket,
    pol_tmask,
    tokens,  # (L,) token-bucket levels, mutated
    aqm_link,
    aqm_minth,
    aqm_ramp,
    aqm_pmax,
    aqm_tmask,
    sh_link,
    sh_t_rate_dt,
    sh_o_rate_dt,
    sh_t_buf,
    sh_o_buf,
    sh_tmask,
    w_link,
    w_t_rate_dt,
    w_o_rate_dt,
    w_cap_dt,
    w_t_buf,
    w_o_buf,
    w_tmask,
    # --- link state, mutated
    queue,
    shaper_tq,
    shaper_oq,
    # --- slot inputs
    spath,
    rtt_factor,
    cwnd,
    remaining,
    jit_dt,
    # --- path/step state, mutated
    srtt,
    path_smooth,
    path_burst,
    # --- persistent scratch, mutated
    arrivals,  # (L, P)
    drop_frac,  # (L, P) previous step's fractions on entry
    frac_dirty,  # (L,) bool
    drop_acc,  # (L, P) zeros on entry and exit
    row_dropped,  # (L,) bool, False on entry and exit
    # --- step outputs, mutated
    send,
    rtt_slot,
    path_send,
    total_in,
    # --- measuring accumulators, mutated
    rtt_acc,
    link_drop_acc,
):
    """First half of one fluid step: RTT/offers/arrivals/link service.

    Fuses the engine's numbered steps 1–4 (SRTT update, per-slot
    offers, attenuated hop-walk arrivals, every differentiation
    mechanism, droptail, and the per-row drop-fraction close) into
    one pass. Returns ``(smooth_dirty, burst_dirty)`` — whether any
    policer/AQM shedding or any droptail/shaper burst happened this
    step (the caller then allocates bursts to flows and runs
    :func:`_fluid_step_post`).
    """
    num_paths = base_rtt.shape[0]
    num_links = queue.shape[0]
    num_slots = spath.shape[0]
    smooth_flag = False
    burst_flag = False

    # 1. Queueing delay along each path -> instant RTT -> SRTT EWMA.
    for p in range(num_paths):
        qd = 0.0
        for h in range(path_len[p]):
            link = hop_link[p, h]
            occ = queue[link] + shaper_tq[link] + shaper_oq[link]
            qd += occ * inv_capacity[link]
        instant = base_rtt[p] + qd
        if init_srtt:
            srtt[p] = instant
        else:
            srtt[p] += srtt_gain * (instant - srtt[p])
        if measuring:
            rtt_acc[p] += instant
        path_send[p] = 0.0

    # 2. Per-slot offers (cwnd worth of traffic per RTT, jittered).
    for i in range(num_slots):
        r = srtt[spath[i]] * rtt_factor[i]
        if r < 1e-3:
            r = 1e-3
        rtt_slot[i] = r
        s = cwnd[i] * jit_dt[i] / r
        rem = remaining[i]
        if s > rem:
            s = rem
        send[i] = s
        path_send[spath[i]] += s

    # 3. Hop walk: per-link arrivals attenuated by the previous
    #    step's drop fractions; then per-link totals.
    for p in range(num_paths):
        vol = path_send[p]
        for h in range(path_len[p]):
            link = hop_link[p, h]
            arrivals[link, p] = vol
            vol = vol * (1.0 - drop_frac[link, p])
    for link in range(num_links):
        if frac_dirty[link]:
            for p in range(num_paths):
                drop_frac[link, p] = 0.0
            frac_dirty[link] = False
        t = 0.0
        for p in range(num_paths):
            t += arrivals[link, p]
        total_in[link] = t

    # 4a. Policers: token bucket, proportional shed (smooth drops).
    for k in range(pol_link.shape[0]):
        link = pol_link[k]
        refilled = tokens[link] + pol_rate_dt[k]
        if refilled > pol_bucket[k]:
            refilled = pol_bucket[k]
        demand = 0.0
        for p in range(num_paths):
            demand += arrivals[link, p] * pol_tmask[k, p]
        allowed = demand if demand <= refilled else refilled
        tokens[link] = refilled - allowed
        excess = demand - allowed
        if excess > 0.0:
            f = excess / demand
            for p in range(num_paths):
                m = pol_tmask[k, p]
                if m != 0.0:
                    a = arrivals[link, p]
                    drop_acc[link, p] += a * m * f
                    if a > 0.0:
                        path_smooth[p] = 1.0 - (
                            1.0 - path_smooth[p]
                        ) * (1.0 - f)
            total_in[link] -= excess
            row_dropped[link] = True
            smooth_flag = True

    # 4b. AQM: RED-style ramp on the droptail queue's fill level,
    #     applied deterministically in the fluid limit.
    for k in range(aqm_link.shape[0]):
        link = aqm_link[k]
        x = (queue[link] - aqm_minth[k]) / aqm_ramp[k]
        if x < 0.0:
            x = 0.0
        if x > 1.0:
            x = 1.0
        f = aqm_pmax[k] * x
        if f <= 0.0:
            continue
        demand = 0.0
        for p in range(num_paths):
            demand += arrivals[link, p] * aqm_tmask[k, p]
        if demand <= 0.0:
            continue
        for p in range(num_paths):
            m = aqm_tmask[k, p]
            if m != 0.0:
                a = arrivals[link, p]
                drop_acc[link, p] += a * m * f
                if a > 0.0:
                    path_smooth[p] = 1.0 - (1.0 - path_smooth[p]) * (
                        1.0 - f
                    )
        total_in[link] -= f * demand
        row_dropped[link] = True
        smooth_flag = True

    # 4c. Dual-queue shapers: fixed-split virtual queues, overflow
    #     shed pro rata as burst drops.
    for k in range(sh_link.shape[0]):
        link = sh_link[k]
        t_sum = 0.0
        o_sum = 0.0
        for p in range(num_paths):
            a = arrivals[link, p]
            t = a * sh_tmask[k, p]
            t_sum += t
            o_sum += a - t
        for side in range(2):
            if side == 0:
                q = shaper_tq[link] + t_sum
                served = sh_t_rate_dt[k]
                buf = sh_t_buf[k]
                inflow_sum = t_sum
            else:
                q = shaper_oq[link] + o_sum
                served = sh_o_rate_dt[k]
                buf = sh_o_buf[k]
                inflow_sum = o_sum
            q -= q if q < served else served
            if q > buf:
                overflow = q - buf
                if inflow_sum > 0.0:
                    f = overflow / inflow_sum
                    if f > 1.0:
                        f = 1.0
                    for p in range(num_paths):
                        a = arrivals[link, p]
                        t = a * sh_tmask[k, p]
                        br = (t if side == 0 else a - t) * f
                        drop_acc[link, p] += br
                        path_burst[p] += br
                    row_dropped[link] = True
                    burst_flag = True
                q = buf
            if side == 0:
                shaper_tq[link] = q
            else:
                shaper_oq[link] = q

    # 4d. Weighted service: work-conserving split of capacity over
    #     the two virtual queues.
    for k in range(w_link.shape[0]):
        link = w_link[k]
        t_sum = 0.0
        o_sum = 0.0
        for p in range(num_paths):
            a = arrivals[link, p]
            t = a * w_tmask[k, p]
            t_sum += t
            o_sum += a - t
        t_total = shaper_tq[link] + t_sum
        o_total = shaper_oq[link] + o_sum
        t_served = t_total if t_total < w_t_rate_dt[k] else w_t_rate_dt[k]
        o_served = o_total if o_total < w_o_rate_dt[k] else w_o_rate_dt[k]
        spare = w_cap_dt[k] - t_served - o_served
        if spare > 0.0:
            extra = o_total - o_served
            if extra > spare:
                extra = spare
            o_served += extra
            spare -= extra
            extra = t_total - t_served
            if extra > spare:
                extra = spare
            t_served += extra
        for side in range(2):
            if side == 0:
                q = t_total - t_served
                buf = w_t_buf[k]
                inflow_sum = t_sum
            else:
                q = o_total - o_served
                buf = w_o_buf[k]
                inflow_sum = o_sum
            if q > buf:
                overflow = q - buf
                if inflow_sum > 0.0:
                    f = overflow / inflow_sum
                    if f > 1.0:
                        f = 1.0
                    for p in range(num_paths):
                        a = arrivals[link, p]
                        t = a * w_tmask[k, p]
                        br = (t if side == 0 else a - t) * f
                        drop_acc[link, p] += br
                        path_burst[p] += br
                    row_dropped[link] = True
                    burst_flag = True
                q = buf
            if side == 0:
                shaper_tq[link] = q
            else:
                shaper_oq[link] = q

    # 4e. Droptail FIFO on the common queues: serve at capacity,
    #     spill overflow pro rata over this step's surviving inflow.
    for link in range(num_links):
        if is_bypass[link]:
            total_in[link] = 0.0
            continue
        qin = total_in[link]
        q = queue[link] + qin
        served = cap_dt[link]
        q -= q if q < served else served
        if q > buffers[link]:
            overflow = q - buffers[link]
            q = buffers[link]
            if qin > 0.0:
                f = overflow / qin
                if f > 1.0:
                    f = 1.0
                for p in range(num_paths):
                    br = (arrivals[link, p] - drop_acc[link, p]) * f
                    drop_acc[link, p] += br
                    path_burst[p] += br
                row_dropped[link] = True
                burst_flag = True
        queue[link] = q

    # 4f. Close the dropped rows: per-(link, path) drop fractions
    #     for next step's attenuation, ground-truth accumulation.
    for link in range(num_links):
        if row_dropped[link]:
            for p in range(num_paths):
                d = drop_acc[link, p]
                a = arrivals[link, p]
                den = a if a > 1e-300 else 1e-300
                fr = d / den
                if fr > 1.0:
                    fr = 1.0
                drop_frac[link, p] = fr
                if measuring:
                    link_drop_acc[link, p] += d
                drop_acc[link, p] = 0.0
            frac_dirty[link] = True
            row_dropped[link] = False

    return smooth_flag, burst_flag


def _fluid_step_post(
    now,
    measuring,
    any_loss,
    any_burst,
    # --- slot inputs
    spath,
    send,
    rtt_slot,
    path_smooth,
    slot_burst,
    # --- slot state, mutated
    remaining,
    # --- TCP state, mutated (TcpArrayState's arrays)
    is_cubic,
    cwnd,
    ssthresh,
    last_loss_time,
    w_max,
    epoch_start,
    epoch_k,
    pending_due,
    pending_lost,
    pending_sent,
    # --- outputs, mutated
    completed,
    # --- measuring accumulators, mutated
    slot_sent_acc,
    slot_lost_acc,
    arrivals,
    link_arr_acc,
):
    """Second half of one fluid step: loss application, TCP, and
    completions.

    The scalar-loop port of :meth:`repro.fluid.tcp.TcpArrayState.
    advance` (same pending-loss machinery, severe-loss collapse,
    NewReno AIMD, CUBIC epochs with the TCP-friendly region), fused
    with per-slot loss attribution and flow-completion detection.
    Returns the number of completed flows (the caller draws their
    idle gaps).
    """
    num_slots = spath.shape[0]
    inf = np.inf
    n_comp = 0
    for i in range(num_slots):
        s = send[i]
        sending = s > 0.0
        if any_loss:
            lost_i = s * path_smooth[spath[i]]
            if any_burst:
                lost_i += slot_burst[i]
            if lost_i > s:
                lost_i = s
            delivered = s - lost_i
        else:
            lost_i = 0.0
            delivered = s

        # Note new losses; react one RTT after the first drop, at
        # most one congestion event per RTT.
        has_new = any_loss and lost_i > 0.0
        if has_new:
            if pending_due[i] == inf:
                pending_due[i] = now + rtt_slot[i]
            pending_lost[i] += lost_i
            pending_sent[i] += s
        cut = False
        if sending and pending_due[i] < inf:
            if not has_new:
                pending_sent[i] += s
            if pending_due[i] <= now:
                plost = pending_lost[i]
                psent = pending_sent[i]
                pending_due[i] = inf
                pending_lost[i] = 0.0
                pending_sent[i] = 0.0
                if plost > 0.0 and now - last_loss_time[i] >= rtt_slot[i]:
                    last_loss_time[i] = now
                    cut = True
                    if (
                        psent > 0.0
                        and plost >= SEVERE_LOSS_FRACTION * psent
                    ):
                        half = cwnd[i] / 2.0
                        ssthresh[i] = half if half > 2.0 else 2.0
                        cwnd[i] = MIN_WINDOW
                        epoch_start[i] = np.nan
                    elif not is_cubic[i]:
                        half = cwnd[i] / 2.0
                        ssthresh[i] = half if half > 2.0 else 2.0
                        cwnd[i] = ssthresh[i]
                    else:
                        w_max[i] = cwnd[i]
                        c = cwnd[i] * CUBIC_BETA
                        if c < MIN_WINDOW:
                            c = MIN_WINDOW
                        cwnd[i] = c
                        ssthresh[i] = c if c > 2.0 else 2.0
                        epoch_start[i] = now
                        wm = w_max[i]
                        if wm <= 0.0:
                            wm = (
                                cwnd[i]
                                if cwnd[i] > INITIAL_WINDOW
                                else INITIAL_WINDOW
                            )
                            w_max[i] = wm
                        epoch_k[i] = (
                            wm * (1.0 - CUBIC_BETA) / CUBIC_C
                        ) ** (1.0 / 3.0)

        # Window growth on delivery (suppressed by this step's cut).
        if sending and delivered > 0.0 and not cut:
            if cwnd[i] < ssthresh[i]:
                c = cwnd[i] + delivered
                if c > MAX_WINDOW:
                    c = MAX_WINDOW
                cwnd[i] = c
                if is_cubic[i] and c >= ssthresh[i]:
                    # Exiting slow start: open an epoch anchored here.
                    epoch_start[i] = now
                    wm = w_max[i]
                    if wm <= 0.0:
                        wm = c if c > INITIAL_WINDOW else INITIAL_WINDOW
                        w_max[i] = wm
                    epoch_k[i] = (
                        wm * (1.0 - CUBIC_BETA) / CUBIC_C
                    ) ** (1.0 / 3.0)
            elif not is_cubic[i]:
                d = cwnd[i] if cwnd[i] > 1.0 else 1.0
                c = cwnd[i] + delivered / d
                if c > MAX_WINDOW:
                    c = MAX_WINDOW
                cwnd[i] = c
            else:
                if math.isnan(epoch_start[i]):
                    epoch_start[i] = now
                    wm = w_max[i]
                    if wm <= 0.0:
                        wm = (
                            cwnd[i]
                            if cwnd[i] > INITIAL_WINDOW
                            else INITIAL_WINDOW
                        )
                        w_max[i] = wm
                    epoch_k[i] = (
                        wm * (1.0 - CUBIC_BETA) / CUBIC_C
                    ) ** (1.0 / 3.0)
                t = now - epoch_start[i]
                wm = w_max[i]
                target = CUBIC_C * (t - epoch_k[i]) ** 3 + wm
                r = rtt_slot[i]
                if r < 1e-3:
                    r = 1e-3
                reno_est = wm * CUBIC_BETA + _RENO_SLOPE * (t / r)
                if reno_est > target:
                    target = reno_est
                if target < MIN_WINDOW:
                    target = MIN_WINDOW
                if target > MAX_WINDOW:
                    target = MAX_WINDOW
                cwnd[i] = target

        remaining[i] -= delivered
        comp = sending and remaining[i] <= 1e-9
        completed[i] = comp
        if comp:
            n_comp += 1
        if measuring:
            slot_sent_acc[i] += s
            if any_loss:
                slot_lost_acc[i] += lost_i

    if measuring:
        num_links = arrivals.shape[0]
        num_paths = arrivals.shape[1]
        for link in range(num_links):
            for p in range(num_paths):
                link_arr_acc[link, p] += arrivals[link, p]
    return n_comp


# ----------------------------------------------------------------------
# Packet-engine quantum-scan kernels
# ----------------------------------------------------------------------


def _serve_fifo_kernel(arr, rate, busy_until, capacity, admit, dep):
    """Fused droptail admission + Lindley serialization of one batch.

    The scalar form of :func:`repro.emulator.core._serve_fifo`:
    greedy admission against the per-packet capacity curve (integer
    decisions, identical to the closed-form ``minimum.accumulate``)
    and the Lindley recurrence ``dep_k = max(arr_k, dep_{k-1}) +
    1/rate`` (same quantity the closed-form unroll computes, modulo
    fp association). Writes ``admit`` for all ``n`` packets and the
    first ``m`` entries of ``dep``; returns
    ``(m, all_admitted, new_busy)``.
    """
    n = arr.shape[0]
    service = 1.0 / rate
    if busy_until <= arr[0] and n <= capacity:
        # No standing backlog and the whole batch fits: no drops.
        prev = busy_until
        for i in range(n):
            admit[i] = True
            t = arr[i]
            if t < prev:
                t = prev
            t += service
            dep[i] = t
            prev = t
        return n, True, prev
    m = 0
    admitted = 0
    all_admitted = True
    prev = busy_until
    for i in range(n):
        backlog = (busy_until - arr[i]) * rate
        if backlog < 0.0:
            backlog = 0.0
        backlog = math.ceil(backlog)
        served_new = (arr[i] - busy_until) * rate
        if served_new < 0.0:
            served_new = 0.0
        served_new = math.floor(served_new)
        if served_new > i:
            served_new = float(i)
        cap = capacity - backlog + served_new
        if cap < 0.0:
            cap = 0.0
        if admitted < int(cap):
            admit[i] = True
            admitted += 1
            t = arr[i]
            if t < prev:
                t = prev
            t += service
            dep[m] = t
            prev = t
            m += 1
        else:
            admit[i] = False
            all_admitted = False
    new_busy = prev if m > 0 else busy_until
    return m, all_admitted, new_busy


def _greedy_admission_kernel(caps, admit):
    """Scalar greedy admission: packet ``i`` is admitted iff the
    count admitted before it is strictly below ``caps[i]`` — exactly
    :func:`repro.emulator.core.greedy_admission`'s closed form, as a
    loop. Returns whether everything was admitted."""
    n = caps.shape[0]
    admitted = 0
    all_admitted = True
    for i in range(n):
        if admitted < caps[i]:
            admit[i] = True
            admitted += 1
        else:
            admit[i] = False
            all_admitted = False
    return all_admitted


# ----------------------------------------------------------------------
# Backend dispatch
# ----------------------------------------------------------------------

_PY_IMPLS = {
    "fluid_step_pre": _fluid_step_pre,
    "fluid_step_post": _fluid_step_post,
    "serve_fifo": _serve_fifo_kernel,
    "greedy_admission": _greedy_admission_kernel,
}

if NUMBA_AVAILABLE:  # pragma: no cover - requires numba
    _NUMBA_IMPLS = {
        name: _numba.njit(cache=True, nogil=True)(fn)
        for name, fn in _PY_IMPLS.items()
    }
else:
    _NUMBA_IMPLS = {}


def _impl(name):
    if _backend == "numba":  # pragma: no cover - requires numba
        return _NUMBA_IMPLS[name]
    if _backend == "python":
        return _PY_IMPLS[name]
    raise ConfigurationError(
        "step kernels are disabled under the numpy backend"
    )


# Per-(kernel, backend) dispatch counts, kept as a plain dict so the
# increment costs nanoseconds against kernels that cost microseconds.
# The numpy backend never reaches these wrappers (engines run the
# legacy vectorized loop), so its activity is visible through the
# engine-session counters instead. Telemetry snapshots this dict into
# the registry (``repro metrics`` / ``repro info``) on demand.
_KERNEL_CALLS: dict = {}


def kernel_call_counts() -> dict:
    """Copy of the per-(kernel, backend) dispatch counts."""
    return dict(_KERNEL_CALLS)


def reset_kernel_call_counts() -> None:
    _KERNEL_CALLS.clear()


def fluid_step_pre(*args):
    """Dispatch :func:`_fluid_step_pre` on the active backend."""
    key = ("fluid_step_pre", _backend)
    _KERNEL_CALLS[key] = _KERNEL_CALLS.get(key, 0) + 1
    return _impl("fluid_step_pre")(*args)


def fluid_step_post(*args):
    """Dispatch :func:`_fluid_step_post` on the active backend."""
    key = ("fluid_step_post", _backend)
    _KERNEL_CALLS[key] = _KERNEL_CALLS.get(key, 0) + 1
    return _impl("fluid_step_post")(*args)


def serve_fifo(*args):
    """Dispatch :func:`_serve_fifo_kernel` on the active backend."""
    key = ("serve_fifo", _backend)
    _KERNEL_CALLS[key] = _KERNEL_CALLS.get(key, 0) + 1
    return _impl("serve_fifo")(*args)


def greedy_admission(*args):
    """Dispatch :func:`_greedy_admission_kernel` on the active
    backend."""
    key = ("greedy_admission", _backend)
    _KERNEL_CALLS[key] = _KERNEL_CALLS.get(key, 0) + 1
    return _impl("greedy_admission")(*args)

