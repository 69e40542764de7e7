"""Fluid TCP congestion-window models: NewReno and CUBIC.

The fluid emulator advances flows in discrete time steps; each flow
carries a congestion window (in packets) evolved by one of these
models. Fidelity target (per DESIGN.md): the *frequency and clustering
of loss events* and the qualitative differences between algorithms
(slow-start overshoot, AIMD sawtooth vs cubic concave-convex growth,
RTT unfairness), which are what the paper's metric is sensitive to —
not per-packet behaviour.

Model summary:

* **Slow start** (both): the window grows by one packet per delivered
  packet (doubling per RTT) until ``ssthresh``.
* **NewReno congestion avoidance**: +1 packet per window per RTT,
  i.e. ``delivered / cwnd`` packets per step; on a loss event the
  window halves.
* **CUBIC**: after a loss event at window ``W_max``, the window
  follows ``W(t) = C·(t − K)³ + W_max`` with
  ``K = ((W_max·(1−β))/C)^{1/3}``, β = 0.7, C = 0.4 — concave up to
  ``W_max`` then convex probing.
* **Loss events** are rate-limited to one per RTT (a burst of drops
  within one RTT is one congestion signal), matching fast-recovery
  semantics; a severe event (most of the window lost) acts like a
  timeout: the window collapses to 1 and slow start resumes.
"""

from __future__ import annotations

import numpy as np

#: Initial congestion window (packets) — RFC 6928's IW10 rounded down.
INITIAL_WINDOW = 4.0

#: Initial slow-start threshold (packets): effectively "unbounded".
INITIAL_SSTHRESH = 1e9

#: Receive-window cap (packets) so a single flow cannot grow absurdly.
MAX_WINDOW = 4096.0

#: Minimum window (packets).
MIN_WINDOW = 1.0

#: CUBIC constants (RFC 8312).
CUBIC_C = 0.4
CUBIC_BETA = 0.7

#: Fraction of a step's packets lost that we treat as timeout-severe.
SEVERE_LOSS_FRACTION = 0.5


#: RFC 8312 §4.2 TCP-friendly region slope: 3(1−β)/(1+β).
_RENO_SLOPE = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)


class TcpArrayState:
    """Vectorized congestion-control state for N parallel flow slots.

    The batched counterpart of the scalar per-flow model the seed
    engine used (frozen as ``tests/oracles/flow_scalar.py::TcpState``):
    one numpy array per field, advanced for every slot at once by the
    fluid engine. The window-evolution rules are the same (slow start,
    NewReno AIMD, CUBIC with the TCP-friendly region, one loss event
    per RTT, severe-loss collapse); only the arithmetic layout
    differs. ``pending_due == +inf`` encodes "no pending loss" (the
    scalar model uses ``None``) so due-ness is one comparison.

    CUBIC's epoch constants (``K`` and the friendly-region intercept)
    are precomputed when an epoch opens instead of per step — they
    only change when ``w_max`` does.

    The scenario-batched engine (:mod:`repro.fluid.batch`) reuses
    this class unchanged with the batch axis *folded into the slot
    axis* (scenario ``b``'s slot ``i`` at flat index ``b·S + i``):
    every operation here is elementwise or an index-subset update —
    there are no cross-slot reductions — so per-scenario slices of a
    flattened state evolve bit-identically to ``B`` separate
    instances. Keep it that way: a cross-slot reduction added here
    would silently break the batched engine's floating-point-identity
    contract.
    """

    def __init__(self, is_cubic: np.ndarray) -> None:
        n = len(is_cubic)
        self.is_cubic = np.asarray(is_cubic, dtype=bool)
        self.has_cubic = bool(self.is_cubic.any())
        self.has_reno = bool((~self.is_cubic).any())
        self.cwnd = np.full(n, INITIAL_WINDOW)
        self.ssthresh = np.full(n, INITIAL_SSTHRESH)
        self.last_loss_time = np.full(n, -np.inf)
        self.w_max = np.zeros(n)
        self.epoch_start = np.full(n, np.nan)
        self.epoch_k = np.zeros(n)
        self.pending_due = np.full(n, np.inf)
        self.pending_lost = np.zeros(n)
        self.pending_sent = np.zeros(n)
        # Count of slots with a pending loss reaction, so the common
        # (loss-free) step skips the pending machinery entirely.
        self._num_pending = 0

    def reset(self, idx: np.ndarray) -> None:
        """Fresh connection state for the slots in ``idx``."""
        if self._num_pending:
            self._num_pending -= int(
                np.count_nonzero(self.pending_due[idx] < np.inf)
            )
        self.cwnd[idx] = INITIAL_WINDOW
        self.ssthresh[idx] = INITIAL_SSTHRESH
        self.last_loss_time[idx] = -np.inf
        self.w_max[idx] = 0.0
        self.epoch_start[idx] = np.nan
        self.epoch_k[idx] = 0.0
        self.pending_due[idx] = np.inf
        self.pending_lost[idx] = 0.0
        self.pending_sent[idx] = 0.0

    # ------------------------------------------------------------------

    def _open_epoch(self, idx: np.ndarray, now: float) -> None:
        """Anchor a CUBIC epoch at ``now`` for the slots in ``idx``."""
        self.epoch_start[idx] = now
        wm = self.w_max[idx]
        wm = np.where(
            wm <= 0.0, np.maximum(self.cwnd[idx], INITIAL_WINDOW), wm
        )
        self.w_max[idx] = wm
        self.epoch_k[idx] = (wm * (1.0 - CUBIC_BETA) / CUBIC_C) ** (1.0 / 3.0)

    def _apply_pending(self, ready: np.ndarray, now: float, rtt: np.ndarray):
        """React to due loss; returns the full-size "window cut" mask."""
        idx = ready.nonzero()[0]
        plost = self.pending_lost[idx]
        psent = self.pending_sent[idx]
        self.pending_due[idx] = np.inf
        self.pending_lost[idx] = 0.0
        self.pending_sent[idx] = 0.0
        self._num_pending -= len(idx)
        # At most one congestion event per RTT (same rule as
        # the scalar on_loss); a quiet repeat is the same event.
        do = (plost > 0.0) & (now - self.last_loss_time[idx] >= rtt[idx])
        severe = do & (psent > 0.0) & (plost >= SEVERE_LOSS_FRACTION * psent)
        normal = do & ~severe
        cut_idx = idx[do]
        self.last_loss_time[cut_idx] = now
        if np.count_nonzero(severe):
            gs = idx[severe]
            self.ssthresh[gs] = np.maximum(self.cwnd[gs] / 2.0, 2.0)
            self.cwnd[gs] = MIN_WINDOW
            self.epoch_start[gs] = np.nan
        if np.count_nonzero(normal):
            nr = normal & ~self.is_cubic[idx]
            if np.count_nonzero(nr):
                gr = idx[nr]
                self.ssthresh[gr] = np.maximum(self.cwnd[gr] / 2.0, 2.0)
                self.cwnd[gr] = self.ssthresh[gr]
            nc = normal & self.is_cubic[idx]
            if np.count_nonzero(nc):
                gc = idx[nc]
                self.w_max[gc] = self.cwnd[gc]
                self.cwnd[gc] = np.maximum(
                    self.cwnd[gc] * CUBIC_BETA, MIN_WINDOW
                )
                self.ssthresh[gc] = np.maximum(self.cwnd[gc], 2.0)
                self._open_epoch(gc, now)
        cut = np.zeros(len(self.cwnd), dtype=bool)
        cut[cut_idx] = True
        return cut

    # ------------------------------------------------------------------

    def advance(
        self,
        now: float,
        send: np.ndarray,
        sending: np.ndarray,
        lost,
        delivered: np.ndarray,
        rtt: np.ndarray,
    ) -> None:
        """One step for every slot: note losses, react, grow windows.

        Args:
            now: Simulation time.
            send: Per-slot packets offered this step.
            sending: ``send > 0`` mask.
            lost: Per-slot packets lost this step, or ``None`` when
                the step produced no drops anywhere (fast path).
            delivered: ``send - lost`` (``send`` when lost is None).
            rtt: Per-slot effective RTT.
        """
        new_loss = None
        if lost is not None:
            new_loss = lost > 0.0
            if np.count_nonzero(new_loss):
                fresh = new_loss & (self.pending_due == np.inf)
                n_fresh = int(np.count_nonzero(fresh))
                if n_fresh:
                    self.pending_due[fresh] = now + rtt[fresh]
                    self._num_pending += n_fresh
                self.pending_lost[new_loss] += lost[new_loss]
                self.pending_sent[new_loss] += send[new_loss]
            else:
                new_loss = None
        cut = None
        if self._num_pending:
            pend = self.pending_due < np.inf
            # A sending slot with an outstanding (not newly-hit)
            # pending event keeps counting what it sent meanwhile.
            trail = pend & sending
            if new_loss is not None:
                trail &= ~new_loss
            if np.count_nonzero(trail):
                self.pending_sent[trail] += send[trail]
            ready = pend & sending & (self.pending_due <= now)
            if np.count_nonzero(ready):
                cut = self._apply_pending(ready, now, rtt)
        # Window growth on delivery, suppressed when this step's
        # reaction cut the window. With no losses anywhere,
        # delivered == send, so "sending" already is the grow mask.
        if lost is None and cut is None:
            grow = sending
        else:
            grow = sending & (delivered > 0.0)
            if cut is not None:
                grow &= ~cut
        ss = self.cwnd < self.ssthresh
        g_ss = grow & ss
        if np.count_nonzero(g_ss):
            self.cwnd[g_ss] = np.minimum(
                self.cwnd[g_ss] + delivered[g_ss], MAX_WINDOW
            )
            if self.has_cubic:
                exited = g_ss & self.is_cubic & (self.cwnd >= self.ssthresh)
                if np.count_nonzero(exited):
                    self._open_epoch(exited.nonzero()[0], now)
        g_ca = grow & ~ss
        if np.count_nonzero(g_ca):
            if self.has_reno:
                gr = g_ca & ~self.is_cubic
                if np.count_nonzero(gr):
                    self.cwnd[gr] = np.minimum(
                        self.cwnd[gr]
                        + delivered[gr] / np.maximum(self.cwnd[gr], 1.0),
                        MAX_WINDOW,
                    )
            if self.has_cubic:
                gc = g_ca & self.is_cubic if self.has_reno else g_ca
                idx = gc.nonzero()[0]
                if len(idx):
                    no_epoch = np.isnan(self.epoch_start[idx])
                    if np.count_nonzero(no_epoch):
                        self._open_epoch(idx[no_epoch], now)
                    t = now - self.epoch_start[idx]
                    wm = self.w_max[idx]
                    target = CUBIC_C * (t - self.epoch_k[idx]) ** 3 + wm
                    reno_est = wm * CUBIC_BETA + _RENO_SLOPE * (
                        t / np.maximum(rtt[idx], 1e-3)
                    )
                    np.maximum(target, reno_est, out=target)
                    np.maximum(target, MIN_WINDOW, out=target)
                    np.minimum(target, MAX_WINDOW, out=target)
                    self.cwnd[idx] = target
