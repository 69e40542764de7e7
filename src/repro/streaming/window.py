"""Incremental Algorithm 2 statistics over sliding/tumbling windows.

The offline pipeline recomputes everything per record matrix:
stack counters, derive the congestion-status matrix, count every
pair's joint congestion-free intervals (see
:func:`repro.measurement.normalize.batch_slice_observations`). For a
monitor that re-evaluates a window every few intervals, almost all
of that work is shared between consecutive windows.

:class:`SlidingWindowStats` maintains the sufficient statistics
incrementally:

* appended chunks update the boolean status rows and per-path
  congestion-status **prefix sums** in O(new intervals) — nothing is
  recomputed from scratch;
* a window's singleton costs are prefix-sum differences; its pair
  counts come from
  :func:`~repro.measurement.normalize.pair_joint_counts` — and when
  one window slides to the next, only the *delta spans* are counted
  (``count(new) = count(old) − count(dropped) + count(gained)``), so
  a stride-S advance costs O(|pairs| · ⌈S/64⌉) regardless of the
  window length — reusing the network's memoized
  :class:`~repro.core.slices.SliceSystemBatch` /
  :class:`~repro.core.network.PathIndex` across every window advance
  (the batch depends on the topology only, so no window ever
  invalidates it);
* results are **fp-identical** to a from-scratch
  :func:`~repro.measurement.normalize.batch_slice_observations` on
  the window's records (the hypothesis suite in
  ``tests/streaming/test_window.py`` asserts exact equality);
* a window in which some path sent nothing in some interval gives
  each σ group its own valid intervals, so it is computed from the
  window's records by ``batch_slice_observations``' per-group branch.

Cache rules: window results are memoized by ``(lo, hi)``; appends
only ever extend the stream, so no existing window entry can go
stale — the only *dirty* state a swap of records could create is the
stacked-matrix cache on :class:`MeasurementData`, which
:meth:`MeasurementData.append_intervals` invalidates explicitly.

Only expected-mode normalization streams: sampled mode couples every
draw to the family's minimum rate *and* to the RNG stream position,
so its window values depend on the whole history — there is nothing
incremental to maintain. The monitor therefore requires
``normalization_mode="expected"`` (the default).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithm import DEFAULT_MIN_PATHSETS
from repro.core.network import Network
from repro.core.pathsets import PathSet
from repro.core.slices import build_slice_batch, sorted_unique
from repro.exceptions import MeasurementError
from repro.measurement.normalize import (
    DEFAULT_LOSS_THRESHOLD,
    PathsetObservations,
    batch_slice_observations,
    cost_table,
    pair_joint_counts,
)
from repro.measurement.records import (
    MeasurementData,
    PathRecord,
    RecordChunk,
)

#: Window results memoized per (lo, hi); append-only streams never
#: invalidate an entry, so the cap only bounds memory.
_WINDOW_CACHE_LIMIT = 64

#: Initial interval capacity of the growable state arrays.
_INITIAL_CAPACITY = 256


class SlidingWindowStats:
    """Incremental sufficient statistics for windowed Algorithm 2.

    Args:
        net: The inference graph (measured paths only) — its memoized
            slice batch is built once and reused for every window.
        min_pathsets: Algorithm 1's line-10 threshold.
        loss_threshold: Congestion threshold on the per-interval loss
            fraction.
        interval_seconds: Interval length (reported on window data).
    """

    def __init__(
        self,
        net: Network,
        min_pathsets: int = DEFAULT_MIN_PATHSETS,
        loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
        interval_seconds: float = 0.1,
    ) -> None:
        if not 0.0 < loss_threshold < 1.0:
            raise MeasurementError(
                f"loss threshold must be in (0,1), got {loss_threshold}"
            )
        self._net = net
        self.batch, self.skipped = build_slice_batch(net, min_pathsets)
        self.loss_threshold = float(loss_threshold)
        self.interval_seconds = float(interval_seconds)
        self._path_ids: Optional[Tuple[str, ...]] = None
        self._row_of: Dict[str, int] = {}
        self._T = 0
        self._cap = 0
        self._sent: Optional[np.ndarray] = None
        self._lost: Optional[np.ndarray] = None
        self._status: Optional[np.ndarray] = None
        self._status_prefix: Optional[np.ndarray] = None
        self._all_traffic_prefix: Optional[np.ndarray] = None
        # Sliding-delta anchor: the last window's pair counts.
        self._last_pair_window: Optional[
            Tuple[int, int, np.ndarray]
        ] = None
        # Span-count memo: a sliding monitor counts each stride span
        # once as the gained edge and reuses it ~window/stride
        # advances later as the dropped edge.
        self._span_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._reserve_hint = 0
        self._used: Optional[np.ndarray] = None
        self._used_stream_rows: Optional[np.ndarray] = None
        self._pair_a_stream: Optional[np.ndarray] = None
        self._pair_b_stream: Optional[np.ndarray] = None
        self._cache: Dict[Tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Intervals appended so far."""
        return self._T

    def _init_paths(self, path_ids: Sequence[str]) -> None:
        self._path_ids = tuple(path_ids)
        if len(set(self._path_ids)) != len(self._path_ids):
            raise MeasurementError("stream repeats a path id")
        self._row_of = {pid: i for i, pid in enumerate(self._path_ids)}
        index = self.batch.index
        missing = [
            pid for pid in index.path_ids if pid not in self._row_of
        ]
        if missing:
            raise MeasurementError(
                f"stream lacks records for indexed paths {missing}"
            )

        # Index row → stream row, gathered once per row array.
        perm = np.array(
            [self._row_of[pid] for pid in index.path_ids], dtype=np.intp
        )
        self._used = sorted_unique(self.batch.member_rows)
        self._used_stream_rows = perm[self._used]
        self._pair_a_stream = perm[self.batch.pair_a]
        self._pair_b_stream = perm[self.batch.pair_b]

    def reserve(self, num_intervals: int) -> None:
        """Pre-size the state arrays for a known stream length
        (avoids growth copies on long replays)."""
        self._reserve_hint = max(self._reserve_hint, int(num_intervals))

    def _ensure_capacity(self, need: int) -> None:
        if need <= self._cap:
            return
        cap = max(_INITIAL_CAPACITY, self._cap * 2)
        while cap < max(need, self._reserve_hint):
            cap *= 2
        num_paths = len(self._path_ids)
        T = self._T

        def grow(old, shape, dtype, filled):
            # Copy only the filled region — the tail of the old
            # allocation is zeros by construction.
            new = np.zeros(shape, dtype=dtype)
            if old is not None and filled:
                if old.ndim == 1:
                    new[:filled] = old[:filled]
                else:
                    new[:, :filled] = old[:, :filled]
            return new

        self._sent = grow(self._sent, (num_paths, cap), np.int64, T)
        self._lost = grow(self._lost, (num_paths, cap), np.int64, T)
        self._status = grow(self._status, (num_paths, cap), bool, T)
        self._status_prefix = grow(
            self._status_prefix, (num_paths, cap + 1), np.int64, T + 1
        )
        self._all_traffic_prefix = grow(
            self._all_traffic_prefix, (cap + 1,), np.int64, T + 1
        )
        self._cap = cap

    def append(self, chunk: RecordChunk) -> None:
        """Append a stream chunk (must be the next contiguous one)."""
        if chunk.start_interval != self._T:
            raise MeasurementError(
                f"non-contiguous chunk: starts at {chunk.start_interval}, "
                f"stream is at {self._T}"
            )
        self.append_arrays(chunk.sent, chunk.lost, chunk.path_ids)

    def append_arrays(
        self,
        sent: np.ndarray,
        lost: np.ndarray,
        path_ids: Sequence[str],
    ) -> None:
        """Append raw ``(|paths|, n)`` counter matrices."""
        sent = np.asarray(sent, dtype=np.int64)
        lost = np.asarray(lost, dtype=np.int64)
        if sent.shape != lost.shape or sent.ndim != 2:
            raise MeasurementError(
                f"chunk matrices must be 2-D and aligned, got "
                f"{sent.shape} vs {lost.shape}"
            )
        if self._path_ids is None:
            self._init_paths(path_ids)
        elif tuple(path_ids) != self._path_ids:
            raise MeasurementError(
                "chunk path set/order differs from the stream's"
            )
        if sent.shape[0] != len(self._path_ids):
            raise MeasurementError(
                f"chunk has {sent.shape[0]} rows for "
                f"{len(self._path_ids)} paths"
            )
        n = sent.shape[1]
        if n == 0:
            return
        T = self._T
        self._ensure_capacity(T + n)
        self._sent[:, T:T + n] = sent
        self._lost[:, T:T + n] = lost

        # Expected-mode congestion-free indicator, matching
        # batch_slice_observations cell-for-cell where traffic is
        # present (windows with sent == 0 cells are computed by
        # batch_slice_observations itself).
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = lost / sent
        status = (frac < self.loss_threshold) & (sent > 0)
        self._status[:, T:T + n] = status

        self._status_prefix[:, T + 1:T + n + 1] = (
            self._status_prefix[:, T:T + 1]
            + np.cumsum(status, axis=1)
        )
        self._all_traffic_prefix[T + 1:T + n + 1] = (
            self._all_traffic_prefix[T]
            + np.cumsum((sent > 0).all(axis=0))
        )
        self._T = T + n

    # ------------------------------------------------------------------
    # Window evaluation
    # ------------------------------------------------------------------

    def _check_window(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= self._T:
            raise MeasurementError(
                f"window [{lo}, {hi}) outside the stream [0, {self._T})"
            )

    def _all_traffic(self, lo: int, hi: int) -> bool:
        return bool(
            self._all_traffic_prefix[hi] - self._all_traffic_prefix[lo]
            == hi - lo
        )

    def window_data(self, lo: int, hi: int) -> MeasurementData:
        """The window's raw records as a :class:`MeasurementData`."""
        self._check_window(lo, hi)
        return MeasurementData(
            [
                PathRecord(
                    pid,
                    self._sent[i, lo:hi].copy(),
                    self._lost[i, lo:hi].copy(),
                )
                for i, pid in enumerate(self._path_ids)
            ],
            self.interval_seconds,
        )

    def window_status(self, lo: int, hi: int) -> np.ndarray:
        """The window's boolean congestion-free matrix (stream row
        order), for inspection and the exactness tests."""
        self._check_window(lo, hi)
        return self._status[:, lo:hi].copy()

    def _pair_span_counts(self, lo: int, hi: int) -> np.ndarray:
        """Joint congestion-free counts of every batch pair over
        ``[lo, hi)``, exactly (memoized per span)."""
        key = (lo, hi)
        cached = self._span_cache.get(key)
        if cached is not None:
            return cached
        counts = pair_joint_counts(
            self._status[:, lo:hi], self._pair_a_stream, self._pair_b_stream
        )
        if len(self._span_cache) >= 4 * _WINDOW_CACHE_LIMIT:
            self._span_cache.pop(next(iter(self._span_cache)))
        self._span_cache[key] = counts
        return counts

    def _pair_counts(self, lo: int, hi: int) -> np.ndarray:
        """Joint congestion-free counts for every batch pair over the
        window, sliding-delta style.

        When this window overlaps the previous one (the monitor's
        advance pattern: ``lo₀ ≤ lo ≤ hi₀ ≤ hi``), only the dropped
        span ``[lo₀, lo)`` and the gained span ``[hi₀, hi)`` are
        counted — O(|pairs| · ⌈stride/64⌉) per advance, independent of
        the window length. Counts are exact integers either way, so
        the delta route is bit-equal to counting from scratch.
        """
        anchor = self._last_pair_window
        counts = None
        if anchor is not None:
            lo0, hi0, counts0 = anchor
            if lo0 <= lo <= hi0 <= hi and (lo - lo0) + (hi - hi0) < (
                hi - lo
            ):
                counts = counts0.copy()
                if lo > lo0:
                    counts -= self._pair_span_counts(lo0, lo)
                if hi > hi0:
                    counts += self._pair_span_counts(hi0, hi)
        if counts is None:
            counts = self._pair_span_counts(lo, hi)
        self._last_pair_window = (lo, hi, counts)
        return counts

    def _evaluate_window(self, lo: int, hi: int) -> tuple:
        """Cached core: ``(observations, y_single, y_pair_flat)``.

        The observations are a
        :class:`~repro.measurement.normalize.PathsetObservations` view
        over the cost arrays, so the monitor, which reads only the
        arrays, never builds a per-pathset object. A window in which
        some path fell silent goes through
        :func:`~repro.measurement.normalize.batch_slice_observations`
        (its per-group branch); every other window is computed from
        the incremental state.
        """
        key = (int(lo), int(hi))
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        batch = self.batch
        if batch.num_systems == 0:
            out = (
                {},
                np.full(batch.index.num_paths, np.nan),
                np.zeros(0, dtype=float),
            )
        elif not self._all_traffic(lo, hi):
            out = batch_slice_observations(
                self.window_data(lo, hi),
                batch,
                loss_threshold=self.loss_threshold,
            )
        else:
            table = cost_table(hi - lo)
            counts = (
                self._status_prefix[self._used_stream_rows, hi]
                - self._status_prefix[self._used_stream_rows, lo]
            )
            y_single = np.full(batch.index.num_paths, np.nan)
            y_single[self._used] = table[counts]
            y_pair_flat = table[self._pair_counts(lo, hi)]
            out = (
                PathsetObservations(
                    batch.index,
                    self._used,
                    y_single,
                    batch.pair_a,
                    batch.pair_b,
                    y_pair_flat,
                ),
                y_single,
                y_pair_flat,
            )

        if len(self._cache) >= _WINDOW_CACHE_LIMIT:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = out
        return out

    def window_costs(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 2 cost arrays over the window ``[lo, hi)``.

        ``(y_single, y_pair_flat)`` exactly as
        :func:`~repro.measurement.normalize.batch_slice_observations`
        would return for the window's records, gatherable by
        :func:`~repro.core.slices.batch_unsolvability_arrays` —
        the monitor's hot path.
        """
        self._check_window(lo, hi)
        _, y_single, y_pair_flat = self._evaluate_window(lo, hi)
        return y_single, y_pair_flat

    def window_observations(
        self, lo: int, hi: int
    ) -> Tuple[Mapping[PathSet, float], np.ndarray, np.ndarray]:
        """Algorithm 2 over the window ``[lo, hi)``.

        Returns the same ``(observations, y_single, y_pair_flat)``
        triple as :func:`~repro.measurement.normalize.
        batch_slice_observations` on the window's records —
        fp-identically, but from the incremental state instead of a
        full recompute. Windows containing an interval where some
        path sent nothing are computed by the batch routine itself,
        whose per-group branch gives each σ group its own valid
        intervals.
        """
        self._check_window(lo, hi)
        return self._evaluate_window(lo, hi)
