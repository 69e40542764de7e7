"""Incremental Algorithm 2 statistics over sliding/tumbling windows.

Algorithm 2's costs over a window are integer counts priced by
:func:`~repro.measurement.normalize.slice_costs`: each batch member's
and pair's congestion-free count over its σ group's valid intervals,
and each group's valid count ``T_g``
(:func:`~repro.measurement.normalize.slice_counts`, the route
:func:`~repro.measurement.normalize.batch_slice_observations` runs
offline). Every count adds over disjoint spans of intervals, so a
monitor that re-evaluates a window every few intervals need not
recount the whole window.

:class:`SlidingWindowStats` maintains those counts incrementally:

* each appended chunk keeps only its boolean congestion-free status
  and ``sent > 0`` matrices, one O(new intervals) pass; a window
  reads the chunk slices that overlap it;
* when one window slides to the next, only the *delta spans* are
  counted (``count(new) = count(old) − count(dropped) +
  count(gained)``), so a stride-S advance costs O(|pairs| · ⌈S/64⌉)
  regardless of the window length, whether or not some path was
  silent — reusing the network's memoized
  :class:`~repro.core.slices.SliceSystemBatch` /
  :class:`~repro.core.network.PathIndex` across every window advance
  (the batch depends on the topology only, so no window ever
  invalidates it);
* results are **fp-identical** to a from-scratch
  :func:`~repro.measurement.normalize.batch_slice_observations` on
  the window's records (the hypothesis suite in
  ``tests/streaming/test_window.py`` asserts exact equality); a σ
  group with no valid interval in the window has NaN costs.

State rules: besides the chunks, the state is two delta anchors and
a few spans. The first anchor is the last window's counts. The second
is a running count of the stream prefix ``[0, hi_max)``: each newly
counted span that starts at ``hi_max`` — a window's gained span, or a
from-scratch window such as the next tumbling one — extends it, so
the monitor's final whole-stream verdict counts only ``[hi_max, N)``
(a stride gap stops the prefix, and that verdict then counts the rest
of the stream once). The kept spans are those gained by sliding
windows that start at or after the last window's ``lo`` — the only
spans a forward slide can drop. Window results are not memoized: a
monitor reads each window once, and a repeated read is a zero-delta
slide.

Only expected-mode normalization streams: sampled mode couples every
draw to the family's minimum rate *and* to the RNG stream position,
so its window values depend on the whole history — there is nothing
incremental to maintain. The monitor therefore requires
``normalization_mode="expected"`` (the default).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.algorithm import DEFAULT_MIN_PATHSETS
from repro.core.network import Network
from repro.core.slices import build_slice_batch
from repro.exceptions import MeasurementError
from repro.measurement.normalize import (
    DEFAULT_LOSS_THRESHOLD,
    interval_words,
    slice_costs,
    slice_counts,
)
from repro.measurement.records import RecordChunk, checked_counter_rows


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
        # The appended chunks, one entry each: chunk k covers
        # [_ends[k-1], _ends[k]) with (|paths|, n) boolean status and
        # sent > 0 matrices.
        self._ends: List[int] = []
        self._status: List[np.ndarray] = []
        self._traffic: List[np.ndarray] = []
        # Sliding-delta anchors: the last window's counts, and the
        # running count of the stream prefix [0, hi_max).
        self._last_pair_window: Optional[
            Tuple[int, int, np.ndarray]
        ] = None
        self._prefix: Optional[Tuple[int, int, np.ndarray]] = None
        # Gained spans a later slide may drop, keyed by (lo, hi).
        self._span_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._member_rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Intervals appended so far."""
        return self._ends[-1] if self._ends else 0

    def _init_paths(self, path_ids: Sequence[str]) -> None:
        self._path_ids = tuple(path_ids)
        if len(set(self._path_ids)) != len(self._path_ids):
            raise MeasurementError("stream repeats a path id")
        row_of = {pid: i for i, pid in enumerate(self._path_ids)}
        index = self.batch.index
        missing = [pid for pid in index.path_ids if pid not in row_of]
        if missing:
            raise MeasurementError(
                f"stream lacks records for indexed paths {missing}"
            )

        # Each batch member's stream row, mapped once.
        perm = np.array(
            [row_of[pid] for pid in index.path_ids], dtype=np.intp
        )
        self._member_rows = perm[self.batch.member_rows]

    def append(self, chunk: RecordChunk) -> None:
        """Append a stream chunk (must be the next contiguous one, at
        the stream's interval length)."""
        if not math.isclose(chunk.interval_seconds, self.interval_seconds):
            raise MeasurementError(
                f"chunk interval {chunk.interval_seconds!r} s differs "
                f"from the stream's {self.interval_seconds!r} s"
            )
        if chunk.start_interval != self.num_intervals:
            raise MeasurementError(
                f"non-contiguous chunk: starts at {chunk.start_interval}, "
                f"stream is at {self.num_intervals}"
            )
        self.append_arrays(chunk.sent, chunk.lost, chunk.path_ids)

    def append_arrays(
        self,
        sent: np.ndarray,
        lost: np.ndarray,
        path_ids: Sequence[str],
    ) -> None:
        """Append raw ``(|paths|, n)`` counter matrices.

        Raises:
            MeasurementError: On misaligned matrices, a path set or
                order that differs from the stream's, or counters
                that :func:`~repro.measurement.records.
                checked_counter_rows` rejects (the error names the
                path).
        """
        sent, lost = np.asarray(sent), np.asarray(lost)
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
        sent, lost = checked_counter_rows(self._path_ids, sent, lost)

        # Expected-mode congestion-free indicator, cell for cell as
        # batch_slice_observations derives it (NaN, so False, where
        # nothing was sent).
        with np.errstate(divide="ignore", invalid="ignore"):
            self._status.append(lost / sent < self.loss_threshold)
        self._traffic.append(sent > 0)
        self._ends.append(self.num_intervals + n)

    # ------------------------------------------------------------------
    # Window evaluation
    # ------------------------------------------------------------------

    def _check_window(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= self.num_intervals:
            raise MeasurementError(
                f"window [{lo}, {hi}) outside the stream "
                f"[0, {self.num_intervals})"
            )

    def _columns(
        self, chunks: List[np.ndarray], lo: int, hi: int
    ) -> np.ndarray:
        """Stream columns ``[lo, hi)`` of one per-chunk state list, as
        a fresh array."""
        k = bisect_right(self._ends, lo)
        start = self._ends[k - 1] if k else 0
        pieces = []
        while start < hi:
            end = self._ends[k]
            pieces.append(
                chunks[k][..., max(lo, start) - start:min(hi, end) - start]
            )
            start, k = end, k + 1
        return np.concatenate(pieces, axis=-1)

    def window_status(self, lo: int, hi: int) -> np.ndarray:
        """The window's boolean congestion-free matrix (stream row
        order), for inspection and the exactness tests."""
        self._check_window(lo, hi)
        return self._columns(self._status, lo, hi)

    def _span_counts(self, lo: int, hi: int) -> np.ndarray:
        """:func:`~repro.measurement.normalize.slice_counts` over
        ``[lo, hi)``: every member's and batch pair's congestion-free
        count and every σ group's valid count, exactly."""
        cached = self._span_cache.get((lo, hi))
        if cached is not None:
            return cached
        return slice_counts(
            self.batch,
            interval_words(
                self._columns(self._status, lo, hi), self._member_rows
            ),
            interval_words(
                self._columns(self._traffic, lo, hi), self._member_rows
            ),
        )

    def _counts(self, lo: int, hi: int) -> np.ndarray:
        """:meth:`_span_counts` over the window, sliding-delta style.

        Two anchors serve a window: the previous window's counts and
        the running count of the stream prefix ``[0, hi_max)``. When
        an anchor ``[lo₀, hi₀)`` overlaps this window (``lo₀ ≤ lo ≤
        hi₀ ≤ hi`` — the monitor's advance pattern, or the final
        whole-stream window over the prefix), only the dropped span
        ``[lo₀, lo)`` and the gained span ``[hi₀, hi)`` are counted —
        O(|pairs| · ⌈stride/64⌉) per advance, independent of the
        window length. Counts are exact integers either way, so the
        delta route is bit-equal to counting from scratch.

        A gained span is kept only when the window slid (a window
        that keeps its ``lo`` never drops what it gains), and only
        until the window's ``lo`` passes its start. The newly counted
        span — the gained one, or a from-scratch window — extends the
        prefix when it starts at ``hi_max``; after a stride gap the
        prefix stays behind, and the whole-stream window counts the
        rest of the stream once.
        """
        counts = None
        new_lo = lo
        anchors = [
            a for a in (self._last_pair_window, self._prefix)
            if a is not None and a[0] <= lo <= a[1] <= hi
        ]
        if anchors:
            lo0, hi0, counts0 = min(
                anchors, key=lambda a: (lo - a[0]) + (hi - a[1])
            )
            if (lo - lo0) + (hi - hi0) < hi - lo:
                counts, new_lo = counts0, hi0
                gained = (
                    self._span_counts(hi0, hi) if hi > hi0 else None
                )
                if lo > lo0:
                    counts = counts - self._span_counts(lo0, lo)
                    if gained is not None:
                        counts += gained
                        self._span_cache[(hi0, hi)] = gained
                elif gained is not None:
                    counts = counts + gained
        if counts is None:
            counts = gained = self._span_counts(lo, hi)
        self._last_pair_window = (lo, hi, counts)
        self._extend_prefix(hi, new_lo, gained)
        for key in [key for key in self._span_cache if key[0] < lo]:
            del self._span_cache[key]
        return counts

    def _extend_prefix(
        self, hi: int, new_lo: int, gained: Optional[np.ndarray]
    ) -> None:
        """Add the newly counted span ``[new_lo, hi)`` to the running
        prefix count when it starts at ``hi_max``.

        The prefix array is private and grows in place: a window only
        reads it through a zero-delta slide, which counts no new span,
        and the next window replaces that anchor before any growth.
        """
        hi_max, counts = self._prefix[1:] if self._prefix else (0, None)
        if gained is None or new_lo != hi_max:
            return
        if counts is None:
            counts = gained.copy()
        else:
            counts += gained
        self._prefix = (0, hi, counts)

    def window_costs(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Algorithm 2 cost arrays over the window ``[lo, hi)``.

        ``(y_member, y_pair_flat)`` exactly as
        :func:`~repro.measurement.normalize.batch_slice_observations`
        would return for the window's records — fp-identically, but
        from the incremental counts — gatherable by
        :func:`~repro.core.slices.batch_unsolvability_arrays`: the
        monitor's hot path. A σ group with no valid interval in the
        window has NaN costs.
        """
        self._check_window(lo, hi)
        if self.batch.num_systems == 0:
            return np.zeros(0, dtype=float), np.zeros(0, dtype=float)
        return slice_costs(self.batch, self._counts(lo, hi))
