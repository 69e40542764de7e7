"""Raw measurement records: per-interval packet and loss counts.

The measurement platform divides time into intervals and records, for
each monitored path ``p`` and interval ``t``, how many packets were
sent (``M[t][p]``) and how many of those were lost (``L[t][p]``) —
exactly the inputs of the paper's Algorithm 2. Both emulators emit
:class:`MeasurementData`; the normalization layer consumes it. A
:class:`MeasurementData` has no method that grows or changes it once
built (its stacked matrices are cached read-only); a stream grows as
a sequence of :class:`RecordChunk` objects instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import MeasurementError


def _checked_interval(interval_seconds: object) -> float:
    """``interval_seconds`` as a float, if it is a finite positive real.

    Raises:
        MeasurementError: Otherwise (non-numeric, NaN, inf or ≤ 0).
    """
    if not isinstance(interval_seconds, numbers.Real) or not (
        math.isfinite(interval_seconds) and interval_seconds > 0
    ):
        raise MeasurementError(
            "interval_seconds must be finite and positive, got "
            f"{interval_seconds!r}"
        )
    return float(interval_seconds)


def _checked_counters(path_id: str, name: str, values: object) -> np.ndarray:
    """One path's counters as int64, rejecting non-numeric or non-finite
    values before the cast (which would otherwise raise ``ValueError``
    or turn NaN into ``INT64_MIN``)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise MeasurementError(
            f"path {path_id!r}: {name} counters must be numeric, "
            f"got dtype {arr.dtype}"
        )
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise MeasurementError(
            f"path {path_id!r}: {name} counters must be finite"
        )
    return arr.astype(np.int64, copy=False)


def checked_counter_rows(
    path_ids: Tuple[str, ...], sent: object, lost: object
) -> Tuple[np.ndarray, np.ndarray]:
    """Aligned ``(|paths|, n)`` counter matrices as fresh int64 copies,
    checked by :class:`PathRecord`'s rules: numeric, finite,
    non-negative and ``lost ≤ sent``.

    One array pass when every row holds; otherwise the rows are
    checked as :class:`PathRecord`\\ s in order, so the error names
    the first offending path.

    Raises:
        MeasurementError: When some row breaks a rule.
    """
    sent_arr, lost_arr = np.asarray(sent), np.asarray(lost)
    if all(
        arr.dtype.kind in "biu"
        or (arr.dtype.kind == "f" and np.isfinite(arr).all())
        for arr in (sent_arr, lost_arr)
    ):
        sent64 = sent_arr.astype(np.int64)
        lost64 = lost_arr.astype(np.int64)
        # 0 ≤ lost ≤ sent also makes sent non-negative.
        if (lost64 >= 0).all() and (lost64 <= sent64).all():
            return sent64, lost64
    for pid, sent_row, lost_row in zip(path_ids, sent_arr, lost_arr):
        PathRecord(pid, sent_row, lost_row)
    raise AssertionError("unreachable: some row breaks a counter rule")


@dataclass(frozen=True)
class RecordChunk:
    """A contiguous run of intervals for a fixed set of paths.

    The unit of the streaming layer: substrate sessions emit one
    chunk per :meth:`advance` call and replay adapters slice stored
    :class:`MeasurementData` into chunks. Rows are aligned with
    :attr:`path_ids` (sorted ids, like the stacked matrices).

    Attributes:
        path_ids: Monitored paths, in row order.
        sent: ``(|paths|, n)`` packets sent per interval.
        lost: ``(|paths|, n)`` packets lost, aligned with ``sent``.
        interval_seconds: Length of each interval.
        start_interval: Absolute index of the chunk's first interval
            within its stream.
    """

    path_ids: Tuple[str, ...]
    sent: np.ndarray
    lost: np.ndarray
    interval_seconds: float
    start_interval: int = 0

    def __post_init__(self) -> None:
        _checked_interval(self.interval_seconds)
        if self.sent.shape != self.lost.shape or self.sent.ndim != 2:
            raise MeasurementError(
                f"chunk matrices must be 2-D and aligned, got "
                f"{self.sent.shape} vs {self.lost.shape}"
            )
        if self.sent.shape[0] != len(self.path_ids):
            raise MeasurementError(
                f"chunk has {self.sent.shape[0]} rows for "
                f"{len(self.path_ids)} paths"
            )

    @property
    def num_intervals(self) -> int:
        return int(self.sent.shape[1])

    @property
    def end_interval(self) -> int:
        """One past the chunk's last absolute interval index."""
        return self.start_interval + self.num_intervals


@dataclass
class PathRecord:
    """Per-interval counters for one path.

    Attributes:
        path_id: The path.
        sent: ``sent[t]`` — packets sent during interval ``t``.
        lost: ``lost[t]`` — packets of interval ``t`` that were lost.
    """

    path_id: str
    sent: np.ndarray
    lost: np.ndarray

    def __post_init__(self) -> None:
        self.sent = _checked_counters(self.path_id, "sent", self.sent)
        self.lost = _checked_counters(self.path_id, "lost", self.lost)
        if self.sent.shape != self.lost.shape:
            raise MeasurementError(
                f"path {self.path_id!r}: sent and lost shapes differ "
                f"({self.sent.shape} vs {self.lost.shape})"
            )
        if self.sent.ndim != 1:
            raise MeasurementError(
                f"path {self.path_id!r}: records must be 1-D per interval"
            )
        if (self.lost > self.sent).any():
            raise MeasurementError(
                f"path {self.path_id!r}: lost exceeds sent in some interval"
            )
        if (self.sent < 0).any() or (self.lost < 0).any():
            raise MeasurementError(
                f"path {self.path_id!r}: negative counters"
            )

    @property
    def num_intervals(self) -> int:
        return int(self.sent.shape[0])

    def loss_fraction(self) -> np.ndarray:
        """Per-interval loss fraction (0 where nothing was sent)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(self.sent > 0, self.lost / self.sent, 0.0)
        return frac


def chunk_from_columns(
    path_ids: Tuple[str, ...],
    sent_cols: "list[np.ndarray]",
    lost_cols: "list[np.ndarray]",
    rows: np.ndarray,
    interval_seconds: float,
    start_interval: int,
) -> RecordChunk:
    """Integer measured-path records from per-interval columns.

    The one place both engine sessions derive their stream chunks, so
    rounding (``rint``) and the ``lost ≤ sent`` clamp cannot drift
    between substrates. ``rows`` selects the measured paths (aligned
    with ``path_ids``); integer columns pass through unchanged.
    """
    sent = np.rint(np.stack(sent_cols, axis=1)[rows]).astype(np.int64)
    lost = np.minimum(
        np.rint(np.stack(lost_cols, axis=1)[rows]).astype(np.int64),
        sent,
    )
    return RecordChunk(
        path_ids=path_ids,
        sent=sent,
        lost=lost,
        interval_seconds=interval_seconds,
        start_interval=start_interval,
    )


class MeasurementData:
    """All path records of one experiment, aligned on intervals.

    Args:
        records: One :class:`PathRecord` per monitored path; all must
            have the same number of intervals.
        interval_seconds: Length of each measurement interval.
    """

    def __init__(
        self,
        records: Iterable[PathRecord],
        interval_seconds: float = 0.1,
    ) -> None:
        self._records: Dict[str, PathRecord] = {}
        lengths = set()
        for rec in records:
            if rec.path_id in self._records:
                raise MeasurementError(
                    f"duplicate record for path {rec.path_id!r}"
                )
            self._records[rec.path_id] = rec
            lengths.add(rec.num_intervals)
        if not self._records:
            raise MeasurementError("no path records")
        if len(lengths) != 1:
            raise MeasurementError(
                f"records have differing interval counts: {sorted(lengths)}"
            )
        self._num_intervals = lengths.pop()
        self.interval_seconds = _checked_interval(interval_seconds)
        # Lazy stacked matrices (sorted-path-id row order): built once
        # and reused by every normalization family/slice instead of
        # re-stacking per congestion_free_matrix call.
        self._row_of: Optional[Dict[str, int]] = None
        self._sent_matrix: Optional[np.ndarray] = None
        self._lost_matrix: Optional[np.ndarray] = None
        self._all_sent_positive: Optional[bool] = None

    def _build_matrices(self) -> None:
        ids = self.path_ids
        self._row_of = {pid: i for i, pid in enumerate(ids)}
        # One concatenate + reshape per matrix: the same rows as
        # ``np.stack``, without its per-row expand_dims.
        shape = (len(ids), self._num_intervals)
        self._sent_matrix = np.concatenate(
            [self._records[pid].sent for pid in ids]
        ).reshape(shape)
        self._lost_matrix = np.concatenate(
            [self._records[pid].lost for pid in ids]
        ).reshape(shape)
        self._sent_matrix.setflags(write=False)
        self._lost_matrix.setflags(write=False)

    @property
    def sent_matrix(self) -> np.ndarray:
        """``(|paths|, T)`` sent counters, rows in sorted-id order."""
        if self._sent_matrix is None:
            self._build_matrices()
        return self._sent_matrix

    @property
    def lost_matrix(self) -> np.ndarray:
        """``(|paths|, T)`` lost counters, rows aligned with
        :attr:`sent_matrix`."""
        if self._lost_matrix is None:
            self._build_matrices()
        return self._lost_matrix

    @property
    def all_sent_positive(self) -> bool:
        """Whether every path sent traffic in every interval.

        The fast-path guard of :func:`repro.measurement.normalize.
        batch_slice_observations` — cached alongside the stacked
        matrices instead of re-scanning ``(|P|, T)`` on every inference
        call.
        """
        if self._all_sent_positive is None:
            self._all_sent_positive = bool((self.sent_matrix > 0).all())
        return self._all_sent_positive

    def rows_of(self, path_ids: Iterable[str]) -> np.ndarray:
        """Row indices of the given paths into the stacked matrices.

        Raises:
            MeasurementError: For a path without a record.
        """
        if self._row_of is None:
            self._build_matrices()
        try:
            return np.array(
                [self._row_of[pid] for pid in path_ids], dtype=np.intp
            )
        except KeyError as exc:
            raise MeasurementError(
                f"no record for path {exc.args[0]!r}"
            ) from None

    @property
    def path_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._records))

    @property
    def num_intervals(self) -> int:
        return self._num_intervals

    @property
    def duration_seconds(self) -> float:
        return self._num_intervals * self.interval_seconds

    def record(self, path_id: str) -> PathRecord:
        try:
            return self._records[path_id]
        except KeyError:
            raise MeasurementError(
                f"no record for path {path_id!r}"
            ) from None

    def __contains__(self, path_id: str) -> bool:
        return path_id in self._records

    def rebinned(self, factor: int) -> "MeasurementData":
        """Merge every ``factor`` consecutive intervals into one.

        Supports the paper's measurement-interval ablation (100 → 200
        → 500 ms) without re-running the emulation. Trailing intervals
        that do not fill a whole bin are dropped.
        """
        if factor < 1:
            raise MeasurementError(f"factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        keep = (self._num_intervals // factor) * factor
        if keep == 0:
            raise MeasurementError(
                f"not enough intervals ({self._num_intervals}) to rebin "
                f"by {factor}"
            )
        records = []
        for pid, rec in self._records.items():
            sent = rec.sent[:keep].reshape(-1, factor).sum(axis=1)
            lost = rec.lost[:keep].reshape(-1, factor).sum(axis=1)
            records.append(PathRecord(pid, sent, lost))
        return MeasurementData(records, self.interval_seconds * factor)


def link_congestion_probability(
    arrivals: np.ndarray,
    drops: np.ndarray,
    loss_threshold: float = 0.01,
) -> float:
    """Ground-truth congestion probability from per-interval counts.

    The fraction of intervals (with traffic) in which at least
    ``loss_threshold`` of the arriving packets were dropped — the
    quantity plotted in Figure 10(a). Both substrates' result objects
    delegate here, so the definition cannot drift between them.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    drops = np.asarray(drops, dtype=float)
    has_traffic = arrivals > 0
    if not has_traffic.any():
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(
            has_traffic, drops / np.maximum(arrivals, 1e-12), 0.0
        )
    congested = (frac >= loss_threshold) & has_traffic
    return float(congested.sum() / has_traffic.sum())


def from_arrays(
    sent: Mapping[str, np.ndarray],
    lost: Mapping[str, np.ndarray],
    interval_seconds: float = 0.1,
) -> MeasurementData:
    """Build :class:`MeasurementData` from ``{path: array}`` mappings."""
    if set(sent) != set(lost):
        raise MeasurementError(
            f"sent and lost cover different paths: "
            f"{sorted(set(sent) ^ set(lost))}"
        )
    return MeasurementData(
        [PathRecord(pid, sent[pid], lost[pid]) for pid in sorted(sent)],
        interval_seconds,
    )
