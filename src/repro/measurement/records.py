"""Raw measurement records: per-interval packet and loss counts.

The measurement platform divides time into intervals and records, for
each monitored path ``p`` and interval ``t``, how many packets were
sent (``M[t][p]``) and how many of those were lost (``L[t][p]``) —
exactly the inputs of the paper's Algorithm 2. A
:class:`MeasurementData` holds them as two read-only ``(|paths|, T)``
int64 matrices, rows in sorted path-id order; both emulators build it
from their counter matrices, and the normalization layer consumes it.
:class:`PathRecord` is one path's row. Every counter entering either
passes the one check, :func:`checked_counter_rows`. A
:class:`MeasurementData` has no method that grows or changes it once
built; a stream grows as a sequence of :class:`RecordChunk` objects
instead."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

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


def checked_counter_rows(
    path_ids: Sequence[str], sent: object, lost: object
) -> Tuple[np.ndarray, np.ndarray]:
    """Aligned ``(|paths|, n)`` counter matrices as int64, checked:
    numeric, finite, ``lost ≤ sent`` and non-negative.

    The one counter check: :class:`PathRecord` (one row),
    :meth:`MeasurementData.from_matrices` and the streaming window
    all apply it. Non-int64 input is cast to fresh int64 arrays;
    int64 input passes through uncopied.

    Raises:
        MeasurementError: Naming the first offending path (row
            order) and the first rule it breaks, in the order above.
    """
    sent_arr, lost_arr = np.asarray(sent), np.asarray(lost)
    numeric = all(arr.dtype.kind in "biuf" for arr in (sent_arr, lost_arr))
    finite = numeric and all(
        arr.dtype.kind != "f" or np.isfinite(arr).all()
        for arr in (sent_arr, lost_arr)
    )
    if finite:
        sent64 = sent_arr.astype(np.int64, copy=False)
        lost64 = lost_arr.astype(np.int64, copy=False)
        # 0 ≤ lost ≤ sent also makes sent non-negative.
        if (lost64 >= 0).all() and (lost64 <= sent64).all():
            return sent64, lost64
    # Some row breaks a rule: flag each rule per row, then report the
    # first row's first broken rule.
    rows = sent_arr.shape[0]
    rules = []
    for name, arr in (("sent", sent_arr), ("lost", lost_arr)):
        if arr.dtype.kind not in "biuf":
            rules.append((
                np.ones(rows, dtype=bool),
                f"{name} counters must be numeric, got dtype {arr.dtype}",
            ))
        elif arr.dtype.kind == "f":
            rules.append((
                ~np.isfinite(arr).all(axis=1),
                f"{name} counters must be finite",
            ))
    if numeric:
        # Rows holding NaN or inf were flagged above; their cast
        # values are never reported.
        with np.errstate(invalid="ignore"):
            sent64 = sent_arr.astype(np.int64)
            lost64 = lost_arr.astype(np.int64)
        rules.append((
            (lost64 > sent64).any(axis=1),
            "lost exceeds sent in some interval",
        ))
        rules.append((
            (sent64 < 0).any(axis=1) | (lost64 < 0).any(axis=1),
            "negative counters",
        ))
    row = min(int(np.argmax(bad)) for bad, _ in rules if bad.any())
    message = next(msg for bad, msg in rules if bad[row])
    raise MeasurementError(f"path {path_ids[row]!r}: {message}")


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
        sent, lost = np.asarray(self.sent), np.asarray(self.lost)
        if sent.shape != lost.shape:
            raise MeasurementError(
                f"path {self.path_id!r}: sent and lost shapes differ "
                f"({sent.shape} vs {lost.shape})"
            )
        if sent.ndim != 1:
            raise MeasurementError(
                f"path {self.path_id!r}: records must be 1-D per interval"
            )
        sent, lost = checked_counter_rows(
            (self.path_id,), sent[np.newaxis], lost[np.newaxis]
        )
        self.sent, self.lost = sent[0], lost[0]

    @property
    def num_intervals(self) -> int:
        return int(self.sent.shape[0])

    def loss_fraction(self) -> np.ndarray:
        """Per-interval loss fraction (0 where nothing was sent)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(self.sent > 0, self.lost / self.sent, 0.0)
        return frac


def rounded_counters(
    sent: np.ndarray, lost: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer counters from an engine's per-interval values.

    ``rint``, then int64, then ``lost`` clamped to ``sent``: the one
    rounding both engines' chunks and results use, so the two cannot
    drift apart. Integer input passes through unchanged.
    """
    sent_i = np.rint(sent).astype(np.int64)
    lost_i = np.minimum(np.rint(lost).astype(np.int64), sent_i)
    return sent_i, lost_i


def chunk_from_columns(
    path_ids: Tuple[str, ...],
    sent_cols: "list[np.ndarray]",
    lost_cols: "list[np.ndarray]",
    rows: np.ndarray,
    interval_seconds: float,
    start_interval: int,
) -> RecordChunk:
    """Integer measured-path records from per-interval columns.

    The one place both engine sessions derive their stream chunks.
    ``rows`` selects the measured paths (aligned with ``path_ids``).
    """
    sent, lost = rounded_counters(
        np.stack(sent_cols, axis=1)[rows], np.stack(lost_cols, axis=1)[rows]
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

    Holds one ``(|paths|, T)`` int64 ``sent`` and one ``lost``
    matrix, rows in sorted path-id order, both read-only.
    :meth:`from_matrices` builds it from counter matrices (the
    engines, the streaming window, the synthesizer); this
    constructor stacks :class:`PathRecord`\\ s once.

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
        by_id: Dict[str, PathRecord] = {}
        for rec in records:
            if rec.path_id in by_id:
                raise MeasurementError(
                    f"duplicate record for path {rec.path_id!r}"
                )
            by_id[rec.path_id] = rec
        if not by_id:
            raise MeasurementError("no path records")
        lengths = {rec.num_intervals for rec in by_id.values()}
        if len(lengths) != 1:
            raise MeasurementError(
                f"records have differing interval counts: {sorted(lengths)}"
            )
        ids = tuple(sorted(by_id))
        # One concatenate + reshape per matrix: the same rows as
        # ``np.stack``, without its per-row expand_dims.
        shape = (len(ids), lengths.pop())
        self._set(
            ids,
            np.concatenate([by_id[pid].sent for pid in ids]).reshape(shape),
            np.concatenate([by_id[pid].lost for pid in ids]).reshape(shape),
            interval_seconds,
        )

    @classmethod
    def from_matrices(
        cls,
        path_ids: Sequence[str],
        sent: object,
        lost: object,
        interval_seconds: float = 0.1,
    ) -> "MeasurementData":
        """Records from ``(|paths|, T)`` counter matrices whose rows
        align with ``path_ids``, in any id order.

        The counters are checked by :func:`checked_counter_rows` and
        copied into sorted-id row order.

        Raises:
            MeasurementError: On misaligned matrices, a repeated or
                missing path, or a counter rule broken (the error
                names the path).
        """
        path_ids = tuple(path_ids)
        sent, lost = np.asarray(sent), np.asarray(lost)
        if sent.shape != lost.shape or sent.ndim != 2:
            raise MeasurementError(
                f"counter matrices must be 2-D and aligned, got "
                f"{sent.shape} vs {lost.shape}"
            )
        if sent.shape[0] != len(path_ids):
            raise MeasurementError(
                f"counter matrices have {sent.shape[0]} rows for "
                f"{len(path_ids)} paths"
            )
        seen = set()
        for pid in path_ids:
            if pid in seen:
                raise MeasurementError(f"duplicate record for path {pid!r}")
            seen.add(pid)
        if not path_ids:
            raise MeasurementError("no path records")
        sent, lost = checked_counter_rows(path_ids, sent, lost)
        order = sorted(range(len(path_ids)), key=path_ids.__getitem__)
        data = cls.__new__(cls)
        data._set(
            tuple(path_ids[i] for i in order),
            sent[order],
            lost[order],
            interval_seconds,
        )
        return data

    def _set(
        self,
        path_ids: Tuple[str, ...],
        sent: np.ndarray,
        lost: np.ndarray,
        interval_seconds: float,
    ) -> None:
        """Adopt sorted-row int64 matrices this object alone holds."""
        self.interval_seconds = _checked_interval(interval_seconds)
        self._path_ids = path_ids
        self._row_of = {pid: i for i, pid in enumerate(path_ids)}
        sent.setflags(write=False)
        lost.setflags(write=False)
        self._sent = sent
        self._lost = lost

    @property
    def sent_matrix(self) -> np.ndarray:
        """``(|paths|, T)`` sent counters, rows in sorted-id order."""
        return self._sent

    @property
    def lost_matrix(self) -> np.ndarray:
        """``(|paths|, T)`` lost counters, rows aligned with
        :attr:`sent_matrix`."""
        return self._lost

    def rows_of(self, path_ids: Iterable[str]) -> np.ndarray:
        """Row indices of the given paths into the stacked matrices.

        Raises:
            MeasurementError: For a path without a record.
        """
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
        return self._path_ids

    @property
    def num_intervals(self) -> int:
        return int(self._sent.shape[1])

    @property
    def duration_seconds(self) -> float:
        return self.num_intervals * self.interval_seconds

    def record(self, path_id: str) -> PathRecord:
        """One path's counters, as views of the matrix rows."""
        row = self.rows_of((path_id,))[0]
        return PathRecord(path_id, self._sent[row], self._lost[row])

    def __contains__(self, path_id: str) -> bool:
        return path_id in self._row_of

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
        keep = (self.num_intervals // factor) * factor
        if keep == 0:
            raise MeasurementError(
                f"not enough intervals ({self.num_intervals}) to rebin "
                f"by {factor}"
            )
        shape = (len(self._path_ids), keep // factor, factor)
        return MeasurementData.from_matrices(
            self._path_ids,
            self._sent[:, :keep].reshape(shape).sum(axis=2),
            self._lost[:, :keep].reshape(shape).sum(axis=2),
            self.interval_seconds * factor,
        )


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
