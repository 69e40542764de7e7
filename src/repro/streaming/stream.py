"""Record streams: chunked sources of per-interval (sent, lost) counts.

A *record stream* is any iterable of
:class:`~repro.measurement.records.RecordChunk` values covering
contiguous intervals ``0, 1, 2, …`` for a fixed path set, plus an
``interval_seconds`` attribute. Two adapters are provided:

* :class:`ReplayStream` — slices a stored
  :class:`~repro.measurement.records.MeasurementData` into chunks
  (replaying a stored run, feeding goldens, tests).
* :class:`EmulationStream` — drives a registered emulation substrate
  in *segment mode*: emulate ``chunk_intervals`` measurement
  intervals, yield their records, continue from carried engine
  state. Scheduled link-spec switches realize mid-run
  differentiation onset/offset scenarios.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError, MeasurementError
from repro.experiments.config import EmulationSettings
from repro.fluid.params import PathWorkload
from repro.measurement.records import MeasurementData, RecordChunk
from repro.substrate.base import EngineSession, SubstrateResult
from repro.substrate.registry import get_substrate
from repro.substrate.spec import LinkSpec


def stream_intervals(
    settings: EmulationSettings, switch_intervals: Iterable[int] = ()
) -> int:
    """The intervals an emulated stream of ``settings`` covers,
    checking that every scheduled switch falls inside it.

    Raises:
        ConfigurationError: For a stream shorter than one interval
            or a switch outside ``[0, intervals)``.
    """
    total = int(round(settings.duration_seconds / settings.interval_seconds))
    if total < 1:
        raise ConfigurationError("stream shorter than one interval")
    for at in switch_intervals:
        if not 0 <= at < total:
            raise ConfigurationError(
                f"switch interval {at} outside the stream [0, {total})"
            )
    return total


class ReplayStream:
    """Replay a stored :class:`MeasurementData` in fixed-size chunks.

    Args:
        data: The records to replay.
        chunk_intervals: Intervals per chunk (the final chunk may be
            shorter).
    """

    def __init__(self, data: MeasurementData, chunk_intervals: int = 50):
        if chunk_intervals < 1:
            raise MeasurementError(
                f"chunk_intervals must be >= 1, got {chunk_intervals}"
            )
        self._data = data
        self._chunk = int(chunk_intervals)
        self.interval_seconds = data.interval_seconds

    @property
    def num_intervals(self) -> int:
        return self._data.num_intervals

    def __iter__(self) -> Iterator[RecordChunk]:
        data = self._data
        path_ids = data.path_ids
        sent = data.sent_matrix
        lost = data.lost_matrix
        total = data.num_intervals
        for lo in range(0, total, self._chunk):
            hi = min(lo + self._chunk, total)
            yield RecordChunk(
                path_ids=path_ids,
                sent=sent[:, lo:hi],
                lost=lost[:, lo:hi],
                interval_seconds=self.interval_seconds,
                start_interval=lo,
            )


class EmulationStream:
    """A live record stream backed by a resumable substrate session.

    Args:
        net: The network graph (including background paths).
        classes: Class assignment (differentiation targets).
        link_specs: Initial per-link
            :class:`~repro.substrate.spec.LinkSpec` values.
        workloads: Per-path traffic.
        settings: Emulation settings; the stream covers
            ``duration_seconds / interval_seconds`` intervals.
        substrate: Registered substrate name.
        chunk_intervals: Intervals emulated (and yielded) per chunk.
        switches: ``{interval: link_specs}`` — at each boundary, the
            emulation continues from carried state under the new
            specs (the mid-run policy onset/offset hook). Interval 0
            replaces the initial specs.
        keep_ground_truth: ``False`` discards each interval's
            ground-truth columns once its chunk is emitted (bounded
            memory for long monitoring runs); :meth:`result` is then
            unavailable.
    """

    def __init__(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: EmulationSettings = EmulationSettings(),
        substrate: str = "fluid",
        chunk_intervals: int = 50,
        switches: Optional[Mapping[int, Mapping[str, LinkSpec]]] = None,
        keep_ground_truth: bool = True,
    ) -> None:
        if chunk_intervals < 1:
            raise ConfigurationError(
                f"chunk_intervals must be >= 1, got {chunk_intervals}"
            )
        self._switches: Dict[int, Mapping[str, LinkSpec]] = dict(
            switches or {}
        )
        self.total_intervals = stream_intervals(settings, self._switches)
        self._chunk = int(chunk_intervals)
        self.interval_seconds = settings.interval_seconds
        backend = get_substrate(substrate)
        self.session: EngineSession = backend.start(
            net,
            classes,
            link_specs,
            workloads,
            settings,
            keep_ground_truth=keep_ground_truth,
        )
        self._consumed = False

    def __iter__(self) -> Iterator[RecordChunk]:
        if self._consumed:
            raise ConfigurationError(
                "an EmulationStream can only be iterated once "
                "(the emulation state advances as it is consumed)"
            )
        self._consumed = True
        switch_points = sorted(self._switches)
        done = 0
        while done < self.total_intervals:
            if done in self._switches:
                self.session.set_link_specs(self._switches[done])
            upcoming = [at for at in switch_points if at > done]
            next_stop = min(
                upcoming[0] if upcoming else self.total_intervals,
                self.total_intervals,
            )
            n = min(self._chunk, next_stop - done)
            yield self.session.advance(n)
            done += n

    def result(self) -> SubstrateResult:
        """The cumulative substrate result (ground truth, traces)."""
        return self.session.result()
