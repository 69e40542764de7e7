"""NeutralityMonitor on synthetic record streams (no emulation).

Records are synthesized from ground-truth performance models: a
neutral prefix, then a non-neutral suffix starting at a known onset
interval. The monitor must (a) never flag the violated family before
the onset, (b) flag it within a bounded delay after, (c) produce a
final full-stream verdict identical to the one-shot
:func:`infer_from_measurements` on the concatenated records.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.classes import two_classes
from repro.core.performance import (
    neutral_performance,
    performance_with_violations,
)
from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.measurement.records import MeasurementData, PathRecord
from repro.measurement.synthetic import synthesize_records
from repro.streaming.monitor import (
    NeutralityMonitor,
    two_means_change_point,
)
from repro.streaming.stream import ReplayStream
from repro.topology.generators import (
    random_mesh_network,
    random_two_class_performance,
    star_network,
)

ONSET = 300
TOTAL = 600
SETTINGS = EmulationSettings()


def _onset_data(seed=11, spokes=6):
    """Neutral records for [0, ONSET), violated for [ONSET, TOTAL)."""
    net = star_network(spokes)
    classes = two_classes(
        net, {f"p{i}" for i in range(spokes // 2 + 1, spokes + 1)}
    )
    base = {lid: 0.02 for lid in net.link_ids}
    clean = neutral_performance(net, classes, base)
    violated = performance_with_violations(
        net, classes, base, {"hub": {"c1": 0.02, "c2": 0.45}}
    )
    rng = np.random.default_rng(seed)
    pre = synthesize_records(clean, rng, num_intervals=ONSET)
    post = synthesize_records(violated, rng, num_intervals=TOTAL - ONSET)
    records = []
    for pid in pre.path_ids:
        records.append(
            PathRecord(
                pid,
                np.concatenate(
                    [pre.record(pid).sent, post.record(pid).sent]
                ),
                np.concatenate(
                    [pre.record(pid).lost, post.record(pid).lost]
                ),
            )
        )
    return net, MeasurementData(records, 0.1)


class TestOnsetDetection:
    @pytest.mark.parametrize("chunk", [25, 50, 77])
    def test_flags_after_onset_never_before(self, chunk):
        net, data = _onset_data()
        monitor = NeutralityMonitor(
            net, SETTINGS, window_intervals=100, stride=25
        )
        report = monitor.run(ReplayStream(data, chunk_intervals=chunk))
        hub = ("hub",)
        assert hub in report.sigmas
        col = report.sigmas.index(hub)
        flagged_ends = report.window_ends[report.flagged[:, col]]
        assert flagged_ends.size, "onset never detected"
        # Never before the true onset...
        assert int(flagged_ends.min()) > ONSET
        # ...and within a bounded delay (two windows' worth).
        delay = report.detection_delay(hub, ONSET)
        assert delay is not None and 0 < delay <= 200
        onset_cp = report.onset(hub)
        assert onset_cp.kind == "onset"
        assert onset_cp.estimate_interval >= ONSET - 100

    def test_segmentation_invariance(self):
        """The verdict timeline does not depend on how the stream is
        chunked (windows close at the same interval boundaries)."""
        net, data = _onset_data()
        timelines = []
        for chunk in (20, 60, 145):
            monitor = NeutralityMonitor(
                net, SETTINGS, window_intervals=100, stride=20
            )
            report = monitor.run(
                ReplayStream(data, chunk_intervals=chunk)
            )
            timelines.append(report)
        first = timelines[0]
        for other in timelines[1:]:
            np.testing.assert_array_equal(
                first.window_ends, other.window_ends
            )
            np.testing.assert_array_equal(first.scores, other.scores)
            np.testing.assert_array_equal(
                first.flagged, other.flagged
            )

    def test_final_matches_one_shot_inference(self):
        net, data = _onset_data()
        monitor = NeutralityMonitor(
            net, SETTINGS, window_intervals=100, stride=50
        )
        report = monitor.run(ReplayStream(data, chunk_intervals=40))
        _, one_shot = infer_from_measurements(net, data, SETTINGS)
        assert report.final.identified == one_shot.identified
        assert report.final.neutral == one_shot.neutral
        assert report.final.skipped == one_shot.skipped
        for sigma, score in one_shot.scores.items():
            assert report.final.scores[sigma] == score

    def test_offset_detected_after_policy_removed(self):
        """neutral → violated → neutral again: an offset follows the
        onset once windows clear the violated span."""
        net, data = _onset_data()
        tail_net, tail = _onset_data(seed=12)
        # Append a fresh neutral span after the violated one.
        clean_span = tail.subset(data.path_ids)
        records = []
        for pid in data.path_ids:
            records.append(
                PathRecord(
                    pid,
                    np.concatenate(
                        [
                            data.record(pid).sent,
                            clean_span.record(pid).sent[:ONSET],
                        ]
                    ),
                    np.concatenate(
                        [
                            data.record(pid).lost,
                            clean_span.record(pid).lost[:ONSET],
                        ]
                    ),
                )
            )
        full = MeasurementData(records, 0.1)
        monitor = NeutralityMonitor(
            net, SETTINGS, window_intervals=100, stride=25
        )
        report = monitor.run(ReplayStream(full, chunk_intervals=50))
        kinds = [
            cp.kind
            for cp in report.change_points
            if cp.sigma == ("hub",)
        ]
        assert kinds[:2] == ["onset", "offset"]
        offset_cp = [
            cp
            for cp in report.change_points
            if cp.sigma == ("hub",) and cp.kind == "offset"
        ][0]
        assert offset_cp.interval > TOTAL


class TestMonitorConfig:
    def test_sampled_mode_rejected(self):
        net = star_network(4)
        bad = EmulationSettings(normalization_mode="sampled")
        with pytest.raises(ConfigurationError):
            NeutralityMonitor(net, bad)

    def test_bad_window_rejected(self):
        net = star_network(4)
        with pytest.raises(ConfigurationError):
            NeutralityMonitor(net, SETTINGS, window_intervals=0)
        with pytest.raises(ConfigurationError):
            NeutralityMonitor(net, SETTINGS, stride=0)

    def test_growing_window_mode(self):
        net, data = _onset_data()
        monitor = NeutralityMonitor(net, SETTINGS, stride=100)
        report = monitor.run(ReplayStream(data, chunk_intervals=100))
        assert [w.start_interval for w in report.windows] == [0] * len(
            report.windows
        )
        assert report.windows[-1].end_interval == TOTAL


class TestMemoryBound:
    @pytest.mark.parametrize("window", [100, None], ids=["sliding", "growing"])
    def test_state_stays_near_the_raw_chunks(self, window):
        """Streaming 2000 intervals of a 210-path mesh (7763 sharing
        pairs) allocates at most twice the raw int64 counter bytes:
        the monitor keeps the chunks, their status and a few stride
        spans of counts, not per-window results or growth copies."""
        net = random_mesh_network(
            np.random.default_rng(42), num_stubs=21, extra_edges=6
        )
        perf, _ = random_two_class_performance(
            np.random.default_rng(43), net, num_violations=3
        )
        data = synthesize_records(
            perf, np.random.default_rng(142), num_intervals=2000
        )
        raw_bytes = data.sent_matrix.nbytes + data.lost_matrix.nbytes
        monitor = NeutralityMonitor(
            net, SETTINGS, window_intervals=window, stride=25
        )
        tracemalloc.start()
        try:
            report = monitor.run(ReplayStream(data, chunk_intervals=25))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.windows) >= 77
        assert peak <= 2 * raw_bytes, (peak, raw_bytes)


class TestTwoMeansChangePoint:
    def test_localizes_level_shift(self):
        scores = [0.01] * 10 + [0.5] * 10
        assert two_means_change_point(scores) == 10

    def test_no_shift_returns_none(self):
        assert two_means_change_point([0.01] * 20) is None
        assert two_means_change_point([0.3]) is None
