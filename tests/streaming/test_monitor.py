"""NeutralityMonitor on synthetic record streams (no emulation).

Records are synthesized from ground-truth performance models: a
neutral prefix, then a non-neutral suffix starting at a known onset
interval. The monitor must (a) never flag the violated family before
the onset, (b) flag it within a bounded delay after, (c) produce a
final full-stream verdict identical to the one-shot
:func:`infer_from_measurements` on the concatenated records. The
array CUSUM update is checked against the frozen scalar loop in
``tests/oracles/cusum_reference.py``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.cusum_reference import cusum_reference

from repro.core.classes import two_classes
from repro.core.performance import (
    neutral_performance,
    performance_with_violations,
)
from repro.exceptions import ConfigurationError, MeasurementError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.measurement.records import MeasurementData, PathRecord
from repro.measurement.synthetic import synthesize_records
from repro.streaming.monitor import (
    NeutralityMonitor,
    cusum_update,
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


def _onset_data(seed=11, spokes=6, silent=None):
    """Neutral records for [0, ONSET), violated for [ONSET, TOTAL);
    path ``p1`` sends nothing over the ``silent`` span, if given."""
    net, data = _onset_records(seed, spokes)
    if silent is None:
        return net, data
    records = []
    for pid in data.path_ids:
        sent = data.record(pid).sent.copy()
        lost = data.record(pid).lost.copy()
        if pid == "p1":
            sent[slice(*silent)] = 0
            lost[slice(*silent)] = 0
        records.append(PathRecord(pid, sent, lost))
    return net, MeasurementData(records, 0.1)


def _onset_records(seed, spokes):
    """The star network and its records, every path sending."""
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
        records = []
        for pid in data.path_ids:
            records.append(
                PathRecord(
                    pid,
                    np.concatenate(
                        [
                            data.record(pid).sent,
                            tail.record(pid).sent[:ONSET],
                        ]
                    ),
                    np.concatenate(
                        [
                            data.record(pid).lost,
                            tail.record(pid).lost[:ONSET],
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

    def test_mismatched_interval_rejected(self):
        """0.5 s records fed to a 0.1 s monitor are refused before any
        window is emitted, not reported on a 0.1 s timeline."""
        net, data = _onset_data()
        coarse = data.rebinned(5)
        monitor = NeutralityMonitor(net, SETTINGS, stride=10)
        with pytest.raises(MeasurementError, match="interval"):
            monitor.run(ReplayStream(coarse, chunk_intervals=20))
        assert monitor.stats.num_intervals == 0
        assert monitor.windows == []

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


class TestUninformativeWindows:
    SILENT = (150, 260)

    def test_report_scores_feed_the_retrospective_split(self):
        """Windows inside a silent span are uninformative (NaN score
        rows); the two-means split skips them and indexes the original
        series."""
        net, data = _onset_data(silent=self.SILENT)
        monitor = NeutralityMonitor(
            net, SETTINGS, window_intervals=100, stride=25
        )
        report = monitor.run(ReplayStream(data, chunk_intervals=25))
        uninformative = [not w.informative for w in report.windows]
        assert any(uninformative) and not all(uninformative)
        col = report.sigmas.index(("hub",))
        series = report.scores[:, col]
        assert np.isnan(series[uninformative]).all()
        idx = two_means_change_point(series)
        assert idx is not None and not np.isnan(series[idx])
        assert report.window_ends[idx] > ONSET

        flagged, _, change_points = cusum_reference(
            report.scores,
            report.window_ends,
            SETTINGS.decider_definite,
            SETTINGS.decider_definite,
        )
        np.testing.assert_array_equal(report.flagged, flagged)
        assert [
            (
                report.sigmas.index(cp.sigma),
                cp.kind,
                cp.window_index,
                cp.interval,
                cp.estimate_interval,
            )
            for cp in report.change_points
        ] == change_points


class TestTwoMeansChangePointNaN:
    def test_nan_windows_are_skipped(self):
        nan = float("nan")
        scores = [nan, 0.01, 0.01, nan, 0.5, nan, 0.5]
        assert two_means_change_point(scores) == 4

    def test_too_few_finite_windows(self):
        nan = float("nan")
        assert two_means_change_point([nan] * 5) is None
        assert two_means_change_point([nan, 0.5, nan]) is None

    def test_infinite_score_raises(self):
        with pytest.raises(MeasurementError):
            two_means_change_point([0.01, float("inf"), 0.5])


@st.composite
def cusum_timelines(draw):
    """A random score timeline: a low baseline, one raised segment
    per sequence (onset then offset), scores sitting exactly on the
    reference, NaN cells and all-NaN (uninformative) rows."""
    num_windows = draw(st.integers(1, 40))
    num_sigmas = draw(st.integers(0, 6))
    reference = draw(st.floats(0.0, 0.2))
    threshold = draw(st.floats(-0.05, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    shape = (num_windows, num_sigmas)
    scores = rng.exponential(reference / 2 + 1e-3, shape)
    for k in range(num_sigmas):
        a, b = np.sort(rng.integers(0, num_windows + 1, 2))
        scores[a:b, k] += rng.uniform(0.0, 4.0) * (reference + 0.01)
    scores[rng.random(shape) < 0.1] = reference
    scores[rng.random(shape) < 0.03] = np.nan
    scores[rng.random(num_windows) < 0.15] = np.nan
    ends = 25 * np.arange(1, num_windows + 1)
    return scores, ends, reference, threshold


def _array_cusum(scores, ends, reference, threshold):
    """The monitor's per-window CUSUM step over a whole timeline."""
    num_sigmas = scores.shape[1]
    stat = np.zeros(num_sigmas)
    flagged = np.zeros(num_sigmas, dtype=bool)
    last_zero = np.full(num_sigmas, -1, dtype=np.int64)
    flag_rows, stat_rows, change_points = [], [], []
    for idx, row in enumerate(scores):
        if not np.isnan(row).all():
            fired, estimates = cusum_update(
                stat, flagged, last_zero, row, idx, reference, threshold
            )
            for k, estimate in zip(fired.tolist(), estimates.tolist()):
                change_points.append(
                    (
                        k,
                        "onset" if flagged[k] else "offset",
                        idx,
                        int(ends[idx]),
                        int(ends[estimate]),
                    )
                )
        flag_rows.append(flagged.copy())
        stat_rows.append(stat.copy())
    return (
        np.array(flag_rows).reshape(scores.shape),
        np.array(stat_rows).reshape(scores.shape),
        change_points,
    )


@settings(max_examples=80, deadline=None)
@given(cusum_timelines())
def test_array_cusum_matches_scalar_reference(case):
    scores, ends, reference, threshold = case
    flags, stats, change_points = _array_cusum(
        scores, ends, reference, threshold
    )
    ref_flags, ref_stats, ref_change_points = cusum_reference(
        scores, ends, reference, threshold
    )
    np.testing.assert_array_equal(flags, ref_flags)
    np.testing.assert_array_equal(stats, ref_stats)
    assert change_points == ref_change_points


@pytest.mark.parametrize(
    "definite", [SETTINGS.decider_definite, 0.02], ids=["default", "0.02"]
)
def test_monitor_cusum_matches_scalar_reference(definite):
    """The monitor's timeline and change points equal the scalar loop
    run over its own score timeline, with the decider's ``definite``
    bar as both CUSUM reference and threshold."""
    net, data = _onset_data()
    settings = EmulationSettings(decider_definite=definite)
    monitor = NeutralityMonitor(
        net, settings, window_intervals=100, stride=25
    )
    report = monitor.run(ReplayStream(data, chunk_intervals=50))
    bar = definite
    flagged, _, change_points = cusum_reference(
        report.scores, report.window_ends, bar, bar
    )
    np.testing.assert_array_equal(report.flagged, flagged)
    assert change_points
    assert [
        (
            report.sigmas.index(cp.sigma),
            cp.kind,
            cp.window_index,
            cp.interval,
            cp.estimate_interval,
        )
        for cp in report.change_points
    ] == change_points
