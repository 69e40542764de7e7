"""Unit tests for measurement records."""

import numpy as np
import pytest

from repro.exceptions import MeasurementError
from repro.measurement.records import (
    MeasurementData,
    PathRecord,
    RecordChunk,
    chunk_from_columns,
    from_arrays,
)


def _record(pid="p1", sent=(10, 20, 30), lost=(0, 2, 3)):
    return PathRecord(pid, np.array(sent), np.array(lost))


class TestPathRecord:
    def test_basic(self):
        rec = _record()
        assert rec.num_intervals == 3
        np.testing.assert_allclose(
            rec.loss_fraction(), [0.0, 0.1, 0.1]
        )

    def test_lost_exceeding_sent_rejected(self):
        with pytest.raises(MeasurementError):
            _record(sent=(1, 1), lost=(2, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(MeasurementError):
            _record(sent=(-1, 1), lost=(0, 0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MeasurementError):
            PathRecord("p1", np.array([1, 2]), np.array([0]))

    def test_zero_sent_loss_fraction(self):
        rec = _record(sent=(0, 10), lost=(0, 1))
        np.testing.assert_allclose(rec.loss_fraction(), [0.0, 0.1])


class TestMeasurementData:
    def test_alignment_enforced(self):
        with pytest.raises(MeasurementError):
            MeasurementData(
                [_record("p1"), _record("p2", sent=(1,), lost=(0,))]
            )

    def test_duplicate_path_rejected(self):
        with pytest.raises(MeasurementError):
            MeasurementData([_record("p1"), _record("p1")])

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            MeasurementData([])

    def test_duration(self):
        data = MeasurementData([_record()], interval_seconds=0.1)
        assert data.duration_seconds == pytest.approx(0.3)

    def test_subset(self):
        data = MeasurementData([_record("p1"), _record("p2")])
        sub = data.subset(["p2"])
        assert sub.path_ids == ("p2",)

    def test_unknown_record(self):
        data = MeasurementData([_record("p1")])
        with pytest.raises(MeasurementError):
            data.record("p9")

    def test_rebinned(self):
        data = MeasurementData(
            [_record(sent=(10, 20, 30, 40), lost=(1, 2, 3, 4))],
            interval_seconds=0.1,
        )
        binned = data.rebinned(2)
        assert binned.num_intervals == 2
        rec = binned.record("p1")
        np.testing.assert_array_equal(rec.sent, [30, 70])
        np.testing.assert_array_equal(rec.lost, [3, 7])
        assert binned.interval_seconds == pytest.approx(0.2)

    def test_rebinned_drops_tail(self):
        data = MeasurementData([_record()])  # 3 intervals
        assert data.rebinned(2).num_intervals == 1

    def test_rebinned_factor_one_identity(self):
        data = MeasurementData([_record()])
        assert data.rebinned(1) is data

    def test_rebinned_invalid(self):
        data = MeasurementData([_record()])
        with pytest.raises(MeasurementError):
            data.rebinned(0)
        with pytest.raises(MeasurementError):
            data.rebinned(10)

    def test_from_arrays(self):
        data = from_arrays(
            {"p1": np.array([5, 5])}, {"p1": np.array([1, 0])}
        )
        assert data.record("p1").lost.sum() == 1

    def test_from_arrays_mismatched_paths(self):
        with pytest.raises(MeasurementError):
            from_arrays({"p1": np.array([1])}, {"p2": np.array([0])})


class TestAppendIntervals:
    def _data(self):
        return MeasurementData(
            [_record("p1"), _record("p2", sent=(5, 5, 5), lost=(1, 0, 0))],
            interval_seconds=0.1,
        )

    def test_append_extends_records(self):
        data = self._data()
        data.append_intervals(
            {"p1": np.array([7, 8]), "p2": np.array([9, 10])},
            {"p1": np.array([1, 0]), "p2": np.array([0, 2])},
        )
        assert data.num_intervals == 5
        np.testing.assert_array_equal(
            data.record("p1").sent, [10, 20, 30, 7, 8]
        )
        np.testing.assert_array_equal(
            data.record("p2").lost, [1, 0, 0, 0, 2]
        )

    def test_stale_cache_invalidated(self):
        """Regression: the stacked matrices must reflect appended
        intervals even when they were built (and cached) before the
        append."""
        data = self._data()
        before = data.sent_matrix  # builds and caches the stack
        assert before.shape == (2, 3)
        rows_before = data.rows_of(["p2"])
        data.append_intervals(
            {"p1": np.array([7]), "p2": np.array([9])},
            {"p1": np.array([0]), "p2": np.array([0])},
        )
        after = data.sent_matrix
        assert after.shape == (2, 4)
        np.testing.assert_array_equal(after[:, 3], [7, 9])
        np.testing.assert_array_equal(
            data.lost_matrix[:, 3], [0, 0]
        )
        np.testing.assert_array_equal(data.rows_of(["p2"]), rows_before)
        # The pre-append view is untouched (no in-place mutation).
        assert before.shape == (2, 3)

    def test_append_chunk(self):
        from repro.measurement.records import RecordChunk

        data = self._data()
        data.append_chunk(
            RecordChunk(
                path_ids=("p1", "p2"),
                sent=np.array([[4], [6]]),
                lost=np.array([[0], [1]]),
                interval_seconds=0.1,
                start_interval=3,
            )
        )
        assert data.num_intervals == 4

    def test_path_set_mismatch_rejected(self):
        data = self._data()
        with pytest.raises(MeasurementError):
            data.append_intervals(
                {"p1": np.array([1])}, {"p1": np.array([0])}
            )
        with pytest.raises(MeasurementError):
            data.append_intervals(
                {"p1": np.array([1]), "p3": np.array([1])},
                {"p1": np.array([0]), "p3": np.array([0])},
            )

    def test_ragged_append_rejected(self):
        data = self._data()
        with pytest.raises(MeasurementError):
            data.append_intervals(
                {"p1": np.array([1, 2]), "p2": np.array([1])},
                {"p1": np.array([0, 0]), "p2": np.array([0])},
            )

    def test_invalid_counters_rejected_atomically(self):
        data = self._data()
        with pytest.raises(MeasurementError):
            data.append_intervals(
                {"p1": np.array([1]), "p2": np.array([1])},
                {"p1": np.array([2]), "p2": np.array([0])},  # lost > sent
            )
        # Nothing was committed.
        assert data.num_intervals == 3


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        data = MeasurementData(
            [_record("p1"), _record("p2", sent=(5, 6, 7), lost=(0, 1, 2))],
            interval_seconds=0.25,
        )
        path = str(tmp_path / "checkpoint.npz")
        data.save(path)
        loaded = MeasurementData.load(path)
        assert loaded.path_ids == data.path_ids
        assert loaded.interval_seconds == data.interval_seconds
        assert loaded.num_intervals == data.num_intervals
        np.testing.assert_array_equal(
            loaded.sent_matrix, data.sent_matrix
        )
        np.testing.assert_array_equal(
            loaded.lost_matrix, data.lost_matrix
        )

    def test_round_trip_without_suffix(self, tmp_path):
        """Regression: numpy appends '.npz' on write; the same path
        string (suffix-less) must still reload."""
        data = MeasurementData([_record("p1")], interval_seconds=0.1)
        path = str(tmp_path / "ckpt")  # no .npz
        data.save(path)
        loaded = MeasurementData.load(path)
        np.testing.assert_array_equal(
            loaded.sent_matrix, data.sent_matrix
        )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(MeasurementError):
            MeasurementData.load(str(tmp_path / "nope.npz"))

    def test_load_garbage(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(MeasurementError):
            MeasurementData.load(str(path))


class TestAllSentPositive:
    def _data(self, p1_sent=(10, 20, 30)):
        return MeasurementData(
            [
                _record("p1", sent=p1_sent, lost=(0, 0, 0)),
                _record("p2", sent=(5, 5, 5), lost=(1, 0, 0)),
            ],
            interval_seconds=0.1,
        )

    def test_true_and_cached(self):
        data = self._data()
        assert data.all_sent_positive is True
        # Cached: the second read must not rescan (poke the slot).
        assert data._all_sent_positive is True

    def test_false_on_silent_interval(self):
        data = self._data(p1_sent=(10, 0, 30))
        assert data.all_sent_positive is False

    def test_staleness_after_append_intervals(self):
        """Regression: the cached flag must not survive an append
        that introduces a zero-sent interval."""
        data = self._data()
        assert data.all_sent_positive is True  # builds the cache
        data.append_intervals(
            {"p1": np.array([0]), "p2": np.array([4])},
            {"p1": np.array([0]), "p2": np.array([0])},
        )
        assert data.all_sent_positive is False

    def test_staleness_after_append_chunk(self):
        from repro.measurement.records import RecordChunk

        data = self._data()
        assert data.all_sent_positive is True
        data.append_chunk(
            RecordChunk(
                path_ids=("p1", "p2"),
                sent=np.array([[4], [0]]),
                lost=np.array([[0], [0]]),
                interval_seconds=0.1,
                start_interval=3,
            )
        )
        assert data.all_sent_positive is False


#: Stacked ``(paths, intervals)`` counters that break a record check.
_BAD_STACKED_COUNTERS = [
    ([[3, 2], [4, 4]], [[0, -1], [0, 0]]),  # negative lost
    ([[3, -2], [4, 4]], [[0, -2], [0, 0]]),  # negative sent
    ([[3, 2], [4, 4]], [[0, 0], [5, 0]]),  # lost > sent
]


def _chunk(sent, lost, interval_seconds=0.1):
    return RecordChunk(
        path_ids=("p1", "p2"),
        sent=np.array(sent),
        lost=np.array(lost),
        interval_seconds=interval_seconds,
    )


class TestRecordChunk:
    """Stacked chunks reach the per-record checks on every way in."""

    @pytest.mark.parametrize(
        "sent, lost",
        [
            (np.ones(3), np.zeros(3)),  # 1-D
            (np.ones((2, 3)), np.zeros((2, 2))),  # misaligned
            (np.ones((3, 2)), np.zeros((3, 2))),  # rows ≠ paths
        ],
    )
    def test_malformed_matrices_rejected(self, sent, lost):
        with pytest.raises(MeasurementError, match="chunk"):
            _chunk(sent, lost)

    @pytest.mark.parametrize("sent, lost", _BAD_STACKED_COUNTERS)
    def test_to_measurement_data_validates_counters(self, sent, lost):
        chunk = _chunk(sent, lost)
        with pytest.raises(MeasurementError, match="lost exceeds|negative"):
            chunk.to_measurement_data()

    @pytest.mark.parametrize("sent, lost", _BAD_STACKED_COUNTERS)
    def test_append_chunk_validates_counters_atomically(self, sent, lost):
        data = MeasurementData(
            [_record("p1"), _record("p2", sent=(5, 6, 7), lost=(0, 1, 2))]
        )
        before = data.sent_matrix.copy()
        with pytest.raises(MeasurementError, match="lost exceeds|negative"):
            data.append_chunk(_chunk(sent, lost))
        assert data.num_intervals == 3
        np.testing.assert_array_equal(data.sent_matrix, before)

    def test_to_measurement_data_round_trip(self):
        chunk = _chunk([[3, 2], [4, 4]], [[0, 1], [2, 0]], 0.25)
        data = chunk.to_measurement_data()
        assert data.path_ids == ("p1", "p2")
        assert data.interval_seconds == 0.25
        np.testing.assert_array_equal(data.sent_matrix, chunk.sent)
        np.testing.assert_array_equal(data.lost_matrix, chunk.lost)

    def test_chunk_from_columns_rounds_clamps_and_selects_rows(self):
        sent_cols = [np.array([9.6, 4.2, 7.0]), np.array([2.4, 5.5, 1.0])]
        lost_cols = [np.array([1.2, 9.9, 0.0]), np.array([0.0, 6.4, 3.0])]
        chunk = chunk_from_columns(
            ("a", "c"), sent_cols, lost_cols, np.array([0, 2]), 0.1, 5
        )
        np.testing.assert_array_equal(chunk.sent, [[10, 2], [7, 1]])
        # lost is rounded, then clamped to the rounded sent.
        np.testing.assert_array_equal(chunk.lost, [[1, 0], [0, 1]])
        assert chunk.sent.dtype == chunk.lost.dtype == np.int64
        assert (chunk.start_interval, chunk.end_interval) == (5, 7)


_BAD_INTERVALS = [float("nan"), float("inf"), -float("inf"), 0.0, -0.1, "0.1"]


class TestMalformedRecords:
    """Every entry point rejects malformed input with MeasurementError."""

    @pytest.mark.parametrize("interval", _BAD_INTERVALS)
    def test_constructor_rejects_interval(self, interval):
        with pytest.raises(MeasurementError, match="finite and positive"):
            MeasurementData([_record()], interval)

    @pytest.mark.parametrize("interval", _BAD_INTERVALS)
    def test_from_arrays_rejects_interval(self, interval):
        sent = {"p1": np.array([10, 20])}
        lost = {"p1": np.array([0, 1])}
        with pytest.raises(MeasurementError, match="finite and positive"):
            from_arrays(sent, lost, interval)

    @pytest.mark.parametrize("interval", _BAD_INTERVALS)
    def test_record_chunk_rejects_interval(self, interval):
        chunk = _chunk([[10, 20], [5, 5]], [[0, 1], [0, 0]], interval)
        with pytest.raises(MeasurementError, match="finite and positive"):
            chunk.to_measurement_data()

    @pytest.mark.parametrize(
        "payload",
        [
            # fewer sent rows than path ids
            dict(sent=np.ones((1, 3)), lost=np.zeros((2, 3))),
            # fewer lost rows than path ids
            dict(sent=np.ones((2, 3)), lost=np.zeros((1, 3))),
            # 1-D counters
            dict(sent=np.ones(3), lost=np.zeros(3)),
            # 3-D counters
            dict(sent=np.ones((2, 3, 1)), lost=np.zeros((2, 3, 1))),
            # a non-scalar interval
            dict(interval_seconds=np.array([0.1, 0.2])),
            # a NaN interval
            dict(interval_seconds=np.array(float("nan"))),
            # an infinite interval
            dict(interval_seconds=np.array(float("inf"))),
            # a non-numeric interval
            dict(interval_seconds=np.array("fast")),
            # NaN inside float counters
            dict(sent=np.array([[5.0, np.nan, 5.0], [5.0, 5.0, 5.0]])),
        ],
    )
    def test_load_rejects_malformed_checkpoint(self, tmp_path, payload):
        fields = dict(
            path_ids=np.array(["p1", "p2"], dtype=np.str_),
            sent=np.full((2, 3), 5),
            lost=np.zeros((2, 3), dtype=np.int64),
            interval_seconds=np.array(0.1),
        )
        fields.update(payload)
        path = str(tmp_path / "bad.npz")
        np.savez_compressed(path, **fields)
        with pytest.raises(MeasurementError):
            MeasurementData.load(path)

    @pytest.mark.parametrize(
        "sent, lost",
        [
            ([5.0, float("nan")], [0, 1]),  # NaN in a list
            (np.array([5.0, np.nan]), np.array([0, 1])),  # NaN in ndarray
            ([5, 5], np.array([0.0, np.inf])),  # inf lost
            ([5.0, -np.inf], [0, 0]),  # -inf sent
            (["a"], [0]),  # strings
            ([5, 5], [None, 0]),  # object dtype
        ],
    )
    def test_path_record_rejects_bad_counters(self, sent, lost):
        with pytest.raises(MeasurementError, match="numeric|finite"):
            PathRecord("p", sent, lost)

    def test_integral_float_counters_still_accepted(self):
        rec = PathRecord("p", np.array([5.0, 6.0]), [0.0, 1.0])
        assert rec.sent.dtype == np.int64
        np.testing.assert_array_equal(rec.lost, [0, 1])

    def test_stacked_matrices_match_np_stack(self):
        data = MeasurementData(
            [
                _record("p2", sent=(5, 6, 7), lost=(0, 1, 2)),
                _record("p1"),
            ]
        )
        for matrix, attr in (
            (data.sent_matrix, "sent"),
            (data.lost_matrix, "lost"),
        ):
            expected = np.stack(
                [getattr(data.record(pid), attr) for pid in ("p1", "p2")]
            )
            np.testing.assert_array_equal(matrix, expected)
            assert matrix.dtype == expected.dtype
            assert not matrix.flags.writeable
