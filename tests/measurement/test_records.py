"""Unit tests for measurement records."""

import numpy as np
import pytest

from repro.exceptions import MeasurementError
from repro.measurement.records import MeasurementData, PathRecord, from_arrays


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


class TestFromMatrices:
    def test_zero_copy_and_equivalent(self):
        base = MeasurementData(
            [_record("p1"), _record("p2", sent=(5, 5, 5), lost=(1, 0, 0))],
            interval_seconds=0.25,
        )
        sent, lost = base.sent_matrix, base.lost_matrix
        data = MeasurementData.from_matrices(
            base.path_ids, sent, lost, base.interval_seconds
        )
        assert data.sent_matrix is sent  # shared, not copied
        assert data.lost_matrix is lost
        assert data.path_ids == base.path_ids
        assert data.num_intervals == base.num_intervals
        np.testing.assert_array_equal(
            data.record("p2").sent, base.record("p2").sent
        )
        assert data.all_sent_positive == base.all_sent_positive

    def test_precomputed_flag_is_trusted(self):
        sent = np.array([[0, 1]])
        data = MeasurementData.from_matrices(
            ("p1",), sent, np.zeros_like(sent),
            all_sent_positive=True,
        )
        # Trusted classmethod: the caller's flag wins over a scan.
        assert data.all_sent_positive is True

    def test_validation(self):
        sent = np.array([[1, 2], [3, 4]])
        with pytest.raises(MeasurementError):
            MeasurementData.from_matrices(
                ("p2", "p1"), sent, sent  # unsorted ids
            )
        with pytest.raises(MeasurementError):
            MeasurementData.from_matrices(
                ("p1", "p2"), sent, sent[:1]  # misaligned
            )
        with pytest.raises(MeasurementError):
            MeasurementData.from_matrices(("p1",), sent, sent)
        with pytest.raises(MeasurementError):
            MeasurementData.from_matrices(
                ("p1", "p2"), sent, sent, interval_seconds=0.0
            )

    @pytest.mark.parametrize(
        "sent, lost",
        [
            ([[3, 2], [4, 4]], [[0, -1], [0, 0]]),  # negative count
            ([[3, -2], [4, 4]], [[0, -2], [0, 0]]),  # negative sent
            ([[3, 2], [4, 4]], [[0, 0], [5, 0]]),  # lost > sent
        ],
    )
    def test_counter_validation(self, sent, lost):
        """The record constructor's counter checks apply to the
        stacked matrices too."""
        with pytest.raises(MeasurementError, match="lost <= sent"):
            MeasurementData.from_matrices(
                ("p1", "p2"), np.array(sent), np.array(lost)
            )


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
    def test_from_matrices_rejects_interval(self, interval):
        sent = np.array([[10, 20]])
        with pytest.raises(MeasurementError, match="finite and positive"):
            MeasurementData.from_matrices(
                ("p1",), sent, np.zeros_like(sent), interval
            )

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
