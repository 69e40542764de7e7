"""Unit tests for measurement records."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "streaming"))

from test_window import BAD_COUNTER_IDS, BAD_COUNTERS  # noqa: E402

from repro.exceptions import MeasurementError  # noqa: E402
from repro.measurement.records import (  # noqa: E402
    MeasurementData,
    PathRecord,
    RecordChunk,
    checked_counter_rows,
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

    def test_rebinned_leaves_the_original_unchanged(self):
        data = MeasurementData(
            [_record(sent=(10, 20, 30, 40), lost=(1, 2, 3, 4))],
            interval_seconds=0.1,
        )
        before = data.sent_matrix.copy()
        binned = data.rebinned(2)
        assert binned is not data
        assert data.num_intervals == 4
        assert data.interval_seconds == 0.1
        np.testing.assert_array_equal(data.sent_matrix, before)

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


class TestFromMatrices:
    """Counter matrices and per-path records build the same data."""

    IDS = ("p3", "p0", "p2", "p1")  # rows in unsorted id order

    def _matrices(self):
        rng = np.random.default_rng(4)
        sent = rng.integers(1, 50, size=(4, 7))
        return sent, rng.binomial(sent, 0.2)

    def test_equals_records_bit_for_bit(self):
        sent, lost = self._matrices()
        from_rows = MeasurementData.from_matrices(self.IDS, sent, lost, 0.2)
        from_records = MeasurementData(
            [
                PathRecord(pid, sent[i], lost[i])
                for i, pid in enumerate(self.IDS)
            ],
            0.2,
        )
        assert from_rows.path_ids == from_records.path_ids
        assert from_rows.path_ids == ("p0", "p1", "p2", "p3")
        assert from_rows.interval_seconds == from_records.interval_seconds
        for attr in ("sent_matrix", "lost_matrix"):
            a, b = getattr(from_rows, attr), getattr(from_records, attr)
            assert a.dtype == b.dtype == np.int64
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        for i, pid in enumerate(self.IDS):
            a, b = from_rows.record(pid), from_records.record(pid)
            for attr, source in (("sent", sent), ("lost", lost)):
                assert getattr(a, attr).tobytes() == source[i].tobytes()
                assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()

    def test_record_is_a_view_of_the_matrix_rows(self):
        sent, lost = self._matrices()
        data = MeasurementData.from_matrices(self.IDS, sent, lost)
        rec = data.record("p2")
        assert np.shares_memory(rec.sent, data.sent_matrix)
        assert np.shares_memory(rec.lost, data.lost_matrix)

    def test_caller_matrices_are_copied(self):
        sent, lost = self._matrices()
        data = MeasurementData.from_matrices(self.IDS, sent, lost)
        assert sent.flags.writeable
        sent[:] = 0
        assert (data.sent_matrix > 0).all()

    @pytest.mark.parametrize(
        "sent, lost, message", BAD_COUNTERS, ids=BAD_COUNTER_IDS
    )
    def test_bad_counters_get_the_path_record_message(
        self, sent, lost, message
    ):
        ids = ("p0", "p1", "p2", "p3")
        sent, lost = np.array(sent), np.array(lost)
        with pytest.raises(MeasurementError, match=message) as matrix_err:
            MeasurementData.from_matrices(ids, sent, lost)
        row = ids.index(message.split("'")[1])
        with pytest.raises(MeasurementError) as record_err:
            PathRecord(ids[row], sent[row], lost[row])
        assert str(matrix_err.value) == str(record_err.value)

    @pytest.mark.parametrize(
        "ids, sent, lost, match",
        [
            (("p0", "p0"), np.ones((2, 3)), np.zeros((2, 3)), "duplicate"),
            ((), np.ones((0, 3)), np.zeros((0, 3)), "no path records"),
            (("p0",), np.ones(3), np.zeros(3), "2-D"),
            (("p0",), np.ones((1, 3)), np.zeros((1, 2)), "aligned"),
            (("p0", "p1"), np.ones((1, 3)), np.zeros((1, 3)), "1 rows"),
        ],
    )
    def test_malformed_shapes_rejected(self, ids, sent, lost, match):
        with pytest.raises(MeasurementError, match=match):
            MeasurementData.from_matrices(ids, sent, lost)

    def test_rebinned_matches_per_record_sums(self):
        sent, lost = self._matrices()
        data = MeasurementData.from_matrices(self.IDS, sent, lost)
        binned = data.rebinned(3)
        assert binned.num_intervals == 2
        for i, pid in enumerate(self.IDS):
            np.testing.assert_array_equal(
                binned.record(pid).sent, sent[i, :6].reshape(2, 3).sum(axis=1)
            )
            np.testing.assert_array_equal(
                binned.record(pid).lost, lost[i, :6].reshape(2, 3).sum(axis=1)
            )


#: Stacked ``(paths, intervals)`` counters that break a record check,
#: with the path the error must name.
_BAD_STACKED_COUNTERS = [
    ([[3, 2], [4, 4]], [[0, -1], [0, 0]], "p1"),  # negative lost
    ([[3, 2], [4, -4]], [[0, 0], [0, -4]], "p2"),  # negative sent
    ([[3, 2], [4, 4]], [[0, 0], [5, 0]], "p2"),  # lost > sent
    ([[3.0, np.nan], [4.0, 4.0]], [[0, 0], [0, 0]], "p1"),  # NaN sent
]


class TestCheckedCounterRows:
    """The one check a stream applies to a stacked chunk's counters."""

    @pytest.mark.parametrize("sent, lost, path", _BAD_STACKED_COUNTERS)
    def test_names_the_first_offending_path(self, sent, lost, path):
        with pytest.raises(MeasurementError, match=repr(path)):
            checked_counter_rows(("p1", "p2"), np.array(sent), np.array(lost))

    def test_returns_fresh_int64_copies(self):
        sent = np.array([[3.0, 2.0], [4.0, 4.0]])
        lost = np.array([[0, 1], [2, 0]], dtype=np.int32)
        sent64, lost64 = checked_counter_rows(("p1", "p2"), sent, lost)
        assert sent64.dtype == lost64.dtype == np.int64
        np.testing.assert_array_equal(sent64, sent)
        np.testing.assert_array_equal(lost64, lost)
        assert not np.shares_memory(sent64, sent)
        assert not np.shares_memory(lost64, lost)

    def test_int64_passes_through_uncopied(self):
        sent = np.array([[3, 2], [4, 4]])
        lost = np.array([[0, 1], [2, 0]])
        sent64, lost64 = checked_counter_rows(("p1", "p2"), sent, lost)
        assert sent64 is sent and lost64 is lost


def _chunk(sent, lost, interval_seconds=0.1):
    return RecordChunk(
        path_ids=("p1", "p2"),
        sent=np.array(sent),
        lost=np.array(lost),
        interval_seconds=interval_seconds,
    )


class TestRecordChunk:
    """A chunk checks its matrices' shape and its interval when built;
    its counters are checked where a stream appends it
    (``tests/streaming/test_window.py``)."""

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
        with pytest.raises(MeasurementError, match="finite and positive"):
            _chunk([[10, 20], [5, 5]], [[0, 1], [0, 0]], interval)

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
