"""Exactness of the incremental windowed Algorithm 2 statistics.

The central property: for *any* random record stream, chunk
segmentation, and window, the incremental :class:`SlidingWindowStats`
produces **fp-identical** costs (and identical congestion statuses)
to a from-scratch batch recompute — :func:`batch_slice_observations`
on a freshly built :class:`MeasurementData` of the same window —
with every path sending and with silent cells alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.network import Network, Path
from repro.core.slices import build_slice_batch
from repro.exceptions import MeasurementError
from repro.measurement.normalize import batch_slice_observations
from repro.measurement.records import (
    MeasurementData,
    PathRecord,
    RecordChunk,
)
from repro.streaming.window import SlidingWindowStats

_SETTINGS = settings(max_examples=40, deadline=None)


def _star_network(spokes=5):
    """A hub link shared by all paths plus private access links —
    several candidate systems of singletons and pairs."""
    links = ["hub"] + [f"a{i}" for i in range(spokes)]
    paths = [Path(f"p{i}", (f"a{i}", "hub")) for i in range(spokes)]
    return Network(links, paths)


@st.composite
def stream_case(draw):
    """A random stream (with occasional zero-sent cells), a random
    chunking of it, and a random window."""
    spokes = draw(st.integers(4, 6))
    total = draw(st.integers(12, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sent = rng.integers(1, 60, size=(spokes, total))
    # Sprinkle zero-sent cells in ~1/3 of cases (per-group valid
    # sets).
    if draw(st.integers(0, 2)) == 0:
        holes = rng.random(sent.shape) < 0.05
        sent[holes] = 0
    lost = rng.binomial(sent, draw(st.floats(0.0, 0.2)))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, total - 1), max_size=4, unique=True
            )
        )
    )
    lo = draw(st.integers(0, total - 1))
    hi = draw(st.integers(lo + 1, total))
    return spokes, sent, lost, cuts, lo, hi


@_SETTINGS
@given(stream_case())
def test_incremental_equals_batch_recompute(case):
    spokes, sent, lost, cuts, lo, hi = case
    net = _star_network(spokes)
    path_ids = tuple(f"p{i}" for i in range(spokes))
    stats = SlidingWindowStats(net)

    bounds = [0] + cuts + [sent.shape[1]]
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a == b:
            continue
        stats.append(
            RecordChunk(
                path_ids=path_ids,
                sent=sent[:, a:b],
                lost=lost[:, a:b],
                interval_seconds=0.1,
                start_interval=a,
            )
        )
    assert stats.num_intervals == sent.shape[1]

    # From-scratch reference: a fresh MeasurementData of the window,
    # through the offline batch route.
    window = MeasurementData(
        [
            PathRecord(pid, sent[i, lo:hi], lost[i, lo:hi])
            for i, pid in enumerate(path_ids)
        ],
        0.1,
    )
    batch, _ = build_slice_batch(net, 5)
    try:
        _, ref_single, ref_pair = batch_slice_observations(window, batch)
    except MeasurementError:
        # Un-normalizable window (a path with no traffic in any
        # window interval): the incremental route must refuse too.
        with pytest.raises(MeasurementError):
            stats.window_costs(lo, hi)
        return
    inc_single, inc_pair = stats.window_costs(lo, hi)

    # fp-identical costs — not approx-equal.
    np.testing.assert_array_equal(inc_single, ref_single)
    np.testing.assert_array_equal(inc_pair, ref_pair)

    # Identical statuses: the indicator the batch route derives from
    # the stacked matrices (False where nothing was sent).
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = (
            window.lost_matrix / window.sent_matrix
        ) < stats.loss_threshold
    np.testing.assert_array_equal(stats.window_status(lo, hi), expected)


@_SETTINGS
@given(stream_case())
def test_window_results_stable_under_append(case):
    """A window's cached result never changes as the stream grows
    (append-only ⇒ no dirty windows)."""
    spokes, sent, lost, cuts, lo, hi = case
    net = _star_network(spokes)
    path_ids = tuple(f"p{i}" for i in range(spokes))
    total = sent.shape[1]
    if hi >= total:  # need data after the window to append
        hi = max(lo + 1, total - 1)
    stats = SlidingWindowStats(net)
    stats.append_arrays(sent[:, :hi], lost[:, :hi], path_ids)
    try:
        before_single, before_pair = stats.window_costs(lo, hi)
    except MeasurementError:
        return  # un-normalizable window; nothing to compare

    stats.append_arrays(sent[:, hi:], lost[:, hi:], path_ids)
    after_single, after_pair = stats.window_costs(lo, hi)
    np.testing.assert_array_equal(before_single, after_single)
    np.testing.assert_array_equal(before_pair, after_pair)


#: ``(4, 2)`` counter matrices over paths ``p0``–``p3`` that break a
#: counter rule, with the error the first offending path gets.
BAD_COUNTERS = [
    ([[5, 5], [5, 5], [5, 5], [5, 5]],
     [[0, 0], [0, 6], [0, 0], [0, 0]], "'p1': lost exceeds sent"),
    ([[5, 5], [5, 5], [5, 5], [5, 5]],
     [[0, 0], [0, 0], [-1, 0], [0, 0]], "'p2': negative"),
    ([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.0, np.nan]],
     [[0, 0], [0, 0], [0, 0], [0, 0]], "'p3': sent counters "
     "must be finite"),
    ([[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.0, np.nan]],
     [[0, 0], [0, 6], [0, 0], [0, 0]], "'p1': lost exceeds sent"),
]
BAD_COUNTER_IDS = [
    "lost-exceeds-sent", "negative", "nan-sent", "first-of-two-bad-paths",
]


class TestValidation:
    def test_non_contiguous_chunk_rejected(self):
        net = _star_network(4)
        stats = SlidingWindowStats(net)
        chunk = RecordChunk(
            path_ids=tuple(f"p{i}" for i in range(4)),
            sent=np.ones((4, 5), dtype=np.int64),
            lost=np.zeros((4, 5), dtype=np.int64),
            interval_seconds=0.1,
            start_interval=3,
        )
        with pytest.raises(MeasurementError):
            stats.append(chunk)

    @pytest.mark.parametrize(
        "stream_s, chunk_s, accepted",
        [(0.1, 0.5, False), (0.5, 0.1, False), (0.3, 0.1 * 3, True)],
    )
    def test_chunk_interval_must_match_the_stream(
        self, stream_s, chunk_s, accepted
    ):
        """A chunk at another interval length is refused whole; one
        that differs only by round-off (0.1·3 vs 0.3) is appended."""
        stats = SlidingWindowStats(_star_network(4), interval_seconds=stream_s)
        chunk = RecordChunk(
            path_ids=tuple(f"p{i}" for i in range(4)),
            sent=np.ones((4, 5), dtype=np.int64),
            lost=np.zeros((4, 5), dtype=np.int64),
            interval_seconds=chunk_s,
        )
        if accepted:
            stats.append(chunk)
            assert stats.num_intervals == 5
        else:
            with pytest.raises(MeasurementError, match="interval"):
                stats.append(chunk)
            assert stats.num_intervals == 0

    def test_path_set_change_rejected(self):
        net = _star_network(4)
        stats = SlidingWindowStats(net)
        ids = tuple(f"p{i}" for i in range(4))
        stats.append_arrays(
            np.ones((4, 3), dtype=np.int64),
            np.zeros((4, 3), dtype=np.int64),
            ids,
        )
        with pytest.raises(MeasurementError):
            stats.append_arrays(
                np.ones((4, 3), dtype=np.int64),
                np.zeros((4, 3), dtype=np.int64),
                tuple(reversed(ids)),
            )

    def test_missing_indexed_path_rejected(self):
        net = _star_network(4)
        stats = SlidingWindowStats(net)
        with pytest.raises(MeasurementError):
            stats.append_arrays(
                np.ones((2, 3), dtype=np.int64),
                np.zeros((2, 3), dtype=np.int64),
                ("p0", "p1"),
            )

    def test_empty_window_rejected(self):
        net = _star_network(4)
        stats = SlidingWindowStats(net)
        stats.append_arrays(
            np.ones((4, 8), dtype=np.int64),
            np.zeros((4, 8), dtype=np.int64),
            tuple(f"p{i}" for i in range(4)),
        )
        with pytest.raises(MeasurementError):
            stats.window_costs(4, 4)
        with pytest.raises(MeasurementError):
            stats.window_costs(0, 9)

    def test_window_across_many_chunks_preserves_state(self):
        """A window that starts and ends inside appended chunks and
        spans six more reads every overlapping chunk slice intact."""
        net = _star_network(4)
        ids = tuple(f"p{i}" for i in range(4))
        rng = np.random.default_rng(1)
        sent = rng.integers(1, 9, size=(4, 700))
        lost = rng.binomial(sent, 0.05)
        stats = SlidingWindowStats(net)
        for a in range(0, 700, 90):
            b = min(a + 90, 700)
            stats.append_arrays(sent[:, a:b], lost[:, a:b], ids)
        window = MeasurementData(
            [
                PathRecord(pid, sent[i, 100:650], lost[i, 100:650])
                for i, pid in enumerate(ids)
            ],
            0.1,
        )
        batch, _ = build_slice_batch(net, 5)
        _, ref_single, ref_pair = batch_slice_observations(window, batch)
        inc_single, inc_pair = stats.window_costs(100, 650)
        np.testing.assert_array_equal(inc_single, ref_single)
        np.testing.assert_array_equal(inc_pair, ref_pair)

    @pytest.mark.parametrize(
        "sent, lost, message", BAD_COUNTERS, ids=BAD_COUNTER_IDS
    )
    def test_bad_counters_rejected_naming_the_path(
        self, sent, lost, message
    ):
        """A chunk is held to PathRecord's counter rules: nothing is
        appended, and the error names the offending path."""
        net = _star_network(4)
        stats = SlidingWindowStats(net)
        ids = tuple(f"p{i}" for i in range(4))
        with pytest.raises(MeasurementError, match=message):
            stats.append_arrays(np.array(sent), np.array(lost), ids)
        assert stats.num_intervals == 0


def test_sliding_spans_across_word_boundaries():
    """A stride-25, width-100 monitor advance over 160 intervals:
    delta spans and windows straddle 64-interval word boundaries, and
    every window's costs stay bitwise the from-scratch recompute."""
    spokes, total, width, stride = 6, 160, 100, 25
    net = _star_network(spokes)
    ids = tuple(f"p{i}" for i in range(spokes))
    rng = np.random.default_rng(13)
    sent = rng.integers(1, 40, size=(spokes, total))
    lost = rng.binomial(sent, 0.03)
    stats = SlidingWindowStats(net)
    batch, _ = build_slice_batch(net, 5)
    windows = 0
    for a in range(0, total, stride):
        b = min(a + stride, total)
        stats.append_arrays(sent[:, a:b], lost[:, a:b], ids)
        if b < width:
            continue
        lo, hi = b - width, b
        window = MeasurementData(
            [
                PathRecord(pid, sent[i, lo:hi], lost[i, lo:hi])
                for i, pid in enumerate(ids)
            ],
            0.1,
        )
        _, ref_single, ref_pair = batch_slice_observations(window, batch)
        inc_single, inc_pair = stats.window_costs(lo, hi)
        np.testing.assert_array_equal(inc_single, ref_single)
        np.testing.assert_array_equal(inc_pair, ref_pair)
        windows += 1
    assert windows == 4


def test_stream_rows_follow_the_stream_order():
    """Index rows map to stream rows through one permutation: each
    batch member's stream row equals a per-element lookup by path
    id."""
    net = _star_network(5)
    ids = ("p3", "p0", "p4", "p1", "p2")
    stats = SlidingWindowStats(net)
    stats.append_arrays(
        np.ones((5, 4), dtype=np.int64),
        np.zeros((5, 4), dtype=np.int64),
        ids,
    )
    index, batch = stats.batch.index, stats.batch
    row_of = {pid: i for i, pid in enumerate(ids)}
    np.testing.assert_array_equal(
        stats._member_rows,
        [row_of[index.path_ids[r]] for r in batch.member_rows.tolist()],
    )


@st.composite
def monitor_schedules(draw):
    """A stream read the way a monitor reads it: a window length
    (``None`` grows from 0) and stride — gaps, tumbling windows and
    slides alike — then the whole stream, twice."""
    spokes = draw(st.integers(4, 6))
    total = draw(st.integers(20, 200))
    width = draw(st.one_of(st.none(), st.integers(1, 80)))
    stride = draw(st.integers(1, 90))
    chunk = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sent = rng.integers(1, 40, size=(spokes, total))
    lost = rng.binomial(sent, draw(st.floats(0.0, 0.2)))
    return spokes, sent, lost, width, stride, chunk


@settings(max_examples=60, deadline=None)
@given(monitor_schedules())
def test_running_count_serves_the_whole_stream_exactly(case):
    """Every window of a monitor schedule, and the final whole-stream
    window served by the running prefix count, equal the from-scratch
    counts of a fresh object."""
    spokes, sent, lost, width, stride, chunk = case
    net = _star_network(spokes)
    ids = tuple(f"p{i}" for i in range(spokes))
    total = sent.shape[1]
    stats = SlidingWindowStats(net)

    def check(lo, hi):
        fresh = SlidingWindowStats(net)
        fresh.append_arrays(sent, lost, ids)
        expected = fresh.window_costs(lo, hi)
        for got, want in zip(stats.window_costs(lo, hi), expected):
            np.testing.assert_array_equal(got, want)

    end = width or stride
    for a in range(0, total, chunk):
        stats.append_arrays(sent[:, a:a + chunk], lost[:, a:a + chunk], ids)
        while end <= stats.num_intervals:
            check(0 if width is None else max(0, end - width), end)
            end += stride
    check(0, total)
    check(0, total)


def test_final_window_counts_only_past_the_prefix():
    """After gap-free sliding windows, the whole-stream window counts
    just the intervals past the last window; after a stride gap the
    prefix stops at the gap."""
    net = _star_network(5)
    ids = tuple(f"p{i}" for i in range(5))
    rng = np.random.default_rng(3)
    sent = rng.integers(1, 40, size=(5, 310))
    lost = rng.binomial(sent, 0.05)
    for width, stride, expected in [
        (100, 25, [(300, 310)]),
        (50, 50, [(300, 310)]),
        (30, 100, [(30, 310)]),
    ]:
        stats = SlidingWindowStats(net)
        stats.append_arrays(sent, lost, ids)
        for end in range(width, 301, stride):
            stats.window_costs(max(0, end - width), end)
        counted = []
        span_counts = stats._span_counts

        def recording(lo, hi):
            counted.append((lo, hi))
            return span_counts(lo, hi)

        stats._span_counts = recording
        stats.window_costs(0, 310)
        assert counted == expected, (width, stride)


def _two_hub_network():
    """Paths ``p0``–``p2`` through hub ``h1`` and ``p3``–``p6`` through
    ``h2``, all through ``core``: σ groups ``(core,)`` (every path),
    ``(core, h1)`` and ``(core, h2)``."""
    links = ["core", "h1", "h2"] + [f"a{i}" for i in range(7)]
    paths = [
        Path(f"p{i}", (f"a{i}", "h1" if i < 3 else "h2", "core"))
        for i in range(7)
    ]
    return Network(links, paths)


def test_group_without_valid_interval_slides_in_and_out():
    """A σ group with no valid interval in a window has NaN costs on
    exactly its members and pairs; sliding windows gain and drop its
    valid intervals, and every window and the final whole-stream
    window (served by the prefix) equal the batch routine bit for
    bit."""
    net = _two_hub_network()
    ids = tuple(f"p{i}" for i in range(7))
    total, width, stride = 130, 40, 20
    rng = np.random.default_rng(7)
    sent = rng.integers(1, 40, size=(7, total))
    # Outside [40, 60), p0 is silent in even intervals and p3 in odd
    # ones: every interval lacks some path, so (core,) has no valid
    # interval, while (core, h1) and (core, h2) each keep half.
    silent = np.ones(total, dtype=bool)
    silent[40:60] = False
    sent[0, silent & (np.arange(total) % 2 == 0)] = 0
    sent[3, silent & (np.arange(total) % 2 == 1)] = 0
    lost = rng.binomial(sent, 0.05)
    stats = SlidingWindowStats(net)
    stats.append_arrays(sent, lost, ids)
    batch = stats.batch
    core = batch.system_of[("core",)]
    in_core = np.zeros(batch.member_rows.size, dtype=bool)
    in_core[batch.member_offsets[core]:batch.member_offsets[core + 1]] = True
    pair_in_core = np.zeros(batch.num_pairs, dtype=bool)
    pair_in_core[batch.offsets[core]:batch.offsets[core + 1]] = True

    def check(lo, hi):
        window = MeasurementData.from_matrices(
            ids, sent[:, lo:hi], lost[:, lo:hi]
        )
        _, ref_member, ref_pair = batch_slice_observations(window, batch)
        y_member, y_pair = stats.window_costs(lo, hi)
        np.testing.assert_array_equal(y_member, ref_member)
        np.testing.assert_array_equal(y_pair, ref_pair)
        return np.isnan(y_member), np.isnan(y_pair)

    nan_windows = []
    for end in range(width, 121, stride):
        nan_member, nan_pair = check(end - width, end)
        core_nan = bool(nan_member[in_core].all())
        if core_nan:
            np.testing.assert_array_equal(nan_member, in_core)
            np.testing.assert_array_equal(nan_pair, pair_in_core)
        else:
            assert not nan_member.any() and not nan_pair.any()
        nan_windows.append(core_nan)
    # [0,40) none valid; [20,60) and [40,80) gain [40,60); the next
    # slides drop it.
    assert nan_windows == [True, False, False, True, True]

    counted = []
    span_counts = stats._span_counts

    def recording(lo, hi):
        counted.append((lo, hi))
        return span_counts(lo, hi)

    stats._span_counts = recording
    nan_member, nan_pair = check(0, total)
    assert counted == [(120, total)]
    assert not nan_member.any() and not nan_pair.any()
