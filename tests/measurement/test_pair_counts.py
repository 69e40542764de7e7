"""Exactness of Algorithm 2's pair-count primitive and cost table.

:func:`pair_joint_counts` packs a boolean status matrix into 64-bit
words; every count must equal the unpacked reference
``(s[a] & s[b]).sum(1)`` — at word-boundary lengths, when pairs are
split across blocks, for empty pair arrays, and for ``a == b``.
The byte-table popcount that stands in for ``np.bitwise_count`` on
NumPy < 2.0 must count the same bits in the same shape, so
:func:`slice_counts` gives the same vector through either.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.network import network_from_path_specs
from repro.core.slices import build_slice_batch
from repro.measurement import normalize
from repro.measurement.normalize import (
    batch_slice_observations,
    cost_table,
    interval_words,
    pair_joint_counts,
    slice_counts,
)
from repro.measurement.records import MeasurementData, PathRecord

_SETTINGS = settings(max_examples=80, deadline=None)

#: Lengths on both sides of the 8- and 64-interval packing boundaries.
LENGTHS = (1, 7, 8, 63, 64, 65, 129, 240)


def _reference(status, rows_a, rows_b):
    return (status[rows_a] & status[rows_b]).sum(axis=1)


@st.composite
def pair_case(draw):
    total = draw(st.sampled_from(LENGTHS))
    num_rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    status = rng.random((num_rows, total)) < draw(st.floats(0.0, 1.0))
    num_pairs = draw(st.integers(2, 60))
    rows_a = rng.integers(0, num_rows, num_pairs).astype(np.intp)
    rows_b = rng.integers(0, num_rows, num_pairs).astype(np.intp)
    block = draw(st.integers(1, num_pairs - 1))
    return status, rows_a, rows_b, block


@_SETTINGS
@given(pair_case())
def test_counts_equal_unpacked_reference(case):
    status, rows_a, rows_b, block = case
    counts = pair_joint_counts(status, rows_a, rows_b, block_pairs=block)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(
        counts, _reference(status, rows_a, rows_b)
    )


@_SETTINGS
@given(pair_case(), st.data())
def test_counts_over_a_column_span(case, data):
    """The streaming window passes a column slice of its status."""
    status, rows_a, rows_b, block = case
    total = status.shape[1]
    lo = data.draw(st.integers(0, total - 1))
    hi = data.draw(st.integers(lo + 1, total))
    span = status[:, lo:hi]
    np.testing.assert_array_equal(
        pair_joint_counts(span, rows_a, rows_b, block_pairs=block),
        _reference(span, rows_a, rows_b),
    )


def test_empty_pair_arrays():
    status = np.ones((3, 65), dtype=bool)
    empty = np.zeros(0, dtype=np.intp)
    counts = pair_joint_counts(status, empty, empty)
    assert counts.shape == (0,)
    assert counts.dtype == np.int64


def test_self_pairs_count_the_row():
    rng = np.random.default_rng(5)
    for total in LENGTHS:
        status = rng.random((4, total)) < 0.5
        rows = np.arange(4, dtype=np.intp)
        np.testing.assert_array_equal(
            pair_joint_counts(status, rows, rows, block_pairs=3),
            status.sum(axis=1),
        )


def test_cost_table_equals_per_element_expression():
    """``table[k]`` is bitwise the cost evaluated per pathset."""
    for total in (1, 25, 100, 240, 1000):
        counts = np.arange(total + 1)
        eps = 1.0 / (2.0 * total)
        expected = -np.log(np.clip(counts / total, eps, 1.0))
        np.testing.assert_array_equal(cost_table(total), expected)
        # Gathered in a long shuffled array, as the callers do.
        picks = np.random.default_rng(total).integers(0, total + 1, 5000)
        per_element = -np.log(np.clip(picks / total, eps, 1.0))
        np.testing.assert_array_equal(cost_table(total)[picks], per_element)


def _unpacked_popcount(words):
    return np.unpackbits(words[..., None].view(np.uint8), axis=-1).sum(-1)


def test_byte_popcount_keeps_the_word_shape():
    rng = np.random.default_rng(11)
    for shape in ((5,), (3, 4), (4, 1), (0, 4), (2, 0)):
        words = rng.integers(0, 2**63, shape, dtype=np.uint64) * 2 + 1
        counts = normalize._byte_popcount(words)
        assert counts.shape == shape
        np.testing.assert_array_equal(counts, _unpacked_popcount(words))
    # A column span of a word matrix, as the window passes.
    words = rng.integers(0, 2**63, (6, 5), dtype=np.uint64)
    np.testing.assert_array_equal(
        normalize._byte_popcount(words[1:4, 1:]),
        _unpacked_popcount(words[1:4, 1:]),
    )


def _silent_records(total=150):
    """Three σ groups over two hubs; loss on every path, and ``p0`` and
    ``p3`` dark in some intervals, so the groups' valid counts ``T_g``
    differ."""
    rng = np.random.default_rng(3)
    records = []
    for i in range(5):
        sent = rng.integers(50, 100, total)
        if i in (0, 3):
            sent[rng.random(total) < 0.3] = 0
        lost = (sent * (rng.random(total) < 0.4) * 0.05).astype(np.int64)
        records.append(PathRecord(f"p{i}", sent, lost))
    network = network_from_path_specs({
        "p0": ["a", "h1", "s0"],
        "p1": ["a", "h1", "s1"],
        "p2": ["b", "h1", "h2", "s2"],
        "p3": ["c", "h2", "s3"],
        "p4": ["d", "h2", "s4"],
    })
    return MeasurementData(records, 0.1), network


def test_slice_counts_equal_through_the_byte_popcount(monkeypatch):
    data, network = _silent_records()
    batch, _ = build_slice_batch(network, 3)
    rows = np.asarray(data.rows_of(
        batch.index.path_ids[r] for r in batch.member_rows.tolist()
    ))
    sent = data.sent_matrix
    traffic = interval_words(sent > 0, rows)
    status = interval_words(data.lost_matrix < 0.01 * sent, rows)
    counts = slice_counts(batch, status, traffic)
    _, y_member, y_pair = batch_slice_observations(data, batch)
    num_groups = batch.num_systems
    assert np.unique(counts[-num_groups:]).size > 1

    monkeypatch.setattr(normalize, "_popcount", normalize._byte_popcount)
    np.testing.assert_array_equal(
        slice_counts(batch, status, traffic), counts
    )
    _, fallback_member, fallback_pair = batch_slice_observations(data, batch)
    np.testing.assert_array_equal(fallback_member, y_member)
    np.testing.assert_array_equal(fallback_pair, y_pair)
