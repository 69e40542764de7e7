"""Exactness of Algorithm 2's pair-count primitive and cost table.

:func:`pair_joint_counts` packs a boolean status matrix into 64-bit
words; every count must equal the unpacked reference
``(s[a] & s[b]).sum(1)`` — at word-boundary lengths, when pairs are
split across blocks, for empty pair arrays, and for ``a == b``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.measurement.normalize import cost_table, pair_joint_counts

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
