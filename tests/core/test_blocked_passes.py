"""The blocked cold pass ≡ the dense oracle, bit for bit.

:func:`repro.core.slices._pair_groups` enumerates candidate pairs per
block of incidence columns and keeps each pair only in the column of
its lowest shared link; :func:`build_slice_batch` lays out member rows
and local positions per block of σ groups. With the block bound
(:data:`repro.core.slices.COLD_BLOCK`) patched down to 1, every column
and every group is its own block, so pairs sharing several links are
candidates in several blocks and the groups of many blocks are merged
into one σ order. Whatever the bound, the arrays must equal the dense
``P²`` oracle's — and so must the blocked pair costs and scores.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.dense_pairs import dense_pair_groups, dense_slice_layout
from repro.core import slices
from repro.core.network import Network, Path, pack_bool_rows
from repro.core.slices import (
    _lowest_links,
    _pair_groups,
    batch_unsolvability_arrays,
    build_slice_batch,
)
from repro.measurement import normalize
from repro.measurement.synthetic import synthesize_records
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Block bounds: one column / one group per block, small multi-column
#: blocks, and the shipped bound (one block at these sizes).
BLOCKS = (1, 2, 7, slices.COLD_BLOCK)

GROUP_FIELDS = ("pair_a", "pair_b", "offsets", "sigma_masks")
BATCH_FIELDS = (
    "pair_a", "pair_b", "offsets", "la", "lb",
    "member_rows", "member_offsets", "sigma_masks",
)


@st.composite
def random_networks(draw):
    """Paths as random link subsets: up to 140 links (three packed
    words), dense enough that many pairs share several links."""
    num_links = draw(st.integers(1, 140))
    num_paths = draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.02, 0.7))
    links = [f"l{k:03d}" for k in range(num_links)]
    paths = []
    for i in range(num_paths):
        chosen = np.flatnonzero(rng.random(num_links) < density)
        if chosen.size == 0:
            chosen = rng.integers(0, num_links, 1)
        paths.append(Path(f"p{i:02d}", tuple(links[k] for k in chosen)))
    return links, paths


def _fresh(case):
    links, paths = case
    return Network(links, paths)


def _assert_fields_equal(want, got, fields):
    for field in fields:
        expected = want[field] if isinstance(want, dict) else getattr(
            want, field
        )
        actual = getattr(got, field)
        assert actual.dtype == expected.dtype, field
        assert actual.shape == expected.shape, field
        np.testing.assert_array_equal(actual, expected, field)


@_SETTINGS
@given(random_networks(), st.sampled_from(BLOCKS), st.integers(1, 8))
def test_blocked_passes_equal_dense_oracle(case, block, min_pathsets):
    oracle = dense_pair_groups(_fresh(case))
    want = dense_slice_layout(oracle, min_pathsets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slices, "COLD_BLOCK", block)
        net = _fresh(case)
        groups = _pair_groups(net)
        batch, skipped = build_slice_batch(net, min_pathsets)
    assert groups.sigmas == oracle.sigmas
    assert groups.group_of == oracle.group_of
    _assert_fields_equal(oracle, groups, GROUP_FIELDS)
    assert batch.sigmas == want["sigmas"]
    assert skipped == want["skipped"]
    _assert_fields_equal(want, batch, BATCH_FIELDS)


@_SETTINGS
@given(random_networks())
def test_every_sharing_pair_leaves_exactly_one_column_block(case):
    """With one column per block, the blocks partition the sharing
    pairs: none is lost and none is kept twice."""
    net = _fresh(case)
    index = net.path_index
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slices, "COLD_BLOCK", 1)
        blocks = list(slices._column_blocks(index))
    kept = [
        (a, b)
        for block_a, block_b, _ in blocks
        for a, b in zip(block_a.tolist(), block_b.tolist())
    ]
    incidence = index.incidence
    expected = {
        (a, b)
        for a in range(index.num_paths)
        for b in range(a + 1, index.num_paths)
        if (incidence[a] & incidence[b]).any()
    }
    assert len(kept) == len(set(kept))
    assert set(kept) == expected


def test_multi_link_pairs_span_blocks():
    """A deterministic case: p0/p1 share l0, l1 and l2, so they are
    candidates in three one-column blocks and kept in the first."""
    net = Network(
        ["l0", "l1", "l2", "l3"],
        [
            Path("p0", ("l0", "l1", "l2")),
            Path("p1", ("l0", "l1", "l2", "l3")),
            Path("p2", ("l1", "l3")),
        ],
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slices, "COLD_BLOCK", 1)
        blocks = list(slices._column_blocks(net.path_index))
        groups = _pair_groups(net)
    pairs_per_block = [list(zip(a.tolist(), b.tolist())) for a, b, _ in blocks]
    assert pairs_per_block == [[(0, 1)], [(0, 2), (1, 2)], [], []]
    assert groups.sigmas == (("l0", "l1", "l2"), ("l1",), ("l1", "l3"))
    oracle = dense_pair_groups(net)
    _assert_fields_equal(oracle, groups, GROUP_FIELDS)


@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_lowest_links_matches_the_first_set_column(num_links, seed):
    rng = np.random.default_rng(seed)
    rows = rng.random((20, num_links)) < rng.random()
    rows[np.arange(20), rng.integers(0, num_links, 20)] = True
    np.testing.assert_array_equal(
        _lowest_links(pack_bool_rows(rows)), rows.argmax(axis=1)
    )


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("shape", [(2, 3), (3, 4)])
def test_federated_networks_equal_dense_oracle(shape, block):
    oracle = dense_pair_groups(build_federated_multi_isp(*shape).network)
    want = dense_slice_layout(oracle, 5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slices, "COLD_BLOCK", block)
        net = build_federated_multi_isp(*shape).network
        groups = _pair_groups(net)
        batch, _ = build_slice_batch(net, 5)
    assert groups.sigmas == oracle.sigmas
    _assert_fields_equal(oracle, groups, GROUP_FIELDS)
    _assert_fields_equal(want, batch, BATCH_FIELDS)


@pytest.mark.parametrize("pair_block", (1, 3, normalize.PAIR_BLOCK))
@pytest.mark.parametrize("block", (1, 5, slices.COLD_BLOCK))
def test_blocked_costs_and_scores_equal_full_array_oracle(block, pair_block):
    """Pair costs (blocks of pairs) and scores (blocks of systems) are
    bitwise the one-shot array expressions."""
    net = build_federated_multi_isp(3, 4).network
    perf, _ = random_two_class_performance(
        np.random.default_rng(3), net, num_violations=2
    )
    data = synthesize_records(perf, np.random.default_rng(4), num_intervals=70)
    batch, _ = build_slice_batch(net, 5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slices, "COLD_BLOCK", block)
        patch.setattr(normalize, "PAIR_BLOCK", pair_block)
        _, y_single, y_pair = normalize.batch_slice_observations(data, batch)
        scores = batch_unsolvability_arrays(batch, y_single, y_pair)

    status = (data.lost_matrix / data.sent_matrix) < 0.01
    rows = data.rows_of(net.path_index.path_ids)
    joint = status[rows[batch.pair_a]] & status[rows[batch.pair_b]]
    table = normalize.cost_table(status.shape[1])
    np.testing.assert_array_equal(y_pair, table[joint.sum(axis=1)])
    clipped = np.maximum(
        y_single[batch.pair_a] + y_single[batch.pair_b] - y_pair, 0.0
    )
    starts = batch.offsets[:-1]
    spread = np.maximum.reduceat(clipped, starts) - np.minimum.reduceat(
        clipped, starts
    )
    np.testing.assert_array_equal(
        scores, np.where(np.diff(batch.offsets) >= 2, spread, 0.0)
    )
