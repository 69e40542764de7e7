"""The cold passes ≡ the dense oracle, bit for bit.

:func:`repro.core.slices._pair_groups` enumerates candidate pairs one
incidence column at a time and keeps each pair only in the column of
its lowest shared link, read off the packed words below that column;
:func:`build_slice_batch` lays out member rows and local positions per
block of σ groups. With the block bound
(:data:`repro.core.slices.COLD_BLOCK`) patched down to 1, every group
is its own block. Whatever the bound, the arrays must equal the dense
``P²`` oracle's — and so must the blocked pair costs and scores.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.dense_pairs import dense_pair_groups, dense_slice_layout
from repro.core import slices
from repro.core.network import Network, Path
from repro.core.slices import (
    _pair_groups,
    batch_unsolvability_arrays,
    build_slice_batch,
)
from repro.measurement import normalize
from repro.measurement.synthetic import synthesize_records
from repro.topology.generators import (
    random_two_class_performance,
    star_network,
)
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
    "member_rows", "member_offsets", "member_a", "member_b",
    "sigma_masks",
)


@st.composite
def random_networks(draw):
    """Paths as random link subsets: up to 260 links (five packed
    words, so a lowest shared link falls past the 64/128/192/256
    word boundaries), dense enough that many pairs share several
    links. Link ids are zero-padded or not: unpadded ids (``l10``
    before ``l2``) put the index order apart from the number order."""
    num_links = draw(st.integers(1, 260))
    num_paths = draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.02, 0.7))
    name = "l{:03d}" if draw(st.booleans()) else "l{}"
    links = [name.format(k) for k in range(num_links)]
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


def test_multi_link_pairs_span_blocks():
    """A deterministic case: p0/p1 share l0, l1 and l2, so they are
    candidates in three columns and kept in the first."""
    net = Network(
        ["l0", "l1", "l2", "l3"],
        [
            Path("p0", ("l0", "l1", "l2")),
            Path("p1", ("l0", "l1", "l2", "l3")),
            Path("p2", ("l1", "l3")),
        ],
    )
    groups = _pair_groups(net)
    assert groups.sigmas == (("l0", "l1", "l2"), ("l1",), ("l1", "l3"))
    oracle = dense_pair_groups(net)
    _assert_fields_equal(oracle, groups, GROUP_FIELDS)


@pytest.mark.parametrize("hub", ["hub", "zhub"])
@pytest.mark.parametrize("num_spokes", [2, 3, 70])
def test_star_hub_column_holds_every_pair(num_spokes, hub):
    """One hub column owns every pair, as one σ in triu order: the
    first column (``hub``) or, past 64 spokes, one in the second
    packed word (``zhub``)."""
    net = star_network(num_spokes, hub_link=hub)
    groups = _pair_groups(net)
    assert groups.sigmas == ((hub,),)
    a, b = np.triu_indices(num_spokes, k=1)
    np.testing.assert_array_equal(groups.pair_a, a)
    np.testing.assert_array_equal(groups.pair_b, b)
    _assert_fields_equal(dense_pair_groups(net), groups, GROUP_FIELDS)


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
        _, y_member, y_pair = normalize.batch_slice_observations(data, batch)
        scores = batch_unsolvability_arrays(batch, y_member, y_pair)

    status = (data.lost_matrix / data.sent_matrix) < 0.01
    rows = data.rows_of(net.path_index.path_ids)
    joint = status[rows[batch.pair_a]] & status[rows[batch.pair_b]]
    table = normalize.cost_table(status.shape[1])
    np.testing.assert_array_equal(y_pair, table[joint.sum(axis=1)])
    y_single = table[status[rows].sum(axis=1)]
    np.testing.assert_array_equal(y_member, y_single[batch.member_rows])
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
