"""Properties of the cold-start primitives of Algorithm 1's set-up.

``sorted_unique`` must be ``np.unique`` exactly (values and dtype), and
the one-pass link→paths map in ``Network.__init__`` must hold the same
``Paths(l)`` sets as the per-link definition.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.network import Network, Path
from repro.core.slices import sorted_unique
from repro.topology.generators import random_mesh_network, random_tree_network
from repro.topology.multi_isp import build_federated_multi_isp

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_INT64 = np.iinfo(np.int64)


def _int_arrays(dtype):
    info = np.iinfo(dtype)
    # Draw from a small pool mixed with the extremes so duplicates and
    # INT64_MIN / INT64_MAX both show up often.
    elements = st.one_of(
        st.integers(-5, 5),
        st.sampled_from([int(info.min), int(info.min) + 1,
                         int(info.max) - 1, int(info.max)]),
        st.integers(int(info.min), int(info.max)),
    )
    return hnp.arrays(
        dtype, st.integers(0, 60), elements=elements
    )


def _assert_same_as_np_unique(values):
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@_SETTINGS
@given(_int_arrays(np.int64))
def test_sorted_unique_matches_np_unique_int64(values):
    _assert_same_as_np_unique(values)


@_SETTINGS
@given(_int_arrays(np.intp))
def test_sorted_unique_matches_np_unique_intp(values):
    _assert_same_as_np_unique(values)


@pytest.mark.parametrize(
    "values",
    [
        np.array([], dtype=np.int64),
        np.array([], dtype=np.intp),
        np.array([7], dtype=np.int64),
        np.array([-3], dtype=np.intp),
        np.array([_INT64.max, _INT64.min, _INT64.max, 0, _INT64.min]),
        np.array([[3, 1], [1, -2]], dtype=np.int64),  # flattened
        np.arange(10, dtype=np.intp)[::-2],  # non-contiguous view
    ],
    ids=["empty64", "empty-intp", "one", "one-neg", "extremes", "2d",
         "strided"],
)
def test_sorted_unique_edge_cases(values):
    before = values.copy()
    _assert_same_as_np_unique(values)
    np.testing.assert_array_equal(values, before)  # input untouched


def _assert_paths_through_definition(net):
    paths = list(net.paths.values())
    for link_id in net.link_ids:
        expected = {p.id for p in paths if link_id in p.links}
        assert net.paths_through(link_id) == expected


@_SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 9),
    st.integers(2, 3),
)
def test_paths_through_random_trees(seed, num_leaves, branching):
    net = random_tree_network(
        np.random.default_rng(seed), num_leaves=num_leaves,
        branching=branching,
    )
    _assert_paths_through_definition(net)


@_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(3, 7), st.integers(0, 4))
def test_paths_through_random_meshes(seed, num_stubs, extra_edges):
    net = random_mesh_network(
        np.random.default_rng(seed), num_stubs=num_stubs,
        extra_edges=extra_edges,
    )
    _assert_paths_through_definition(net)


def test_paths_through_federated():
    net = build_federated_multi_isp(5, 10).network
    _assert_paths_through_definition(net)


def test_paths_through_unused_link_is_empty():
    net = Network(["a", "b", "idle"], [Path("p", ("a", "b"))])
    assert net.paths_through("idle") == frozenset()
