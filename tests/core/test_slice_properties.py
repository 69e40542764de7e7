"""Property-based tests for slice/System 4 structure on random nets."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.network import Network, Path, make_linkseq
from repro.core.slices import (
    SIGMA_COLUMN,
    _observation_arrays,
    batch_pair_estimates_arrays,
    build_slice_batch,
    build_slice_system,
    shared_sequences,
)

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_networks(draw):
    num_links = draw(st.integers(3, 7))
    links = [f"l{k}" for k in range(num_links)]
    num_paths = draw(st.integers(3, 5))
    paths = []
    for i in range(num_paths):
        size = draw(st.integers(1, min(4, num_links)))
        chosen = draw(
            st.permutations(links).map(lambda p: tuple(p[:size]))
        )
        paths.append(Path(f"p{i}", chosen))
    return Network(links, paths)


@_SETTINGS
@given(random_networks())
def test_buckets_partition_sharing_pairs(net):
    """Every path pair with a nonempty intersection lands in exactly
    the bucket of its shared sequence."""
    buckets = shared_sequences(net)
    seen = set()
    for sigma, pairs in buckets.items():
        for pair in pairs:
            a, b = pair
            assert make_linkseq(net.links_of(a) & net.links_of(b)) == sigma
            assert pair not in seen
            seen.add(pair)
    expected = {
        (a, b)
        for a, b in net.path_pairs()
        if net.links_of(a) & net.links_of(b)
    }
    assert seen == expected


@_SETTINGS
@given(random_networks())
def test_slice_matrix_structure(net):
    """System 4 matrices: σ column is all-ones; each row's remainder
    columns are exactly the member paths with non-empty remainders;
    σ is shared by every path of the slice."""
    for sigma, pairs in shared_sequences(net).items():
        system = build_slice_system(net, sigma, pairs)
        assert system is not None
        assert system.columns[0] == SIGMA_COLUMN
        np.testing.assert_array_equal(
            system.matrix[:, 0], np.ones(len(system.family))
        )
        sigma_set = set(sigma)
        for pid in system.paths:
            assert sigma_set <= net.links_of(pid)
        for i, ps in enumerate(system.family):
            active = {
                system.columns[j]
                for j in range(1, len(system.columns))
                if system.matrix[i, j] == 1.0
            }
            expected = {
                pid
                for pid in ps
                if net.links_of(pid) - sigma_set
            }
            assert active == expected


@_SETTINGS
@given(random_networks())
def test_pair_estimates_exact_for_neutral(net):
    """On any random network with neutral ground truth, every pair
    estimate equals σ's true cost exactly."""
    from repro.core.classes import ClassAssignment, PerformanceClass
    from repro.core.performance import neutral_performance

    rng = np.random.default_rng(0)
    classes = ClassAssignment(
        [PerformanceClass("c1", frozenset(net.path_ids))], net
    )
    values = {
        lid: float(rng.uniform(0, 0.5)) for lid in net.link_ids
    }
    perf = neutral_performance(net, classes, values)
    # Threshold 1 keeps every shared sequence.
    batch, _ = build_slice_batch(net, 1)
    assert batch.sigmas == tuple(shared_sequences(net))
    obs = {
        ps: perf.pathset_performance(ps)
        for family in batch.families()
        for ps in family
    }
    estimates = batch_pair_estimates_arrays(
        batch, *_observation_arrays(batch, obs)
    )
    for g, sigma in enumerate(batch.sigmas):
        truth = sum(values[lid] for lid in sigma)
        lo, hi = batch.offsets[g], batch.offsets[g + 1]
        assert np.all(np.abs(estimates[lo:hi] - truth) < 1e-9)
