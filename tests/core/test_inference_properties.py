"""Property-based equivalence and invariance of the batched inference.

Hypothesis drives random networks through both the vectorized and the
frozen-reference implementations, plus the relabeling invariances the
indexed rewrite must preserve: the algebra only sees *which* paths
share *which* links, so renaming paths (or links, for the redundancy
pruning) must permute the output, never change it.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.algorithm import remove_redundant
from oracles.algorithm_reference import (
    pair_estimates_reference,
    remove_redundant_reference,
    shared_sequences_reference,
    two_means_split_reference,
    unsolvability_reference,
)
from repro.core.network import Network, Path
from repro.core.slices import (
    _observation_arrays,
    batch_pair_estimates_arrays,
    batch_unsolvability_arrays,
    build_slice_batch,
    shared_sequences,
)
from repro.measurement.clustering import two_means_split

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_networks(draw):
    num_links = draw(st.integers(3, 8))
    links = [f"l{k}" for k in range(num_links)]
    num_paths = draw(st.integers(3, 7))
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
def test_shared_sequences_matches_reference(net):
    """Batched grouping == per-pair frozenset grouping, bucket by
    bucket and pair by pair."""
    assert shared_sequences(net) == shared_sequences_reference(net)


@_SETTINGS
@given(random_networks(), st.randoms(use_true_random=False))
def test_shared_sequences_path_relabeling_invariance(net, pyrandom):
    """Renaming paths permutes bucket contents, nothing else."""
    ids = list(net.paths)
    renamed = ids[:]
    pyrandom.shuffle(renamed)
    rename = dict(zip(ids, renamed))
    relabeled = Network(
        list(net.links.values()),
        [Path(rename[p.id], p.links) for p in net.paths.values()],
    )
    base = shared_sequences(net)
    mapped = shared_sequences(relabeled)
    assert set(base) == set(mapped)
    for sigma, pairs in base.items():
        expected = {
            frozenset((rename[a], rename[b])) for a, b in pairs
        }
        assert {frozenset(pair) for pair in mapped[sigma]} == expected


@_SETTINGS
@given(random_networks(), st.integers(0, 2**31 - 1))
def test_batch_scores_match_per_system_scores(net, seed):
    """The flat-gather scores and each σ's segment of the flat
    estimates equal the frozen reference's per-system dict loops,
    given random observations."""
    rng = np.random.default_rng(seed)
    batch, _ = build_slice_batch(net, min_pathsets=3)
    observations = {}
    for system in batch.systems:
        for ps in system.family:
            if ps not in observations:
                observations[ps] = float(rng.uniform(0.0, 1.0))
    arrays = _observation_arrays(batch, observations)
    scores = batch_unsolvability_arrays(batch, *arrays)
    estimates = batch_pair_estimates_arrays(batch, *arrays).tolist()
    assert scores.shape == (len(batch.sigmas),)
    for g, system in enumerate(batch.systems):
        assert scores[g] == unsolvability_reference(system, observations)
        lo, hi = batch.offsets[g], batch.offsets[g + 1]
        assert dict(zip(system.pairs, estimates[lo:hi])) == (
            pair_estimates_reference(system, observations)
        )


@st.composite
def sequence_families(draw):
    """A pool of link sequences over a small universe, split into
    examined ⊇ identified."""
    universe = [f"l{k}" for k in range(draw(st.integers(3, 7)))]
    num_seqs = draw(st.integers(1, 8))
    examined = []
    seen = set()
    for _ in range(num_seqs):
        size = draw(st.integers(1, len(universe)))
        seq = tuple(
            sorted(
                draw(
                    st.permutations(universe).map(
                        lambda p: tuple(p[:size])
                    )
                )
            )
        )
        if seq not in seen:
            seen.add(seq)
            examined.append(seq)
    flags = [draw(st.booleans()) for _ in examined]
    if not any(flags):
        flags[0] = True
    identified = [s for s, flag in zip(examined, flags) if flag]
    return identified, examined


@_SETTINGS
@given(sequence_families())
def test_remove_redundant_matches_reference(pool):
    identified, examined = pool
    assert remove_redundant(identified, examined) == (
        remove_redundant_reference(identified, examined)
    )


@_SETTINGS
@given(sequence_families(), st.randoms(use_true_random=False))
def test_remove_redundant_link_relabeling_invariance(pool, pyrandom):
    """Renaming links maps the pruned set through the same renaming."""
    identified, examined = pool
    universe = sorted({lid for seq in examined for lid in seq})
    renamed = [f"x{k}" for k in range(len(universe))]
    pyrandom.shuffle(renamed)
    rename = dict(zip(universe, renamed))

    def map_seq(seq):
        return tuple(sorted(rename[lid] for lid in seq))

    base = remove_redundant(identified, examined)
    mapped = remove_redundant(
        [map_seq(s) for s in identified], [map_seq(s) for s in examined]
    )
    assert sorted(mapped) == sorted(map_seq(s) for s in base)


@_SETTINGS
@given(
    st.integers(0, 2**31),
    st.sampled_from([63, 64, 65, 130, 200]),
)
def test_remove_redundant_matches_reference_across_words(seed, links):
    """Universes wider than one 64-link word, with planted unions so
    some identified sequences are redundant, and planted extensions
    (a sequence plus one more link) whose candidates leave that link
    uncovered."""
    rng = np.random.default_rng(seed)
    universe = [f"l{k}" for k in range(links)]
    base = [
        tuple(sorted(rng.choice(universe, rng.integers(1, 4), False)))
        for _ in range(30)
    ]
    unions = [
        tuple(sorted(set(base[i]) | set(base[j])))
        for i, j in rng.integers(0, len(base), (15, 2))
    ]
    extended = [
        tuple(sorted(set(seq) | {str(rng.choice(universe))}))
        for seq in base[:15]
    ]
    examined = list(dict.fromkeys(base + unions + extended))
    identified = [seq for seq in examined if rng.random() < 0.5]
    assert remove_redundant(identified, examined) == (
        remove_redundant_reference(identified, examined)
    )


@_SETTINGS
@given(
    st.lists(
        st.floats(
            min_value=0.0,
            max_value=10.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=40,
    )
)
def test_two_means_split_matches_reference(values):
    """The argmin'd prefix-sum split equals the frozen sequential
    search on arbitrary score lists."""
    vec = two_means_split(values)
    ref = two_means_split_reference(values)
    assert vec.separated == ref.separated
    assert vec.threshold == ref.threshold
    assert vec.low_center == ref.low_center
    assert vec.high_center == ref.high_center
