"""Edge-case tests for Algorithm 1's flags and bookkeeping."""

import numpy as np
import pytest

from oracles.algorithm_reference import remove_redundant_reference
from repro.core.algorithm import (
    identify_from_scores,
    identify_non_neutral,
    identify_non_neutral_exact,
)
from repro.core.slices import build_slice_batch
from repro.measurement.clustering import threshold_decider
from repro.topology.figures import figure4
from repro.topology.generators import random_mesh_network


def test_identified_raw_keeps_the_pruned_sequences():
    """``identified_raw`` is Σn̄ before the §5 pruning: with every σ
    of a mesh flagged, it is the whole batch, and ``identified`` is
    what the frozen set-union loop keeps of it."""
    net = random_mesh_network(
        np.random.default_rng(2), num_stubs=6, extra_edges=3
    )
    batch, skipped = build_slice_batch(net, 5)
    result = identify_from_scores(
        batch, skipped, dict.fromkeys(batch.sigmas, 1.0),
        threshold_decider(0.5),
    )
    assert result.identified_raw == batch.sigmas
    assert result.neutral == ()
    assert set(result.identified) < set(result.identified_raw)
    assert result.identified == remove_redundant_reference(
        batch.sigmas, batch.sigmas
    )


def test_min_pathsets_threshold_gates_candidates():
    fig = figure4()
    strict = identify_non_neutral_exact(
        fig.performance, min_pathsets=100
    )
    assert strict.identified == ()
    assert strict.systems == {}
    assert len(strict.skipped) > 0


def test_identified_links_property():
    fig = figure4()
    result = identify_non_neutral_exact(fig.performance)
    assert result.identified_links == {"l1", "l2"}


def test_scores_populated_for_all_examined():
    fig = figure4()
    result = identify_non_neutral_exact(fig.performance)
    assert set(result.scores) == set(result.systems)
    assert all(v >= 0 for v in result.scores.values())


def test_observation_driven_missing_pathset_raises():
    from repro.exceptions import SliceError

    fig = figure4()
    with pytest.raises((KeyError, SliceError)):
        identify_non_neutral(fig.network, {})
