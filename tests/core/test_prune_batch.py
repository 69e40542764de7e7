"""§5 redundancy pruning from a slice batch's cached σ incidence.

Algorithm 1 prunes its identified sequences with
:func:`~repro.core.algorithm.prune_identified`, two small products over
the batch's σ × link incidence. On random identified subsets of real
batches — the 5×10 federated topology (85 links, wider than one
64-bit word), random meshes, and a mesh over more than 64 links — it
must keep exactly what the frozen set-union loop
(``remove_redundant_reference``) keeps.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.algorithm_reference import remove_redundant_reference
from repro.core.algorithm import prune_identified
from repro.core.slices import build_slice_batch
from repro.topology.generators import random_mesh_network
from repro.topology.multi_isp import build_federated_multi_isp

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=None)
def _batch(kind, seed=0):
    if kind == "federated":
        net = build_federated_multi_isp(5, 10).network
    else:
        stubs = 22 if kind == "wide-mesh" else 4 + seed % 9
        net = random_mesh_network(
            np.random.default_rng(seed), num_stubs=stubs, extra_edges=3
        )
    batch, _ = build_slice_batch(net, 3)
    return batch


def _random_rows(batch, rng):
    """A random identified subset: uniform at a random density, or
    closed downward from a few large sequences (so their subsets are
    identified and pruning has something to do)."""
    num = batch.num_systems
    if rng.random() < 0.5:
        return np.flatnonzero(rng.random(num) < rng.choice([0.05, 0.3, 0.8]))
    masks = batch.sigma_masks
    tops = rng.choice(num, size=min(num, 3), replace=False)
    covered = masks[tops].any(axis=0)
    closed = ~(masks & ~covered).any(axis=1)
    return np.flatnonzero(closed & (rng.random(num) < 0.7))


def _check(batch, rows):
    identified = tuple(batch.sigmas[g] for g in rows.tolist())
    expected = remove_redundant_reference(identified, batch.sigmas)
    assert prune_identified(batch, rows) == expected
    return len(identified) - len(expected)


@_SETTINGS
@given(st.integers(0, 2**31))
def test_federated_batch_matches_reference(seed):
    batch = _batch("federated")
    assert batch.sigma_masks.shape[1] > 64
    _check(batch, _random_rows(batch, np.random.default_rng(seed)))


@_SETTINGS
@given(st.integers(0, 40), st.integers(0, 2**31))
def test_random_mesh_batches_match_reference(mesh_seed, seed):
    batch = _batch("mesh", mesh_seed)
    _check(batch, _random_rows(batch, np.random.default_rng(seed)))


@_SETTINGS
@given(st.integers(0, 2**31))
def test_wide_mesh_batch_matches_reference(seed):
    batch = _batch("wide-mesh")
    assert batch.sigma_masks.shape[1] > 64
    _check(batch, _random_rows(batch, np.random.default_rng(seed)))


@pytest.mark.parametrize("kind", ["federated", "wide-mesh"])
def test_closed_subsets_get_pruned(kind):
    """The downward-closed draws really exercise pruning."""
    batch = _batch(kind)
    rng = np.random.default_rng(7)
    pruned = 0
    for _ in range(20):
        rows = _random_rows(batch, rng)
        pruned += _check(batch, rows)
    assert pruned > 0


def test_empty_identified_set():
    batch = _batch("federated")
    assert prune_identified(batch, np.zeros(0, dtype=np.intp)) == ()


@_SETTINGS
@given(st.integers(0, 40), st.integers(0, 2**31))
def test_examined_mask_limits_decompositions(mesh_seed, seed):
    """With some σ unexamined, a decomposition may use only examined
    ones: the result equals the reference over the examined σ."""
    batch = _batch("mesh", mesh_seed)
    rng = np.random.default_rng(seed)
    examined = rng.random(batch.num_systems) < 0.7
    rows = _random_rows(batch, rng)
    rows = rows[examined[rows]]
    identified = tuple(batch.sigmas[g] for g in rows.tolist())
    kept = tuple(s for s, e in zip(batch.sigmas, examined.tolist()) if e)
    expected = remove_redundant_reference(identified, kept)
    assert prune_identified(batch, rows, examined) == expected
