"""Memory regression: ≥5k-path records→verdict under a hard budget.

The scaling contract (DESIGN.md S13): on the 8×13 federated
multi-ISP topology (5356 paths, 196 links) the sparse/bit-packed
pipeline must complete records→verdict within a fixed tracemalloc
peak. The call builds no per-pathset or per-σ object, and its cold
pass runs in bounded blocks (DESIGN.md S13), so a cold verdict on a
fresh network stays within :data:`SHARDED_BUDGET` — the budget the
sharded pipeline was once held to. Measured cold peak at the time of
writing: ~47 MB. The budgets leave headroom so the test fails on a
genuine regression (e.g. a dense P×P intermediate, ~229 MB of
float64 alone at this size), not on allocator noise.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.algorithm import DEFAULT_MIN_PATHSETS
from repro.core.slices import _observation_arrays, build_slice_batch
from repro.experiments.runner import infer_from_measurements
from repro.measurement.synthetic import synthesize_records
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

#: Hard tracemalloc-peak budgets (bytes) for the 5356-path run.
MONOLITHIC_BUDGET = 256 * 1024 * 1024
SHARDED_BUDGET = 128 * 1024 * 1024
#: Hard tracemalloc-peak budget (bytes) of a cold ``build_slice_batch``
#: on a fresh 5356-path network: registry, pair pass and layout.
#: Measured at the time of writing: ~36.0 MB, of which ~15 MB is the
#: pair grouping it keeps.
COLD_BATCH_BUDGET = 40 * 1024 * 1024

NUM_INTERVALS = 60


@pytest.fixture(scope="module")
def scale_case():
    fed = build_federated_multi_isp(8, 13)
    assert len(fed.network.path_ids) >= 5000
    perf, _ = random_two_class_performance(
        np.random.default_rng(5), fed.network, num_violations=4
    )
    data = synthesize_records(
        perf, np.random.default_rng(6), num_intervals=NUM_INTERVALS
    )
    return fed, data


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_monolithic_within_budget(scale_case):
    fed, data = scale_case
    # A fresh network: the module fixture's caches must not subsidize
    # the measured run.
    net = build_federated_multi_isp(8, 13).network
    (obs, alg), peak = _traced_peak(
        lambda: infer_from_measurements(net, data)
    )
    assert alg.scores  # non-vacuous
    assert len(alg.systems) == len(alg.scores)
    assert len(obs) > len(net.path_ids)
    # The lazy views built nothing: no System 4 was materialized.
    batch, _ = build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    assert batch.num_materialized == 0
    assert peak <= MONOLITHIC_BUDGET, f"peak {peak / 1e6:.1f} MB"


def test_cold_monolith_within_sharded_budget(scale_case):
    """A cold verdict (pair pass and layout included) stays within the
    budget the sharded pipeline was held to, and equals the verdict
    on the fixture's network bitwise."""
    fed, data = scale_case
    net = build_federated_multi_isp(8, 13).network
    (_, cold), peak = _traced_peak(
        lambda: infer_from_measurements(net, data)
    )
    assert peak <= SHARDED_BUDGET, f"peak {peak / 1e6:.1f} MB"
    _, warm = infer_from_measurements(fed.network, data)
    assert cold.scores == warm.scores
    assert set(cold.identified) == set(warm.identified)
    assert set(cold.neutral) == set(warm.neutral)
    assert set(cold.skipped) == set(warm.skipped)


def test_cold_slice_batch_within_budget():
    """Lines 2–12 of Algorithm 1 on a fresh network: the column-wise
    pair pass and the blocked layout hold no all-pairs temporary
    beyond the arrays they return."""
    net = build_federated_multi_isp(8, 13).network
    (batch, _), peak = _traced_peak(
        lambda: build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    )
    assert batch.num_pairs > 900_000  # non-vacuous
    assert peak <= COLD_BATCH_BUDGET, f"peak {peak / 1e6:.1f} MB"


def test_observation_arrays_gather_without_dense_matrix(scale_case):
    """A plain ``{pathset: y}`` dict at 5356 paths unpacks through the
    sorted pair-key gather: its peak stays far below the dense
    ``(P, P)`` float64 matrix the unpacking once allocated."""
    fed, data = scale_case
    net = fed.network
    lazy, alg = infer_from_measurements(net, data)
    batch, _ = build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    eager = dict(lazy.items())
    dense_bytes = len(net.path_ids) ** 2 * 8
    (y_member, y_pair_flat), peak = _traced_peak(
        lambda: _observation_arrays(batch, eager)
    )
    assert peak < dense_bytes / 4, f"peak {peak / 1e6:.1f} MB"
    np.testing.assert_array_equal(y_member, lazy.y_single[batch.member_rows])
    np.testing.assert_array_equal(y_pair_flat, lazy.y_pair_flat)
