"""The lazy observation and system views against the eager structures.

:func:`batch_slice_observations` returns a display-only
:class:`PathsetObservations` view next to its per-member cost arrays,
and :class:`AlgorithmResult.systems` is a :class:`SliceSystemsView`
over the slice batch. The oracles below are the eager code those
views replaced, frozen here: the ``{frozenset: y}`` loop of the fast
path and the dense ``(P, P)`` unpacking of a pathset dict. Every view
must equal them as a mapping, iterate in the same order, and pickle
to the same plain dict. Records with silent intervals give each σ
its own singleton costs; their arrays are checked against the
family-scoped reference (``tests/oracles/family_reference.py``).
"""

import os
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "core"))

from inference_golden_config import (  # noqa: E402
    NORM_SEED,
    build_cases,
    case_records,
)
from repro.core.algorithm import (  # noqa: E402
    DEFAULT_MIN_PATHSETS,
    identify_non_neutral,
)
from repro.core.slices import (  # noqa: E402
    SliceSystemsView,
    _observation_arrays,
    build_slice_batch,
)
from repro.experiments.config import EmulationSettings  # noqa: E402
from repro.experiments.runner import infer_from_measurements  # noqa: E402
from repro.experiments.topology_a import run_topology_a  # noqa: E402
from repro.experiments.topology_b import (  # noqa: E402
    TOPOLOGY_B_SETTINGS,
    run_topology_b,
)
from oracles.algorithm_reference import (  # noqa: E402
    pathset_performance_numbers_reference,
)
from oracles.family_reference import (  # noqa: E402
    family_observations_reference,
    infer_family_reference,
    member_costs_reference,
)
from repro.measurement.normalize import (  # noqa: E402
    PathsetObservations,
    batch_slice_observations,
)
from repro.measurement.records import (  # noqa: E402
    MeasurementData,
    PathRecord,
)
from repro.measurement.synthetic import synthesize_records  # noqa: E402
from repro.topology.generators import (  # noqa: E402
    chain_network,
    random_mesh_network,
    random_tree_network,
    random_two_class_performance,
    star_network,
)

CASES = build_cases()

#: The golden suite's tolerance (``tests/core/test_inference_golden.py``).
RELTOL = 1e-9


# ----------------------------------------------------------------------
# Frozen oracles
# ----------------------------------------------------------------------


def eager_observations(data, batch, loss_threshold=0.01):
    """The expected-mode fast path with its eager ``{pathset: y}``
    loop: singletons in row order, then pairs in flat batch order."""
    status = (data.lost_matrix / data.sent_matrix) < loss_threshold
    total = status.shape[1]
    eps = 1.0 / (2.0 * total)
    used = np.unique(batch.member_rows)
    path_ids = batch.index.path_ids
    joint = status[data.rows_of(path_ids[r] for r in used)]
    y_used = -np.log(np.clip(joint.mean(axis=1), eps, 1.0))
    local = np.full(batch.index.num_paths, -1, dtype=np.intp)
    local[used] = np.arange(used.size)
    counts = (joint[local[batch.pair_a]] & joint[local[batch.pair_b]]).sum(
        axis=1
    )
    y_pair_flat = -np.log(np.clip(counts / total, eps, 1.0))
    observations = {}
    for r, y in zip(used.tolist(), y_used.tolist()):
        observations[frozenset([path_ids[r]])] = y
    for a, b, y in zip(
        batch.pair_a.tolist(), batch.pair_b.tolist(), y_pair_flat.tolist()
    ):
        observations[frozenset((path_ids[a], path_ids[b]))] = y
    return observations


def dense_observation_arrays(batch, observations):
    """The dense unpacking: a ``(P, P)`` pair matrix, then a gather."""
    pos = batch.index.path_pos
    num_paths = batch.index.num_paths
    y_single = np.full(num_paths, np.nan)
    y_pair = np.full((num_paths, num_paths), np.nan)
    for ps, value in observations.items():
        if len(ps) == 1:
            (pid,) = ps
            i = pos.get(pid)
            if i is not None:
                y_single[i] = value
        elif len(ps) == 2:
            pid_a, pid_b = ps
            i, j = pos.get(pid_a), pos.get(pid_b)
            if i is not None and j is not None:
                y_pair[i, j] = value
                y_pair[j, i] = value
    return y_single, y_pair[batch.pair_a, batch.pair_b]


def last_group_singletons(batch, y_member):
    """The display rule, one group at a time: a path shows the cost
    of the last σ group, in batch order, that contains it."""
    y_single = np.full(batch.index.num_paths, np.nan)
    for g in range(batch.num_systems):
        lo, hi = batch.member_offsets[g], batch.member_offsets[g + 1]
        for r, y in zip(
            batch.member_rows[lo:hi].tolist(), y_member[lo:hi].tolist()
        ):
            y_single[r] = y
    return y_single


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _with_silent_interval(data, path_id, interval):
    """``data`` with one path sending nothing in one interval."""
    sent = data.sent_matrix.copy()
    lost = data.lost_matrix.copy()
    row = data.rows_of([path_id])[0]
    sent[row, interval] = 0
    lost[row, interval] = 0
    return MeasurementData(
        [
            PathRecord(pid, sent[i], lost[i])
            for i, pid in enumerate(data.path_ids)
        ],
        data.interval_seconds,
    )


def _assert_matches_oracle(obs, oracle):
    assert isinstance(obs, PathsetObservations)
    assert len(obs) == len(oracle)
    assert list(obs) == list(oracle)
    assert dict(obs) == oracle
    assert dict(obs.items()) == oracle
    assert list(obs.values()) == list(oracle.values())
    assert obs == oracle and oracle == obs
    for ps, value in oracle.items():
        assert type(obs[ps]) is float and obs[ps] == value


def _assert_dense_oracle(batch, observations):
    y_member, y_pair_flat = _observation_arrays(batch, observations)
    ref_single, ref_pair = dense_observation_arrays(batch, observations)
    np.testing.assert_array_equal(y_member, ref_single[batch.member_rows])
    np.testing.assert_array_equal(y_pair_flat, ref_pair)


def _assert_family_oracle(batch, y_member, y_pair_flat, per_sigma):
    """The per-member cost arrays equal each σ family's own values."""
    want_member, want_pair = member_costs_reference(batch, per_sigma)
    np.testing.assert_allclose(y_member, want_member, rtol=RELTOL, atol=0)
    np.testing.assert_allclose(y_pair_flat, want_pair, rtol=RELTOL, atol=0)


# ----------------------------------------------------------------------
# Golden cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_matches_eager_oracle(name):
    net, perf, mp, mode = CASES[name]
    data = case_records(name, net, perf)
    batch, _ = build_slice_batch(net, mp)
    obs, y_member, y_pair_flat = batch_slice_observations(
        data, batch, mode=mode, rng=np.random.default_rng(NORM_SEED)
    )
    if mode == "expected":
        _assert_matches_oracle(obs, eager_observations(data, batch))
    else:
        assert isinstance(obs, PathsetObservations)
        np.testing.assert_array_equal(
            obs.y_single, last_group_singletons(batch, y_member)
        )
        np.testing.assert_array_equal(obs.y_pair_flat, y_pair_flat)
    _assert_dense_oracle(batch, obs)
    _assert_dense_oracle(batch, dict(obs))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_lazy_systems(name):
    net, perf, mp, mode = CASES[name]
    data = case_records(name, net, perf)
    obs, alg = infer_from_measurements(
        net,
        data,
        settings=EmulationSettings(normalization_mode=mode),
        min_pathsets=mp,
        rng=np.random.default_rng(NORM_SEED),
    )
    batch, _ = build_slice_batch(net, mp)
    assert isinstance(alg.systems, SliceSystemsView)
    assert list(alg.systems) == list(batch.sigmas)
    assert len(alg.systems) == len(alg.scores)
    assert alg.systems == batch.systems_dict()
    # Scoring a mapping goes through the same arrays, bitwise.
    if mode == "expected":
        for mapping in (obs, dict(obs)):
            again = identify_non_neutral(net, mapping, min_pathsets=mp)
            assert again.scores == alg.scores


# ----------------------------------------------------------------------
# Random topologies
# ----------------------------------------------------------------------


@st.composite
def topology_case(draw):
    kind = draw(st.sampled_from(["star", "chain", "tree", "mesh"]))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    if kind == "star":
        net = star_network(draw(st.integers(2, 10)))
    elif kind == "chain":
        net = chain_network(draw(st.integers(2, 5)), draw(st.integers(2, 8)))
    elif kind == "tree":
        net = random_tree_network(rng, num_leaves=draw(st.integers(3, 8)))
    else:
        net = random_mesh_network(
            rng, draw(st.integers(3, 6)), draw(st.integers(0, 3))
        )
    perf, _ = random_two_class_performance(rng, net, num_violations=1)
    data = synthesize_records(
        perf, np.random.default_rng(seed + 1),
        num_intervals=draw(st.integers(5, 120)),
    )
    min_pathsets = draw(st.sampled_from([3, 5]))
    return net, data, min_pathsets


@settings(max_examples=40, deadline=None)
@given(topology_case())
def test_random_topologies_match_oracles(case):
    net, data, min_pathsets = case
    batch, _ = build_slice_batch(net, min_pathsets)
    obs, y_member, y_pair_flat = batch_slice_observations(data, batch)
    if batch.num_systems == 0:
        assert obs == {}
        return
    _assert_matches_oracle(obs, eager_observations(data, batch))
    # With traffic everywhere every family prices a path alike.
    np.testing.assert_array_equal(obs.y_single[batch.member_rows], y_member)
    np.testing.assert_array_equal(obs.y_pair_flat, y_pair_flat)
    _assert_dense_oracle(batch, dict(obs))
    assert pickle.loads(pickle.dumps(obs)) == dict(obs)

    # A silent interval takes the per-group loop: each σ's costs are
    # its own family's, and the view shows the last group's singleton.
    silent = _with_silent_interval(data, data.path_ids[0], 0)
    per_group, pg_member, pg_pair = batch_slice_observations(silent, batch)
    assert isinstance(per_group, PathsetObservations)
    _assert_family_oracle(
        batch, pg_member, pg_pair,
        family_observations_reference(silent, batch),
    )
    np.testing.assert_array_equal(
        per_group.y_single, last_group_singletons(batch, pg_member)
    )
    np.testing.assert_array_equal(per_group.y_pair_flat, pg_pair)


# ----------------------------------------------------------------------
# Lookups, views, pickling
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def star_case():
    net, perf, mp, _mode = CASES["star12"]
    data = case_records("star12", net, perf, num_intervals=100)
    obs, alg = infer_from_measurements(net, data, min_pathsets=mp)
    return net, obs, alg


def test_absent_and_foreign_pathsets_raise_key_error(star_case):
    net, obs, _alg = star_case
    p1, p2, p3 = net.path_ids[:3]
    absent = [
        frozenset(["no-such-path"]),
        frozenset([p1, "no-such-path"]),
        frozenset([p1, p2, p3]),
        frozenset(),
        (p1, p2),
        p1,
        frozenset([p1, p1 + "x"]),
    ]
    for key in absent:
        with pytest.raises(KeyError):
            obs[key]
        assert key not in obs
        assert obs.get(key) is None
    assert frozenset([p1, p2]) in obs
    assert obs.get(frozenset([p1])) == obs[frozenset([p1])]


def test_pairs_outside_the_batch_raise_key_error():
    """A path pair sharing no link has no pathset of its own, and a
    path in no candidate slice has no singleton."""
    net = chain_network(3, 4)
    perf, _ = random_two_class_performance(
        np.random.default_rng(1), net, num_violations=1
    )
    data = synthesize_records(perf, np.random.default_rng(2), 40)
    batch, _ = build_slice_batch(net, 5)
    obs, _, _ = batch_slice_observations(data, batch)
    pairs = set(zip(batch.pair_a.tolist(), batch.pair_b.tolist()))
    path_ids = net.path_ids
    for i in range(len(path_ids)):
        for j in range(i + 1, len(path_ids)):
            key = frozenset([path_ids[i], path_ids[j]])
            assert (key in obs) == ((i, j) in pairs)
    used = set(np.unique(batch.member_rows).tolist())
    for i, pid in enumerate(path_ids):
        assert (frozenset([pid]) in obs) == (i in used)


def test_pickle_round_trips_are_plain_dicts(star_case):
    net, obs, alg = star_case
    back = pickle.loads(pickle.dumps(obs))
    assert type(back) is dict
    assert back == dict(obs)
    assert list(back) == list(obs)

    systems = pickle.loads(pickle.dumps(alg.systems))
    assert type(systems) is dict
    assert list(systems) == list(alg.systems)
    for sigma, system in systems.items():
        lazy = alg.systems[sigma]
        assert system.paths == lazy.paths
        assert system.pairs == lazy.pairs
        assert system.family == lazy.family
        assert system.columns == lazy.columns
        np.testing.assert_array_equal(system.matrix, lazy.matrix)

    result = pickle.loads(pickle.dumps(alg))
    assert type(result.systems) is dict
    assert result.scores == alg.scores


def test_systems_are_built_only_when_read():
    net, perf, mp, _mode = CASES["mesh6"]
    net = net.restricted_to_paths(net.path_ids)  # fresh caches
    data = case_records("mesh6", net, perf, num_intervals=100)
    _obs, alg = infer_from_measurements(net, data, min_pathsets=mp)
    batch, _ = build_slice_batch(net, mp)
    assert batch.num_materialized == 0
    sigma = batch.sigmas[-1]
    assert sigma in alg.systems
    assert batch.num_materialized == 0
    system = alg.systems[sigma]
    assert batch.num_materialized == 1
    assert alg.systems[sigma] is system  # memoized
    assert system.family == tuple(batch.families())[-1]
    with pytest.raises(KeyError):
        alg.systems[("no-such-link",)]
    assert batch.num_materialized == 1


def test_foreign_batch_gathers_by_pair_key():
    """Observations taken over one batch score another batch of the
    same network through the sorted pair-key lookup."""
    net, perf, _mp, _mode = CASES["figure4"]
    data = case_records("figure4", net, perf)
    wide, _ = build_slice_batch(net, 3)
    narrow, _ = build_slice_batch(net, 5)
    obs, _, _ = batch_slice_observations(data, wide)
    y_member, y_pair = _observation_arrays(narrow, obs)
    ref_single, ref_pair = dense_observation_arrays(narrow, dict(obs))
    np.testing.assert_array_equal(y_member, ref_single[narrow.member_rows])
    np.testing.assert_array_equal(y_pair, ref_pair)


# ----------------------------------------------------------------------
# Zero-traffic route at 1225 paths
# ----------------------------------------------------------------------


def reference_slice_observations(data, batch, mode="expected", rng=None):
    """The frozen per-pathset Algorithm 2 over every family of the
    batch, merged in batch order (a later family wins a shared
    pathset): the values the display view shows."""
    merged = {}
    for family in batch.families():
        merged.update(
            pathset_performance_numbers_reference(
                data, family, mode=mode, rng=rng
            )
        )
    return merged


def test_zero_traffic_route_on_federated_5x10():
    """One silent interval sends fed 5×10 down the per-group loop: its
    cost arrays equal each family's frozen per-pathset values, and
    its view the merged mapping with the later family winning."""
    net, perf, mp, _mode = CASES["fed5x10"]
    net = net.restricted_to_paths(net.path_ids)  # fresh caches
    data = case_records("fed5x10", net, perf, num_intervals=120)
    silent = _with_silent_interval(data, net.path_ids[7], 3)
    batch, _ = build_slice_batch(net, mp)
    obs, y_member, y_pair_flat = batch_slice_observations(silent, batch)
    assert batch.num_materialized == 0
    _assert_family_oracle(
        batch, y_member, y_pair_flat,
        family_observations_reference(silent, batch),
    )
    assert obs == reference_slice_observations(silent, batch)


# ----------------------------------------------------------------------
# Emulated records with silent intervals
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def emulated_records():
    """Records whose paths fall silent in some intervals: one Table 2
    set-6 point and topology B, 60 s each."""
    settings = EmulationSettings().quick(60.0)
    set6 = run_topology_a(6, 30.0, settings)
    topo_b = run_topology_b(TOPOLOGY_B_SETTINGS.quick(60.0)).outcome
    return {
        "set6": (set6.inference_network, set6.emulation.measurements),
        "topo-b": (topo_b.inference_network, topo_b.emulation.measurements),
    }


@pytest.mark.parametrize("mode", ["expected", "sampled"])
@pytest.mark.parametrize("name", ["set6", "topo-b"])
def test_emulated_records_match_frozen_oracle(emulated_records, name, mode):
    net, data = emulated_records[name]
    assert (data.sent_matrix == 0).any()
    batch, _ = build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    assert batch.num_systems > 0
    obs, y_member, y_pair_flat = batch_slice_observations(
        data, batch, mode=mode, rng=np.random.default_rng(NORM_SEED)
    )
    _assert_family_oracle(
        batch, y_member, y_pair_flat,
        family_observations_reference(
            data, batch, mode=mode, rng=np.random.default_rng(NORM_SEED)
        ),
    )
    # The display view: the merged mapping, a later family winning.
    oracle = reference_slice_observations(
        data, batch, mode=mode, rng=np.random.default_rng(NORM_SEED)
    )
    assert isinstance(obs, PathsetObservations)
    assert set(obs) == set(oracle)
    for pathset, want in oracle.items():
        assert abs(obs[pathset] - want) <= RELTOL + RELTOL * abs(want)


@pytest.mark.parametrize("mode", ["expected", "sampled"])
@pytest.mark.parametrize("name", ["set6", "topo-b"])
def test_emulated_verdict_matches_family_reference(
    emulated_records, name, mode
):
    """Records → verdict scores each σ with its own family's costs:
    the scores and verdict equal the family-scoped reference's."""
    net, data = emulated_records[name]
    _, ref = infer_family_reference(
        net, data, mode=mode, rng=np.random.default_rng(NORM_SEED)
    )
    _, alg = infer_from_measurements(
        net,
        data,
        settings=EmulationSettings(normalization_mode=mode),
        rng=np.random.default_rng(NORM_SEED),
    )
    assert alg.identified == ref.identified
    assert alg.neutral == ref.neutral
    assert alg.skipped == ref.skipped
    assert set(alg.scores) == set(ref.scores)
    for sigma, want in ref.scores.items():
        assert abs(alg.scores[sigma] - want) <= RELTOL + RELTOL * abs(want)
