"""Golden equivalence: vectorized Algorithm 1/2 vs the frozen seed.

Two layers of locking:

* ``golden/inference_goldens.json`` holds outputs captured from the
  pre-rewrite implementation on the seed topologies (figures,
  star/chain/tree/mesh draws, multi-ISP, plus a sampled-mode case).
  The vectorized pipeline must reproduce identical
  identified/neutral/skipped sets and fp-equal scores/observations.
* The frozen reference module (``tests/oracles/algorithm_reference.py``)
  is run side by side on the same inputs, so equivalence holds even
  for quantities the JSON does not pin (e.g. system structure).
"""

import json

import numpy as np
import pytest

from inference_golden_config import (
    FEDERATED_CASE_NAMES,
    GOLDEN_PATH,
    NORM_SEED,
    REFERENCE_EXEMPT,
    build_cases,
    case_records,
    pathset_key,
    result_to_dict,
)
from repro.core.algorithm import (
    identify_non_neutral_exact,
)
from oracles.algorithm_reference import (
    identify_non_neutral_exact_reference,
    infer_reference,
)
from oracles.dense_pairs import dense_pair_groups, dense_slice_layout
from repro.core.slices import (
    SliceSystemBatch,
    _pair_groups,
    batch_unsolvability_arrays,
    build_slice_batch,
)
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.measurement.normalize import batch_slice_observations

RELTOL = 1e-9

with open(GOLDEN_PATH) as fh:
    GOLDENS = json.load(fh)

CASES = build_cases()
CASE_NAMES = sorted(CASES)
#: The frozen reference is intentionally O(P²) Python; ≥1k-path
#: cases are locked by the goldens and the dense-oracle differential
#: tests instead.
REFERENCE_CASE_NAMES = sorted(set(CASES) - REFERENCE_EXEMPT)


def _close(a, b):
    return abs(a - b) <= RELTOL + RELTOL * abs(b)


def _assert_matches_golden(result_dict, golden_dict):
    for key in ("identified", "identified_raw", "neutral", "skipped"):
        assert result_dict[key] == golden_dict[key], key
    assert set(result_dict["scores"]) == set(golden_dict["scores"])
    for sigma, value in golden_dict["scores"].items():
        assert _close(result_dict["scores"][sigma], value), sigma


@pytest.mark.parametrize("name", CASE_NAMES)
class TestAgainstCapturedGoldens:
    def test_exact_mode(self, name):
        """Exact-mode verdicts and scores match the captured seed
        outputs on every locked topology."""
        net, perf, mp, _mode = CASES[name]
        result = identify_non_neutral_exact(perf, min_pathsets=mp)
        _assert_matches_golden(
            result_to_dict(result), GOLDENS[name]["exact"]
        )

    def test_scored_mode(self, name):
        """The batched records→verdict pipeline reproduces the seed's
        verdicts, scores, and normalized observations."""
        net, perf, mp, mode = CASES[name]
        data = case_records(name, net, perf)
        obs, alg = infer_from_measurements(
            net,
            data,
            settings=EmulationSettings(normalization_mode=mode),
            min_pathsets=mp,
            rng=np.random.default_rng(NORM_SEED),
        )
        golden = GOLDENS[name]["scored"]
        _assert_matches_golden(result_to_dict(alg), golden)
        if "observations" in golden:
            observed = {
                pathset_key(ps): value for ps, value in obs.items()
            }
            assert set(observed) == set(golden["observations"])
            for key, value in golden["observations"].items():
                assert _close(observed[key], value), key


@pytest.mark.parametrize("name", REFERENCE_CASE_NAMES)
class TestAgainstFrozenReference:
    def test_exact_mode_equivalence(self, name):
        """Vectorized vs frozen exact pipeline: same sets, systems,
        and scores."""
        net, perf, mp, _mode = CASES[name]
        vec = identify_non_neutral_exact(perf, min_pathsets=mp)
        ref = identify_non_neutral_exact_reference(perf, min_pathsets=mp)
        assert vec.identified == ref.identified
        assert vec.identified_raw == ref.identified_raw
        assert vec.neutral == ref.neutral
        assert vec.skipped == ref.skipped
        assert set(vec.systems) == set(ref.systems)
        for sigma, ref_system in ref.systems.items():
            system = vec.systems[sigma]
            assert system.paths == ref_system.paths
            assert system.pairs == ref_system.pairs
            assert system.family == ref_system.family
            assert system.columns == ref_system.columns
            np.testing.assert_array_equal(
                system.matrix, ref_system.matrix
            )
        for sigma, value in ref.scores.items():
            assert _close(vec.scores[sigma], value), sigma

    def test_scored_mode_equivalence(self, name):
        """Vectorized vs frozen records→verdict on the same records;
        sampled mode must even consume the identical RNG stream."""
        net, perf, mp, mode = CASES[name]
        data = case_records(name, net, perf)
        ref_obs, ref_alg = infer_reference(
            net,
            data,
            mode=mode,
            rng=np.random.default_rng(NORM_SEED),
            min_pathsets=mp,
        )
        obs, alg = infer_from_measurements(
            net,
            data,
            settings=EmulationSettings(normalization_mode=mode),
            min_pathsets=mp,
            rng=np.random.default_rng(NORM_SEED),
        )
        assert set(alg.identified) == set(ref_alg.identified)
        assert set(alg.neutral) == set(ref_alg.neutral)
        assert set(alg.skipped) == set(ref_alg.skipped)
        assert set(obs) == set(ref_obs)
        for ps, value in ref_obs.items():
            assert _close(obs[ps], value), ps
        for sigma, value in ref_alg.scores.items():
            assert _close(alg.scores[sigma], value), sigma


@pytest.mark.parametrize("name", sorted(FEDERATED_CASE_NAMES))
class TestDenseSparseDifferential:
    """The blocked sparse pair pass vs the dense oracle pass.

    :func:`_pair_groups` and :func:`build_slice_batch` must produce
    *identical* flat arrays to the dense ``P²`` oracle in
    ``tests/oracles/dense_pairs.py`` (same pairs, same σ order, same
    masks, same layout) — on the federated multi-ISP cases where the
    sparse path actually pays off (including the ≥1k-path one the
    frozen Python reference cannot afford)."""

    def test_pair_groups_identical(self, name):
        net, _perf, _mp, _mode = CASES[name]
        dense = dense_pair_groups(net)
        sparse = _pair_groups(net)
        assert dense.sigmas == sparse.sigmas
        for field in ("pair_a", "pair_b", "offsets", "sigma_masks"):
            want, got = getattr(dense, field), getattr(sparse, field)
            assert got.dtype == want.dtype, field
            np.testing.assert_array_equal(want, got, field)
        assert dense.group_of == sparse.group_of

    def test_slice_batch_identical(self, name):
        net, _perf, mp, _mode = CASES[name]
        want = dense_slice_layout(dense_pair_groups(net), mp)
        batch, skipped = build_slice_batch(net, mp)
        assert skipped == want["skipped"]
        assert batch.sigmas == want["sigmas"]
        for field in (
            "pair_a", "pair_b", "offsets", "la", "lb",
            "member_rows", "member_offsets", "member_a", "member_b",
            "sigma_masks",
        ):
            got = getattr(batch, field)
            assert got.dtype == want[field].dtype, field
            np.testing.assert_array_equal(want[field], got, field)

    def test_verdicts_identical(self, name):
        net, perf, mp, mode = CASES[name]
        data = case_records(name, net, perf)
        layout = dense_slice_layout(dense_pair_groups(net), mp)
        batch, skipped = build_slice_batch(net, mp)
        oracle = SliceSystemBatch(
            index=batch.index,
            singletons=batch.singletons,
            **{
                field: layout[field]
                for field in (
                    "sigmas", "sigma_masks", "pair_a", "pair_b", "offsets",
                    "member_rows", "member_offsets", "member_a", "member_b",
                )
            },
        )
        results = []
        for candidate in (oracle, batch):
            _, y_member, y_pair = batch_slice_observations(
                data, candidate, mode=mode, materialize=False
            )
            scores = batch_unsolvability_arrays(candidate, y_member, y_pair)
            results.append((candidate.sigmas, scores))
        (sig_d, sc_d), (sig_s, sc_s) = results
        assert sig_d == sig_s
        assert layout["skipped"] == skipped
        np.testing.assert_array_equal(sc_d, sc_s)
