"""Differential harness: the monolithic verdict on federated networks.

:func:`repro.experiments.runner.infer_from_measurements` must return
the verdict of the frozen O(P²)-Python
``oracles.algorithm_reference.infer_reference`` on federated
multi-ISP topologies (identical identified / neutral / skipped sets,
scores equal to round-off), and its own verdict must not depend on the
cold-pass block bound (:data:`repro.core.slices.COLD_BLOCK`) or on
whether the network's pair groups were already built: those are
execution details, never part of the result, so the comparison there
is bitwise.

Coverage: deterministic federated cases (including a ≥1k-path one,
exempt from the reference) plus hypothesis-generated random networks
with ``min_pathsets=1``, which examines every σ.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import slices
from oracles.algorithm_reference import infer_reference
from repro.core.network import Network, Path
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.measurement.synthetic import synthesize_records
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

RELTOL = 1e-9

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (num_isps, hosts_per_isp, perf seed, violations, intervals,
#:  run the O(P²) reference too?)
FEDERATED_CASES = {
    "fed2x3": (2, 3, 21, 2, 600, True),
    "fed3x4": (3, 4, 22, 3, 600, True),
    # ≥1k paths (5·10 federated = 1225): the reference is exempt — it
    # is intentionally unvectorized Python and would dominate the suite.
    "fed5x10": (5, 10, 23, 3, 300, False),
}
WITH_REFERENCE = sorted(
    name for name, case in FEDERATED_CASES.items() if case[-1]
)

#: Block bounds that split the cold pass into many blocks.
SMALL_BLOCKS = (1, 7)


def _federated_case(name):
    """A fresh federated network and records synthesized on it."""
    num_isps, hosts, seed, violations, intervals, _ = FEDERATED_CASES[name]
    net = build_federated_multi_isp(num_isps, hosts).network
    perf, _ = random_two_class_performance(
        np.random.default_rng(seed), net, num_violations=violations
    )
    data = synthesize_records(
        perf,
        np.random.default_rng(sum(ord(c) for c in name)),
        num_intervals=intervals,
    )
    return net, data


def _fresh_network(name):
    num_isps, hosts = FEDERATED_CASES[name][:2]
    return build_federated_multi_isp(num_isps, hosts).network


def _assert_same_verdict(got, expected, exact_scores=True):
    assert set(got.identified) == set(expected.identified)
    assert set(got.identified_raw) == set(expected.identified_raw)
    assert set(got.neutral) == set(expected.neutral)
    assert set(got.skipped) == set(expected.skipped)
    assert set(got.scores) == set(expected.scores)
    for sigma, score in expected.scores.items():
        if exact_scores:
            assert got.scores[sigma] == score, sigma
        else:
            assert got.scores[sigma] == pytest.approx(
                score, rel=RELTOL, abs=RELTOL
            ), sigma


@pytest.mark.parametrize("min_pathsets", [None, 1])
@pytest.mark.parametrize("name", WITH_REFERENCE)
def test_monolith_matches_reference(name, min_pathsets):
    net, data = _federated_case(name)
    kwargs = {} if min_pathsets is None else {"min_pathsets": min_pathsets}
    _, mono = infer_from_measurements(net, data, **kwargs)
    _, ref = infer_reference(net, data, **kwargs)
    assert mono.scores, name  # non-vacuous: σ systems exist
    _assert_same_verdict(mono, ref, exact_scores=False)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("name", sorted(FEDERATED_CASES))
def test_verdict_is_cold_block_invariant(name, block):
    net, data = _federated_case(name)
    _, want = infer_from_measurements(net, data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slices, "COLD_BLOCK", block)
        _, got = infer_from_measurements(_fresh_network(name), data)
    assert want.scores, name
    _assert_same_verdict(got, want, exact_scores=True)


def test_sampled_mode_is_cold_block_invariant():
    """Sampled normalization consumes the same RNG stream whatever the
    block bound, so the verdicts stay bitwise equal."""
    net, data = _federated_case("fed2x3")
    cfg = EmulationSettings(normalization_mode="sampled")
    _, want = infer_from_measurements(
        net, data, settings=cfg, rng=np.random.default_rng(7)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slices, "COLD_BLOCK", 1)
        _, got = infer_from_measurements(
            _fresh_network("fed2x3"), data, settings=cfg,
            rng=np.random.default_rng(7),
        )
    _assert_same_verdict(got, want, exact_scores=True)


@pytest.mark.parametrize("name", sorted(FEDERATED_CASES))
def test_warm_verdict_equals_cold(name):
    """A second inference on the same network reuses its pair groups
    and slice batch; the verdict is bitwise the cold one."""
    net, data = _federated_case(name)
    _, cold = infer_from_measurements(net, data)
    _, warm = infer_from_measurements(net, data)
    assert cold.identified == warm.identified
    assert cold.neutral == warm.neutral
    assert cold.skipped == warm.skipped
    _assert_same_verdict(warm, cold, exact_scores=True)


@st.composite
def random_cases(draw):
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
    block = draw(st.sampled_from(SMALL_BLOCKS + (slices.COLD_BLOCK,)))
    seed = draw(st.integers(0, 2**16))
    return links, paths, block, seed


@_SETTINGS
@given(random_cases())
def test_random_networks_match_reference(case):
    links, paths, block, seed = case
    rng = np.random.default_rng(seed)
    net = Network(links, paths)
    perf, _ = random_two_class_performance(rng, net, num_violations=1)
    data = synthesize_records(perf, rng, num_intervals=60)
    # min_pathsets=1 examines every σ, including the groups the default
    # threshold would hide on tiny nets.
    _, want = infer_from_measurements(net, data, min_pathsets=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(slices, "COLD_BLOCK", block)
        _, got = infer_from_measurements(
            Network(links, paths), data, min_pathsets=1
        )
    _assert_same_verdict(got, want, exact_scores=True)
    _, ref = infer_reference(net, data, min_pathsets=1)
    _assert_same_verdict(got, ref, exact_scores=False)
