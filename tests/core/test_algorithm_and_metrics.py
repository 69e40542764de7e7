"""Tests for Algorithm 1, redundancy pruning, and quality metrics."""

import math

import numpy as np
import pytest

from repro.core.algorithm import (
    identify_non_neutral,
    identify_non_neutral_exact,
    required_pathsets,
)
from repro.core.metrics import (
    evaluate,
    false_negative_rate,
    false_positive_rate,
    granularity,
)
from repro.core.performance import neutral_performance
from repro.topology.figures import figure4, figure6
from sequence_batches import prune


class TestAlgorithmExact:
    def test_paper_worked_example(self):
        """§5's example on Figure 4: Σn̄ = {⟨l1⟩, ⟨l1,l2⟩}, FN = FP = 0,
        granularity 1.5."""
        fig = figure4()
        result = identify_non_neutral_exact(fig.performance)
        assert set(result.identified) == {("l1",), ("l1", "l2")}
        report = evaluate(
            result, fig.non_neutral_links, fig.network.link_ids
        )
        assert report.false_negative_rate == 0.0
        assert report.false_positive_rate == 0.0
        assert report.granularity == pytest.approx(1.5)

    def test_neutral_network_identifies_nothing(self):
        fig = figure4()
        perf = neutral_performance(
            fig.network, fig.classes, {"l1": 0.3, "l2": 0.2}
        )
        result = identify_non_neutral_exact(perf)
        assert result.identified == ()
        assert len(result.neutral) >= 1

    def test_figure6_localizes_l1(self):
        fig = figure6()  # only l1 non-neutral
        result = identify_non_neutral_exact(fig.performance)
        assert ("l1",) in result.identified

    def test_skipped_sequences_have_few_pathsets(self):
        fig = figure4()
        result = identify_non_neutral_exact(fig.performance)
        for sigma in result.skipped:
            assert sigma not in result.systems

    def test_zero_false_positives_invariant(self):
        """With exact observations the output contains no sequence of
        only-neutral links (the paper's headline guarantee)."""
        fig = figure6()
        result = identify_non_neutral_exact(fig.performance)
        for sigma in result.identified:
            assert set(sigma) & fig.non_neutral_links


class TestAlgorithmScored:
    def test_observation_driven_matches_exact(self):
        fig = figure4()
        obs = {}
        for system in identify_non_neutral_exact(
            fig.performance
        ).systems.values():
            for ps in system.family:
                obs[ps] = fig.performance.pathset_performance(ps)
        result = identify_non_neutral(fig.network, obs)
        assert set(result.identified) == {("l1",), ("l1", "l2")}

    def test_custom_decider(self):
        fig = figure4()
        obs = {}
        for system in identify_non_neutral_exact(
            fig.performance
        ).systems.values():
            for ps in system.family:
                obs[ps] = fig.performance.pathset_performance(ps)
        everything_neutral = lambda scores: np.zeros(scores.size, dtype=bool)
        result = identify_non_neutral(
            fig.network, obs, decider=everything_neutral
        )
        assert result.identified == ()

    def test_required_pathsets_cover_all_systems(self):
        fig = figure4()
        needed = set(required_pathsets(fig.network))
        exact = identify_non_neutral_exact(fig.performance)
        for system in exact.systems.values():
            assert set(system.family) <= needed


class TestRedundancyPruning:
    def test_paper_redundancy_example(self):
        """⟨l1,l2,l3⟩ is redundant given ⟨l1,l2⟩ and ⟨l2,l3⟩."""
        identified = [("l1", "l2"), ("l2", "l3"), ("l1", "l2", "l3")]
        examined = list(identified)
        kept = prune(identified, examined)
        assert set(kept) == {("l1", "l2"), ("l2", "l3")}

    def test_needs_an_identified_member(self):
        """A decomposition of only-neutral sequences does not make a
        sequence redundant."""
        identified = [("l1", "l2", "l3")]
        examined = [("l1", "l2"), ("l2", "l3"), ("l1", "l2", "l3")]
        kept = prune(identified, examined)
        assert kept == (("l1", "l2", "l3"),)

    def test_union_must_be_exact(self):
        identified = [("l1", "l2"), ("l1", "l2", "l3", "l4")]
        examined = list(identified)
        kept = prune(identified, examined)
        assert set(kept) == set(identified)

    def test_sequence_not_redundant_by_itself(self):
        identified = [("l1", "l2")]
        kept = prune(identified, identified)
        assert kept == (("l1", "l2"),)


class TestMetrics:
    def test_false_negative_rate(self):
        assert false_negative_rate([("l1",)], {"l1", "l2"}) == 0.5
        assert false_negative_rate([], {"l1"}) == 1.0
        assert false_negative_rate([], set()) == 0.0

    def test_false_positive_rate_only_pure_neutral_sequences(self):
        # ⟨l1,l9⟩ contains non-neutral l1: l9 inside it is NOT an FP.
        rate = false_positive_rate(
            [("l1", "l9")], neutral_links={"l9", "l8"},
            non_neutral_links={"l1"},
        )
        assert rate == 0.0
        # ⟨l8,l9⟩ is purely neutral: both members are FPs.
        rate = false_positive_rate(
            [("l8", "l9")], neutral_links={"l8", "l9"},
            non_neutral_links={"l1"},
        )
        assert rate == 1.0

    def test_granularity(self):
        assert granularity([("l1",), ("l1", "l2")]) == pytest.approx(1.5)
        assert math.isnan(granularity([]))

    def test_evaluate_collects_link_sets(self):
        fig = figure4()
        result = identify_non_neutral_exact(fig.performance)
        report = evaluate(result, {"l1", "l2"}, fig.network.link_ids)
        assert report.missed_links == frozenset()
        assert report.false_positive_links == frozenset()


@pytest.mark.parametrize(
    "identified, truth",
    [
        ((), {"l1"}),
        ((("l1",), ("l1", "l2")), {"l1"}),
        ((("l2", "l3"),), {"l1"}),
        ((("l1", "l3"), ("l2",)), set()),
        ((("l1",), ("l2", "l3")), {"l1", "l2", "l3"}),
    ],
    ids=["nothing-found", "covered", "pure-neutral", "no-truth", "all-bad"],
)
def test_evaluate_agrees_with_the_standalone_metrics(identified, truth):
    """``evaluate`` computes the three rates inline; they must equal
    the standalone definitions for every shape of output."""
    from repro.core.algorithm import AlgorithmResult

    links = {"l1", "l2", "l3", "l4"}
    result = AlgorithmResult(
        identified=identified, identified_raw=identified,
        neutral=(), skipped=(),
    )
    report = evaluate(result, truth, links)
    assert report.false_negative_rate == false_negative_rate(
        identified, truth
    )
    assert report.false_positive_rate == false_positive_rate(
        identified, links - truth, truth
    )
    if identified:
        assert report.granularity == granularity(identified)
    else:
        assert math.isnan(report.granularity)
    assert report.missed_links == frozenset(truth) - result.identified_links
