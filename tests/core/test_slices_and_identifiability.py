"""Tests for network slices, System 4, and identifiability."""

import numpy as np
import pytest

from repro.core.identifiability import (
    identifiable_sequences_exact,
    is_identifiable_exact,
    satisfies_lemma3,
)
from repro.core.slices import (
    SIGMA_COLUMN,
    _observation_arrays,
    batch_pair_estimates_arrays,
    batch_unsolvability_arrays,
    build_slice_batch,
    build_slice_system,
    pairs_for_sequence,
    shared_sequences,
)
from repro.exceptions import SliceError
from repro.topology.figures import figure1, figure4, figure6


class TestSliceConstruction:
    def test_figure6_slice_for_l1(self):
        """The slice of ⟨l1⟩ in Figure 4/6's network: Φ has the three
        pairs {p1,p4},{p2,p4},{p3,p4} plus four singletons (7 rows,
        matching Figure 6(b))."""
        net = figure4().network
        system = build_slice_system(net, ("l1",))
        assert system is not None
        assert set(system.pairs) == {
            ("p1", "p4"), ("p2", "p4"), ("p3", "p4"),
        }
        assert system.num_pathsets == 7
        # Columns: sigma + one remainder per path (all non-empty).
        assert system.columns[0] == SIGMA_COLUMN
        assert set(system.columns[1:]) == {"p1", "p2", "p3", "p4"}

    def test_figure6_system_rows(self):
        """Each row has the σ column set plus member remainders."""
        net = figure4().network
        system = build_slice_system(net, ("l1",))
        for i, ps in enumerate(system.family):
            row = system.matrix[i]
            assert row[0] == 1.0
            expected_cols = {SIGMA_COLUMN} | set(ps)
            actual_cols = {
                system.columns[j]
                for j in range(len(system.columns))
                if row[j] == 1.0
            }
            assert actual_cols == expected_cols

    def test_l2_has_no_slice(self):
        """No path pair shares exactly ⟨l2⟩ in Figure 4 (every pair
        through l2 also shares l1) — the non-identifiable case."""
        net = figure4().network
        assert build_slice_system(net, ("l2",)) is None
        assert pairs_for_sequence(net, ("l2",)) == []

    def test_empty_sigma_rejected(self):
        with pytest.raises(SliceError):
            build_slice_system(figure4().network, ())

    def test_shared_sequences_buckets(self):
        net = figure1().network
        buckets = shared_sequences(net)
        assert buckets[("l1",)] == [("p1", "p2")]
        assert buckets[("l3",)] == [("p2", "p3")]
        assert ("l2",) not in buckets

    def test_observation_vector_missing_pathset(self):
        net = figure4().network
        system = build_slice_system(net, ("l1",))
        with pytest.raises(SliceError):
            system.observation_vector({})


def _sigma_scoring(net, perf, sigma):
    """σ's Equation-14 estimates and unsolvability score, from the
    exact observations of every candidate family."""
    batch, _ = build_slice_batch(net, 5)
    obs = {
        ps: perf.pathset_performance(ps)
        for family in batch.families()
        for ps in family
    }
    arrays = _observation_arrays(batch, obs)
    g = batch.system_of[sigma]
    lo, hi = batch.offsets[g], batch.offsets[g + 1]
    return (
        batch_pair_estimates_arrays(batch, *arrays)[lo:hi],
        batch_unsolvability_arrays(batch, *arrays)[g],
    )


class TestPairEstimates:
    def test_estimates_cancel_remainders(self):
        """x_σ = y_i + y_j − y_ij recovers σ's cost exactly for
        same-class pairs in a neutral network."""
        fig = figure4()
        from repro.core.performance import neutral_performance

        perf = neutral_performance(
            fig.network,
            fig.classes,
            {"l1": 0.25, "l2": 0.1, "l3": 0.05, "l6": 0.02},
        )
        estimates, _ = _sigma_scoring(fig.network, perf, ("l1", "l2"))
        assert estimates.size
        for value in estimates.tolist():
            assert value == pytest.approx(0.35, abs=1e-12)

    def test_unsolvability_zero_for_neutral(self):
        fig = figure4()
        from repro.core.performance import neutral_performance

        perf = neutral_performance(fig.network, fig.classes, {"l1": 0.3})
        _, score = _sigma_scoring(fig.network, perf, ("l1",))
        assert score == pytest.approx(0.0, abs=1e-12)

    def test_unsolvability_positive_for_violation(self):
        fig = figure4()
        _, score = _sigma_scoring(fig.network, fig.performance, ("l1",))
        assert score > 0.1


class TestIdentifiability:
    def test_figure4_l1_identifiable(self):
        assert is_identifiable_exact(figure4().performance, ("l1",))

    def test_figure4_l2_not_identifiable(self):
        assert not is_identifiable_exact(figure4().performance, ("l2",))

    def test_neutral_sigma_not_flagged(self):
        """Lemma 2 contrapositive: a neutral σ's system is solvable."""
        fig = figure6()  # only l1 non-neutral
        for lid in ("l3", "l4", "l5", "l6"):
            assert not is_identifiable_exact(fig.performance, (lid,))

    def test_identifiable_sequences_exact_fig4(self):
        seqs = identifiable_sequences_exact(figure4().performance)
        assert set(seqs) == {("l1",), ("l1", "l2")}

    def test_lemma3_satisfied_for_l1(self):
        fig = figure4()
        result = satisfies_lemma3(
            fig.network, fig.classes, ("l1",), top_class="c1"
        )
        assert result.satisfied
        assert result.lower_class == "c2"
        # Witnesses: a pair entirely in c2 and one not.
        assert all(p in fig.classes.by_name("c2").paths
                   for p in result.inside_pair)
        assert any(p not in fig.classes.by_name("c2").paths
                   for p in result.outside_pair)

    def test_lemma3_unsatisfiable_without_slice(self):
        fig = figure4()
        result = satisfies_lemma3(
            fig.network, fig.classes, ("l2",), top_class="c1"
        )
        assert not result.satisfied

    def test_lemma3_implies_identifiable(self):
        """Lemma 3's condition is sufficient: whenever it holds for a
        truly non-neutral σ, the exact System 4 is unsolvable."""
        fig = figure4()
        result = satisfies_lemma3(
            fig.network, fig.classes, ("l1",), top_class="c1"
        )
        assert result.satisfied
        assert is_identifiable_exact(fig.performance, ("l1",))
