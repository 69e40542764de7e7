"""Unit tests for the two-cluster unsolvability decision."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import MeasurementError
from repro.measurement.clustering import (
    classify_score_array,
    make_cluster_decider,
    threshold_decider,
    two_means_split,
)


class TestTwoMeansSplit:
    def test_clear_split(self):
        split = two_means_split([0.01, 0.02, 0.01, 0.5, 0.6])
        assert split.separated
        assert split.low_center == pytest.approx(0.04 / 3)
        assert split.high_center == pytest.approx(0.55)
        assert 0.02 < split.threshold < 0.5

    def test_uniform_scores_not_separated(self):
        split = two_means_split([0.3, 0.3, 0.3])
        assert not split.separated

    def test_single_value(self):
        split = two_means_split([0.2])
        assert not split.separated

    def test_all_tiny_not_separated(self):
        split = two_means_split([0.001, 0.002, 0.004])
        assert not split.separated

    def test_empty_raises(self):
        with pytest.raises(MeasurementError):
            two_means_split([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_non_finite_raises(self, bad, size):
        """A NaN or infinite score is a measurement error, not an
        ``IndexError`` from an all-NaN cost array."""
        values = [0.01] * (size - 1) + [bad]
        with pytest.raises(MeasurementError, match="non-finite"):
            two_means_split(values)

    def test_ratio_safeguard(self):
        # High center barely above low: not a real split.
        split = two_means_split([0.30, 0.31, 0.32, 0.33])
        assert not split.separated

    @given(
        st.lists(
            st.floats(0, 1, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=30,
        )
    )
    def test_split_is_optimal_2means(self, values):
        """The returned split minimizes within-cluster SS among all
        sorted splits (exhaustive check)."""
        split = two_means_split(values)
        arr = np.sort(np.asarray(values))

        def cost(k):
            left, right = arr[:k], arr[k:]
            return ((left - left.mean()) ** 2).sum() + (
                (right - right.mean()) ** 2
            ).sum()

        if np.isclose(arr[0], arr[-1]):
            return
        best = min(cost(k) for k in range(1, len(arr)))
        chosen_k = int((arr <= split.threshold).sum())
        chosen_k = min(max(chosen_k, 1), len(arr) - 1)
        assert cost(chosen_k) == pytest.approx(best, abs=1e-9)


class TestClassifyScoreArray:
    def test_separated_population(self):
        flags = classify_score_array(np.array([0.01, 0.02, 0.5]))
        assert flags.tolist() == [False, False, True]

    def test_all_low_scores_solvable(self):
        flags = classify_score_array(np.array([0.005, 0.007, 0.006]))
        assert not flags.any()

    def test_definite_overrides_missing_population(self):
        # A single huge score is unsolvable even with nothing to
        # cluster against.
        assert classify_score_array(np.array([0.5])).tolist() == [True]
        assert classify_score_array(np.array([0.01])).tolist() == [False]

    def test_empty(self):
        flags = classify_score_array(np.zeros(0))
        assert flags.dtype == bool and flags.size == 0

    @given(
        st.lists(st.floats(0.0, 2.0), max_size=30),
        st.floats(0.01, 0.5),
    )
    def test_array_form_matches_the_per_score_rule(self, values, definite):
        """Each score is decided by the §6.2 rule written per score:
        one split, then the high cluster of a separated split or the
        ``definite`` bar."""
        flags = classify_score_array(np.array(values), definite=definite)
        expected = []
        if values:
            split = two_means_split(values)
            expected = [
                v >= definite or (split.separated and v > split.threshold)
                for v in values
            ]
        assert flags.tolist() == expected
        decider = make_cluster_decider(definite=definite)
        assert decider(np.array(values)).tolist() == expected

    def test_make_cluster_decider_custom_definite(self):
        decider = make_cluster_decider(definite=0.2)
        assert decider(np.array([0.15])).tolist() == [False]
        assert decider(np.array([0.25])).tolist() == [True]

    def test_threshold_decider(self):
        decider = threshold_decider(0.1)
        assert decider(np.array([0.05, 0.2])).tolist() == [False, True]
