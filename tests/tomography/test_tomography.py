"""Tests for the classical tomography baselines."""

import numpy as np
import pytest

from repro.core.network import network_from_path_specs
from repro.measurement.records import MeasurementData, PathRecord
from repro.tomography import (
    boolean_tomography,
    lsq_tomography,
    path_states,
    smallest_explanation,
)


def _net():
    # Three paths over a shared link l0 plus private links.
    return network_from_path_specs(
        {
            "p1": ["l0", "l1"],
            "p2": ["l0", "l2"],
            "p3": ["l0", "l3"],
        }
    )


def _data(loss_pattern):
    """loss_pattern: {path: list of loss fractions per interval}."""
    records = []
    for pid, fracs in loss_pattern.items():
        sent = np.full(len(fracs), 100, dtype=np.int64)
        lost = np.array([int(100 * f) for f in fracs], dtype=np.int64)
        records.append(PathRecord(pid, sent, lost))
    return MeasurementData(records)


class TestPathStates:
    def test_states(self):
        data = _data({"p1": [0.0, 0.05], "p2": [0.0, 0.0]})
        states, ids = path_states(data, ["p1", "p2"])
        assert ids == ("p1", "p2")
        np.testing.assert_array_equal(states[0], [True, False])
        np.testing.assert_array_equal(states[1], [True, True])


class TestSmallestExplanation:
    def test_shared_link_blamed(self):
        net = _net()
        blamed = smallest_explanation(
            net, good_paths=set(), bad_paths={"p1", "p2", "p3"}
        )
        assert blamed == {"l0"}

    def test_good_path_exonerates(self):
        net = _net()
        blamed = smallest_explanation(
            net, good_paths={"p3"}, bad_paths={"p1"}
        )
        # l0 on a good path => p1's private l1 must be at fault.
        assert blamed == {"l1"}

    def test_unexplainable(self):
        net = _net()
        blamed = smallest_explanation(
            net, good_paths={"p1", "p2", "p3"}, bad_paths=set()
        )
        assert blamed == frozenset()


class TestBooleanTomography:
    def test_localizes_shared_congestion(self):
        # All paths congested together in 3 of 10 intervals.
        frac = [0.05, 0, 0, 0.05, 0, 0, 0.05, 0, 0, 0]
        data = _data({p: frac for p in ("p1", "p2", "p3")})
        result = boolean_tomography(_net(), data)
        assert result.link_congestion["l0"] == pytest.approx(0.3)
        assert result.link_congestion["l1"] == 0.0

    def test_misattributes_under_differentiation(self):
        """The paper's motivation: when l0 congests only p3's class,
        neutral tomography blames p3's private link instead."""
        data = _data(
            {
                "p1": [0.0] * 10,
                "p2": [0.0] * 10,
                "p3": [0.05] * 10,
            }
        )
        result = boolean_tomography(_net(), data)
        assert result.link_congestion["l0"] == 0.0
        assert result.link_congestion["l3"] == pytest.approx(1.0)


class TestLsqTomography:
    def test_neutral_fit(self):
        frac = [0.05, 0, 0, 0.05, 0] * 2
        data = _data({p: frac for p in ("p1", "p2", "p3")})
        result = lsq_tomography(_net(), data)
        assert result.residual_norm == pytest.approx(0.0, abs=1e-9)
        # Shared cost may land on l0 or be spread; total path cost of
        # p1 must match its observation.
        total = result.link_costs["l0"] + result.link_costs["l1"]
        assert total == pytest.approx(-np.log(0.6), rel=0.05)


class TestPathStatesEdges:
    def test_silent_interval_counts_as_good(self):
        records = [
            PathRecord(
                "p1",
                np.array([0, 100], dtype=np.int64),
                np.array([0, 50], dtype=np.int64),
            )
        ]
        states, _ = path_states(MeasurementData(records), ["p1"])
        np.testing.assert_array_equal(states[0], [True, False])

    def test_threshold_is_inclusive(self):
        data = _data({"p1": [0.04, 0.05, 0.06]})
        states, _ = path_states(data, ["p1"], loss_threshold=0.05)
        np.testing.assert_array_equal(states[0], [True, False, False])

    def test_ids_are_sorted(self):
        data = _data({"p2": [0.0], "p1": [0.1]})
        states, ids = path_states(data, ["p2", "p1"])
        assert ids == ("p1", "p2")
        np.testing.assert_array_equal(states[:, 0], [False, True])


class TestBooleanTomographyEdges:
    def test_no_monitored_paths_is_an_error(self):
        from repro.exceptions import MeasurementError

        data = _data({"elsewhere": [0.0, 0.1]})
        with pytest.raises(MeasurementError, match="no monitored"):
            boolean_tomography(_net(), data)

    def test_counts_and_probabilities_agree(self):
        data = _data(
            {
                "p1": [0.05, 0.05, 0.0, 0.0],
                "p2": [0.05, 0.0, 0.0, 0.0],
                "p3": [0.05, 0.0, 0.0, 0.05],
            }
        )
        result = boolean_tomography(_net(), data)
        assert result.intervals == 4
        # t0: one shared cause; t1, t3: each path's private link.
        assert result.blamed_counts == {
            "l0": 1, "l1": 1, "l2": 0, "l3": 1
        }
        for lid, count in result.blamed_counts.items():
            assert result.link_congestion[lid] == count / 4

    def test_fully_exonerated_bad_path_blames_nothing(self):
        net = _net()
        blamed = smallest_explanation(
            net, good_paths={"p1", "p2"}, bad_paths={"p1"}
        )
        assert blamed == frozenset()


def test_lsq_reports_non_unique_costs_on_an_underdetermined_net():
    """Three paths, four links: the shared link's cost cannot be told
    apart from the private ones', so the fit is not unique."""
    data = _data({p: [0.05, 0.0] for p in ("p1", "p2", "p3")})
    result = lsq_tomography(_net(), data)
    assert not result.unique
    assert set(result.link_costs) == {"l0", "l1", "l2", "l3"}
    assert all(cost >= 0.0 for cost in result.link_costs.values())
