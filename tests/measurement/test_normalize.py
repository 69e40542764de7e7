"""Unit tests for Algorithm 2 (normalization) and congestion stats."""

import math

import numpy as np
import pytest

from repro.core.network import network_from_path_specs
from repro.core.slices import build_slice_batch
from repro.exceptions import MeasurementError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.measurement.normalize import (
    batch_slice_observations,
    congestion_free_matrix,
    path_congestion_probability,
    pathset_performance_numbers,
)
from repro.measurement.records import MeasurementData, PathRecord


def _data(records, interval=0.1):
    return MeasurementData(
        [PathRecord(pid, np.array(s), np.array(l)) for pid, s, l in records],
        interval,
    )


class TestCongestionFreeMatrix:
    def test_basic_indicators(self):
        data = _data(
            [
                ("p1", [100, 100, 100], [0, 5, 0]),
                ("p2", [100, 100, 100], [0, 0, 3]),
            ]
        )
        status, valid = congestion_free_matrix(data, ("p1", "p2"))
        assert valid.all()
        np.testing.assert_array_equal(status[0], [1, 0, 1])
        np.testing.assert_array_equal(status[1], [1, 1, 0])

    def test_normalization_discounts_heavy_path(self):
        """A thick path's losses are scaled to the thin path's rate:
        50 lost of 1000 sent (5%) remains 5% after normalization and
        stays above a 1% threshold; 5 lost of 1000 (0.5%) stays
        below."""
        data = _data(
            [
                ("thin", [10, 10], [0, 0]),
                ("thick", [1000, 1000], [50, 5]),
            ]
        )
        status, valid = congestion_free_matrix(data, ("thin", "thick"))
        np.testing.assert_array_equal(status[1], [0, 1])

    def test_invalid_intervals_skipped(self):
        data = _data(
            [
                ("p1", [0, 100], [0, 0]),
                ("p2", [100, 100], [0, 0]),
            ]
        )
        status, valid = congestion_free_matrix(data, ("p1", "p2"))
        np.testing.assert_array_equal(valid, [False, True])
        assert status[0][0] == 0  # invalid intervals carry no credit

    def test_sampled_mode_requires_rng(self):
        data = _data([("p1", [10], [0])])
        with pytest.raises(MeasurementError):
            congestion_free_matrix(data, ("p1",), mode="sampled")

    def test_sampled_mode_is_hypergeometric(self):
        rng = np.random.default_rng(0)
        data = _data(
            [
                ("thin", [5] * 200, [0] * 200),
                ("thick", [1000] * 200, [100] * 200),
            ]
        )
        status, valid = congestion_free_matrix(
            data, ("thick", "thin"), mode="sampled", rng=rng
        )
        # thick's sampled detection probability: 1-(0.9)^5 ≈ 0.41.
        detection = 1.0 - status[0].mean()
        assert 0.25 < detection < 0.60

    def test_sampled_mode_matches_reference_stream(self):
        """The array-shaped hypergeometric call consumes the RNG
        stream exactly like the frozen per-cell loop — including
        skipping invalid intervals — so seeded sampled runs are
        bit-reproducible across the rewrite."""
        from oracles.algorithm_reference import (
            congestion_free_matrix_reference,
        )

        rng = np.random.default_rng(7)
        sent_a = rng.integers(50, 500, size=64)
        sent_b = rng.integers(50, 500, size=64)
        sent_a[::7] = 0  # inject invalid intervals
        data = _data(
            [
                ("p1", sent_a, np.minimum(sent_a // 10, sent_a)),
                ("p2", sent_b, sent_b // 20),
            ]
        )
        status_ref, valid_ref = congestion_free_matrix_reference(
            data, ("p1", "p2"), mode="sampled",
            rng=np.random.default_rng(123),
        )
        status_vec, valid_vec = congestion_free_matrix(
            data, ("p1", "p2"), mode="sampled",
            rng=np.random.default_rng(123),
        )
        np.testing.assert_array_equal(valid_ref, valid_vec)
        np.testing.assert_array_equal(status_ref, status_vec)

    def test_invalid_threshold(self):
        data = _data([("p1", [10], [0])])
        with pytest.raises(MeasurementError):
            congestion_free_matrix(data, ("p1",), loss_threshold=0.0)

    def test_unknown_mode(self):
        data = _data([("p1", [10], [0])])
        with pytest.raises(MeasurementError):
            congestion_free_matrix(data, ("p1",), mode="magic")


class TestPathsetPerformance:
    def test_joint_and_of_members(self):
        """A pair is congestion-free only when both members are."""
        data = _data(
            [
                ("p1", [100] * 4, [5, 0, 0, 0]),
                ("p2", [100] * 4, [0, 5, 0, 0]),
            ]
        )
        fam = (
            frozenset({"p1"}),
            frozenset({"p2"}),
            frozenset({"p1", "p2"}),
        )
        obs = pathset_performance_numbers(data, fam)
        p1 = math.exp(-obs[frozenset({"p1"})])
        pair = math.exp(-obs[frozenset({"p1", "p2"})])
        assert p1 == pytest.approx(3 / 4)
        assert pair == pytest.approx(2 / 4)

    def test_probability_clamped(self):
        """A pathset congested in every interval gets a finite cost."""
        data = _data([("p1", [100] * 10, [50] * 10)])
        obs = pathset_performance_numbers(data, (frozenset({"p1"}),))
        y = obs[frozenset({"p1"})]
        assert math.isfinite(y)
        assert math.exp(-y) == pytest.approx(1 / 20)

    def test_no_common_traffic_raises(self):
        data = _data(
            [("p1", [10, 0], [0, 0]), ("p2", [0, 10], [0, 0])]
        )
        with pytest.raises(MeasurementError):
            pathset_performance_numbers(
                data, (frozenset({"p1", "p2"}),)
            )

    def test_empty_family(self):
        data = _data([("p1", [10], [0])])
        assert pathset_performance_numbers(data, ()) == {}


def _hub_network():
    return network_from_path_specs(
        {f"p{i}": ["hub", f"s{i}"] for i in range(1, 5)}
    )


def _infer(data, mode, rng):
    return infer_from_measurements(
        _hub_network(),
        data,
        settings=EmulationSettings(normalization_mode=mode),
        rng=rng,
    )


def _batch(data, mode, rng):
    batch, _ = build_slice_batch(_hub_network(), 3)
    return batch_slice_observations(data, batch, mode=mode, rng=rng)


def _family_numbers(data, mode, rng):
    family = tuple(frozenset({pid}) for pid in data.path_ids)
    return pathset_performance_numbers(data, family, mode=mode, rng=rng)


@pytest.mark.parametrize("mode", ["expected", "sampled"])
@pytest.mark.parametrize("entry", [_infer, _batch, _family_numbers])
def test_zero_intervals_raise_measurement_error(mode, entry):
    """Records with no interval cannot be normalized, in either mode
    and at every entry point."""
    empty = np.zeros(0, dtype=np.int64)
    data = _data([(f"p{i}", empty, empty) for i in range(1, 5)])
    assert data.num_intervals == 0
    with pytest.raises(MeasurementError, match="no interval"):
        entry(data, mode, np.random.default_rng(0))


class TestPathCongestionProbability:
    def test_basic(self):
        data = _data([("p1", [100, 100, 100, 0], [5, 0, 0, 0])])
        assert path_congestion_probability(data, "p1") == pytest.approx(
            1 / 3
        )

    def test_no_traffic(self):
        data = _data([("p1", [0, 0], [0, 0])])
        assert path_congestion_probability(data, "p1") == 0.0

    def test_threshold_sensitivity(self):
        data = _data([("p1", [100], [3])])
        assert path_congestion_probability(data, "p1", 0.01) == 1.0
        assert path_congestion_probability(data, "p1", 0.05) == 0.0
