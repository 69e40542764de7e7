"""Tests for the estimate diagnostics."""

import numpy as np
import pytest

from repro.core.slices import _observation_arrays, build_slice_batch
from repro.exceptions import MeasurementError
from repro.measurement.estimator import (
    SystemDiagnostics,
    diagnose_system,
    estimate_variance,
)
from repro.topology.figures import figure4


#: Figure 4's slice system of ``l1`` is its first one.
L1 = 0


def _exact_costs(net, perf):
    """Figure 4's slice batch and its exact cost arrays."""
    batch, _ = build_slice_batch(net, 5)
    assert batch.sigmas[L1] == ("l1",)
    obs = {
        ps: perf.pathset_performance(ps)
        for family in batch.families()
        for ps in family
    }
    return batch, *_observation_arrays(batch, obs)


@pytest.fixture
def system_and_costs():
    fig = figure4()
    return _exact_costs(fig.network, fig.performance)


def _first_pair(batch, y_member, y_pair):
    return (
        y_member[batch.member_a[0]],
        y_member[batch.member_b[0]],
        y_pair[0],
    )


class TestEstimateVariance:
    def test_scaling_with_intervals(self, system_and_costs):
        batch, y_member, y_pair = system_and_costs
        costs = _first_pair(batch, y_member, y_pair)
        v1 = estimate_variance(*costs, 1000)
        v2 = estimate_variance(*costs, 4000)
        assert v1 == pytest.approx(4 * v2)

    def test_zero_cost_gives_zero_variance(self):
        assert estimate_variance(0.0, 0.0, 0.0, 100) == pytest.approx(0.0)

    def test_elementwise_over_pairs(self, system_and_costs):
        batch, y_member, y_pair = system_and_costs
        y_a = y_member[batch.member_a]
        y_b = y_member[batch.member_b]
        whole = estimate_variance(y_a, y_b, y_pair, 500)
        assert whole.shape == y_pair.shape
        for k in range(y_pair.size):
            assert whole[k] == estimate_variance(
                y_a[k], y_b[k], y_pair[k], 500
            )

    def test_invalid_intervals(self, system_and_costs):
        batch, y_member, y_pair = system_and_costs
        with pytest.raises(MeasurementError):
            estimate_variance(*_first_pair(batch, y_member, y_pair), 0)


class TestDiagnoseSystem:
    def test_fields(self, system_and_costs):
        batch, y_member, y_pair = system_and_costs
        diag = diagnose_system(batch, L1, y_member, y_pair, 3000)
        assert isinstance(diag, SystemDiagnostics)
        assert diag.sigma == ("l1",)
        assert set(diag.estimates) == set(batch.system(L1).pairs)
        assert all(se >= 0 for se in diag.standard_errors.values())
        assert diag.spread >= 0

    def test_violation_is_many_sigmas(self, system_and_costs):
        """Figure 4's exact violation dwarfs measurement noise."""
        batch, y_member, y_pair = system_and_costs
        diag = diagnose_system(batch, L1, y_member, y_pair, 3000)
        assert diag.normalized_spread > 5.0

    def test_neutral_spread_is_zero(self):
        from repro.core.performance import neutral_performance

        fig = figure4()
        perf = neutral_performance(
            fig.network, fig.classes, {"l1": 0.2}
        )
        batch, y_member, y_pair = _exact_costs(fig.network, perf)
        diag = diagnose_system(batch, L1, y_member, y_pair, 3000)
        assert diag.spread == pytest.approx(0.0, abs=1e-12)

    def test_estimates_follow_member_costs(self):
        """The estimates are σ's segment of Equation 14 over the
        per-member costs: raising every member cost by 0.25 raises
        every estimate by 0.5."""
        fig = figure4()
        batch, y_member, y_pair = _exact_costs(fig.network, fig.performance)
        shifted = y_member + 0.25
        diag = diagnose_system(batch, L1, shifted, y_pair, 3000)
        base = diagnose_system(batch, L1, y_member, y_pair, 3000)
        for pair, value in diag.estimates.items():
            assert value == pytest.approx(base.estimates[pair] + 0.5)
        lo, hi = batch.offsets[L1], batch.offsets[L1 + 1]
        want = (
            shifted[batch.member_a] + shifted[batch.member_b] - y_pair
        )[lo:hi]
        np.testing.assert_array_equal(list(diag.estimates.values()), want)
