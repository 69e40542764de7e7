"""Property-based tests (hypothesis) for the estimator diagnostics.

Executable invariants of the delta-method machinery in
:mod:`repro.measurement.estimator`:

* variances are always nonnegative and finite, for any observation
  vector and interval count;
* variance scales as 1/T: more intervals can only tighten an
  estimate;
* the noise-normalized spread grows like √T for fixed observations
  (spread fixed, pooled SE ∝ 1/√T);
* diagnostics are consistent: the reported spread is the max−min of
  the clamped pair estimates, standard errors are the square roots
  of the pair variances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.network import Network, Path
from repro.core.slices import build_slice_batch
from repro.exceptions import MeasurementError
from repro.measurement.estimator import diagnose_system, estimate_variance

#: y = −log(P̂) observations: P̂ in (~0.005, 1] keeps y in [0, ~5.3].
Y_VALUES = st.floats(min_value=0.0, max_value=5.3)


def _dumbbell_batch():
    """The slice batch of a 4-path dumbbell: one system, the shared
    link."""
    paths = [
        Path(f"p{i}", (f"a{i}", "shared", f"e{i}")) for i in range(1, 5)
    ]
    links = (
        [f"a{i}" for i in range(1, 5)]
        + ["shared"]
        + [f"e{i}" for i in range(1, 5)]
    )
    batch, _ = build_slice_batch(Network(links, paths), 5)
    assert batch.num_systems == 1
    return batch


BATCH = _dumbbell_batch()
NUM_MEMBERS = BATCH.member_rows.size
NUM_OBSERVATIONS = NUM_MEMBERS + BATCH.num_pairs


def _observations(ys):
    """``(y_member, y_pair_flat)`` from one flat draw."""
    ys = np.asarray(ys, dtype=float)
    return ys[:NUM_MEMBERS], ys[NUM_MEMBERS:]


def _pair_costs(ys):
    """Each pair's ``(y_a, y_b, y_ab)``, as three arrays."""
    y_member, y_pair = _observations(ys)
    return y_member[BATCH.member_a], y_member[BATCH.member_b], y_pair


class TestVarianceProperties:
    @given(
        ys=st.lists(
            Y_VALUES, min_size=NUM_OBSERVATIONS, max_size=NUM_OBSERVATIONS
        ),
        intervals=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=150)
    def test_nonnegative_and_finite(self, ys, intervals):
        var = estimate_variance(*_pair_costs(ys), intervals)
        assert (var >= 0.0).all()
        assert np.isfinite(var).all()

    @given(
        ys=st.lists(
            Y_VALUES, min_size=NUM_OBSERVATIONS, max_size=NUM_OBSERVATIONS
        ),
        intervals=st.integers(min_value=1, max_value=10_000),
        factor=st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=100)
    def test_variance_scales_inversely_with_intervals(
        self, ys, intervals, factor
    ):
        costs = _pair_costs(ys)
        for v1, v2 in zip(
            estimate_variance(*costs, intervals).tolist(),
            estimate_variance(*costs, intervals * factor).tolist(),
        ):
            assert v2 <= v1 + 1e-12
            if v1 > 0:
                assert v2 == pytest.approx(v1 / factor, rel=1e-9)

    def test_nonpositive_intervals_rejected(self):
        with pytest.raises(MeasurementError):
            estimate_variance(*_pair_costs([0.1] * NUM_OBSERVATIONS), 0)


class TestDiagnosticsProperties:
    @given(
        ys=st.lists(
            Y_VALUES, min_size=NUM_OBSERVATIONS, max_size=NUM_OBSERVATIONS
        ),
        intervals=st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=100)
    def test_internally_consistent(self, ys, intervals):
        diag = diagnose_system(BATCH, 0, *_observations(ys), intervals)
        clamped = [max(v, 0.0) for v in diag.estimates.values()]
        expected_spread = (
            max(clamped) - min(clamped) if len(clamped) > 1 else 0.0
        )
        assert diag.spread == pytest.approx(expected_spread)
        assert diag.spread >= 0.0
        assert diag.normalized_spread >= 0.0
        variances = estimate_variance(*_pair_costs(ys), intervals)
        for se, var in zip(diag.standard_errors.values(), variances):
            assert se == pytest.approx(math.sqrt(var))

    @given(
        ys=st.lists(
            Y_VALUES.filter(lambda y: y > 0.05),
            min_size=NUM_OBSERVATIONS,
            max_size=NUM_OBSERVATIONS,
        ),
        intervals=st.integers(min_value=10, max_value=1_000),
        factor=st.integers(min_value=4, max_value=100),
    )
    @settings(max_examples=100)
    def test_normalized_spread_grows_like_sqrt_T(
        self, ys, intervals, factor
    ):
        """With observations fixed, the raw spread is constant while
        the pooled SE shrinks as 1/√T — so the t-like statistic must
        scale exactly as √factor whenever the spread is nonzero."""
        y_member, y_pair = _observations(ys)
        d1 = diagnose_system(BATCH, 0, y_member, y_pair, intervals)
        d2 = diagnose_system(BATCH, 0, y_member, y_pair, intervals * factor)
        assert d2.spread == pytest.approx(d1.spread)
        if d1.spread > 1e-9:
            assert d2.normalized_spread == pytest.approx(
                d1.normalized_spread * math.sqrt(factor), rel=1e-6
            )
        else:
            assert d2.normalized_spread <= 1e-3
