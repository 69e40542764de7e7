"""Diagnostics for per-pair σ-cost estimates (beyond the paper).

The paper's unsolvability score is the raw spread of the per-pair
estimates ``x_σ = y_i + y_j − y_{ij}``. This module adds the
statistics a practitioner wants next to that number:

* the delta-method standard error of each estimate, from the
  congestion-free probabilities and the number of intervals;
* a noise-normalized spread (how many standard errors of
  disagreement the system exhibits);
* a compact per-system diagnostic record.

They read Algorithm 2's per-member cost arrays, like the scorer;
the default pipeline keeps the paper's raw-spread + clustering
decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.slices import SliceSystemBatch, batch_pair_estimates_arrays
from repro.exceptions import MeasurementError


def estimate_variance(
    y_a: np.ndarray,
    y_b: np.ndarray,
    y_ab: np.ndarray,
    num_intervals: int,
) -> np.ndarray:
    """Delta-method variance of pair σ-cost estimates, elementwise.

    With ``y = −log P̂`` and ``P̂`` a binomial proportion over ``T``
    intervals, ``Var(y) ≈ (1 − P)/(P·T)``; the pair estimate
    ``y_a + y_b − y_ab`` sums three such terms (ignoring their
    positive covariance, so this is an upper-bound-flavoured scale,
    not an exact CI).
    """
    if num_intervals <= 0:
        raise MeasurementError("num_intervals must be positive")
    p = np.exp(-np.array([y_a, y_b, y_ab], dtype=float))
    return ((1.0 - p) / np.maximum(p * num_intervals, 1e-12)).sum(axis=0)


@dataclass(frozen=True)
class SystemDiagnostics:
    """Noise-aware diagnostics of one System 4.

    Attributes:
        sigma: The link sequence.
        estimates: Per-pair estimates of σ's cost.
        standard_errors: Delta-method SE per pair.
        spread: Raw max − min (the paper's unsolvability).
        normalized_spread: spread / pooled SE — a t-like statistic;
            values ≲ 3 are indistinguishable from noise.
    """

    sigma: Tuple[str, ...]
    estimates: Dict[Tuple[str, str], float]
    standard_errors: Dict[Tuple[str, str], float]
    spread: float
    normalized_spread: float


def diagnose_system(
    batch: SliceSystemBatch,
    g: int,
    y_member: np.ndarray,
    y_pair_flat: np.ndarray,
    num_intervals: int,
) -> SystemDiagnostics:
    """The full diagnostic record of system ``g`` of a slice batch.

    ``y_member`` / ``y_pair_flat`` are Algorithm 2's cost arrays over
    the batch (see :func:`~repro.measurement.normalize.
    batch_slice_observations`); the estimates are σ's segment of
    :func:`~repro.core.slices.batch_pair_estimates_arrays`.
    """
    lo, hi = batch.offsets[g], batch.offsets[g + 1]
    estimates = batch_pair_estimates_arrays(batch, y_member, y_pair_flat)[
        lo:hi
    ]
    ses = np.sqrt(
        estimate_variance(
            y_member[batch.member_a[lo:hi]],
            y_member[batch.member_b[lo:hi]],
            y_pair_flat[lo:hi],
            num_intervals,
        )
    )
    clipped = np.maximum(estimates, 0.0)
    spread = float(clipped.max() - clipped.min()) if hi - lo > 1 else 0.0
    pooled = float(np.sqrt(np.mean(ses * ses)))
    pairs = batch.system(g).pairs
    return SystemDiagnostics(
        sigma=batch.sigmas[g],
        estimates=dict(zip(pairs, estimates.tolist())),
        standard_errors=dict(zip(pairs, ses.tolist())),
        spread=spread,
        normalized_spread=spread / max(pooled, 1e-12),
    )
