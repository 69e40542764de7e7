"""Two-cluster unsolvability decision (paper Section 6.2).

In practice no System 4 is *exactly* solvable, but some are far "more
unsolvable" than others. The paper computes each system's
unsolvability score (spread of the per-pair estimates of ``x_σ``) and
splits the scores into two clusters; systems in the low cluster are
declared solvable.

We implement exact 1-D 2-means (optimal split of the sorted scores)
plus the safeguards a practical deployment needs:

* if every score is tiny, there is nothing to split — all solvable
  (this is what makes fully neutral networks come out clean);
* if the two cluster centers are too close — in absolute terms or
  relative to each other — the split is noise, not differentiation,
  and again everything is declared solvable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, TypeVar

import numpy as np
from numpy.typing import ArrayLike

from repro.exceptions import MeasurementError

K = TypeVar("K")

#: Scores below this can never indicate non-neutrality (cost units:
#: −log P; 0.02 ≈ a 2-percentage-point congestion-probability gap).
DEFAULT_MIN_ABSOLUTE = 0.02

#: The high-cluster center must exceed the low center by this factor.
DEFAULT_MIN_RATIO = 3.0

#: Scores at or above this are unsolvable regardless of the clustering
#: outcome. Needed when an experiment yields few systems (topology A
#: has exactly one candidate σ, so there is no population to cluster):
#: a spread of 0.045 in cost units means the per-pair estimates of σ's
#: congestion-free probability differ by ≈ 4.5 percentage points,
#: several times the measurement noise at the paper's durations and
#: loads (calibrated on the topology-A sweeps; see EXPERIMENTS.md).
DEFAULT_DEFINITE = 0.045


@dataclass(frozen=True)
class ClusterSplit:
    """Result of the 1-D 2-means split.

    Attributes:
        threshold: Scores strictly above it are in the high cluster.
        low_center: Mean of the low cluster.
        high_center: Mean of the high cluster.
        separated: Whether the safeguards consider the split real.
    """

    threshold: float
    low_center: float
    high_center: float
    separated: bool


def two_means_split(
    values: ArrayLike,
    min_absolute: float = DEFAULT_MIN_ABSOLUTE,
    min_ratio: float = DEFAULT_MIN_RATIO,
) -> ClusterSplit:
    """Optimal 1-D 2-means split with separation safeguards.

    Args:
        values: The unsolvability scores (any order): an array or
            a sequence of floats.
        min_absolute: The high-cluster center must be at least this
            large for the split to count.
        min_ratio: And at least ``min_ratio`` times the low center
            (with a small floor on the low center to avoid division
            blow-ups).

    Returns:
        The :class:`ClusterSplit`. With fewer than 2 values, or when
        all values are equal, ``separated`` is False.

    Raises:
        MeasurementError: On an empty or non-finite score list.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise MeasurementError("cannot cluster an empty score list")
    if not np.isfinite(arr).all():
        raise MeasurementError("cannot cluster non-finite scores")
    if arr.size == 1 or np.isclose(arr[0], arr[-1]):
        return ClusterSplit(
            threshold=float(arr[-1]),
            low_center=float(arr.mean()),
            high_center=float(arr.mean()),
            separated=False,
        )

    # Exact 2-means on sorted data: evaluate every split point at
    # once from prefix sums; the earliest split within fp tolerance
    # of the minimum cost wins (matching the historical sequential
    # search, which only moved on a > 1e-15 improvement).
    n = arr.size
    prefix = np.cumsum(arr)
    prefix_sq = np.cumsum(arr**2)
    total = prefix[-1]
    total_sq = prefix_sq[-1]
    k = np.arange(1, n)
    left_sum = prefix[:-1]
    left_sq = prefix_sq[:-1]
    cost = (left_sq - left_sum**2 / k) + (
        (total_sq - left_sq) - (total - left_sum) ** 2 / (n - k)
    )
    best_split = int(np.flatnonzero(cost <= cost.min() + 1e-15)[0]) + 1
    low = arr[:best_split]
    high = arr[best_split:]
    low_center = float(low.mean())
    high_center = float(high.mean())
    floor = max(low_center, min_absolute / min_ratio, 1e-9)
    separated = high_center >= min_absolute and high_center >= min_ratio * floor
    return ClusterSplit(
        threshold=float((low[-1] + high[0]) / 2.0),
        low_center=low_center,
        high_center=high_center,
        separated=separated,
    )


def classify_score_array(
    scores: np.ndarray,
    min_absolute: float = DEFAULT_MIN_ABSOLUTE,
    min_ratio: float = DEFAULT_MIN_RATIO,
    definite: float = DEFAULT_DEFINITE,
) -> np.ndarray:
    """Classify a score array into solvable (False) / unsolvable (True).

    Implements the §6.2 decision: 2-means over all scores; a system is
    unsolvable when it falls in the high cluster of a *separated*
    split. Without separation everything is solvable — except that a
    score at or above ``definite`` is always unsolvable (single-system
    experiments have no population to cluster over).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        return np.zeros(0, dtype=bool)
    split = two_means_split(
        scores, min_absolute=min_absolute, min_ratio=min_ratio
    )
    if not split.separated:
        return scores >= definite
    return (scores > split.threshold) | (scores >= definite)


def classify_scores(
    scores: Mapping[K, float],
    min_absolute: float = DEFAULT_MIN_ABSOLUTE,
    min_ratio: float = DEFAULT_MIN_RATIO,
    definite: float = DEFAULT_DEFINITE,
) -> Dict[K, bool]:
    """:func:`classify_score_array` over a ``{key: score}`` mapping."""
    flags = classify_score_array(
        np.fromiter(scores.values(), dtype=float, count=len(scores)),
        min_absolute=min_absolute,
        min_ratio=min_ratio,
        definite=definite,
    )
    return dict(zip(scores, flags.tolist()))


def cluster_decider(scores: Mapping[K, float]) -> Dict[K, bool]:
    """Default decider for Algorithm 1 (library defaults)."""
    return classify_scores(scores)


def make_cluster_decider(
    min_absolute: float = DEFAULT_MIN_ABSOLUTE,
    min_ratio: float = DEFAULT_MIN_RATIO,
    definite: float = DEFAULT_DEFINITE,
) -> Callable[[Mapping[K, float]], Dict[K, bool]]:
    """A decider with custom safeguards (for experiment tuning)."""

    def decider(scores: Mapping[K, float]) -> Dict[K, bool]:
        return classify_scores(
            scores,
            min_absolute=min_absolute,
            min_ratio=min_ratio,
            definite=definite,
        )

    return decider


def threshold_decider(
    threshold: float,
) -> Callable[[Mapping[K, float]], Dict[K, bool]]:
    """A fixed-threshold decider — the ablation baseline to clustering."""

    def decider(scores: Mapping[K, float]) -> Dict[K, bool]:
        return {key: value > threshold for key, value in scores.items()}

    return decider
