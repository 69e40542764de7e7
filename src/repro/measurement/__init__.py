"""Measurement processing: raw records → pathset performance numbers.

Implements the paper's Algorithm 2 (equal-rate normalization and
congestion-free probabilities) and the §6.2 two-cluster unsolvability
decision.
"""

from repro.measurement.clustering import (
    DEFAULT_DEFINITE,
    DEFAULT_MIN_ABSOLUTE,
    DEFAULT_MIN_RATIO,
    ClusterSplit,
    classify_score_array,
    classify_scores,
    cluster_decider,
    make_cluster_decider,
    threshold_decider,
    two_means_split,
)
from repro.measurement.estimator import (
    SystemDiagnostics,
    diagnose_system,
    estimate_variance,
)
from repro.measurement.latency import (
    latency_congestion_probability,
    latency_indicators,
    latency_performance_numbers,
)
from repro.measurement.normalize import (
    DEFAULT_LOSS_THRESHOLD,
    congestion_free_matrix,
    path_congestion_probability,
    pathset_performance_numbers,
)
from repro.measurement.synthetic import synthesize_records
from repro.measurement.records import (
    MeasurementData,
    PathRecord,
    RecordChunk,
    from_arrays,
)

__all__ = [
    "DEFAULT_DEFINITE",
    "DEFAULT_LOSS_THRESHOLD",
    "DEFAULT_MIN_ABSOLUTE",
    "DEFAULT_MIN_RATIO",
    "ClusterSplit",
    "MeasurementData",
    "PathRecord",
    "RecordChunk",
    "classify_score_array",
    "classify_scores",
    "cluster_decider",
    "congestion_free_matrix",
    "from_arrays",
    "latency_congestion_probability",
    "latency_indicators",
    "latency_performance_numbers",
    "make_cluster_decider",
    "path_congestion_probability",
    "pathset_performance_numbers",
    "SystemDiagnostics",
    "diagnose_system",
    "estimate_variance",
    "synthesize_records",
    "threshold_decider",
    "two_means_split",
]
