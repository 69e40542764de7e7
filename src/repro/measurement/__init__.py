"""Measurement processing: raw records → pathset performance numbers.

Implements the paper's Algorithm 2 (equal-rate normalization and
congestion-free probabilities) and the §6.2 two-cluster unsolvability
decision.
"""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "clustering": (
        "DEFAULT_DEFINITE",
        "DEFAULT_MIN_ABSOLUTE",
        "DEFAULT_MIN_RATIO",
        "ClusterSplit",
        "classify_score_array",
        "classify_scores",
        "cluster_decider",
        "make_cluster_decider",
        "threshold_decider",
        "two_means_split",
    ),
    "estimator": ("SystemDiagnostics", "diagnose_system", "estimate_variance"),
    "latency": (
        "latency_congestion_probability",
        "latency_indicators",
        "latency_performance_numbers",
    ),
    "normalize": (
        "DEFAULT_LOSS_THRESHOLD",
        "congestion_free_matrix",
        "path_congestion_probability",
        "pathset_performance_numbers",
    ),
    "synthetic": ("synthesize_records",),
    "records": ("MeasurementData", "PathRecord", "RecordChunk", "from_arrays"),
})
