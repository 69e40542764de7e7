"""Core theory of the paper: model, equivalents, observability,
slices, identifiability, and Algorithm 1.

This subpackage is pure: no I/O, no randomness, no emulation — only
the mathematical objects of Sections 2–5 of the paper.
"""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "algorithm": (
        "DEFAULT_MIN_PATHSETS",
        "AlgorithmResult",
        "identify_non_neutral",
        "identify_non_neutral_exact",
        "required_pathsets",
    ),
    "classes": (
        "ClassAssignment",
        "PerformanceClass",
        "classes_from_mapping",
        "single_class",
        "two_classes",
    ),
    "equivalent": (
        "EquivalentNeutralNetwork",
        "VirtualLink",
        "VirtualLinkKind",
        "build_equivalent",
        "structural_equivalent",
    ),
    "identifiability": (
        "Lemma3Result",
        "identifiable_sequences_exact",
        "is_identifiable_exact",
        "satisfies_lemma3",
    ),
    "linear": (
        "LeastSquaresSolution",
        "is_solvable",
        "residual",
        "solve_least_squares",
    ),
    "metrics": (
        "QualityReport",
        "evaluate",
        "false_negative_rate",
        "false_positive_rate",
        "granularity",
    ),
    "network": (
        "Link",
        "LinkSeq",
        "Network",
        "Node",
        "NodeKind",
        "Path",
        "PathIndex",
        "make_linkseq",
        "network_from_path_specs",
    ),
    "observability": (
        "ObservabilityResult",
        "UnsolvableWitness",
        "check_observability",
        "check_structural_observability",
        "find_unsolvable_family",
        "minimal_unsolvable_family",
    ),
    "pathsets": (
        "PathSet",
        "PathSetFamily",
        "all_pairs",
        "family",
        "pathset",
        "power_family",
        "singletons",
        "singletons_and_pairs",
    ),
    "performance": (
        "LinkPerformance",
        "NetworkPerformance",
        "neutral_performance",
        "perf_from_probability",
        "performance_with_violations",
        "probability_from_perf",
    ),
    "routing": ("RoutingMatrix", "routing_matrix"),
    "slices": (
        "SIGMA_COLUMN",
        "SliceSystem",
        "SliceSystemBatch",
        "batch_pair_estimates_arrays",
        "batch_unsolvability_arrays",
        "build_slice_batch",
        "build_slice_system",
        "pairs_for_sequence",
        "shared_sequences",
        "slice_pathsets",
    ),
})
