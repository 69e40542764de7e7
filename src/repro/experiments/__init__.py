"""End-to-end experiment runners regenerating the paper's evaluation."""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "config": ("EmulationSettings",),
    "runner": ("ExperimentOutcome", "measured_subnetwork"),
    "sweep": ("SweepPoint", "SweepRunner", "SweepStats", "derive_seed"),
    "topology_a": (
        "TABLE2_SETS",
        "TopologyAExperiment",
        "build_experiment",
        "experiment_values",
        "run_full_set",
        "run_topology_a",
        "sweep_points",
    ),
    "reporting": (
        "render_ground_truth",
        "render_path_congestion",
        "render_queue_traces",
        "render_sequences",
        "render_sweep_summary",
        "render_verdict",
    ),
    "topology_b": (
        "TOPOLOGY_B_SETTINGS",
        "SequenceEstimates",
        "TopologyBReport",
        "run_topology_b",
        "run_topology_b_point",
        "table3_workloads",
    ),
})
