"""The package namespace contract.

Every package ``__init__`` is a docstring plus an export table
(``repro._namespace.lazy_exports``): names resolve on first access,
and the public surface is the one the eager re-exports had.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

# Each package's ``__all__`` as it stood with eager re-exports (sorted),
# minus the names deleted since: ``repro.telemetry.count_rng``; the
# adaptive calibration, the three refinable labelings and the
# topology-B frontier/sweep runners of ``repro.experiments``;
# ``repro.fluid.uniform_workload``; ``repro.streaming.MonitorFleet``;
# ``repro.core.remove_redundant`` and the mapping deciders
# ``repro.measurement.classify_scores`` / ``cluster_decider``.
FROZEN_ALL = {
    "repro": (
        "AlgorithmResult", "ClassAssignment", "Network", "NetworkPerformance",
        "Path", "PerformanceClass", "ReproError", "__version__",
        "build_equivalent", "build_slice_system", "check_observability",
        "evaluate", "identify_non_neutral", "identify_non_neutral_exact",
        "is_identifiable_exact", "network_from_path_specs",
        "neutral_performance", "performance_with_violations",
        "routing_matrix", "satisfies_lemma3", "single_class", "two_classes",
    ),
    "repro.analysis": (
        "BoxplotSummary", "boxplot_summary", "format_table", "series_summary",
    ),
    "repro.core": (
        "AlgorithmResult", "ClassAssignment", "DEFAULT_MIN_PATHSETS",
        "EquivalentNeutralNetwork", "LeastSquaresSolution", "Lemma3Result",
        "Link", "LinkPerformance", "LinkSeq", "Network", "NetworkPerformance",
        "Node", "NodeKind", "ObservabilityResult", "Path", "PathIndex",
        "PathSet", "PathSetFamily", "PerformanceClass", "QualityReport",
        "RoutingMatrix", "SIGMA_COLUMN", "SliceSystem", "SliceSystemBatch",
        "UnsolvableWitness", "VirtualLink", "VirtualLinkKind", "all_pairs",
        "batch_pair_estimates_arrays", "batch_unsolvability_arrays",
        "build_equivalent",
        "build_slice_batch", "build_slice_system", "check_observability",
        "check_structural_observability", "classes_from_mapping", "evaluate",
        "false_negative_rate", "false_positive_rate", "family",
        "find_unsolvable_family", "granularity",
        "identifiable_sequences_exact", "identify_non_neutral",
        "identify_non_neutral_exact", "is_identifiable_exact", "is_solvable",
        "make_linkseq", "minimal_unsolvable_family",
        "network_from_path_specs", "neutral_performance",
        "pairs_for_sequence", "pathset", "perf_from_probability",
        "performance_with_violations", "power_family",
        "probability_from_perf", "required_pathsets",
        "residual", "routing_matrix", "satisfies_lemma3", "shared_sequences",
        "single_class", "singletons", "singletons_and_pairs",
        "slice_pathsets", "solve_least_squares", "structural_equivalent",
        "two_classes",
    ),
    "repro.emulator": (
        "DEFAULT_MAX_PACKETS", "PACKET_ENGINE_VERSION", "PacketNetwork",
        "PacketResult", "greedy_admission",
    ),
    "repro.experiments": (
        "AdaptiveResult", "AdaptiveSweep", "Cell", "EmulationSettings",
        "ExperimentOutcome", "GridAxis", "PlanePointFactory",
        "PlanePointResult", "SequenceEstimates", "SweepPoint", "SweepRunner",
        "SweepStats", "TABLE2_SETS", "TOPOLOGY_B_SETTINGS",
        "TopologyAExperiment", "TopologyBReport", "build_experiment",
        "cell_bounds", "derive_seed", "experiment_values",
        "measured_subnetwork", "plane_axes", "render_adaptive_frontier",
        "render_ground_truth", "render_path_congestion",
        "render_queue_traces", "render_sequences", "render_sweep_summary",
        "render_verdict", "run_experiment", "run_full_set",
        "run_plane_frontier", "run_topology_a", "run_topology_b",
        "run_topology_b_point", "sweep_points", "table3_workloads",
    ),
    "repro.fluid": (
        "AqmSpec", "DEFAULT_DT", "DEFAULT_INTERVAL", "ENGINE_VERSION",
        "FlowSlot", "FlowSlotSpec", "FluidBatchNetwork", "FluidBatchSession",
        "FluidNetwork", "FluidResult", "LinkSpec", "MSS_BITS", "PathWorkload",
        "PolicerSpec", "ShaperSpec", "TcpState", "WeightedShaperSpec",
        "build_slots", "mb_to_packets", "mbps_to_pps",
        "sample_flow_size_packets", "sample_gap_seconds",
    ),
    "repro.measurement": (
        "ClusterSplit", "DEFAULT_DEFINITE", "DEFAULT_LOSS_THRESHOLD",
        "DEFAULT_MIN_ABSOLUTE", "DEFAULT_MIN_RATIO", "MeasurementData",
        "PathRecord", "RecordChunk", "SystemDiagnostics",
        "classify_score_array", "congestion_free_matrix", "diagnose_system",
        "estimate_variance", "from_arrays", "latency_congestion_probability",
        "latency_indicators", "latency_performance_numbers",
        "make_cluster_decider",
        "path_congestion_probability", "pathset_performance_numbers",
        "synthesize_records", "threshold_decider", "two_means_split",
    ),
    "repro.streaming": (
        "ChangePoint", "EmulationStream", "MonitorReport", "NeutralityMonitor",
        "ReplayStream", "SlidingWindowStats", "WindowVerdict",
        "monitor_scenario",
    ),
    "repro.substrate": (
        "CompiledScenario", "DEFAULT_DELAY_SECONDS", "DifferentiationPolicy",
        "EmulationSubstrate", "FluidSubstrate", "LinkSpec", "MECHANISMS",
        "PacketSubstrate", "Scenario", "ScenarioBatch", "SubstrateResult",
        "available_substrates", "compile_scenario", "get_substrate",
        "normalize_specs", "run_scenario", "run_scenario_batch",
        "substrate_cache_tag", "substrate_supports_batch",
    ),
    "repro.telemetry": (
        "Counter", "CountingRNG", "DEFAULT_BUCKETS", "ENV_VAR", "Gauge",
        "Histogram", "METRICS_FILENAME", "NOOP_INSTRUMENT", "NOOP_SPAN",
        "Registry", "RunManifest", "Span", "SpanContext", "TRACE_FILENAME",
        "Tracer", "activate", "configure", "configure_from_env",
        "current_context", "enabled", "export_dir", "get_registry",
        "get_tracer", "load_metrics", "load_trace", "reset_registry", "span",
        "trace_path", "write_manifest",
    ),
    "repro.tomography": (
        "BooleanTomographyResult", "LsqTomographyResult",
        "boolean_tomography", "lsq_tomography", "path_states",
        "smallest_explanation",
    ),
    "repro.topology": (
        "ALL_FIGURES", "CLASS1_PATHS", "CLASS2_PATHS", "DumbbellTopology",
        "FigureNetwork", "MultiIspTopology", "NEUTRAL_BUSY_LINK",
        "POLICED_LINKS", "SHARED_LINK", "build_dumbbell", "build_multi_isp",
        "chain_network", "figure1", "figure2", "figure4", "figure5",
        "figure6", "random_mesh_network", "random_tree_network",
        "random_two_class_performance", "star_network",
    ),
    "repro.workloads": (
        "HostGroupProfile", "ParameterTable", "TABLE1", "TABLE3",
        "class_workload", "group_workload", "slots_for_size",
    ),
}

# Run in a fresh interpreter per package: resolve every exported name
# through the package first, then compare with its submodule attribute;
# a table key resolves to its submodule.
_PROBE = r"""
import importlib, json, sys
package, table = sys.argv[1], json.loads(sys.argv[2])
pkg = importlib.import_module(package)
names = list(pkg.__all__)
resolved = {name: getattr(pkg, name) for name in names}
star = {}
exec(f"from {package} import *", star)
try:
    getattr(pkg, "no_such_name")
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
listing = dir(pkg)
print(json.dumps({
    "not_same": [
        name for sub, subnames in table.items() for name in subnames
        if resolved[name] is not getattr(
            importlib.import_module(f"{package}.{sub}"), name)
    ],
    "not_cached": [name for name in names if name not in vars(pkg)],
    "not_in_dir": [name for name in names if name not in listing],
    "not_starred": [name for name in names if name not in star],
    "unknown": unknown,
    "not_submodule": [
        sub for sub in table
        if pkg.__getattr__(sub) is not sys.modules[f"{package}.{sub}"]
    ],
}))
"""


def _init_tree(package):
    module = importlib.import_module(package)
    with open(module.__file__, encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _export_table(package):
    """The literal table passed to ``lazy_exports`` in the __init__."""
    for node in ast.walk(_init_tree(package)):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} has no export table")


@pytest.mark.parametrize("package", sorted(FROZEN_ALL))
def test_all_matches_the_frozen_list(package):
    names = importlib.import_module(package).__all__
    assert sorted(names) == list(FROZEN_ALL[package])
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("package", sorted(FROZEN_ALL))
def test_init_holds_no_code(package):
    """A global lookup in an __init__ misses its lazy names, so no
    function or class may live there."""
    defined = [
        node.name for node in _init_tree(package).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
    ]
    assert defined == []


@pytest.mark.parametrize("package", sorted(FROZEN_ALL))
def test_names_resolve_lazily_in_a_fresh_interpreter(package):
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, package,
         json.dumps(_export_table(package))],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(out.stdout)
    assert report == {
        "not_same": [],
        "not_cached": [],
        "not_in_dir": [],
        "not_starred": [],
        "unknown": f"module {package!r} has no attribute 'no_such_name'",
        "not_submodule": [],
    }

