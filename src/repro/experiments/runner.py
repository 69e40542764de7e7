"""End-to-end experiment runner: emulate → measure → infer → score.

This is the glue that turns a topology + workload + settings into the
paper's outputs: per-path congestion probabilities (Figure 8's
y-axis), Algorithm 1's verdict, and — given ground truth — the §5
quality metrics. The emulation step is substrate-agnostic: any
backend registered in :mod:`repro.substrate.registry` (the fluid
engine, the packet DES, future ones) plugs in via the ``substrate``
argument, and every backend takes the same
:class:`~repro.substrate.spec.LinkSpec` mappings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.core.algorithm import (
    DEFAULT_MIN_PATHSETS,
    AlgorithmResult,
    identify_from_score_array,
)
from repro.core.classes import ClassAssignment
from repro.core.metrics import QualityReport, evaluate
from repro.core.network import Network
from repro.core.pathsets import PathSet
from repro.core.slices import build_slice_batch, batch_unsolvability_arrays
from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.fluid.params import PathWorkload
from repro.measurement.clustering import make_cluster_decider
from repro.measurement.normalize import (
    batch_slice_observations,
    path_congestion_probability,
)
from repro.measurement.records import MeasurementData
from repro.substrate.base import SubstrateResult
from repro.substrate.batch import ScenarioBatch, run_scenario_batch
from repro.substrate.scenario import CompiledScenario


@dataclass(frozen=True)
class ExperimentOutcome:
    """Everything one experiment produced.

    Attributes:
        emulation: Raw substrate output (interval records, traces,
            ground truth) — see :class:`repro.substrate.base.
            SubstrateResult`.
        observations: Normalized pathset performance numbers (a
            display-only view).
        algorithm: Algorithm 1's result, scored from :attr:`costs`.
        path_congestion: Per-path raw congestion probability
            (Figure 8's bars).
        inference_network: The graph the algorithm saw (restricted to
            measured paths).
        quality: §5 metrics versus ground truth, when ground truth
            (the set of differentiating links) was supplied.
        substrate: Name of the substrate that emulated this outcome.
        costs: ``(y_member, y_pair_flat)``, the Algorithm 2 cost
            arrays the verdict was scored from, over the inference
            network's slice batch (see :func:`~repro.measurement.
            normalize.batch_slice_observations`).
    """

    emulation: SubstrateResult
    observations: Mapping[PathSet, float]
    algorithm: AlgorithmResult
    path_congestion: Dict[str, float]
    inference_network: Network
    quality: Optional[QualityReport] = None
    substrate: str = "fluid"
    costs: Tuple[np.ndarray, np.ndarray] = ()

    @property
    def verdict_non_neutral(self) -> bool:
        """Whether any link sequence was identified as non-neutral."""
        return bool(self.algorithm.identified)


def measured_subnetwork(
    net: Network, workloads: Mapping[str, PathWorkload]
) -> Network:
    """The graph visible to the inference: measured paths only.

    Background (white) paths generate load but provide no
    observations, so the algorithm must not form slices with them.
    """
    measured = [pid for pid in net.path_ids if workloads[pid].measured]
    return net.restricted_to_paths(measured)


def infer_from_measurements(
    net: Network,
    measurements: MeasurementData,
    settings: EmulationSettings = EmulationSettings(),
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Mapping[PathSet, float], AlgorithmResult]:
    """Records → verdict: the batched inference pipeline.

    This is the vectorized counterpart of the frozen
    ``infer_reference`` in ``tests/oracles/algorithm_reference.py``
    (and the function ``benchmarks/bench_inference.py`` gates at
    ≥ 10× over it): one slice-batch build over the path index, per-slice
    normalization from a joint congestion-status matrix (Algorithm
    2), and batched score-based Algorithm 1.

    Nothing per pathset or per σ is built: the returned observations
    are a :class:`~repro.measurement.normalize.PathsetObservations`
    view over the cost arrays in both normalization branches (see
    :func:`~repro.measurement.normalize.batch_slice_observations`),
    and the result's ``systems`` a
    :class:`~repro.core.slices.SliceSystemsView` that builds a System
    4 only when one is read.

    Args:
        net: The inference graph (measured paths only).
        measurements: Raw per-path interval records.
        settings: Thresholds, normalization mode, and decider knobs.
        min_pathsets: Algorithm 1's line-10 threshold.
        rng: Normalization generator (``mode="sampled"`` only).

    Returns:
        ``(observations, algorithm_result)``.
    """
    observations, _costs, algorithm = _infer(
        net, measurements, settings, min_pathsets, rng
    )
    return observations, algorithm


def _infer(net, measurements, settings, min_pathsets, rng):
    """:func:`infer_from_measurements`, also returning the cost arrays
    the verdict was scored from: ``(observations, (y_member,
    y_pair_flat), algorithm_result)``."""
    tracer = _telemetry.get_tracer()
    with tracer.span(
        "infer", paths=len(net.path_ids), mode=settings.normalization_mode
    ) as infer_span:
        with tracer.span("infer.slices"):
            batch, skipped = build_slice_batch(net, min_pathsets)
        with tracer.span("infer.normalize", sigmas=len(batch.sigmas)):
            observations, y_member, y_pair_flat = batch_slice_observations(
                measurements,
                batch,
                loss_threshold=settings.loss_threshold,
                mode=settings.normalization_mode,
                rng=rng,
            )
        with tracer.span("infer.score"):
            algorithm = identify_from_score_array(
                batch,
                skipped,
                batch_unsolvability_arrays(batch, y_member, y_pair_flat),
                make_cluster_decider(
                    settings.decider_min_absolute,
                    settings.decider_min_ratio,
                    settings.decider_definite,
                ),
            )
        infer_span.set(identified=len(algorithm.identified))
    return observations, (y_member, y_pair_flat), algorithm


def outcome_from_emulation(
    net: Network,
    classes: ClassAssignment,
    workloads: Mapping[str, PathWorkload],
    emulation: SubstrateResult,
    settings: EmulationSettings = EmulationSettings(),
    ground_truth_links: Iterable[str] = None,
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
    substrate: str = "fluid",
) -> ExperimentOutcome:
    """The measure → infer → score tail of one experiment.

    Everything :func:`run_scenarios` does for one member after the
    substrate has produced its records (``settings.seed`` must be the
    seed the emulation ran with: it also seeds Algorithm 2's
    sampled-mode normalization RNG).
    """
    inference_net = measured_subnetwork(net, workloads)

    # Per-slice normalization (paper §6.2 / Algorithm 2): each slice
    # family is normalized over its own paths. "sampled" mode draws
    # the subsampled loss counts hypergeometrically — equalizing the
    # congestion indicator's sensitivity between thin and thick paths
    # ("similarly sized traffic aggregates") at the cost of sampling
    # noise; "expected" mode (default) uses the expectation.
    norm_rng = np.random.default_rng(settings.seed + 7_919)
    observations, costs, algorithm = _infer(
        inference_net,
        emulation.measurements,
        settings,
        min_pathsets,
        norm_rng,
    )
    path_congestion = {
        pid: path_congestion_probability(
            emulation.measurements, pid, settings.loss_threshold
        )
        for pid in inference_net.path_ids
    }
    quality = None
    if ground_truth_links is not None:
        quality = evaluate(
            algorithm, ground_truth_links, inference_net.link_ids
        )
    return ExperimentOutcome(
        emulation=emulation,
        observations=observations,
        algorithm=algorithm,
        path_congestion=path_congestion,
        inference_network=inference_net,
        quality=quality,
        substrate=substrate,
        costs=costs,
    )


def _shared_inputs(member: CompiledScenario) -> Dict[str, str]:
    """The inputs that members of one batch must share, each as a
    canonical text that is the same in every process: class paths
    sorted, workloads by path id, the settings with the seed aside."""
    net = member.network
    return {
        "network": repr([
            tuple(m.values()) for m in (net.links, net.paths, net.nodes)
        ]),
        "classes": repr([(c.name, sorted(c.paths)) for c in member.classes]),
        "workloads": repr(sorted(member.workloads.items())),
        "settings": repr(replace(member.settings, seed=0)),
        "substrate": member.substrate,
    }


def batch_key(member: CompiledScenario) -> str:
    """The batch-compatibility key of a member: scenarios with equal
    keys may run as one :func:`run_scenarios` batch.

    A SHA-256 over exactly the inputs :func:`run_scenarios` checks,
    so it is stable across processes and Python hash seeds; sweeps
    use it as their points' ``batch_group``.
    """
    return hashlib.sha256(
        "\x1f".join(_shared_inputs(member).values()).encode()
    ).hexdigest()


def run_scenarios(
    members: Sequence[CompiledScenario],
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
) -> List[ExperimentOutcome]:
    """The one emulate → measure → infer → score loop, for link-spec
    variants of one experiment (DESIGN.md S19).

    The members run as one :class:`~repro.substrate.batch.
    ScenarioBatch`, each at its own settings' seed, and each outcome
    is finished by :func:`outcome_from_emulation`.

    Raises:
        ConfigurationError: With no member, or when members differ in
            network, classes, workloads, settings (seed aside) or
            substrate.
    """
    if not members:
        raise ConfigurationError("run_scenarios needs at least one scenario")
    first = members[0]
    inputs = _shared_inputs(first)
    for i, member in enumerate(members[1:], start=1):
        differ = [
            k for k, v in _shared_inputs(member).items() if v != inputs[k]
        ]
        if differ:
            raise ConfigurationError(
                "scenarios run as one batch must share network, "
                "classes, workloads, settings (seed aside) and "
                f"substrate; member {i} differs in {', '.join(differ)}"
            )
    tracer = _telemetry.get_tracer()
    with tracer.span(
        "experiment.run", substrate=first.substrate,
        paths=len(first.network.path_ids), seed=first.settings.seed,
        scenarios=len(members),
    ):
        with tracer.span("experiment.emulate", substrate=first.substrate):
            emulations = run_scenario_batch(
                ScenarioBatch.compile(
                    first.network,
                    first.classes,
                    first.workloads,
                    [member.link_specs for member in members],
                    [member.settings.seed for member in members],
                ),
                first.settings,
                first.substrate,
            )
        return [
            outcome_from_emulation(
                member.network,
                member.classes,
                member.workloads,
                emulation,
                settings=member.settings,
                ground_truth_links=member.ground_truth_links,
                min_pathsets=min_pathsets,
                substrate=member.substrate,
            )
            for member, emulation in zip(members, emulations)
        ]
