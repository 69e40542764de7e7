"""Declarative experiment scenarios.

A :class:`Scenario` is plain data — topology + workload +
differentiation policy + substrate + settings — that *compiles* to
the concrete objects the pipeline runs: a network, a class
assignment, shared per-link :class:`~repro.substrate.spec.LinkSpec`
values, per-path workloads, and the ground-truth link set. The same
scenario compiles for any registered substrate, which is how the
cross-substrate benches express "the same experiment on the fluid
engine and the packet DES".

The policy layer covers the paper's two mechanisms (token-bucket
policing, dual shaping) plus the two newer differentiation families:
class-targeted AQM early drop (RED/PIE-flavoured) and
work-conserving weighted per-class service.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Mapping, Optional

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError
from repro.experiments.config import TOPOLOGY_B_DECIDERS, EmulationSettings
from repro.fluid.params import (
    AqmSpec,
    PathWorkload,
    PolicerSpec,
    ShaperSpec,
    WeightedShaperSpec,
)
from repro.substrate.spec import LinkSpec

#: The differentiation mechanism families a policy can express.
MECHANISMS = ("policing", "shaping", "aqm", "weighted")


@dataclass(frozen=True)
class DifferentiationPolicy:
    """One link's differentiation policy, mechanism-agnostic.

    Attributes:
        mechanism: One of :data:`MECHANISMS`.
        target_class: The targeted (throttled) class.
        rate_fraction: Policing/shaping rate, or the weighted
            mechanism's service share, as a fraction of capacity.
        burst_seconds: Policer bucket depth (seconds at the policing
            rate).
        buffer_seconds: Shaper/weighted virtual-queue depth; ``None``
            keeps each mechanism's own default (0.25 s for the dual
            shaper per the paper, a shallow 0.05 s for the
            flow-queuing-style weighted mechanism).
        aqm_min_threshold: AQM early-drop onset (queue fill fraction).
        aqm_max_threshold: AQM saturation point (queue fill fraction).
        aqm_max_drop_probability: AQM drop probability at saturation.
    """

    mechanism: str
    target_class: str = "c2"
    rate_fraction: float = 0.3
    burst_seconds: float = 0.005
    buffer_seconds: Optional[float] = None
    aqm_min_threshold: float = 0.05
    aqm_max_threshold: float = 0.5
    aqm_max_drop_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ConfigurationError(
                f"unknown mechanism {self.mechanism!r}; "
                f"valid: {MECHANISMS}"
            )

    def mechanism_spec(self) -> object:
        """The mechanism spec object for this policy."""
        if self.mechanism == "policing":
            return PolicerSpec(
                target_class=self.target_class,
                rate_fraction=self.rate_fraction,
                burst_seconds=self.burst_seconds,
            )
        if self.mechanism == "shaping":
            kwargs = (
                {}
                if self.buffer_seconds is None
                else {"buffer_seconds": self.buffer_seconds}
            )
            return ShaperSpec(
                target_class=self.target_class,
                rate_fraction=self.rate_fraction,
                **kwargs,
            )
        if self.mechanism == "aqm":
            return AqmSpec(
                target_class=self.target_class,
                min_threshold_fraction=self.aqm_min_threshold,
                max_threshold_fraction=self.aqm_max_threshold,
                max_drop_probability=self.aqm_max_drop_probability,
            )
        kwargs = (
            {}
            if self.buffer_seconds is None
            else {"buffer_seconds": self.buffer_seconds}
        )
        return WeightedShaperSpec(
            target_class=self.target_class,
            weight=self.rate_fraction,
            **kwargs,
        )

    def apply_to(self, spec: LinkSpec) -> LinkSpec:
        """A copy of ``spec`` carrying this policy (and no other)."""
        mech = self.mechanism_spec()
        return replace(
            spec,
            policer=mech if self.mechanism == "policing" else None,
            shaper=mech if self.mechanism == "shaping" else None,
            aqm=mech if self.mechanism == "aqm" else None,
            weighted=mech if self.mechanism == "weighted" else None,
        )


@dataclass(frozen=True)
class Scenario:
    """A declarative experiment description (plain, picklable data).

    Attributes:
        name: Human-readable scenario id.
        topology: ``"dumbbell"`` (topology A) or ``"multi_isp"``
            (topology B).
        substrate: Registered substrate name.
        policy: Differentiation policy of the topology's
            differentiating link(s); ``None`` keeps them neutral.
        mean_flow_size_mb / rtt_ms / congestion_control /
        mean_gap_seconds / flows_per_path: Workload knobs (dumbbell;
            topology B always carries its Table 3 mixes).
        capacity_mbps: Bottleneck capacity; access links get 10×.
        buffer_seconds: Bottleneck queue depth.
        settings: Emulation/inference settings; a ``multi_isp``
            scenario sets their decider fields to
            :data:`~repro.experiments.config.TOPOLOGY_B_DECIDERS`.
    """

    name: str
    topology: str = "dumbbell"
    substrate: str = "fluid"
    policy: Optional[DifferentiationPolicy] = None
    mean_flow_size_mb: float = 10.0
    rtt_ms: float = 50.0
    congestion_control: str = "cubic"
    mean_gap_seconds: float = 10.0
    flows_per_path: Optional[int] = None
    capacity_mbps: float = 100.0
    buffer_seconds: float = 0.2
    settings: EmulationSettings = field(default_factory=EmulationSettings)

    def __post_init__(self) -> None:
        if self.topology not in ("dumbbell", "multi_isp"):
            raise ConfigurationError(
                f"unknown topology {self.topology!r}"
            )
        if self.topology == "multi_isp":
            object.__setattr__(
                self, "settings", replace(self.settings, **TOPOLOGY_B_DECIDERS)
            )

@dataclass(frozen=True)
class CompiledScenario:
    """A scenario lowered to runnable objects: one member of
    :func:`repro.experiments.runner.run_scenarios`.

    Attributes:
        network: The graph.
        classes: The class assignment.
        link_specs: Per-link specs, ready for any substrate or
            engine.
        workloads: Per-path traffic.
        settings: Emulation/inference settings, deciders included;
            their seed is the member's emulation seed.
        substrate: Registered substrate name.
        ground_truth_links: Links that actually differentiate, for
            quality scoring; ``None`` skips scoring.
    """

    network: Network
    classes: ClassAssignment
    link_specs: Mapping[str, LinkSpec]
    workloads: Mapping[str, PathWorkload]
    settings: EmulationSettings
    substrate: str = "fluid"
    ground_truth_links: Optional[FrozenSet[str]] = None


def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Lower a :class:`Scenario` to concrete per-substrate inputs."""
    if scenario.topology == "dumbbell":
        return _compile_dumbbell(scenario)
    return _compile_multi_isp(scenario)


def _compile_dumbbell(scenario: Scenario) -> CompiledScenario:
    from repro.topology.dumbbell import SHARED_LINK, build_dumbbell
    from repro.workloads.profiles import class_workload

    topo = build_dumbbell(
        mechanism=None,
        capacity_mbps=scenario.capacity_mbps,
        buffer_rtt_seconds=scenario.buffer_seconds,
    )
    specs = dict(topo.link_specs)
    truth: FrozenSet[str] = frozenset()
    if scenario.policy is not None:
        specs[SHARED_LINK] = scenario.policy.apply_to(specs[SHARED_LINK])
        truth = frozenset((SHARED_LINK,))
    workloads = class_workload(
        topo.network.path_ids,
        mean_size_mb=scenario.mean_flow_size_mb,
        rtt_ms=scenario.rtt_ms,
        congestion_control=scenario.congestion_control,
        mean_gap_seconds=scenario.mean_gap_seconds,
        flows_per_path=scenario.flows_per_path,
    )
    return CompiledScenario(
        network=topo.network,
        classes=topo.classes,
        link_specs=specs,
        workloads=workloads,
        settings=scenario.settings,
        substrate=scenario.substrate,
        ground_truth_links=truth,
    )


def _compile_multi_isp(scenario: Scenario) -> CompiledScenario:
    from repro.topology.multi_isp import POLICED_LINKS
    from repro.experiments.topology_b import compile_topology_b

    policy = scenario.policy
    compiled = compile_topology_b(
        scenario.settings,
        policy.rate_fraction if policy is not None else 0.15,
        scenario.substrate,
    )
    specs = dict(compiled.link_specs)
    for lid in POLICED_LINKS:
        # The neutral variant strips the built-in policers.
        specs[lid] = (
            replace(specs[lid], policer=None)
            if policy is None
            else policy.apply_to(specs[lid])
        )
    return replace(
        compiled,
        link_specs=specs,
        ground_truth_links=(
            frozenset() if policy is None else compiled.ground_truth_links
        ),
    )


def run_scenario(scenario: Scenario):
    """Compile and run one scenario end to end.

    Returns the :class:`repro.experiments.runner.ExperimentOutcome`
    (emulation on the scenario's substrate, then the full Algorithm
    2 → Algorithm 1 inference and §5 quality scoring).
    """
    from repro.experiments.runner import run_scenarios

    [outcome] = run_scenarios([compile_scenario(scenario)])
    return outcome
