"""Scenario batches: many link-spec variants of one experiment.

A :class:`ScenarioBatch` is the substrate-level description of a
"many-worlds" run: one topology, one class assignment, one workload —
and ``B`` per-variant link-spec mappings with per-variant seeds. It is
the compile step between
:func:`repro.experiments.runner.run_scenarios` (every experiment
family's runs and sweep batches) and a substrate's batched entry
point: variant specs
are type-checked once (:func:`repro.substrate.spec.normalize_specs`),
validated for batchability (equal lengths, shared everything else), and handed to
:meth:`EmulationSubstrate.run_batch` when the backend advertises the
capability — or replayed variant-by-variant through the ordinary
:meth:`~repro.substrate.base.EmulationSubstrate.run` when it does
not. Both routes produce the *same* per-variant results (the batched
engine is floating-point-identical to single runs), so callers never
need to know which route ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError
from repro.fluid.params import PathWorkload
from repro.substrate.base import SubstrateResult
from repro.substrate.registry import get_substrate
from repro.substrate.spec import LinkSpec, normalize_specs

if TYPE_CHECKING:  # pragma: no cover - annotation-only (see base.py)
    from repro.experiments.config import EmulationSettings


@dataclass(frozen=True)
class ScenarioBatch:
    """``B`` link-spec variants of one emulation experiment.

    Attributes:
        net: The shared network graph.
        classes: The shared class assignment.
        workloads: The shared per-path traffic.
        variants: Checked per-variant link specs (one mapping per
            scenario; links not mentioned default like a single run).
        seeds: Per-variant emulation seeds.
    """

    net: Network
    classes: ClassAssignment
    workloads: Mapping[str, PathWorkload]
    variants: Tuple[Dict[str, LinkSpec], ...]
    seeds: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.variants:
            raise ConfigurationError(
                "a scenario batch needs at least one variant"
            )
        if len(self.seeds) != len(self.variants):
            raise ConfigurationError(
                f"{len(self.variants)} variants but "
                f"{len(self.seeds)} seeds"
            )

    @classmethod
    def compile(
        cls,
        net: Network,
        classes: ClassAssignment,
        workloads: Mapping[str, PathWorkload],
        variant_specs: Sequence[Mapping[str, LinkSpec]],
        seeds: Sequence[int],
    ) -> "ScenarioBatch":
        """Check and stack per-variant :class:`~repro.substrate.spec.
        LinkSpec` mappings into a batch."""
        return cls(
            net=net,
            classes=classes,
            workloads=workloads,
            variants=tuple(
                normalize_specs(specs) for specs in variant_specs
            ),
            seeds=tuple(int(s) for s in seeds),
        )

    def __len__(self) -> int:
        return len(self.variants)


def substrate_supports_batch(substrate: str) -> bool:
    """Whether a registered substrate has a batched entry point."""
    return hasattr(get_substrate(substrate), "run_batch")


def run_scenario_batch(
    batch: ScenarioBatch,
    settings: "EmulationSettings",
    substrate: str = "fluid",
) -> List[SubstrateResult]:
    """Emulate every variant; one :class:`SubstrateResult` each.

    Dispatches to the substrate's ``run_batch`` capability when
    available (one lockstep program for the whole batch) and falls
    back to variant-at-a-time :meth:`~repro.substrate.base.
    EmulationSubstrate.run` otherwise. Results are identical either
    way — the batched engines are floating-point-identical to their
    single runs — so the capability is purely a throughput feature.
    """
    backend = get_substrate(substrate)
    run_batch = getattr(backend, "run_batch", None)
    if run_batch is not None:
        return run_batch(
            batch.net,
            batch.classes,
            batch.variants,
            batch.workloads,
            settings,
            batch.seeds,
        )
    return [
        backend.run(
            batch.net,
            batch.classes,
            specs,
            batch.workloads,
            settings.with_seed(seed),
        )
        for specs, seed in zip(batch.variants, batch.seeds)
    ]
