"""Scenario batches: many link-spec variants of one experiment.

A :class:`ScenarioBatch` is the substrate-level description of a
"many-worlds" run: one topology, one class assignment, one workload —
and ``B`` per-variant link-spec mappings with per-variant seeds (and
optionally durations). It is the compile step between sweep-shaped
callers (:class:`repro.experiments.sweep.SweepRunner` groups, the
grid benches) and a substrate's batched entry point: variant specs
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
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

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
        durations: Optional per-variant measured spans (seconds);
            ``None`` runs every variant for the settings' duration.
            Shorter variants leave the engine's active mask early.
    """

    net: Network
    classes: ClassAssignment
    workloads: Mapping[str, PathWorkload]
    variants: Tuple[Dict[str, LinkSpec], ...]
    seeds: Tuple[int, ...]
    durations: Optional[Tuple[float, ...]] = None

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
        if self.durations is not None and len(self.durations) != len(
            self.variants
        ):
            raise ConfigurationError(
                f"{len(self.variants)} variants but "
                f"{len(self.durations)} durations"
            )

    @classmethod
    def compile(
        cls,
        net: Network,
        classes: ClassAssignment,
        workloads: Mapping[str, PathWorkload],
        variant_specs: Sequence[Mapping[str, LinkSpec]],
        seeds: Sequence[int],
        durations: Optional[Sequence[float]] = None,
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
            durations=(
                None
                if durations is None
                else tuple(float(d) for d in durations)
            ),
        )

    def __len__(self) -> int:
        return len(self.variants)

    def subset(self, indices: Sequence[int]) -> "ScenarioBatch":
        """A new batch holding the selected variants (with their
        seeds/durations), sharing the already-normalized topology.

        This is how refinement-wave callers form partial batches: an
        adaptive sweep that compiled a full lattice batch can carve
        out exactly the variants a wave revisits without
        re-normalizing specs or re-validating the shared scenario.
        """
        idx = [int(i) for i in indices]
        for i in idx:
            if not 0 <= i < len(self.variants):
                raise ConfigurationError(
                    f"subset index {i} outside the "
                    f"{len(self.variants)}-variant batch"
                )
        return ScenarioBatch(
            net=self.net,
            classes=self.classes,
            workloads=self.workloads,
            variants=tuple(self.variants[i] for i in idx),
            seeds=tuple(self.seeds[i] for i in idx),
            durations=(
                None
                if self.durations is None
                else tuple(self.durations[i] for i in idx)
            ),
        )


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
            durations=batch.durations,
        )
    results: List[SubstrateResult] = []
    for i, specs in enumerate(batch.variants):
        variant_settings = settings.with_seed(batch.seeds[i])
        if batch.durations is not None:
            from dataclasses import replace

            variant_settings = replace(
                variant_settings,
                duration_seconds=batch.durations[i],
            )
        results.append(
            backend.run(
                batch.net,
                batch.classes,
                specs,
                batch.workloads,
                variant_settings,
            )
        )
    return results
