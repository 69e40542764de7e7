"""Substrate registry: the fluid engine and the packet DES.

Each entry is an :class:`~repro.substrate.base.EmulationSubstrate`
adapter binding one engine to the shared spec/result contracts. Look
backends up by name (``get_substrate``) and fingerprint them for
sweep caching (``substrate_cache_tag``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Tuple

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError
from repro.fluid.params import PathWorkload
from repro.substrate.spec import LinkSpec, to_fluid, to_packet

if TYPE_CHECKING:  # pragma: no cover - annotation-only (see base.py)
    from repro.experiments.config import EmulationSettings


class _CompiledSession:
    """Binds an engine session to the shared :class:`LinkSpec` vocabulary.

    Engine sessions (:class:`repro.fluid.engine.FluidSession`,
    :class:`repro.emulator.core.PacketSession`) speak engine-native
    specs; this wrapper compiles shared (or engine-native) spec
    mappings through :func:`repro.substrate.spec.normalize_specs`
    before every swap, so streaming callers stay substrate-agnostic.
    """

    def __init__(self, session, compile_spec) -> None:
        self._session = session
        self._compile = compile_spec

    @property
    def interval_seconds(self) -> float:
        return self._session.interval_seconds

    @property
    def intervals_done(self) -> int:
        return self._session.intervals_done

    def advance(self, num_intervals: int):
        return self._session.advance(num_intervals)

    def _compile_specs(self, link_specs: Mapping[str, LinkSpec]):
        """Normalize + compile a swap's specs to engine-native form
        (the one compilation step both session wrappers share)."""
        from repro.substrate.spec import normalize_specs

        return {
            lid: self._compile(spec)
            for lid, spec in normalize_specs(link_specs).items()
        }

    def set_link_specs(self, link_specs: Mapping[str, LinkSpec]) -> None:
        self._session.set_link_specs(self._compile_specs(link_specs))

    def result(self):
        return self._session.result()


class _CompiledBatchSession(_CompiledSession):
    """Shared-vocabulary wrapper over a batched engine session.

    The many-worlds counterpart of :class:`_CompiledSession` (which
    provides the construction, progress properties, ``advance``, and
    the spec-compilation step): swaps take an optional ``scenario``
    index and results are per scenario.
    """

    @property
    def num_scenarios(self) -> int:
        return self._session.num_scenarios

    def scenario_intervals_done(self, scenario: int) -> int:
        return self._session.scenario_intervals_done(scenario)

    def set_link_specs(
        self, link_specs: Mapping[str, LinkSpec], scenario=None
    ) -> None:
        self._session.set_link_specs(
            self._compile_specs(link_specs), scenario=scenario
        )

    def result(self, scenario: int):
        return self._session.result(scenario)

    def results(self):
        return self._session.results()


class FluidSubstrate:
    """The time-stepped fluid engine (primary sweep substrate).

    Also the one substrate with the *batch capability*
    (``run_batch`` / ``start_batch``): many link-spec variants of one
    topology advance as a single lockstep numpy program
    (:mod:`repro.fluid.batch`), each variant's output
    floating-point-identical to its single run."""

    name = "fluid"

    @property
    def version(self) -> str:
        from repro.fluid.engine import ENGINE_VERSION

        return ENGINE_VERSION

    def run(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
    ):
        from repro.fluid.engine import FluidNetwork

        sim = FluidNetwork(
            net,
            classes,
            {lid: to_fluid(spec) for lid, spec in link_specs.items()},
            workloads,
            seed=settings.seed,
        )
        return sim.run(
            duration_seconds=settings.duration_seconds,
            dt=settings.dt,
            interval_seconds=settings.interval_seconds,
            warmup_seconds=settings.warmup_seconds,
        )

    def start(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
        keep_ground_truth: bool = True,
    ) -> _CompiledSession:
        from repro.fluid.engine import FluidNetwork

        sim = FluidNetwork(
            net,
            classes,
            {lid: to_fluid(spec) for lid, spec in link_specs.items()},
            workloads,
            seed=settings.seed,
        )
        return _CompiledSession(
            sim.session(
                dt=settings.dt,
                interval_seconds=settings.interval_seconds,
                warmup_seconds=settings.warmup_seconds,
                keep_ground_truth=keep_ground_truth,
            ),
            to_fluid,
        )

    def run_batch(
        self,
        net: Network,
        classes: ClassAssignment,
        spec_sets,
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
        seeds,
        durations=None,
    ):
        """Emulate ``B`` link-spec variants in one lockstep program.

        Variant ``b``'s result is floating-point-identical to
        :meth:`run` with ``spec_sets[b]`` and
        ``settings.with_seed(seeds[b])``.
        """
        from repro.fluid.batch import FluidBatchNetwork

        sim = FluidBatchNetwork(
            net,
            classes,
            [
                {lid: to_fluid(spec) for lid, spec in specs.items()}
                for specs in spec_sets
            ],
            workloads,
            seeds,
        )
        return sim.run(
            (
                settings.duration_seconds
                if durations is None
                else list(durations)
            ),
            dt=settings.dt,
            interval_seconds=settings.interval_seconds,
            warmup_seconds=settings.warmup_seconds,
        )

    def start_batch(
        self,
        net: Network,
        classes: ClassAssignment,
        spec_sets,
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
        seeds,
        keep_ground_truth: bool = True,
        interval_limits=None,
    ) -> _CompiledBatchSession:
        """Open a resumable many-worlds session (streaming mode)."""
        from repro.fluid.batch import FluidBatchNetwork

        sim = FluidBatchNetwork(
            net,
            classes,
            [
                {lid: to_fluid(spec) for lid, spec in specs.items()}
                for specs in spec_sets
            ],
            workloads,
            seeds,
        )
        return _CompiledBatchSession(
            sim.session(
                dt=settings.dt,
                interval_seconds=settings.interval_seconds,
                warmup_seconds=settings.warmup_seconds,
                keep_ground_truth=keep_ground_truth,
                interval_limits=interval_limits,
            ),
            to_fluid,
        )


class PacketSubstrate:
    """The batched per-packet DES (validation / cross-check
    substrate; ``settings.dt`` does not apply — the engine picks its
    own batching quantum from the workload RTTs)."""

    name = "packet"

    @property
    def version(self) -> str:
        from repro.emulator.core import PACKET_ENGINE_VERSION

        return PACKET_ENGINE_VERSION

    def run(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
    ):
        from repro.emulator.core import PacketNetwork

        sim = PacketNetwork(
            net,
            classes,
            {lid: to_packet(spec) for lid, spec in link_specs.items()},
            workloads=workloads,
            seed=settings.seed,
        )
        return sim.run(
            duration_seconds=settings.duration_seconds,
            interval_seconds=settings.interval_seconds,
            warmup_seconds=settings.warmup_seconds,
        )

    def start(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
        keep_ground_truth: bool = True,
    ) -> _CompiledSession:
        from repro.emulator.core import PacketNetwork

        sim = PacketNetwork(
            net,
            classes,
            {lid: to_packet(spec) for lid, spec in link_specs.items()},
            workloads=workloads,
            seed=settings.seed,
        )
        return _CompiledSession(
            sim.session(
                interval_seconds=settings.interval_seconds,
                warmup_seconds=settings.warmup_seconds,
                keep_ground_truth=keep_ground_truth,
            ),
            to_packet,
        )


_SUBSTRATES: Dict[str, object] = {
    "fluid": FluidSubstrate(),
    "packet": PacketSubstrate(),
}


def available_substrates() -> Tuple[str, ...]:
    """Registered substrate names, in registration order."""
    return tuple(_SUBSTRATES)


def get_substrate(name: str):
    """Look a substrate up by name."""
    try:
        return _SUBSTRATES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown substrate {name!r}; "
            f"available: {', '.join(_SUBSTRATES)}"
        ) from None


def substrate_cache_tag(name: str) -> str:
    """``name:version`` — the cache-key component of a substrate."""
    sub = get_substrate(name)
    return f"{sub.name}:{sub.version}"
