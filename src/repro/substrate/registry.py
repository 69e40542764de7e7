"""Substrate registry: the fluid engine and the packet DES.

Each entry is an :class:`~repro.substrate.base.EmulationSubstrate`
adapter binding one engine to the shared spec/result contracts. Both
engines take :class:`~repro.substrate.spec.LinkSpec` mappings as they
are and open the one :class:`~repro.substrate.base.EngineSession`, so
an adapter's ``start`` only maps settings to engine arguments, and
its ``run`` is that session advanced once
(:func:`~repro.substrate.base.run_session`). Look backends up by name
(``get_substrate``) and fingerprint them for sweep caching
(``substrate_cache_tag``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Tuple

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError
from repro.fluid.params import PathWorkload
from repro.substrate.base import EngineSession, SubstrateResult, run_session
from repro.substrate.spec import LinkSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only (see base.py)
    from repro.experiments.config import EmulationSettings


class _SessionSubstrate:
    """What both adapters share: a one-shot :meth:`run` is a
    :meth:`start`-ed session advanced once
    (:func:`~repro.substrate.base.run_session`)."""

    def run(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
    ) -> SubstrateResult:
        return run_session(
            self.start(net, classes, link_specs, workloads, settings),
            settings.duration_seconds,
        )


class FluidSubstrate(_SessionSubstrate):
    """The time-stepped fluid engine (primary sweep substrate).

    Also the one substrate with the *batch capability*
    (``run_batch``): many link-spec variants of one
    topology advance as a single lockstep numpy program
    (:mod:`repro.fluid.batch`), each variant's output
    floating-point-identical to its single run."""

    name = "fluid"

    @property
    def version(self) -> str:
        from repro.fluid.engine import ENGINE_VERSION

        return ENGINE_VERSION

    def start(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
        keep_ground_truth: bool = True,
    ) -> EngineSession:
        from repro.fluid.engine import FluidNetwork

        sim = FluidNetwork(
            net,
            classes,
            link_specs,
            workloads,
            seed=settings.seed,
        )
        return sim.session(
            dt=settings.dt,
            interval_seconds=settings.interval_seconds,
            warmup_seconds=settings.warmup_seconds,
            keep_ground_truth=keep_ground_truth,
        )

    def run_batch(
        self,
        net: Network,
        classes: ClassAssignment,
        spec_sets,
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
        seeds,
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
            spec_sets,
            workloads,
            seeds,
        )
        return sim.run(
            settings.duration_seconds,
            dt=settings.dt,
            interval_seconds=settings.interval_seconds,
            warmup_seconds=settings.warmup_seconds,
        )


class PacketSubstrate(_SessionSubstrate):
    """The batched per-packet DES (validation / cross-check
    substrate; ``settings.dt`` does not apply — the engine picks its
    own batching quantum from the workload RTTs)."""

    name = "packet"

    @property
    def version(self) -> str:
        from repro.emulator.core import PACKET_ENGINE_VERSION

        return PACKET_ENGINE_VERSION

    def start(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec],
        workloads: Mapping[str, PathWorkload],
        settings: "EmulationSettings",
        keep_ground_truth: bool = True,
    ) -> EngineSession:
        from repro.emulator.core import PacketNetwork

        sim = PacketNetwork(
            net,
            classes,
            link_specs,
            workloads=workloads,
            seed=settings.seed,
        )
        return sim.session(
            interval_seconds=settings.interval_seconds,
            warmup_seconds=settings.warmup_seconds,
            keep_ground_truth=keep_ground_truth,
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
