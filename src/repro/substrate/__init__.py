"""Pluggable emulation substrates.

The experiment pipeline (emulate → measure → infer) is written
against :class:`~repro.substrate.base.EmulationSubstrate`, not
against a particular engine. This package holds the protocol, the
substrate registry (fluid engine + packet DES), and the declarative
:class:`~repro.substrate.scenario.Scenario` layer that compiles one
experiment description for any registered backend. Every substrate,
engine and session takes the one link description,
:class:`~repro.substrate.spec.LinkSpec`, as it is; the packet engine
converts it to packet units internally.
"""

from repro.substrate.base import EmulationSubstrate, SubstrateResult
from repro.substrate.batch import (
    ScenarioBatch,
    run_scenario_batch,
    substrate_supports_batch,
)
from repro.substrate.registry import (
    FluidSubstrate,
    PacketSubstrate,
    available_substrates,
    get_substrate,
    substrate_cache_tag,
)
from repro.substrate.scenario import (
    MECHANISMS,
    CompiledScenario,
    DifferentiationPolicy,
    Scenario,
    compile_scenario,
    run_scenario,
)
from repro.substrate.spec import (
    DEFAULT_DELAY_SECONDS,
    LinkSpec,
    normalize_specs,
)

__all__ = [
    "CompiledScenario",
    "DEFAULT_DELAY_SECONDS",
    "DifferentiationPolicy",
    "EmulationSubstrate",
    "FluidSubstrate",
    "LinkSpec",
    "MECHANISMS",
    "PacketSubstrate",
    "Scenario",
    "ScenarioBatch",
    "SubstrateResult",
    "available_substrates",
    "compile_scenario",
    "get_substrate",
    "normalize_specs",
    "run_scenario",
    "run_scenario_batch",
    "substrate_cache_tag",
    "substrate_supports_batch",
]
