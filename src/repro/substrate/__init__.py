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

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "base": ("EmulationSubstrate", "EngineSession", "SubstrateResult"),
    "batch": (
        "ScenarioBatch",
        "run_scenario_batch",
        "substrate_supports_batch",
    ),
    "registry": (
        "FluidSubstrate",
        "PacketSubstrate",
        "available_substrates",
        "get_substrate",
        "substrate_cache_tag",
    ),
    "scenario": (
        "MECHANISMS",
        "CompiledScenario",
        "DifferentiationPolicy",
        "Scenario",
        "compile_scenario",
        "run_scenario",
    ),
    "spec": ("DEFAULT_DELAY_SECONDS", "LinkSpec", "normalize_specs"),
})
