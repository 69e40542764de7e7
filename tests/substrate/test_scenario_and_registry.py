"""Declarative scenarios and the substrate registry."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.fluid.params import (
    AqmSpec,
    PolicerSpec,
    ShaperSpec,
    WeightedShaperSpec,
)
from repro.substrate import (
    DifferentiationPolicy,
    Scenario,
    available_substrates,
    compile_scenario,
    get_substrate,
    substrate_cache_tag,
)
from repro.topology.dumbbell import SHARED_LINK
from repro.topology.multi_isp import POLICED_LINKS


class TestRegistry:
    def test_both_substrates_registered(self):
        assert set(available_substrates()) == {"fluid", "packet"}

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ConfigurationError):
            get_substrate("ns3")

    def test_cache_tags_carry_name_and_version(self):
        from repro.emulator.core import PACKET_ENGINE_VERSION
        from repro.fluid.engine import ENGINE_VERSION

        assert substrate_cache_tag("fluid") == f"fluid:{ENGINE_VERSION}"
        assert (
            substrate_cache_tag("packet")
            == f"packet:{PACKET_ENGINE_VERSION}"
        )
        assert substrate_cache_tag("fluid") != substrate_cache_tag(
            "packet"
        )
        # Frozen literals: existing sweep cache entries keep hitting.
        assert substrate_cache_tag("fluid") == "fluid:fluid-vec-2"
        assert substrate_cache_tag("packet") == "packet:packet-batch-1"


class TestPolicy:
    @pytest.mark.parametrize(
        "mechanism,expected",
        [
            ("policing", PolicerSpec),
            ("shaping", ShaperSpec),
            ("aqm", AqmSpec),
            ("weighted", WeightedShaperSpec),
        ],
    )
    def test_mechanism_spec_types(self, mechanism, expected):
        policy = DifferentiationPolicy(mechanism=mechanism)
        assert isinstance(policy.mechanism_spec(), expected)

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigurationError):
            DifferentiationPolicy(mechanism="throttle")

    def test_weighted_uses_rate_fraction_as_weight(self):
        policy = DifferentiationPolicy(
            mechanism="weighted", rate_fraction=0.2
        )
        assert policy.mechanism_spec().weight == 0.2


class TestScenarioCompile:
    def test_dumbbell_neutral_has_no_truth(self):
        compiled = compile_scenario(Scenario(name="n"))
        assert compiled.ground_truth_links == frozenset()
        assert not any(
            s.is_differentiating for s in compiled.link_specs.values()
        )
        assert set(compiled.workloads) == set(
            compiled.network.path_ids
        )

    def test_dumbbell_policy_lands_on_shared_link(self):
        compiled = compile_scenario(
            Scenario(
                name="a",
                policy=DifferentiationPolicy(mechanism="aqm"),
            )
        )
        assert compiled.ground_truth_links == frozenset((SHARED_LINK,))
        assert compiled.link_specs[SHARED_LINK].aqm is not None
        others = [
            lid
            for lid, s in compiled.link_specs.items()
            if s.is_differentiating
        ]
        assert others == [SHARED_LINK]

    def test_multi_isp_policy_lands_on_policed_links(self):
        compiled = compile_scenario(
            Scenario(
                name="w",
                topology="multi_isp",
                policy=DifferentiationPolicy(
                    mechanism="weighted", rate_fraction=0.3
                ),
            )
        )
        assert compiled.ground_truth_links == frozenset(POLICED_LINKS)
        for lid in POLICED_LINKS:
            assert compiled.link_specs[lid].weighted is not None
            assert compiled.link_specs[lid].policer is None

    def test_multi_isp_neutral_strips_builtin_policers(self):
        compiled = compile_scenario(
            Scenario(name="n", topology="multi_isp", policy=None)
        )
        assert compiled.ground_truth_links == frozenset()
        assert not any(
            s.is_differentiating for s in compiled.link_specs.values()
        )

    @pytest.mark.parametrize(
        "knob,value",
        [
            ("rtt_ms", float("nan")),
            ("mean_flow_size_mb", float("inf")),
            ("mean_gap_seconds", float("nan")),
        ],
    )
    def test_non_finite_workload_knob_rejected(self, knob, value):
        """A non-finite workload knob fails at compile time, before
        any engine runs."""
        with pytest.raises(ConfigurationError, match="finite"):
            compile_scenario(Scenario(name="x", **{knob: value}))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", topology="fat-tree")

    def test_scenario_is_picklable(self):
        import pickle

        sc = Scenario(
            name="p",
            policy=DifferentiationPolicy(mechanism="policing"),
            settings=EmulationSettings(duration_seconds=30.0),
        )
        assert pickle.loads(pickle.dumps(sc)) == sc
