"""One link spec: validation and its use by both engines.

:class:`LinkSpec` is the only link description the builders, engines,
sessions and swaps accept, and :func:`complete_link_specs` is the one
completion step both engines run on construction and on every swap.
Every spec a substrate rejects must be rejected by all of them, always
with :class:`ConfigurationError` (a :class:`ReproError`).
"""

import dataclasses
import math

import pytest

from repro.emulator.core import _LinkRuntime
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.config import EmulationSettings
from repro.fluid.batch import FluidBatchNetwork
from repro.fluid.params import (
    AqmSpec,
    PolicerSpec,
    ShaperSpec,
    WeightedShaperSpec,
)
from repro.substrate.registry import get_substrate
from repro.substrate.spec import LinkSpec, normalize_specs
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell
from repro.workloads.profiles import class_workload

POLICER = PolicerSpec(target_class="c2", rate_fraction=0.3)
SHAPER = ShaperSpec(target_class="c2", rate_fraction=0.3)
AQM = AqmSpec(target_class="c2")
WEIGHTED = WeightedShaperSpec(target_class="c2", weight=0.3)

#: One instance of each mechanism family, as LinkSpec kwargs.
_MECH_KWARGS = {
    "policer": POLICER,
    "shaper": SHAPER,
    "aqm": AQM,
    "weighted": WEIGHTED,
}
MECH_PAIRS = [
    {a: _MECH_KWARGS[a], b: _MECH_KWARGS[b]}
    for i, a in enumerate(_MECH_KWARGS)
    for b in list(_MECH_KWARGS)[i + 1:]
]

#: A valid instance of every spec class, and each of its float fields.
_VALID_SPECS = (LinkSpec(), POLICER, SHAPER, AQM, WEIGHTED)
FLOAT_FIELDS = [
    (spec, f.name)
    for spec in _VALID_SPECS
    for f in dataclasses.fields(spec)
    if f.type == "float"
]

SETTINGS = EmulationSettings(duration_seconds=1.0, warmup_seconds=0.0)


class TestSharedValidation:
    @pytest.mark.parametrize("pair", MECH_PAIRS, ids=lambda p: "+".join(p))
    def test_linkspec_rejects_mechanism_combos(self, pair):
        with pytest.raises(ConfigurationError):
            LinkSpec(**pair)

    def test_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            LinkSpec(capacity_mbps=-1)
        with pytest.raises(ReproError):
            LinkSpec(buffer_seconds=0)
        with pytest.raises(ReproError):
            LinkSpec(delay_seconds=-0.001)

    def test_single_mechanism_accepted(self):
        for name, mech in _MECH_KWARGS.items():
            spec = LinkSpec(**{name: mech})
            assert spec.is_differentiating
            assert spec.mechanisms == (mech,)

    def test_every_float_field_is_covered(self):
        assert {f"{type(s).__name__}.{n}" for s, n in FLOAT_FIELDS} == {
            "LinkSpec.capacity_mbps",
            "LinkSpec.buffer_seconds",
            "LinkSpec.delay_seconds",
            "PolicerSpec.rate_fraction",
            "PolicerSpec.burst_seconds",
            "ShaperSpec.rate_fraction",
            "ShaperSpec.buffer_seconds",
            "AqmSpec.min_threshold_fraction",
            "AqmSpec.max_threshold_fraction",
            "AqmSpec.max_drop_probability",
            "WeightedShaperSpec.weight",
            "WeightedShaperSpec.buffer_seconds",
        }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "spec,field",
        FLOAT_FIELDS,
        ids=[f"{type(s).__name__}.{n}" for s, n in FLOAT_FIELDS],
    )
    def test_non_finite_fields_rejected(self, spec, field, value):
        with pytest.raises(ConfigurationError, match="finite"):
            dataclasses.replace(spec, **{field: value})

    def test_unknown_dumbbell_mechanism(self):
        with pytest.raises(ConfigurationError):
            build_dumbbell(mechanism="bogus")

    def test_normalize_is_a_checked_copy(self):
        specs = {"l1": LinkSpec(capacity_mbps=10.0)}
        out = normalize_specs(specs)
        assert out == specs and out is not specs

    @pytest.mark.parametrize(
        "bad", [{"l1": object()}, {"l1": {"capacity_mbps": 10.0}}, [1]]
    )
    def test_normalize_rejects_other_types(self, bad):
        with pytest.raises(ConfigurationError):
            normalize_specs(bad)


class TestPacketUnits:
    """The packet engine converts each LinkSpec to packet units."""

    CLASS_INDEX = {"c1": 0, "c2": 1}

    def test_units(self):
        link = _LinkRuntime(
            0,
            LinkSpec(
                capacity_mbps=12.0,  # = 1000 packets/second at 1500 B
                buffer_seconds=0.1,
                delay_seconds=0.004,
                policer=POLICER,
            ),
            self.CLASS_INDEX,
        )
        assert link.rate == pytest.approx(1000.0)
        assert link.queue == 100
        assert link.delay == 0.004
        assert link.mech == "policer"
        assert link.pol_rate == pytest.approx(300.0)
        assert link.pol_class_idx == 1
        # Bucket depth: burst_seconds at the policing rate.
        assert link.pol_bucket == pytest.approx(POLICER.burst_seconds * 300.0)

    def test_queue_and_bucket_hold_at_least_one(self):
        link = _LinkRuntime(
            0,
            LinkSpec(
                capacity_mbps=12.0,
                buffer_seconds=1e-6,
                policer=PolicerSpec("c2", 0.3, burst_seconds=1e-6),
            ),
            self.CLASS_INDEX,
        )
        assert link.queue == 1
        assert link.pol_bucket == 1.0

    @pytest.mark.parametrize("name", ["shaper", "aqm", "weighted"])
    def test_other_mechanisms(self, name):
        link = _LinkRuntime(
            0, LinkSpec(**{name: _MECH_KWARGS[name]}), self.CLASS_INDEX
        )
        assert link.mech == name
        assert link.target_class_idx == 1


@pytest.fixture(scope="module")
def dumbbell():
    topo = build_dumbbell()
    return (
        topo,
        normalize_specs(topo.link_specs),
        class_workload(topo.network.path_ids, mean_size_mb=5.0),
    )


def _bad_specs(good, case):
    """A spec mapping both engines must reject."""
    specs = dict(good)
    if case in _MECH_KWARGS:
        mech = dataclasses.replace(_MECH_KWARGS[case], target_class="c9")
        specs[SHARED_LINK] = LinkSpec(**{case: mech})
    elif case == "unknown-link":
        specs["l99"] = LinkSpec()
    elif case == "not-a-linkspec":
        specs[SHARED_LINK] = {"capacity_mbps": 100.0}
    else:  # "not-a-mapping"
        specs = list(specs.values())
    return specs


BAD_CASES = [
    "policer",
    "shaper",
    "aqm",
    "weighted",
    "unknown-link",
    "not-a-linkspec",
    "not-a-mapping",
]


class TestBothEnginesReject:
    """Unknown target classes (every family), unknown links, and
    values that are not LinkSpec mappings raise ConfigurationError on
    both substrates, at construction and at a mid-run swap."""

    @pytest.mark.parametrize("case", BAD_CASES)
    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_construction(self, dumbbell, substrate, case):
        topo, specs, wl = dumbbell
        with pytest.raises(ConfigurationError):
            get_substrate(substrate).start(
                topo.network, topo.classes, _bad_specs(specs, case), wl,
                SETTINGS,
            )

    @pytest.mark.parametrize("case", BAD_CASES)
    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_swap(self, dumbbell, substrate, case):
        topo, specs, wl = dumbbell
        session = get_substrate(substrate).start(
            topo.network, topo.classes, specs, wl, SETTINGS
        )
        session.advance(1)
        with pytest.raises(ConfigurationError):
            session.set_link_specs(_bad_specs(specs, case))
        # The rejected swap left the session running on its old specs.
        session.advance(1)
        assert session.intervals_done == 2

    @pytest.mark.parametrize("case", BAD_CASES)
    def test_batch(self, dumbbell, case):
        topo, specs, wl = dumbbell
        with pytest.raises(ConfigurationError):
            FluidBatchNetwork(
                topo.network, topo.classes,
                [specs, _bad_specs(specs, case)], wl, [1, 2],
            )
        session = FluidBatchNetwork(
            topo.network, topo.classes, [specs], wl, [1]
        ).session()
        with pytest.raises(ConfigurationError):
            session.set_link_specs(_bad_specs(specs, case))

    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_sessions_are_the_engines_own(self, dumbbell, substrate):
        """Both adapters return the one session class, unwrapped."""
        from repro.substrate.base import EngineSession

        topo, specs, wl = dumbbell
        session = get_substrate(substrate).start(
            topo.network, topo.classes, specs, wl, SETTINGS
        )
        assert type(session) is EngineSession
        assert session.substrate == substrate
