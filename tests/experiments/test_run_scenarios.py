"""The one batch executor, ``run_scenarios``, under every experiment
family: its shared-input guard, and its one-member call against the
plain emulate-then-finish composition."""

import pickle
from dataclasses import fields, replace

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import (
    batch_key,
    outcome_from_emulation,
    run_scenarios,
)
from repro.experiments.topology_a import (
    _sweep_point_batch,
    compile_topology_a,
)
from repro.experiments.topology_b import (
    TOPOLOGY_B_SETTINGS,
    compile_topology_b,
    run_topology_b_rate_batch,
)
from repro.fluid.params import FlowSlotSpec
from repro.substrate.registry import get_substrate

SETTINGS = EmulationSettings(duration_seconds=2.0, warmup_seconds=0.5)
TOPO_B = replace(TOPOLOGY_B_SETTINGS, duration_seconds=2.0, warmup_seconds=0.5)

#: Per family: its builder's two members of one batch group (seed in
#: the settings), and its batch adapter with the matching kwargs.
FAMILIES = {
    "topology_a": (
        lambda seed, value: compile_topology_a(
            6, value, SETTINGS.with_seed(seed)
        ),
        _sweep_point_batch,
        lambda value: {
            "set_number": 6, "value": value, "settings": SETTINGS,
            "substrate": "fluid",
        },
        (50.0, 20.0),
    ),
    "topology_b": (
        lambda seed, rate: compile_topology_b(TOPO_B.with_seed(seed), rate),
        run_topology_b_rate_batch,
        lambda rate: {"settings": TOPO_B, "policing_rate": rate},
        (0.1, 0.2),
    ),
}


def _slower_workloads(member):
    workloads = dict(member.workloads)
    pid = next(iter(workloads))
    workloads[pid] = replace(
        workloads[pid],
        slots=(FlowSlotSpec(mean_size_mb=1.0),) + workloads[pid].slots,
    )
    return replace(member, workloads=workloads)


#: How the second member departs from the first, per shared input.
DIFFERENCES = {
    "settings": lambda m: replace(
        m, settings=replace(m.settings, duration_seconds=3.0)
    ),
    "substrate": lambda m: replace(m, substrate="packet"),
    "workloads": _slower_workloads,
}


@pytest.mark.parametrize("difference", sorted(DIFFERENCES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_members_must_share_inputs(family, difference):
    """Members built by any family's builder that differ in settings
    (seed aside), substrate or workloads have different batch keys
    and are refused before anything is emulated; the batch adapters
    refuse kwargs that do."""
    build, adapter, kwargs, values = FAMILIES[family]
    first, second = build(1, values[0]), build(2, values[1])
    assert batch_key(first) == batch_key(second)
    departed = DIFFERENCES[difference](second)
    assert batch_key(first) != batch_key(departed)
    with pytest.raises(ConfigurationError, match="must share") as err:
        run_scenarios([first, departed])
    assert f"differs in {difference}" in str(err.value)
    if difference == "workloads":
        return
    base, other = kwargs(values[0]), kwargs(values[1])
    if difference == "settings":
        other["settings"] = replace(other["settings"], duration_seconds=3.0)
    else:
        other["substrate"] = "packet"
    with pytest.raises(ConfigurationError, match="must share"):
        adapter([1, 2], [base, other])


def test_members_may_differ_in_seed_and_link_specs():
    """Seeds, link specs and ground truth are per member: a neutral
    and a policing Table 2 point, at other seeds, run as one batch."""
    members = [
        compile_topology_a(1, 1.0, SETTINGS.with_seed(3)),
        compile_topology_a(4, 1.0, SETTINGS.with_seed(5)),
    ]
    members[0] = replace(members[0], workloads=members[1].workloads)
    assert members[0].link_specs != members[1].link_specs
    outcomes = run_scenarios(members)
    for member, outcome in zip(members, outcomes):
        [single] = run_scenarios([member])
        # Field by field: object sharing across fields may differ.
        for field in fields(outcome):
            assert pickle.dumps(getattr(outcome, field.name)) == (
                pickle.dumps(getattr(single, field.name))
            ), field.name


def test_no_member_is_refused():
    with pytest.raises(ConfigurationError):
        run_scenarios([])


@pytest.mark.parametrize("substrate", ["fluid", "packet"])
def test_one_member_call_equals_composition(substrate):
    """A one-member ``run_scenarios`` call and the plain composition
    ``backend.run`` → ``outcome_from_emulation`` give the same
    outcome, bit for bit."""
    member = replace(
        compile_topology_a(6, 30.0, SETTINGS.with_seed(7)),
        substrate=substrate,
    )
    [executed] = run_scenarios([member])
    emulation = get_substrate(substrate).run(
        member.network,
        member.classes,
        member.link_specs,
        member.workloads,
        member.settings,
    )
    composed = outcome_from_emulation(
        member.network,
        member.classes,
        member.workloads,
        emulation,
        settings=member.settings,
        ground_truth_links=member.ground_truth_links,
        substrate=substrate,
    )
    assert pickle.dumps(executed) == pickle.dumps(composed)
    assert executed.substrate == substrate
