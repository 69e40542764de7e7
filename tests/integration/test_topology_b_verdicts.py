"""Topology B's verdicts with each σ priced by its own family.

Algorithm 2 normalizes every slice over the intervals in which all of
that slice's paths sent. Emulated topology-B records have silent
intervals, so a path's singleton cost differs between the slices it
belongs to, and a σ scored with another family's singleton costs
looks unsolvable on a neutral network. These tests run the whole
pipeline where that mistake shows:

* synthetic neutral records, masked wherever the emulated twin path
  sent nothing, must give an empty verdict on every seed;
* a short emulated neutral run must give an empty verdict, and the
  paired policed run must flag a σ containing the policer ``l5``.

The two emulated runs share a batch key (only their link specs
differ), so they run as one batch.
"""

import numpy as np
import pytest

from repro.core.classes import classes_from_mapping
from repro.core.performance import neutral_performance
from repro.experiments.runner import (
    batch_key,
    infer_from_measurements,
    run_scenarios,
)
from repro.experiments.topology_b import TOPOLOGY_B_SETTINGS
from repro.measurement.records import MeasurementData, PathRecord
from repro.measurement.synthetic import synthesize_records
from repro.substrate.scenario import (
    DifferentiationPolicy,
    Scenario,
    compile_scenario,
)

SETTINGS = TOPOLOGY_B_SETTINGS.quick(120.0)
POLICED = DifferentiationPolicy(mechanism="policing", rate_fraction=0.15)


@pytest.fixture(scope="module")
def runs():
    """``(neutral, policed)``, emulated as one batch."""
    members = [
        compile_scenario(
            Scenario(
                name="topology-b",
                topology="multi_isp",
                policy=policy,
                settings=SETTINGS,
            )
        )
        for policy in (None, POLICED)
    ]
    assert batch_key(members[0]) == batch_key(members[1])
    return run_scenarios(members)


@pytest.fixture(scope="module")
def neutral_run(runs):
    return runs[0]


def _masked_synthetic(twin, seed):
    """Neutral synthetic records on the twin's measured paths, zeroed
    wherever the twin path sent nothing."""
    net = twin.inference_network
    data = twin.emulation.measurements
    rows = data.rows_of(net.path_ids)
    silent = data.sent_matrix[rows] == 0
    classes = classes_from_mapping(
        net,
        {
            pid: "c2" if pid.startswith("light") else "c1"
            for pid in net.path_ids
        },
    )
    rng = np.random.default_rng(seed)
    perf = neutral_performance(
        net,
        classes,
        {lid: float(rng.uniform(0.005, 0.05)) for lid in net.link_ids},
    )
    synthetic = synthesize_records(
        perf, np.random.default_rng(100 + seed),
        num_intervals=data.num_intervals,
    )
    synth_rows = synthetic.rows_of(net.path_ids)
    sent = synthetic.sent_matrix[synth_rows].copy()
    lost = synthetic.lost_matrix[synth_rows].copy()
    sent[silent] = 0
    lost[silent] = 0
    return MeasurementData(
        [
            PathRecord(pid, sent[i], lost[i])
            for i, pid in enumerate(net.path_ids)
        ],
        data.interval_seconds,
    )


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_masked_synthetic_neutral_is_clean(neutral_run, seed):
    masked = _masked_synthetic(neutral_run, seed)
    # Some path is silent in some interval: each σ group is priced
    # over its own valid intervals.
    assert (masked.sent_matrix == 0).any()
    _, result = infer_from_measurements(
        neutral_run.inference_network, masked, settings=SETTINGS
    )
    assert result.identified == ()


def test_emulated_neutral_is_clean(neutral_run):
    assert (neutral_run.emulation.measurements.sent_matrix == 0).any()
    assert neutral_run.algorithm.identified == ()


def test_emulated_policed_flags_l5(runs):
    _, policed = runs
    assert any("l5" in sigma for sigma in policed.algorithm.identified)
