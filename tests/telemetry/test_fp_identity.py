"""Tracing must never perturb a result.

The tier-1 contract from DESIGN.md S23: with telemetry fully enabled
(spans + JSONL export + counters) an experiment produces records,
observations, and verdicts *bit-identical* to the untraced run. The
golden suites pin the disabled path; this suite pins the enabled one.
"""

import dataclasses

import numpy as np

from repro import telemetry
from repro.experiments.config import EmulationSettings
from repro.experiments.topology_a import run_topology_a

QUICK = EmulationSettings(
    duration_seconds=30.0, warmup_seconds=5.0, seed=11
)


def _fingerprint(outcome):
    data = outcome.emulation.measurements
    records = {
        pid: {
            f.name: getattr(data.record(pid), f.name)
            for f in dataclasses.fields(data.record(pid))
        }
        for pid in data.path_ids
    }
    return (
        records,
        dict(outcome.observations),
        outcome.algorithm.identified,
        dict(outcome.path_congestion),
    )


def _assert_identical(plain, traced):
    records_a, obs_a, identified_a, congestion_a = plain
    records_b, obs_b, identified_b, congestion_b = traced
    assert records_a.keys() == records_b.keys()
    for pid in records_a:
        for name, value in records_a[pid].items():
            other = records_b[pid][name]
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(
                    value, other, err_msg=f"{pid}.{name}"
                )
            else:
                assert value == other, (pid, name)
    assert obs_a == obs_b
    assert identified_a == identified_b
    assert congestion_a == congestion_b


def test_traced_experiment_bit_identical(tmp_path):
    """Table 1 policing workload, traced vs untraced."""
    trace_path = str(tmp_path / "trace.jsonl")
    telemetry.configure(enabled=False)
    plain = _fingerprint(run_topology_a(6, 30.0, QUICK))
    telemetry.configure(enabled=True, trace_path=trace_path)
    traced = _fingerprint(run_topology_a(6, 30.0, QUICK))
    telemetry.configure(enabled=False)
    _assert_identical(plain, traced)
    # The traced run actually exercised the whole span hierarchy.
    names = {r["name"] for r in telemetry.load_trace(trace_path)}
    assert {
        "experiment.run",
        "experiment.emulate",
        "engine.advance",
        "infer",
        "infer.slices",
        "infer.normalize",
        "infer.score",
    } <= names


def test_in_memory_tracing_matches_untraced():
    """Enabled-without-export must be identical too (cheapest mode)."""
    telemetry.configure(enabled=False)
    plain = _fingerprint(run_topology_a(2, 50.0, QUICK))
    telemetry.configure(enabled=True)
    traced = _fingerprint(run_topology_a(2, 50.0, QUICK))
    _assert_identical(plain, traced)
    assert telemetry.get_tracer().finished  # spans did record


class TestCountingRNG:
    def test_bit_identical_draws(self):
        counter = telemetry.Counter()
        plain = np.random.default_rng(7)
        counted = telemetry.CountingRNG(
            np.random.default_rng(7), counter
        )
        np.testing.assert_array_equal(
            plain.exponential(2.0, size=64),
            counted.exponential(2.0, size=64),
        )
        np.testing.assert_array_equal(
            plain.integers(0, 10, size=16),
            counted.integers(0, 10, size=16),
        )
        assert plain.random() == counted.random()
        # One increment per *call*, not per value drawn.
        assert counter.value == 3.0

    def test_non_callable_attributes_pass_through(self):
        rng = np.random.default_rng(1)
        counted = telemetry.CountingRNG(rng, telemetry.Counter())
        assert counted.bit_generator is rng.bit_generator
