"""Inference-pipeline speedup gate: batched vs frozen Algorithm 1/2.

Not a paper artifact; locks in the PR-3 rewrite the same way
``bench_baseline.py`` gates the fluid engine and
``bench_packet_engine.py`` the packet DES. The workload is
records→verdict on a generated two-tier mesh with ≥ 200 paths
(thousands of path pairs — far beyond the paper's figures), shaped
like a sweep: several seeded record sets are inferred on one
topology, exactly how ``experiments/sweep.py`` consumes the pipeline.

Gates:

* ≥ 10× end-to-end speedup of the vectorized records→verdict
  (:func:`repro.experiments.runner.infer_from_measurements`) over the
  frozen reference
  (``oracles.algorithm_reference.infer_reference``);
* identical identified / neutral / skipped sets and fp-equal scores
  and observations on every record set (the golden suite asserts the
  same on the seed topologies).

A smaller star/mesh scaling table is printed for EXPERIMENTS.md.
Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the record sets; the
gate holds in both modes.
"""

import gc
import time

import numpy as np
import pytest
from _emit import emit
from conftest import BENCH_QUICK, heading, run_once

from oracles.algorithm_reference import infer_reference
from repro.core.network import Network
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.measurement.synthetic import synthesize_records
from repro.topology.generators import (
    random_mesh_network,
    random_two_class_performance,
    star_network,
)

#: Speedup the vectorized pipeline must reach on the gate workload.
MIN_SPEEDUP = 10.0

#: Gate topology: 21 stubs → 210 paths, ~8k sharing pairs.
GATE_STUBS = 21

#: Sweep shape of the gate workload (record sets on one topology).
NUM_RECORD_SETS = 4 if BENCH_QUICK else 6

#: Measurement intervals per record set (100 ms bins: 2 min / 4 min).
NUM_INTERVALS = 1200 if BENCH_QUICK else 2400

SETTINGS = EmulationSettings()


def _mesh_workload(num_stubs, num_sets, num_intervals, seed=42):
    rng = np.random.default_rng(seed)
    net = random_mesh_network(rng, num_stubs=num_stubs, extra_edges=6)
    perf, _ = random_two_class_performance(
        np.random.default_rng(seed + 1), net, num_violations=3
    )
    datasets = [
        synthesize_records(
            perf,
            np.random.default_rng(seed + 100 + k),
            num_intervals=num_intervals,
        )
        for k in range(num_sets)
    ]
    return net, perf, datasets


def _fresh_copy(net):
    """A cold clone: no memoized index/batch, like a new topology."""
    return Network(list(net.links.values()), list(net.paths.values()))


def _run_reference(net, datasets):
    return [infer_reference(net, data) for data in datasets]


def _run_vectorized(net, datasets):
    return [
        infer_from_measurements(net, data, settings=SETTINGS)
        for data in datasets
    ]


def _warm_numpy():
    net, _, datasets = _mesh_workload(4, 1, 64, seed=7)
    _run_vectorized(_fresh_copy(net), datasets)
    _run_reference(_fresh_copy(net), datasets)


def test_inference_speedup_gate(benchmark):
    net, perf, datasets = _mesh_workload(
        GATE_STUBS, NUM_RECORD_SETS, NUM_INTERVALS
    )
    assert len(net.paths) >= 200
    _warm_numpy()

    # Collect between the timed sections so the reference run's
    # garbage cannot charge a GC pause to the vectorized timing.
    gc.collect()
    t0 = time.perf_counter()
    reference = _run_reference(_fresh_copy(net), datasets)
    t_ref = time.perf_counter() - t0

    vec_net = _fresh_copy(net)
    gc.collect()
    t0 = time.perf_counter()
    vectorized = run_once(benchmark, _run_vectorized, vec_net, datasets)
    t_vec = time.perf_counter() - t0

    speedup = t_ref / t_vec
    heading(
        f"records→verdict on |P|={len(net.paths)} mesh × "
        f"{len(datasets)} record sets ({NUM_INTERVALS} intervals): "
        f"reference {t_ref:.2f} s, vectorized {t_vec:.3f} s "
        f"→ {speedup:.1f}x"
    )

    # Equivalence on every record set, not just speed.
    for (ref_obs, ref_alg), (vec_obs, vec_alg) in zip(
        reference, vectorized
    ):
        assert set(vec_alg.identified) == set(ref_alg.identified)
        assert set(vec_alg.neutral) == set(ref_alg.neutral)
        assert set(vec_alg.skipped) == set(ref_alg.skipped)
        assert set(vec_obs) == set(ref_obs)
        for ps, value in ref_obs.items():
            assert vec_obs[ps] == pytest.approx(value, rel=1e-9, abs=1e-12)
        for sigma, value in ref_alg.scores.items():
            assert vec_alg.scores[sigma] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            )
        # The verdict stays useful: the true violations are detected
        # (the scored mode may add occasional false positives, which
        # the equivalence asserts are reproduced exactly).
        assert any(
            set(sigma) & perf.non_neutral_links
            for sigma in vec_alg.identified
        )

    assert speedup >= MIN_SPEEDUP, (
        f"records→verdict speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x gate"
    )
    emit(
        benchmark,
        "inference/speedup",
        measured=speedup,
        gate=MIN_SPEEDUP,
    )


@pytest.mark.skipif(
    BENCH_QUICK, reason="scaling table runs in full mode only"
)
def test_inference_scaling_table(benchmark):
    """Wall time vs path count, reference vs vectorized — the
    EXPERIMENTS.md scaling table."""
    rows = []

    def _measure():
        for label, net, datasets in _cases():
            gc.collect()
            t0 = time.perf_counter()
            _run_reference(_fresh_copy(net), datasets)
            t_ref = time.perf_counter() - t0
            gc.collect()
            t0 = time.perf_counter()
            _run_vectorized(_fresh_copy(net), datasets)
            t_vec = time.perf_counter() - t0
            rows.append((label, len(net.paths), t_ref, t_vec))
        return rows

    def _cases():
        for spokes in (32, 64):
            net = star_network(spokes)
            perf, _ = random_two_class_performance(
                np.random.default_rng(3), net, num_violations=1
            )
            yield f"star-{spokes}", net, [
                synthesize_records(
                    perf, np.random.default_rng(9), num_intervals=1200
                )
            ]
        for stubs in (8, 13, GATE_STUBS):
            net, _, datasets = _mesh_workload(stubs, 1, 1200, seed=21)
            yield f"mesh-{stubs}", net, datasets

    run_once(benchmark, _measure)
    heading("inference scaling: wall time per records→verdict run")
    print(f"{'topology':>10} {'paths':>6} {'frozen (s)':>11} "
          f"{'batched (s)':>12} {'speedup':>8}")
    for label, paths, t_ref, t_vec in rows:
        print(
            f"{label:>10} {paths:>6d} {t_ref:>11.3f} {t_vec:>12.3f} "
            f"{t_ref / t_vec:>7.1f}x"
        )
    # Speedup grows with size (these single-run rows still pay the
    # one-time batch build; the sweep-shaped gate above is the ≥10×
    # criterion — here just require a clear win at scale).
    assert rows[-1][2] / rows[-1][3] >= 5.0
    emit(
        benchmark,
        "inference/scaling",
        measured=rows[-1][2] / rows[-1][3],
        gate=5.0,
    )
