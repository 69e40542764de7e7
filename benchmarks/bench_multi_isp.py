"""Internet-scale gate: ≥5k-path multi-ISP records→verdict.

Locks the PR-6 sparse/sharded rewrite the way ``bench_inference.py``
locks PR-3: the 8×13 federated multi-ISP topology (5356 paths, 196
links, ~1k candidate σ systems) must go records→verdict

* end to end within a **hard tracemalloc budget** (the dense pair
  pass alone would allocate a 5356² triu intermediate, and a P×P
  float64 Gram is ~229 MB — both must stay dead);
* with the **sharded** run (:func:`repro.core.sharding.infer_sharded`
  over the administrative per-ISP link partition) producing bitwise
  the monolithic scores and identical verdict sets.

Wall-clock and peak-memory rows for monolithic vs sharded are printed
for the EXPERIMENTS.md "Multi-ISP scaling" table. Quick mode
(``REPRO_BENCH_QUICK=1``) drops to the 5×10 topology (1225 paths) so
the CI smoke job finishes in seconds; the gates hold in both modes.
"""

import gc
import time
import tracemalloc

import numpy as np
from conftest import BENCH_QUICK, heading, run_once
from _emit import emit

from repro.core.sharding import infer_sharded
from repro.experiments.runner import infer_from_measurements
from repro.measurement.synthetic import synthesize_records
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

#: Gate topology (full mode): 8 ISPs × 13 hosts → 5356 paths.
GATE_SHAPE = (5, 10) if BENCH_QUICK else (8, 13)
MIN_PATHS = 1000 if BENCH_QUICK else 5000

#: Hard tracemalloc-peak budgets (bytes) at the gate scale — same
#: contract as ``tests/tomography/test_multi_isp_scale.py``.
MONOLITHIC_BUDGET = 256 * 1024 * 1024
SHARDED_BUDGET = 128 * 1024 * 1024

#: 100 ms bins; memory, not statistics, is what this gate measures.
NUM_INTERVALS = 120 if BENCH_QUICK else 240


def _workload(shape, seed=5):
    fed = build_federated_multi_isp(*shape)
    perf, _ = random_two_class_performance(
        np.random.default_rng(seed), fed.network, num_violations=4
    )
    data = synthesize_records(
        perf,
        np.random.default_rng(seed + 1),
        num_intervals=NUM_INTERVALS,
    )
    return fed, perf, data


def _traced(fn):
    """(result, wall seconds, tracemalloc peak bytes) of one call."""
    gc.collect()
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, wall, peak


def test_multi_isp_scale_gate(benchmark):
    fed, perf, data = _workload(GATE_SHAPE)
    num_paths = len(fed.network.path_ids)
    assert num_paths >= MIN_PATHS
    plan = fed.shard_plan()

    def _run_both():
        # Fresh topologies per run: no memoized index subsidies.
        mono_net = build_federated_multi_isp(*GATE_SHAPE).network
        mono = _traced(lambda: infer_from_measurements(mono_net, data))
        shard_net = build_federated_multi_isp(*GATE_SHAPE).network
        shard = _traced(
            lambda: infer_sharded(shard_net, data, plan)
        )
        return mono, shard

    (mono, t_mono, peak_mono), (shard, t_shard, peak_shard) = run_once(
        benchmark, _run_both
    )
    _, mono_alg = mono
    _, shard_alg = shard

    heading(
        f"multi-ISP scaling: {GATE_SHAPE[0]}×{GATE_SHAPE[1]} federated "
        f"(|P|={num_paths}, {len(mono_alg.scores)} σ systems, "
        f"{NUM_INTERVALS} intervals)"
    )
    print(f"{'pipeline':>12} {'wall (s)':>9} {'peak (MB)':>10}")
    for label, wall, peak in (
        ("monolithic", t_mono, peak_mono),
        ("sharded", t_shard, peak_shard),
    ):
        print(f"{label:>12} {wall:>9.2f} {peak / 1e6:>10.1f}")

    # Gate 1: the memory budget.
    assert peak_mono <= MONOLITHIC_BUDGET, (
        f"monolithic peak {peak_mono / 1e6:.1f} MB over budget"
    )
    assert peak_shard <= SHARDED_BUDGET, (
        f"sharded peak {peak_shard / 1e6:.1f} MB over budget"
    )

    # Gate 2: sharded ≡ monolithic, bitwise.
    assert shard_alg.scores == mono_alg.scores
    assert set(shard_alg.identified) == set(mono_alg.identified)
    assert set(shard_alg.identified_raw) == set(mono_alg.identified_raw)
    assert set(shard_alg.neutral) == set(mono_alg.neutral)
    assert set(shard_alg.skipped) == set(mono_alg.skipped)

    # Gate 3: the verdict stays useful at scale — every planted
    # violation is covered by some identified sequence.
    identified_links = mono_alg.identified_links
    assert perf.non_neutral_links <= identified_links
    emit(
        benchmark,
        "multi-isp/scale",
        measured=peak_shard,
        gate=SHARDED_BUDGET,
        monolithic_peak_bytes=peak_mono,
        paths=num_paths,
    )
