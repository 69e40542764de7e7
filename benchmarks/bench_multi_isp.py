"""Internet-scale gate: ≥5k-path multi-ISP records→verdict.

Locks the sparse rewrite the way ``bench_inference.py`` locks the
batched one: the 8×13 federated multi-ISP topology (5356 paths, 196
links, ~1k candidate σ systems) must go records→verdict

* **cold** — on a fresh network, pair pass and slice layout included
  — within a **hard tracemalloc budget**: :data:`SHARDED_BUDGET`,
  the budget the sharded pipeline was once held to. The blocked cold
  pass (DESIGN.md S24) keeps the monolith under it; the dense pair
  pass alone would allocate a 5356² triu intermediate, and a P×P
  float64 Gram is ~229 MB — both must stay dead;
* **warm** — on the memoized network — with the same verdict.

Wall-clock and peak-memory rows for the cold and warm runs are printed
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

from repro.experiments.runner import infer_from_measurements
from repro.measurement.synthetic import synthesize_records
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp

#: Gate topology (full mode): 8 ISPs × 13 hosts → 5356 paths.
GATE_SHAPE = (5, 10) if BENCH_QUICK else (8, 13)
MIN_PATHS = 1000 if BENCH_QUICK else 5000

#: Hard tracemalloc-peak budget (bytes) of the cold verdict at the
#: gate scale — same contract as
#: ``tests/tomography/test_multi_isp_scale.py``.
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

    def _run_both():
        # A fresh topology: no memoized index subsidies for the cold
        # run; the warm run reuses its caches.
        net = build_federated_multi_isp(*GATE_SHAPE).network
        cold = _traced(lambda: infer_from_measurements(net, data))
        warm = _traced(lambda: infer_from_measurements(net, data))
        return cold, warm

    (cold, t_cold, peak_cold), (warm, t_warm, peak_warm) = run_once(
        benchmark, _run_both
    )
    _, cold_alg = cold
    _, warm_alg = warm

    heading(
        f"multi-ISP scaling: {GATE_SHAPE[0]}×{GATE_SHAPE[1]} federated "
        f"(|P|={num_paths}, {len(cold_alg.scores)} σ systems, "
        f"{NUM_INTERVALS} intervals)"
    )
    print(f"{'verdict':>12} {'wall (s)':>9} {'peak (MB)':>10}")
    for label, wall, peak in (
        ("cold", t_cold, peak_cold),
        ("warm", t_warm, peak_warm),
    ):
        print(f"{label:>12} {wall:>9.2f} {peak / 1e6:>10.1f}")

    # Gate 1: the memory budget, cold pass included.
    assert peak_cold <= SHARDED_BUDGET, (
        f"cold monolithic peak {peak_cold / 1e6:.1f} MB over budget"
    )

    # Gate 2: cold ≡ warm, bitwise.
    assert cold_alg.scores == warm_alg.scores
    assert set(cold_alg.identified) == set(warm_alg.identified)
    assert set(cold_alg.neutral) == set(warm_alg.neutral)
    assert set(cold_alg.skipped) == set(warm_alg.skipped)

    # Gate 3: the verdict stays useful at scale — every planted
    # violation is covered by some identified sequence.
    identified_links = cold_alg.identified_links
    assert perf.non_neutral_links <= identified_links
    emit(
        benchmark,
        "multi-isp/scale",
        measured=peak_cold,
        gate=SHARDED_BUDGET,
        warm_peak_bytes=peak_warm,
        paths=num_paths,
    )
