"""Baseline comparison: classical tomography vs neutrality inference,
plus the scalar-vs-vectorized fluid-engine head-to-head.

The paper's core argument (§1, §8): tomography *assumes* neutrality.
On a neutral network, intervals where several paths are congested
together are correctly explained by the shared link; under
differentiation, the policed class's congestion cannot be attributed
to the shared link (the unthrottled paths crossing it are fine), so
Boolean tomography blames the victims' private links — while the
paper's algorithm flags the differentiation itself.

The engine head-to-head runs the same Table 1 high-parallelism
policing workload on the frozen scalar reference
(``tests/oracles/engine_scalar.py``) and the vectorized engine, checks
they agree on the differentiation signal, and asserts the vectorized
hot path is at least 5× faster.
"""

import time

import pytest
from _emit import emit
from conftest import BENCH_QUICK, BENCH_SETTINGS, heading, run_once
from oracles.engine_scalar import ScalarFluidNetwork

from repro.analysis.stats import format_table
from repro.experiments.topology_a import run_topology_a
from repro.fluid.engine import FluidNetwork
from repro.fluid.params import FlowSlotSpec, PathWorkload
from repro.tomography import (
    boolean_tomography,
    lsq_tomography,
    path_states,
    smallest_explanation,
)
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell


def _explain_allpath_intervals(outcome):
    """Blame counts over intervals where *every* path congests.

    Only then does no good path exonerate the shared link — the case
    where Boolean tomography can localize shared congestion at all
    (every dumbbell path traverses l5, so a single good path clears
    it).
    """
    net = outcome.inference_network
    data = outcome.emulation.measurements
    states, ids = path_states(data, net.path_ids)
    counts = {}
    intervals = 0
    for t in range(data.num_intervals):
        bad = {pid for i, pid in enumerate(ids) if not states[i, t]}
        if len(bad) < len(ids):
            continue
        intervals += 1
        for lid in smallest_explanation(net, set(), bad):
            counts[lid] = counts.get(lid, 0) + 1
    return counts, intervals


def test_baseline_neutral_network(benchmark):
    def regenerate():
        outcome = run_topology_a(2, 50.0, BENCH_SETTINGS)
        counts, intervals = _explain_allpath_intervals(outcome)
        lsq = lsq_tomography(
            outcome.inference_network, outcome.emulation.measurements
        )
        return outcome, counts, intervals, lsq

    outcome, counts, intervals, lsq = run_once(benchmark, regenerate)
    heading("Baseline on the NEUTRAL dumbbell")
    print(format_table(
        ["link", "blamed (all-paths-congested intervals)"],
        sorted(counts.items()),
    ))
    print(f"  ({intervals} all-paths-congested intervals)")
    # Fully co-occurring congestion is pinned on the shared link.
    assert intervals > 0
    assert counts.get(SHARED_LINK, 0) >= 0.8 * intervals
    # And the neutrality inference agrees the network is neutral.
    assert not outcome.verdict_non_neutral
    assert lsq.residual_norm < 1.0
    emit(
        benchmark,
        "baseline/neutral",
        measured=counts.get(SHARED_LINK, 0) / intervals,
        gate=0.8,
    )


def test_baseline_differentiated_network(benchmark):
    def regenerate():
        outcome = run_topology_a(6, 30.0, BENCH_SETTINGS)
        boolean = boolean_tomography(
            outcome.inference_network, outcome.emulation.measurements
        )
        return outcome, boolean

    outcome, boolean = run_once(benchmark, regenerate)
    heading("Baseline on the POLICING dumbbell")
    rows = [
        (lid, f"{rate:.1%}")
        for lid, rate in sorted(boolean.link_congestion.items())
        if rate > 0.005
    ]
    print(format_table(["link", "Boolean blame rate"], rows))
    # Misattribution: the policed paths (p3 via l3/l8, p4 via l4/l9)
    # congest while the c1 paths crossing l5 stay clean, so the
    # neutral-model explanation must blame the victims' private
    # links at least as much as the shared link.
    private_blame = sum(
        boolean.link_congestion[lid] for lid in ("l3", "l4", "l8", "l9")
    )
    print(f"\n  blame on the policed paths' private links: "
          f"{private_blame:.1%} vs shared link "
          f"{boolean.link_congestion[SHARED_LINK]:.1%}")
    assert private_blame > boolean.link_congestion[SHARED_LINK] * 0.5
    print(f"  the neutrality inference instead reports: "
          f"{outcome.algorithm.identified}")
    assert outcome.algorithm.identified == ((SHARED_LINK,),)
    emit(
        benchmark,
        "baseline/differentiated",
        measured=private_blame,
        gate=boolean.link_congestion[SHARED_LINK] * 0.5,
    )


def test_engine_vectorization_speedup(benchmark):
    """Vectorized vs seed scalar engine on a Table 1 workload.

    Table 1's highest-parallelism setting (70 flows per path) on the
    policing dumbbell: the regime the per-object loop was slowest in
    and the paper's sweeps spend most of their time in. The claim is
    twofold: the engines agree on the differentiation signal, and
    the vectorized engine is ≥ 5× faster.
    """
    topo = build_dumbbell(mechanism="policing", rate_fraction=0.3)
    workloads = {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=10.0, mean_gap_seconds=5.0),)
            * 70,
            rtt_seconds=0.05,
        )
        for pid in topo.network.path_ids
    }
    # Long enough that the policer's differentiation dominates the
    # slow-start transient even in quick mode.
    duration = 20.0 if BENCH_QUICK else 30.0
    times = {}

    def emulate(engine_cls):
        sim = engine_cls(
            topo.network, topo.classes, topo.link_specs, workloads, seed=3
        )
        t0 = time.perf_counter()
        result = sim.run(duration_seconds=duration, warmup_seconds=5.0)
        times[engine_cls.__name__] = time.perf_counter() - t0
        return result

    vec = run_once(benchmark, emulate, FluidNetwork)
    scalar = emulate(ScalarFluidNetwork)
    speedup = times["ScalarFluidNetwork"] / times["FluidNetwork"]
    heading("Fluid engine: vectorized vs scalar reference")
    rows = []
    for name, result in (("vectorized", vec), ("scalar", scalar)):
        rows.append(
            (
                name,
                f"{times['FluidNetwork' if name == 'vectorized' else 'ScalarFluidNetwork']:.2f}s",
                f"{result.link_congestion_probability('l5', 'c1'):.1%}",
                f"{result.link_congestion_probability('l5', 'c2'):.1%}",
            )
        )
    print(format_table(
        ["engine", "wall", "l5 P(cong) c1", "l5 P(cong) c2"], rows
    ))
    print(f"\n  speedup: {speedup:.1f}x")
    # Same differentiation signal from both engines (the policed
    # class measurably worse; at this deliberately saturating load
    # the neutral class congests too, so the claim is the *split*)...
    for result in (vec, scalar):
        c1 = result.link_congestion_probability("l5", "c1")
        c2 = result.link_congestion_probability("l5", "c2")
        assert c2 > c1 + 0.05
    # ...quantitatively close between the implementations...
    for cname in ("c1", "c2"):
        assert abs(
            vec.link_congestion_probability("l5", cname)
            - scalar.link_congestion_probability("l5", cname)
        ) < 0.15, cname
    # ...at a ≥5× faster hot path. Quick mode (CI smoke on shared
    # runners) keeps a noise margin under the locally-asserted bar:
    # the measured ratio sits around 6×, and a noisy-neighbor blip
    # during the short run must not fail an unrelated PR.
    floor = 3.5 if BENCH_QUICK else 5.0
    assert speedup >= floor, (
        f"vectorization speedup regressed: {speedup:.1f}x (floor {floor}x)"
    )
    emit(
        benchmark,
        "baseline/engine-vectorization",
        measured=speedup,
        gate=floor,
    )
