"""Scenario-batched sweep throughput: the many-worlds gate.

The paper's headline artifacts are *sweeps* — dozens to hundreds of
link-spec variants of one topology (a Figure 8 rate panel, a Table 2
grid). The scenario-batched fluid engine
(:mod:`repro.fluid.batch`) advances all of them as one lockstep
numpy program, and its contract is floating-point identity: variant
``b`` of the batch is bit-for-bit the single run with its specs and
seed.

This bench pins both halves of that claim on a 128-variant policing
grid (32 rates × 4 burst depths on the dumbbell's shared link):

* **Throughput gate** — batched emulation must produce the grid's
  records at ≥ 5× the one-at-a-time single-run path (≥ 3.5× in quick
  mode, the CI noise margin every gate bench uses), each path timed
  as its best of ``ROUNDS`` alternating rounds, with every variant's
  :class:`SubstrateResult` asserted identical to its single run.
* **Sweep semantics** — driving the grid through
  :class:`~repro.experiments.sweep.SweepRunner` batched fills
  exactly the per-point cache entries an unbatched sweep hits
  afterwards (digests are batching-agnostic), and the per-variant
  inference verdicts agree.

It also prints the EXPERIMENTS.md "Scenario batching" throughput
table (sequential vs process-parallel vs batched).
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from _emit import emit
from conftest import BENCH_QUICK, heading, run_once

from repro.analysis.stats import format_table
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import outcome_from_emulation
from repro.experiments.sweep import SweepPoint, SweepRunner
from repro.fluid.params import (
    FlowSlotSpec,
    LinkSpec,
    PathWorkload,
    PolicerSpec,
)
from repro.substrate import (
    ScenarioBatch,
    get_substrate,
    normalize_specs,
    run_scenario_batch,
)
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell

#: 32 policing rates × 4 bucket depths = 128 variants (a "≥ 64
#: variant" grid with headroom; the paper sweeps rates 0.2–0.5).
RATES = np.linspace(0.2, 0.5, 32)
BURSTS = (0.002, 0.005, 0.01, 0.02)

DURATION = 10.0 if BENCH_QUICK else 20.0
SETTINGS = EmulationSettings(
    duration_seconds=DURATION, warmup_seconds=2.0, seed=3
)


#: Rounds per mode in the throughput gate; each mode's wall time is
#: the best of these. The modes alternate within a round and the
#: first mode alternates between rounds.
ROUNDS = 3


def _workloads(net, mean_size_mb=25.0, mean_gap_seconds=10.0):
    return {
        pid: PathWorkload(
            slots=(
                FlowSlotSpec(
                    mean_size_mb=mean_size_mb,
                    mean_gap_seconds=mean_gap_seconds,
                ),
            )
            * 4,
            rtt_seconds=0.05,
        )
        for pid in net.path_ids
    }


def _dense_workloads(net):
    """Short gaps keep every path present in (almost) all intervals —
    the records→verdict subgrid needs jointly-active intervals for
    Algorithm 2's normalization."""
    return _workloads(net, mean_size_mb=10.0, mean_gap_seconds=1.0)


def _variant_specs(topo, rate, burst):
    specs = dict(topo.link_specs)
    base = specs[SHARED_LINK]
    specs[SHARED_LINK] = LinkSpec(
        capacity_mbps=base.capacity_mbps,
        buffer_seconds=base.buffer_seconds,
        policer=PolicerSpec(
            target_class="c2", rate_fraction=rate, burst_seconds=burst
        ),
    )
    return specs


def _grid():
    return [(float(rate), burst) for rate in RATES for burst in BURSTS]


# --- sweep-shaped executors (module-level for worker pools) ----------

def _emulate_variant(rate, burst, settings, seed):
    """The one-at-a-time path: one grid point through the substrate."""
    topo = build_dumbbell()
    backend = get_substrate("fluid")
    return backend.run(
        topo.network,
        topo.classes,
        normalize_specs(_variant_specs(topo, rate, burst)),
        _workloads(topo.network),
        settings.with_seed(seed),
    )


def _experiment_variant(rate, burst, settings, seed):
    """One grid point through the full records→verdict pipeline."""
    topo = build_dumbbell()
    workloads = _dense_workloads(topo.network)
    backend = get_substrate("fluid")
    emulation = backend.run(
        topo.network,
        topo.classes,
        normalize_specs(_variant_specs(topo, rate, burst)),
        workloads,
        settings.with_seed(seed),
    )
    return outcome_from_emulation(
        topo.network,
        topo.classes,
        workloads,
        emulation,
        settings=settings.with_seed(seed),
        ground_truth_links={SHARED_LINK},
    )


def _experiment_variant_batch(seeds, kwargs_list):
    """Scenario-batched executor for :func:`_experiment_variant`."""
    topo = build_dumbbell()
    workloads = _dense_workloads(topo.network)
    settings = kwargs_list[0]["settings"]
    batch = ScenarioBatch.compile(
        topo.network,
        topo.classes,
        workloads,
        [
            _variant_specs(topo, kw["rate"], kw["burst"])
            for kw in kwargs_list
        ],
        seeds,
    )
    emulations = run_scenario_batch(batch, settings, "fluid")
    return [
        outcome_from_emulation(
            topo.network,
            topo.classes,
            workloads,
            emulation,
            settings=settings.with_seed(seed),
            ground_truth_links={SHARED_LINK},
        )
        for seed, emulation in zip(seeds, emulations)
    ]


def _assert_records_identical(single, batched, label):
    for pid in single.measurements.path_ids:
        np.testing.assert_array_equal(
            single.measurements.record(pid).sent,
            batched.measurements.record(pid).sent,
            err_msg=f"{label}: sent {pid}",
        )
        np.testing.assert_array_equal(
            single.measurements.record(pid).lost,
            batched.measurements.record(pid).lost,
            err_msg=f"{label}: lost {pid}",
        )
    for lid, per_class in single.link_class_drops.items():
        for cn, series in per_class.items():
            np.testing.assert_array_equal(
                series,
                batched.link_class_drops[lid][cn],
                err_msg=f"{label}: drops {lid}/{cn}",
            )


def _interleaved(rounds, modes):
    """``rounds`` runs of each mode in ``modes`` (``{name: fn}``),
    alternating, with the first mode of each round alternating too;
    returns each mode's last results and best wall time. A drift in
    the host's speed over the run (caches, frequency, neighbours)
    hits both modes alike, and best-of strips one-sided blips."""
    names = list(modes)
    results, best = {}, dict.fromkeys(names, float("inf"))
    for r in range(rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            t0 = time.perf_counter()
            results[name] = modes[name]()
            best[name] = min(best[name], time.perf_counter() - t0)
    return results, best


def test_batch_throughput_gate(benchmark):
    """≥ 5× records-producing throughput on the 128-variant grid,
    every variant fp-identical to its single run."""
    topo = build_dumbbell()
    workloads = _workloads(topo.network)
    grid = _grid()
    seeds = list(range(100, 100 + len(grid)))

    backend = get_substrate("fluid")
    batch = ScenarioBatch.compile(
        topo.network,
        topo.classes,
        workloads,
        [_variant_specs(topo, rate, burst) for rate, burst in grid],
        seeds,
    )

    def emulate_sequential():
        return [
            backend.run(
                topo.network,
                topo.classes,
                normalize_specs(_variant_specs(topo, rate, burst)),
                workloads,
                SETTINGS.with_seed(seed),
            )
            for (rate, burst), seed in zip(grid, seeds)
        ]

    def emulate_batched():
        return run_scenario_batch(batch, SETTINGS, "fluid")

    results, best = run_once(
        benchmark, _interleaved, ROUNDS,
        {"sequential": emulate_sequential, "batch": emulate_batched},
    )
    singles, batched = results["sequential"], results["batch"]
    t_seq, t_batch = best["sequential"], best["batch"]
    speedup = t_seq / t_batch

    # Floating-point identity, every variant.
    for i, ((rate, burst), single) in enumerate(zip(grid, singles)):
        _assert_records_identical(
            single, batched[i], f"rate={rate:.3f} burst={burst}"
        )

    heading(
        f"Scenario-batched sweep: {len(grid)}-variant policing grid "
        f"({DURATION:.0f} s emulations)"
    )
    per_variant_seq = t_seq / len(grid)
    per_variant_batch = t_batch / len(grid)
    print(format_table(
        ["path", "wall", "per variant", "variants/s"],
        [
            (
                "sequential single runs",
                f"{t_seq:.2f}s",
                f"{per_variant_seq * 1e3:.0f}ms",
                f"{1.0 / per_variant_seq:.1f}",
            ),
            (
                "scenario batch (B=128)",
                f"{t_batch:.2f}s",
                f"{per_variant_batch * 1e3:.0f}ms",
                f"{1.0 / per_variant_batch:.1f}",
            ),
        ],
    ))
    print(f"\n  speedup: {speedup:.1f}x")

    # Differentiation sanity on the grid: the tightest policer
    # (rate 0.2) actually bounds the policed class — c2's delivered
    # share of the shared link stays near the policing rate while c1
    # takes more (a within-variant claim, robust to seed noise).
    def delivered(result, cls):
        arrivals = result.link_class_arrivals[SHARED_LINK][cls].sum()
        drops = result.link_class_drops[SHARED_LINK][cls].sum()
        return arrivals - drops

    capacity_packets = (
        build_dumbbell().link_specs[SHARED_LINK].capacity_pps * DURATION
    )
    for j, burst in enumerate(BURSTS):
        tightest = batched[0 * len(BURSTS) + j]
        c2_share = delivered(tightest, "c2") / capacity_packets
        assert c2_share < 0.30, (burst, c2_share)  # rate 0.2 + slack
        assert (
            batched[j].link_class_drops[SHARED_LINK]["c2"].sum() > 0.0
        ), burst  # ...and it did shed traffic to enforce that bound

    # The gate. Quick mode (CI smoke on shared 2-core runners) keeps
    # a noise margin under the locally-asserted 5× bar, like every
    # other gate bench in this harness.
    floor = 3.5 if BENCH_QUICK else 5.0
    assert speedup >= floor, (
        f"scenario-batch speedup regressed: {speedup:.1f}x "
        f"(floor {floor}x)"
    )
    emit(benchmark, "batch/throughput", measured=speedup, gate=floor)


def test_batched_sweep_cache_and_verdicts(tmp_path):
    """Sweep semantics are batching-agnostic: per-point digests,
    cached results, and inference verdicts all match the unbatched
    path (a 16-variant subgrid keeps this check quick)."""
    grid = _grid()[:: len(_grid()) // 16][:16]
    quick = EmulationSettings(
        duration_seconds=8.0, warmup_seconds=2.0, seed=3
    )

    def points():
        return [
            SweepPoint(
                key=f"grid/{rate:.4f}/{burst}",
                func=_experiment_variant,
                kwargs={
                    "rate": rate,
                    "burst": burst,
                    "settings": quick,
                },
                batch_func=_experiment_variant_batch,
                batch_group="bench-grid",
            )
            for rate, burst in grid
        ]

    cache = str(tmp_path / "cache")
    batched_runner = SweepRunner.for_settings(quick, cache_dir=cache)
    batched = batched_runner.run(points())
    assert batched_runner.stats.batches >= 1
    assert batched_runner.stats.batched_points == len(grid)

    # The same points without batch hooks run one by one.
    unbatched = [
        replace(p, batch_func=None, batch_group=None) for p in points()
    ]
    replay_runner = SweepRunner.for_settings(quick, cache_dir=cache)
    replayed = replay_runner.run(unbatched)
    # Digests are identical batched or not: 100% cache hits.
    assert replay_runner.stats.cache_hits == len(grid)
    assert replay_runner.stats.executed == 0

    fresh_runner = SweepRunner.for_settings(quick)
    fresh = fresh_runner.run(unbatched)
    assert fresh_runner.stats.batches == 0
    for key in batched:
        assert (
            batched[key].verdict_non_neutral
            == fresh[key].verdict_non_neutral
        ), key
        assert batched[key].observations == fresh[key].observations, key
        assert (
            replayed[key].path_congestion == fresh[key].path_congestion
        ), key
    heading("Batched sweep semantics")
    flagged = sum(
        1 for outcome in batched.values() if outcome.verdict_non_neutral
    )
    print(
        f"  {len(grid)} grid points; digests/verdicts identical "
        f"batched vs single; {flagged} points flagged non-neutral"
    )
