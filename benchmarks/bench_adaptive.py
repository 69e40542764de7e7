"""Adaptive frontier search: the refinement-savings gate.

The paper's detection boundary — the policing-rate threshold below
which Algorithm 1 stops seeing the policer, per congestion level — is
the kind of artifact a dense parameter grid buys with hundreds of
scenarios, almost all of them far from the boundary. The adaptive
driver (:mod:`repro.experiments.adaptive`) localizes the same
boundary by coarse-pass + recursive bisection, and this bench pins
its three-part contract on the policing-rate × capacity plane:

* **Budget gate** — the frontier must be localized to dense-grid-step
  precision (every frontier cell terminal, nothing dropped) using
  ≤ 25% of the dense grid's scenario budget.
* **Dense agreement** — an independently-executed dense grid must
  reproduce every adaptive label, and every refined (frontier) cell's
  corners must genuinely disagree on the dense labels: refinement is
  an optimization, never an approximation.
* **Bit interchange** — the dense sweep, pointed at the adaptive
  run's cache, must replay every visited point as a cache hit (shared
  digests) with pickle-identical results.

It also prints the EXPERIMENTS.md "Adaptive sweeps" table (adaptive
vs dense wall clock and scenario counts).
"""

import pickle
import time

from _emit import emit
from conftest import BENCH_QUICK, heading, run_once

from repro.analysis.stats import format_table
from repro.experiments.adaptive import (
    AdaptiveSweep,
    PlanePointFactory,
    plane_axes,
    plane_label,
)
from repro.experiments.config import EmulationSettings
from repro.experiments.sweep import SweepRunner

#: The frozen plane (calibrated in EXPERIMENTS.md): 12 s emulations
#: over a 65×5 lattice in quick mode, 30 s over 129×5 locally. Both
#: show a clean per-capacity detection staircase in policing rate.
DURATION = 12.0 if BENCH_QUICK else 30.0
WARMUP = 2.0 if BENCH_QUICK else 4.0
RATE_POINTS = 65 if BENCH_QUICK else 129
NOISE_POINTS = 5

SETTINGS = EmulationSettings(
    duration_seconds=DURATION, warmup_seconds=WARMUP, seed=3
)

#: The gate: adaptive localization must cost at most a quarter of the
#: dense grid.
DENSE_FRACTION_CEILING = 0.25


def _sweep(cache_dir=None):
    return AdaptiveSweep(
        SweepRunner.for_settings(SETTINGS, cache_dir=cache_dir),
        plane_axes(RATE_POINTS, NOISE_POINTS),
        PlanePointFactory(settings=SETTINGS),
        plane_label,
    )


def test_adaptive_frontier_gate(benchmark, tmp_path):
    """≤ 25% of the dense scenario budget, dense-grid-step precision,
    label agreement on every visited point, bitwise cache
    interchange."""
    cache = str(tmp_path / "cache")

    # 1. The adaptive pass, cold, under the benchmark clock.
    adaptive = run_once(benchmark, lambda: _sweep(cache).run())

    # 2. The dense baseline, independently executed (no cache).
    sweep = _sweep()
    t0 = time.perf_counter()
    dense = sweep.runner.run(sweep.dense_points())
    t_dense = time.perf_counter() - t0
    t_adaptive = adaptive.wall_seconds

    # 3. The dense sweep over the adaptive run's cache: every visited
    #    point replays as a hit (shared digests), pickle-identical.
    replay_sweep = _sweep(cache)
    replayed = replay_sweep.runner.run(replay_sweep.dense_points())
    assert replay_sweep.runner.stats.cache_hits == adaptive.evaluated
    for key, result in adaptive.results.items():
        assert pickle.dumps(replayed[key]) == pickle.dumps(result), key

    # Dense agreement: every adaptive label is the dense label...
    for coords, key in adaptive.keys.items():
        assert adaptive.labels[coords] == plane_label(dense[key]), coords
        assert pickle.dumps(dense[key]) == pickle.dumps(
            adaptive.results[key]
        ), key
    # ...and every refined cell's corners genuinely disagree.
    assert adaptive.frontier
    for cell in adaptive.frontier:
        corner_labels = {
            plane_label(dense[sweep.point_at(c).key])
            for c in cell.corners()
        }
        assert len(corner_labels) > 1, cell

    # Dense-grid-step precision: terminal cells only, nothing dropped.
    assert all(cell.terminal for cell in adaptive.frontier)
    assert not adaptive.dropped

    heading(
        f"Adaptive frontier search: {RATE_POINTS}x{NOISE_POINTS} "
        f"policing-rate x capacity plane ({DURATION:.0f} s emulations)"
    )
    print(format_table(
        ["path", "scenarios", "wall", "per point"],
        [
            (
                "dense grid",
                f"{adaptive.dense_size}",
                f"{t_dense:.2f}s",
                f"{t_dense / adaptive.dense_size * 1e3:.0f}ms",
            ),
            (
                "adaptive refinement",
                f"{adaptive.evaluated}",
                f"{t_adaptive:.2f}s",
                f"{t_adaptive / adaptive.evaluated * 1e3:.0f}ms",
            ),
        ],
    ))
    print(
        f"\n  scenario budget: {adaptive.dense_fraction:.1%} of dense "
        f"(gate <= {DENSE_FRACTION_CEILING:.0%}); "
        f"wall speedup {t_dense / t_adaptive:.1f}x"
    )
    print(f"  frontier: {len(adaptive.frontier)} grid-step cell(s)")
    for bounds in adaptive.frontier_bounds():
        lo, hi = bounds["policing_rate"]
        cap, _ = bounds["capacity_mbps"]
        print(
            f"    capacity {cap:5.1f} Mbps: rate in "
            f"[{lo:.4f}, {hi:.4f}]"
        )

    # The gate.
    assert adaptive.dense_fraction <= DENSE_FRACTION_CEILING, (
        f"adaptive sweep spent {adaptive.dense_fraction:.1%} of the "
        f"dense budget (gate {DENSE_FRACTION_CEILING:.0%})"
    )
    emit(
        benchmark,
        "adaptive/frontier",
        measured=adaptive.dense_fraction,
        gate=DENSE_FRACTION_CEILING,
        frontier_cells=len(adaptive.frontier),
    )
