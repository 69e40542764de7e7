"""Ablations (paper §6.5 + DESIGN.md §7).

* Loss threshold 1/5/10 % and measurement interval 100/200/500 ms:
  the paper reports "no significant change in the results"; we verify
  the policing verdict is stable across the grid on one emulation.
* Normalization off: without Algorithm 2's equal-rate discounting the
  verdict machinery still works here, but the estimates shift — the
  bench reports the score movement.
* Clustering vs fixed threshold: the decision rule ablation.
"""

import numpy as np
import pytest
from _emit import emit
from conftest import BENCH_SETTINGS, heading, run_once

from repro.analysis.stats import format_table
from repro.core import identify_non_neutral
from repro.core.algorithm import DEFAULT_MIN_PATHSETS, identify_from_scores
from repro.core.slices import build_slice_batch, build_slice_system
from repro.experiments.topology_a import run_topology_a
from repro.measurement.clustering import threshold_decider
from repro.measurement.normalize import pathset_performance_numbers
from repro.topology.dumbbell import SHARED_LINK


@pytest.fixture(scope="module")
def policing_outcome():
    return run_topology_a(6, 30.0, BENCH_SETTINGS)


def test_ablation_threshold_and_interval(benchmark, policing_outcome):
    """§6.5 robustness grid: verdict stable for every combination."""
    data = policing_outcome.emulation.measurements
    net = policing_outcome.inference_network
    system = build_slice_system(net, (SHARED_LINK,))

    def sweep():
        rows = []
        for threshold in (0.01, 0.05, 0.10):
            for factor, interval_ms in ((1, 100), (2, 200), (5, 500)):
                obs = pathset_performance_numbers(
                    data.rebinned(factor),
                    system.family,
                    loss_threshold=threshold,
                )
                result = identify_non_neutral(net, obs)
                rows.append((threshold, interval_ms,
                             result.scores[(SHARED_LINK,)],
                             bool(result.identified)))
        return rows

    rows = run_once(benchmark, sweep)
    heading("Ablation: loss threshold x measurement interval "
            "(policing, rate 30%)")
    print(format_table(
        ["loss threshold", "interval [ms]", "unsolvability", "verdict"],
        [(f"{t:.0%}", i, f"{u:.3f}", "NON-NEUTRAL" if v else "neutral")
         for t, i, u, v in rows],
    ))
    verdicts = [v for *_, v in rows]
    assert all(verdicts), "verdict must be stable across the §6.5 grid"
    emit(
        benchmark,
        "ablation/threshold-interval",
        measured=sum(verdicts) / len(verdicts),
        gate=1.0,
    )


def test_ablation_normalization(benchmark, policing_outcome):
    """Expected-mode vs sampled-mode normalization."""
    data = policing_outcome.emulation.measurements
    net = policing_outcome.inference_network
    system = build_slice_system(net, (SHARED_LINK,))

    def compare():
        expected = pathset_performance_numbers(data, system.family)
        rng = np.random.default_rng(0)
        sampled = pathset_performance_numbers(
            data, system.family, mode="sampled", rng=rng
        )
        return tuple(
            identify_non_neutral(net, obs).scores[(SHARED_LINK,)]
            for obs in (expected, sampled)
        )

    exp_score, sam_score = run_once(benchmark, compare)
    heading("Ablation: normalization mode")
    print(f"  expected-mode unsolvability: {exp_score:.3f}")
    print(f"  sampled-mode unsolvability:  {sam_score:.3f}")
    assert exp_score > 0.045
    assert sam_score > 0.02
    emit(
        benchmark,
        "ablation/normalization",
        measured=exp_score,
        gate=0.045,
        sampled_unsolvability=sam_score,
    )


def test_ablation_decider(benchmark, policing_outcome):
    """Clustering-based decision vs a fixed threshold, on the run's
    own scores."""
    batch, skipped = build_slice_batch(
        policing_outcome.inference_network, DEFAULT_MIN_PATHSETS
    )
    scores = policing_outcome.algorithm.scores

    def compare():
        return tuple(
            identify_from_scores(batch, skipped, scores, decider)
            for decider in (
                None, threshold_decider(0.01), threshold_decider(10.0)
            )
        )

    default, fixed_low, fixed_high = run_once(benchmark, compare)
    heading("Ablation: decision rule")
    print(f"  clustering verdict:        {default.identified}")
    print(f"  threshold 0.01 verdict:    {fixed_low.identified}")
    print(f"  threshold 10.0 verdict:    {fixed_high.identified}")
    assert default.identified == ((SHARED_LINK,),)
    assert fixed_low.identified == ((SHARED_LINK,),)
    assert fixed_high.identified == ()
    emit(benchmark, "ablation/decider")
