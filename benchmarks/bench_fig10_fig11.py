"""Figures 10(a), 10(b), and 11: the topology-B experiment.

* Figure 10(a): ground-truth per-link congestion probability per
  class — the policers (l5, l14, l20) show a class split; neutral
  links treat both classes alike.
* Figure 10(b): inferred per-sequence performance and Algorithm 1's
  verdicts plus the §5 quality metrics, aggregated over three seeds
  (the fluid substrate's sequence scores are seed-noisy; see
  EXPERIMENTS.md for the deviation discussion).
* Figure 11: queue-occupancy traces of the busy *neutral* ingress
  l13 versus the *policing* l14 — statistically alike, showing that
  congestion alone carries no differentiation signal.
"""

import numpy as np
import pytest
from _emit import emit
from conftest import BENCH_CACHE, BENCH_WORKERS, heading, run_once

from repro.analysis.stats import boxplot_summary, format_table, series_summary
from repro.experiments.runner import batch_key
from repro.experiments.sweep import SweepPoint, SweepRunner
from repro.experiments.topology_b import (
    TOPOLOGY_B_SETTINGS,
    compile_topology_b,
    run_topology_b_point,
    run_topology_b_rate_batch,
)
from repro.topology.multi_isp import POLICED_LINKS

SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def reports():
    # The three canonical seeds as one sweep: the points carry
    # explicit seeds (the figure is pinned to these realizations —
    # the scenario batch emulates the same three, fp-identically),
    # while workers/cache come from the harness environment.
    group = batch_key(compile_topology_b(TOPOLOGY_B_SETTINGS, 0.15))
    points = [
        SweepPoint(
            key=f"topoB/fig10/seed{seed}",
            func=run_topology_b_point,
            kwargs={
                "settings": TOPOLOGY_B_SETTINGS,
                "policing_rate": 0.15,
            },
            seed=seed,
            batch_func=run_topology_b_rate_batch,
            batch_group=group,
        )
        for seed in SEEDS
    ]
    runner = SweepRunner.for_settings(
        TOPOLOGY_B_SETTINGS, workers=BENCH_WORKERS, cache_dir=BENCH_CACHE
    )
    results = runner.run(points)
    return {
        seed: results[f"topoB/fig10/seed{seed}"] for seed in SEEDS
    }


def test_fig10a_ground_truth(benchmark, reports):
    report = reports[SEEDS[0]]
    result = run_once(benchmark, lambda: report.ground_truth)
    heading("Figure 10(a): actual link performance per class (seed 1)")
    rows = []
    for lid in sorted(result, key=lambda l: int(l.lstrip("l"))):
        c1, c2 = result[lid]
        mark = "*" if lid in POLICED_LINKS else " "
        rows.append((f"{lid}{mark}", f"{c1:.2%}", f"{c2:.2%}",
                     f"{c2 - c1:+.2%}"))
    print(format_table(["link", "P(cong) c1", "P(cong) c2", "split"],
                       rows))
    print("(* = implements policing)")
    # Paper claim: the policers' two per-class boxplots are far
    # apart, the other links' are not.
    for lid in POLICED_LINKS:
        c1, c2 = result[lid]
        assert c2 > c1 + 0.02, lid
    for lid in ("l13", "l18", "l3"):
        c1, c2 = result[lid]
        assert abs(c1 - c2) < 0.05, lid
    emit(
        benchmark,
        "fig10a/ground-truth",
        measured=min(result[lid][1] - result[lid][0]
                     for lid in POLICED_LINKS),
        gate=0.02,
    )


def test_fig10b_inferred_sequences(benchmark, reports):
    result = run_once(benchmark, lambda: reports)
    heading("Figure 10(b): inferred link-sequence performance")
    union_covered = set()
    fn_rates, fp_rates, grans = [], [], []
    for seed, report in result.items():
        outcome = report.outcome
        print(f"\n--- seed {seed} ---")
        rows = []
        for s in report.sequences:
            c2 = boxplot_summary(s.c2_estimates)
            other = boxplot_summary(s.other_estimates)
            rows.append(
                (
                    "<" + ",".join(s.sigma) + ">",
                    "POLICER" if s.contains_policer else "neutral",
                    "identified" if s.identified else "-",
                    f"{outcome.algorithm.scores[s.sigma]:.3f}",
                    f"{c2.median:+.3f}",
                    f"{other.median:+.3f}",
                )
            )
        print(format_table(
            ["sequence", "truth", "verdict", "unsolvability",
             "median c2-pair est", "median other est"],
            rows,
        ))
        q = outcome.quality
        print(f"quality: FN {q.false_negative_rate:.0%} "
              f"FP {q.false_positive_rate:.0%} "
              f"granularity {q.granularity:.2f}")
        fn_rates.append(q.false_negative_rate)
        fp_rates.append(q.false_positive_rate)
        if not np.isnan(q.granularity):
            grans.append(q.granularity)
        union_covered |= set(outcome.algorithm.identified_links)

        # Per-seed shape claim: policer-containing sequences dominate
        # the top of the unsolvability ranking.
        ranked = sorted(
            outcome.algorithm.scores,
            key=outcome.algorithm.scores.get,
            reverse=True,
        )
        top4_policers = sum(
            1 for sigma in ranked[:4] if set(sigma) & set(POLICED_LINKS)
        )
        assert top4_policers >= 2, (seed, ranked[:4])

    print(f"\nAggregate over seeds {SEEDS}: "
          f"mean FN {np.mean(fn_rates):.0%}, "
          f"mean FP {np.mean(fp_rates):.0%}, "
          f"mean granularity {np.mean(grans):.2f} "
          f"(paper: FN 0%, FP 0%, granularity 2.7)")
    # Aggregate claims (see EXPERIMENTS.md for the deviation notes):
    assert np.mean(fn_rates) <= 0.5
    assert np.mean(fp_rates) <= 1.0 / 3.0
    assert set(POLICED_LINKS) <= union_covered, union_covered
    assert np.mean(grans) < 4.0
    emit(
        benchmark,
        "fig10b/sequences",
        measured=float(np.mean(fn_rates)),
        gate=0.5,
        mean_fp=float(np.mean(fp_rates)),
        mean_granularity=float(np.mean(grans)),
    )


def test_fig11_queue_occupancy(benchmark, reports):
    report = reports[SEEDS[0]]
    traces = run_once(benchmark, lambda: report.queue_traces_mb)
    heading("Figure 11: queue occupancy, neutral l13 vs policing l14")
    rows = []
    for lid, trace in sorted(traces.items()):
        mean, p95, peak = series_summary(trace)
        rows.append((lid, f"{mean:.2f}", f"{p95:.2f}", f"{peak:.2f}"))
    print(format_table(["link", "mean [Mb]", "p95 [Mb]", "max [Mb]"],
                       rows))
    print("(the traces are statistically alike: congestion alone does "
          "not reveal which link differentiates)")
    l13 = traces["l13"]
    l14 = traces["l14"]
    assert l13.max() > 0 and l14.max() > 0
    m13, m14 = l13.mean(), l14.mean()
    assert 0.2 < (m13 + 0.05) / (m14 + 0.05) < 5.0
    emit(
        benchmark,
        "fig11/queue-occupancy",
        measured=float((m13 + 0.05) / (m14 + 0.05)),
    )
