"""Textual reports for experiment outcomes (S15/S17 glue).

Renders :class:`~repro.experiments.runner.ExperimentOutcome` and
:class:`~repro.experiments.topology_b.TopologyBReport` the way the
benches and the CLI print them: one function per paper artifact.
"""

from __future__ import annotations

import math
from typing import List

from repro.analysis.stats import boxplot_summary, format_table, series_summary
from repro.core.metrics import QualityReport
from repro.experiments.runner import ExperimentOutcome
from repro.experiments.topology_b import TopologyBReport
from repro.topology.multi_isp import POLICED_LINKS


def render_path_congestion(outcome: ExperimentOutcome) -> str:
    """Figure 8-style row: per-path congestion probabilities."""
    rows = [
        (pid, f"{prob:.2%}")
        for pid, prob in sorted(outcome.path_congestion.items())
    ]
    return format_table(["path", "P(congested)"], rows)


def render_verdict(outcome: ExperimentOutcome) -> str:
    """Algorithm 1's verdict with scores."""
    lines: List[str] = []
    if outcome.algorithm.identified:
        lines.append("verdict: NON-NEUTRAL")
        for sigma in outcome.algorithm.identified:
            lines.append(
                f"  <{','.join(sigma)}>  "
                f"unsolvability {outcome.algorithm.scores[sigma]:.4f}"
            )
    else:
        lines.append("verdict: neutral")
    for sigma in outcome.algorithm.neutral:
        lines.append(
            f"  (consistent: <{','.join(sigma)}>  "
            f"{outcome.algorithm.scores[sigma]:.4f})"
        )
    if outcome.quality is not None:
        lines.append(render_quality(outcome.quality))
    return "\n".join(lines)


def render_quality(q: QualityReport) -> str:
    """The §5 quality line. Granularity is undefined (NaN) when nothing
    was identified and prints as ``-``."""
    granularity = (
        "-" if math.isnan(q.granularity) else f"{q.granularity:.2f}"
    )
    return (
        f"quality: FN {q.false_negative_rate:.0%}  "
        f"FP {q.false_positive_rate:.0%}  "
        f"granularity {granularity}"
    )


def render_sweep_summary(
    results, stats=None
) -> str:
    """One row per sweep point: verdict, identified set, quality.

    Args:
        results: ``{point_key: ExperimentOutcome}`` as produced by a
            :class:`~repro.experiments.sweep.SweepRunner` over
            topology-A points.
        stats: Optional ``SweepStats`` to summarize cache behaviour.
    """
    rows = []
    for key, outcome in results.items():
        identified = (
            "; ".join(
                "<" + ",".join(s) + ">" for s in outcome.algorithm.identified
            )
            or "-"
        )
        quality = ""
        if outcome.quality is not None:
            q = outcome.quality
            quality = (
                f"FN {q.false_negative_rate:.0%} "
                f"FP {q.false_positive_rate:.0%}"
            )
        rows.append(
            (
                key,
                "NON-NEUTRAL" if outcome.verdict_non_neutral else "neutral",
                identified,
                quality,
            )
        )
    table = format_table(["point", "verdict", "identified", "quality"], rows)
    if stats is not None:
        table += (
            f"\ncache: {stats.cache_hits} hits, "
            f"{stats.cache_misses} misses, {stats.executed} executed"
        )
        table += f"\ntiming: {stats.wall_seconds:.2f} s wall"
        if stats.executed:
            per_point = stats.executed_seconds / stats.executed
            table += (
                f", {stats.executed_seconds:.2f} s compute "
                f"({per_point * 1e3:.0f} ms/point executed)"
            )
        if stats.workers > 1:
            pool = (
                "warm pool reused"
                if stats.pool_reused
                else f"pool created ({stats.pool_setup_seconds:.2f} s)"
            )
            table += f"\nparallel: {stats.workers} workers, {pool}"
    return table


def render_ground_truth(report: TopologyBReport) -> str:
    """Figure 10(a)-style table."""
    rows = []
    for lid in sorted(
        report.ground_truth, key=lambda l: int(l.lstrip("l"))
    ):
        c1, c2 = report.ground_truth[lid]
        mark = "*" if lid in POLICED_LINKS else " "
        rows.append(
            (f"{lid}{mark}", f"{c1:.2%}", f"{c2:.2%}", f"{c2 - c1:+.2%}")
        )
    return format_table(
        ["link", "P(cong) c1", "P(cong) c2", "split"], rows
    )


def render_sequences(report: TopologyBReport) -> str:
    """Figure 10(b)-style table."""
    rows = []
    for s in report.sequences:
        c2 = boxplot_summary(s.c2_estimates)
        other = boxplot_summary(s.other_estimates)
        rows.append(
            (
                "<" + ",".join(s.sigma) + ">",
                "POLICER" if s.contains_policer else "neutral",
                "identified" if s.identified else "-",
                f"{report.outcome.algorithm.scores[s.sigma]:.3f}",
                f"{c2.median:+.3f}",
                f"{other.median:+.3f}",
            )
        )
    return format_table(
        [
            "sequence",
            "truth",
            "verdict",
            "unsolvability",
            "median c2-pair est",
            "median other est",
        ],
        rows,
    )


def render_queue_traces(report: TopologyBReport) -> str:
    """Figure 11-style summary."""
    rows = []
    for lid, trace in sorted(report.queue_traces_mb.items()):
        mean, p95, peak = series_summary(trace)
        rows.append((lid, f"{mean:.2f}", f"{p95:.2f}", f"{peak:.2f}"))
    return format_table(
        ["link", "mean [Mb]", "p95 [Mb]", "max [Mb]"], rows
    )
