"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — the numpy version, the substrate registry with
  cache-version tags, and the telemetry settings.
* ``theory`` — the paper's worked examples, analytically (instant).
* ``fig8 --set N [--value V]`` — one topology-A experiment (set 1–9),
  or the whole set; a set's values that share a scenario run as one
  batch.
* ``topo-b [--seed S]`` — the topology-B experiment with reports.
* ``sweep [--sets 1,2,…] --workers N [--cache DIR]`` — the Table 2
  sweep fanned over a process pool with result caching; points that
  compile to a shared scenario (same network, classes, workloads and
  settings, in any set) run as lockstep scenario batches on a
  batch-capable substrate.
* ``monitor`` — the streaming neutrality monitor: emulate in segment
  mode, emit rolling windowed verdicts, and timestamp
  differentiation onset/offset change points (``--onset T`` switches
  the policy on mid-run).
* ``trace <trace.jsonl>`` — summarize an exported telemetry trace as
  an aggregated span tree (count, cumulative and self time per span
  path) preceded by any embedded run manifests.
* ``metrics [metrics.json]`` — print an exported metrics registry as
  an aligned table (defaults to the active ``REPRO_TELEMETRY``
  export directory).

With ``REPRO_TELEMETRY=<dir>`` set, every emulating command appends
its spans to ``<dir>/trace.jsonl`` and, on exit, writes
``<dir>/metrics.json`` plus a run-manifest record — so
``repro trace``/``repro metrics`` can inspect the run afterwards.

``fig8``, ``topo-b``, ``sweep``, and ``monitor`` all accept
``--substrate {fluid,packet}`` to pick the emulation backend
(default: fluid).

Every command prints the same tables the benchmark harness produces.
Configuration mistakes (unknown substrate/topology names, bad
parameter combinations) are reported as one-line ``error:`` messages,
never tracebacks.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.config import EmulationSettings


def _cmd_info(_: argparse.Namespace) -> int:
    import numpy as np

    from repro.substrate.registry import (
        available_substrates,
        substrate_cache_tag,
    )

    print(f"numpy:             {np.__version__}")
    print("substrates:")
    for name in available_substrates():
        # name:version — exactly the tag sweep cache entries carry,
        # so logs record which backend produced a cached result.
        print(f"  {name:<10} {substrate_cache_tag(name)}")
    from repro import telemetry

    print("telemetry:")
    if telemetry.enabled():
        state = (
            f"enabled, exporting to {telemetry.export_dir()}"
            if telemetry.trace_path() is not None
            else "enabled (in-memory spans)"
        )
    else:
        state = "disabled"
    print(f"  state:           {state}")
    print(
        "  REPRO_TELEMETRY: "
        f"{os.environ.get(telemetry.ENV_VAR) or '(unset)'}"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import load_trace
    from repro.telemetry.render import (
        render_manifest,
        render_span_tree,
        split_records,
    )

    try:
        records = load_trace(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    manifests, spans = split_records(records)
    for manifest in manifests:
        print(render_manifest(manifest), end="")
    print(render_span_tree(spans, min_seconds=args.min_seconds), end="")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.telemetry.render import render_metrics_table

    path = args.path
    if path is None:
        directory = telemetry.export_dir()
        if directory is None:
            print(
                "error: no metrics file given and REPRO_TELEMETRY does "
                "not name an export directory",
                file=sys.stderr,
            )
            return 2
        path = os.path.join(directory, telemetry.METRICS_FILENAME)
    try:
        data = telemetry.load_metrics(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    print(render_metrics_table(data), end="")
    return 0


def _cmd_theory(_: argparse.Namespace) -> int:
    from repro.analysis.stats import format_table
    from repro.core import (
        check_observability,
        identifiable_sequences_exact,
        identify_non_neutral_exact,
    )
    from repro.topology.figures import ALL_FIGURES

    rows = []
    for name, builder in sorted(ALL_FIGURES.items()):
        fig = builder()
        obs = check_observability(fig.performance)
        ident = identifiable_sequences_exact(fig.performance)
        result = identify_non_neutral_exact(fig.performance)
        rows.append(
            (
                name,
                ",".join(sorted(fig.non_neutral_links)),
                "yes" if obs.observable else "no",
                "; ".join("<" + ",".join(s) + ">" for s in ident) or "-",
                "; ".join(
                    "<" + ",".join(s) + ">" for s in result.identified
                )
                or "-",
            )
        )
    print(
        format_table(
            [
                "figure",
                "non-neutral",
                "observable",
                "identifiable",
                "Algorithm 1",
            ],
            rows,
        )
    )
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import (
        render_path_congestion,
        render_verdict,
    )
    from repro.experiments.topology_a import (
        experiment_values,
        run_full_set,
        run_topology_a,
    )

    values = experiment_values(args.set)
    settings = EmulationSettings(
        duration_seconds=args.duration, seed=args.seed
    )
    if args.value is None:
        runs = run_full_set(args.set, settings, substrate=args.substrate)
    else:
        try:
            value = float(args.value) if args.set != 3 else args.value
        except ValueError:
            value = None  # not a number: no value of the set matches
        if value not in values:
            print(
                f"set {args.set} accepts values {values}",
                file=sys.stderr,
            )
            return 2
        runs = [
            (value, run_topology_a(
                args.set, value, settings, substrate=args.substrate
            ))
        ]
    for value, outcome in runs:
        print(f"\n=== set {args.set}, value {value} ===")
        print(render_path_congestion(outcome))
        print(render_verdict(outcome))
    return 0


def _cmd_topo_b(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import (
        render_ground_truth,
        render_quality,
        render_queue_traces,
        render_sequences,
    )
    from repro.experiments.topology_b import (
        TOPOLOGY_B_SETTINGS,
        run_topology_b,
    )

    settings = TOPOLOGY_B_SETTINGS.with_seed(args.seed)
    if args.duration is not None:
        settings = settings.quick(args.duration)
    print("Running topology B (this takes a minute or two)...")
    report = run_topology_b(settings, substrate=args.substrate)
    print("\nFigure 10(a): ground truth")
    print(render_ground_truth(report))
    print("\nFigure 10(b): inferred sequences")
    print(render_sequences(report))
    print("\nFigure 11: queue traces")
    print(render_queue_traces(report))
    print("\n" + render_quality(report.outcome.quality))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import render_sweep_summary
    from repro.experiments.sweep import SweepRunner
    from repro.experiments.topology_a import sweep_points

    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    try:
        set_numbers = sorted(
            {int(s) for s in args.sets.split(",") if s.strip()}
        )
    except ValueError:
        print(f"bad --sets value {args.sets!r}", file=sys.stderr)
        return 2
    bad = [n for n in set_numbers if not 1 <= n <= 9]
    if bad or not set_numbers:
        print("--sets takes a comma list of set numbers 1-9", file=sys.stderr)
        return 2
    settings = EmulationSettings(
        duration_seconds=args.duration, seed=args.seed
    )
    points = sweep_points(set_numbers, settings, substrate=args.substrate)
    runner = SweepRunner.for_settings(
        settings, workers=args.workers, cache_dir=args.cache
    )
    print(
        f"Sweeping {len(points)} points over {args.workers} worker(s)..."
    )
    try:
        results = runner.run(points)
    finally:
        runner.close()
    stats = runner.stats
    batched_ok = stats.batched_points - stats.batch_retries
    singles = stats.executed - batched_ok
    print(
        f"batching: {stats.batches} batch(es) covering {batched_ok} "
        f"point(s); {singles} point(s) ran singly"
    )
    print(render_sweep_summary(results, runner.stats))
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.stats import format_table
    from repro.streaming.monitor import (
        check_onset,
        check_positive_counts,
        monitor_scenario,
    )
    from repro.substrate.registry import get_substrate
    from repro.substrate.scenario import DifferentiationPolicy, Scenario

    # Validate free-form names up front so typos produce one clean
    # ReproError line instead of a traceback mid-emulation.
    get_substrate(args.substrate)
    check_positive_counts(
        chunk_intervals=args.chunk,
        window_intervals=args.window,
        stride=args.stride,
    )
    settings = EmulationSettings(
        duration_seconds=args.duration,
        warmup_seconds=args.warmup,
        seed=args.seed,
    )
    policy = None
    if args.mechanism != "none":
        policy = DifferentiationPolicy(
            mechanism=args.mechanism,
            rate_fraction=args.rate,
        )
    onset = None
    if args.onset is not None:
        if not math.isfinite(args.onset):
            raise ConfigurationError(
                f"--onset must be finite, got {args.onset}"
            )
        onset = int(round(args.onset / settings.interval_seconds))
    scenario = Scenario(
        name=f"monitor-{args.topology}",
        topology=args.topology,
        substrate=args.substrate,
        policy=policy,
        settings=settings,
    )
    check_onset(scenario, onset)
    print(
        f"Monitoring {args.topology}/{args.mechanism} on "
        f"{args.substrate} ({args.duration:.0f} s, window "
        f"{args.window} intervals)..."
    )
    report, compiled = monitor_scenario(
        scenario,
        chunk_intervals=args.chunk,
        window_intervals=args.window,
        stride=args.stride,
        onset_interval=onset,
    )

    def fmt_sigma(sigma):
        return "<" + ",".join(sigma) + ">"

    rows = []
    for w, end in enumerate(report.window_ends.tolist()):
        # NaN marks an uninformative score; an all-NaN row prints "-".
        informative = report.scores[w][~np.isnan(report.scores[w])]
        flagged = [
            fmt_sigma(s)
            for k, s in enumerate(report.sigmas)
            if report.flagged[w, k]
        ]
        rows.append(
            (
                str(w),
                f"{end * settings.interval_seconds:.1f}",
                f"{informative.max():.4f}" if informative.size else "-",
                "; ".join(flagged) or "-",
            )
        )
    print(
        format_table(
            ["window", "t (s)", "max score", "flagged sequences"], rows
        )
    )
    for cp in report.change_points:
        print(
            f"change point: {cp.kind} of {fmt_sigma(cp.sigma)} detected "
            f"at interval {cp.interval} (estimate: {cp.estimate_interval})"
        )
    identified = report.final.identified if report.final else ()
    verdict = "; ".join(fmt_sigma(s) for s in identified) or "-"
    print(f"final verdict (full stream): {verdict}")
    if onset is not None:
        # A flag turns on only at an onset change point, so the first
        # truth onset is the first window that flags a truth sequence.
        truth = compiled.ground_truth_links
        delays = [
            report.detection_delay(sigma, onset)
            for sigma in report.sigmas
            if set(sigma) & truth
        ]
        delay = min((d for d in delays if d is not None), default=None)
        if delay is not None and delay < 0:
            print(
                f"onset at interval {onset}: flagged "
                f"{-delay} intervals before onset"
            )
        elif delay is not None:
            print(
                f"onset at interval {onset} detected after {delay} "
                "intervals"
            )
        else:
            print(f"onset at interval {onset} was NOT detected")
    return 0


def _add_substrate_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--substrate",
        default="fluid",
        help="emulation backend (default: fluid)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Network Neutrality Inference (SIGCOMM 2014) "
        "reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "info",
        help="numpy version, substrate registry and telemetry settings",
    )

    sub.add_parser("theory", help="worked theory examples (instant)")

    fig8 = sub.add_parser("fig8", help="one topology-A experiment set")
    fig8.add_argument("--set", type=int, required=True, choices=range(1, 10))
    fig8.add_argument(
        "--value",
        default=None,
        help="one x-axis value (default: the whole sweep)",
    )
    fig8.add_argument("--duration", type=float, default=120.0)
    fig8.add_argument("--seed", type=int, default=1)
    _add_substrate_arg(fig8)

    topob = sub.add_parser("topo-b", help="the topology-B experiment")
    topob.add_argument("--seed", type=int, default=3)
    topob.add_argument(
        "--duration",
        type=float,
        default=None,
        help="override the 300 s default",
    )
    _add_substrate_arg(topob)

    sweep = sub.add_parser(
        "sweep", help="parallel Table 2 sweep with result caching"
    )
    sweep.add_argument(
        "--sets",
        default="1,2,3,4,5,6,7,8,9",
        help="comma list of Table 2 set numbers (default: all)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (1 = run inline)",
    )
    sweep.add_argument(
        "--cache",
        default=None,
        help="result-cache directory (default: no caching)",
    )
    sweep.add_argument("--duration", type=float, default=120.0)
    sweep.add_argument("--seed", type=int, default=1)
    _add_substrate_arg(sweep)

    monitor = sub.add_parser(
        "monitor",
        help="streaming monitor with rolling windowed verdicts",
    )
    monitor.add_argument(
        "--topology",
        default="dumbbell",
        help="scenario topology: dumbbell or multi_isp",
    )
    monitor.add_argument(
        "--mechanism",
        default="policing",
        help="differentiation mechanism (policing, shaping, aqm, "
        "weighted) or 'none' for a neutral stream",
    )
    monitor.add_argument(
        "--rate",
        type=float,
        default=0.3,
        help="policy rate/weight as a fraction of capacity",
    )
    monitor.add_argument("--duration", type=float, default=60.0)
    monitor.add_argument("--warmup", type=float, default=5.0)
    monitor.add_argument(
        "--onset",
        type=float,
        default=None,
        help="switch the policy on at this time (seconds); the "
        "stream starts neutral",
    )
    monitor.add_argument(
        "--chunk",
        type=int,
        default=25,
        help="intervals emulated per stream segment",
    )
    monitor.add_argument(
        "--window",
        type=int,
        default=100,
        help="sliding-window length in intervals",
    )
    monitor.add_argument(
        "--stride",
        type=int,
        default=None,
        help="verdict cadence in intervals (default: --chunk)",
    )
    monitor.add_argument("--seed", type=int, default=3)
    _add_substrate_arg(monitor)

    trace = sub.add_parser(
        "trace",
        help="summarize an exported trace.jsonl as a span tree",
    )
    trace.add_argument("path", help="path to a trace.jsonl export")
    trace.add_argument(
        "--min-seconds",
        type=float,
        default=0.0,
        help="hide span paths with less cumulative time (default: 0)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="print an exported metrics.json registry as a table",
    )
    metrics.add_argument(
        "path",
        nargs="?",
        default=None,
        help="metrics.json path (default: the REPRO_TELEMETRY "
        "export directory)",
    )
    return parser


def _finalize_telemetry(args: argparse.Namespace) -> None:
    """Flush telemetry artifacts for an exporting CLI run.

    When ``REPRO_TELEMETRY`` names a directory, close the run by
    appending a run manifest to ``trace.jsonl`` and writing
    ``metrics.json`` beside it.  In-memory mode and the read-only
    viewer commands (``trace``/``metrics``) skip all of this.
    """
    from repro import telemetry

    if not telemetry.enabled():
        return
    directory = telemetry.export_dir()
    if directory is None:
        return
    manifest = telemetry.RunManifest.collect(
        f"cli:{args.command}", seed=getattr(args, "seed", None)
    )
    telemetry.write_manifest(manifest)
    telemetry.get_registry().write_json(
        os.path.join(directory, telemetry.METRICS_FILENAME)
    )
    telemetry.get_tracer().flush()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "theory": _cmd_theory,
        "fig8": _cmd_fig8,
        "topo-b": _cmd_topo_b,
        "sweep": _cmd_sweep,
        "monitor": _cmd_monitor,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
    }
    try:
        code = handlers[args.command](args)
    except ReproError as exc:
        # Configuration mistakes (unknown substrate/topology names,
        # invalid parameter combinations) are user errors, not
        # crashes: one clean line on stderr, exit code 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command not in ("trace", "metrics"):
        _finalize_telemetry(args)
    return code


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
