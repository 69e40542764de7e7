"""Telemetry overhead gate + sample trace/metrics artifacts.

The tracing/metrics layer (DESIGN.md S23) is opt-in; its contract has
two halves:

* **Disabled** (``REPRO_TELEMETRY`` unset): the no-op fast path adds
  <3 % to the sweep hot path — measured against a disabled-mode run
  in the same process, and pinned bit-identical by the tier-1
  goldens. The enabled-vs-disabled ratio asserted here is a generous
  CI ceiling; the tight numbers live in EXPERIMENTS.md.
* **Enabled**: spans and counters must not perturb results — the
  traced sweep's outcomes are pickle-identical to the untraced ones.

The enabled run exports ``trace.jsonl`` + ``metrics.json`` (plus a
run manifest) to ``REPRO_TELEMETRY_SAMPLE`` (default
``telemetry_sample/``), which CI uploads as the sample-observability
artifact.
"""

import os
import pickle
import time

from _emit import emit
from conftest import BENCH_QUICK, heading, run_once

from repro import telemetry
from repro.experiments.config import EmulationSettings
from repro.experiments.sweep import SweepRunner
from repro.experiments.topology_a import sweep_points

SETTINGS = EmulationSettings(
    duration_seconds=30.0 if BENCH_QUICK else 60.0,
    warmup_seconds=5.0,
    seed=3,
)

#: Enabled-vs-disabled wall ceiling. Generous on purpose: the sweep
#: below is short, so even with best-of-N timing, scheduler noise on
#: shared CI runners dwarfs the real span/counter cost (measured well
#: under 3 %; see EXPERIMENTS.md "Observability").
OVERHEAD_CEILING = 0.15 if BENCH_QUICK else 0.10

#: Reps per mode; each mode's wall time is the best of these, which
#: strips one-sided scheduler blips a single sample would swallow.
REPS = 3

SAMPLE_DIR = os.environ.get("REPRO_TELEMETRY_SAMPLE", "telemetry_sample")


def _sweep_once():
    """One inline set-3 sweep (the bench_baseline sweep path)."""
    points = sweep_points([3], SETTINGS)
    runner = SweepRunner.for_settings(SETTINGS, workers=1)
    t0 = time.perf_counter()
    results = runner.run(points)
    return results, time.perf_counter() - t0


def _best_of(reps):
    results, best = None, float("inf")
    for _ in range(reps):
        results, seconds = _sweep_once()
        best = min(best, seconds)
    return results, best


def test_telemetry_overhead_gate(benchmark):
    telemetry.reset_registry()
    _sweep_once()  # warm caches/BLAS so neither timed run pays them

    telemetry.configure(enabled=False)
    try:
        base_results, t_off = _best_of(REPS)

        trace_path = os.path.join(SAMPLE_DIR, telemetry.TRACE_FILENAME)
        if os.path.exists(trace_path):
            os.remove(trace_path)  # fresh sample, not an append pile
        telemetry.configure(enabled=True, trace_path=trace_path)
        traced_results, t_on = run_once(benchmark, _best_of, REPS)

        spans = telemetry.get_tracer().finished

        # Provenance + registry export beside the trace: the sample
        # artifact CI uploads is exactly what a REPRO_TELEMETRY=<dir>
        # CLI run leaves behind.
        telemetry.write_manifest(
            telemetry.RunManifest.collect(
                "bench:telemetry/overhead", seed=SETTINGS.seed
            )
        )
        telemetry.get_registry().write_json(
            os.path.join(SAMPLE_DIR, telemetry.METRICS_FILENAME)
        )
    finally:
        telemetry.configure_from_env()
        telemetry.reset_registry()

    overhead = t_on / t_off - 1.0
    heading("Telemetry overhead on the set-3 sweep path")
    print(f"  disabled: {t_off:.3f}s   enabled+export: {t_on:.3f}s   "
          f"overhead: {overhead:+.1%} (ceiling {OVERHEAD_CEILING:.0%})")
    print(f"  spans recorded: {len(spans)}   sample: {SAMPLE_DIR}/")

    # Identity first: tracing must never change an outcome.
    assert set(traced_results) == set(base_results)
    for key in base_results:
        assert pickle.dumps(traced_results[key]) == pickle.dumps(
            base_results[key]
        ), key

    # The enabled run actually traced the sweep...
    names = {record["name"] for record in spans}
    assert {"sweep.run", "engine.advance", "infer"} <= names
    assert os.path.exists(trace_path)

    # ...within the overhead ceiling.
    assert overhead <= OVERHEAD_CEILING, (
        f"telemetry overhead {overhead:+.1%} above the "
        f"{OVERHEAD_CEILING:.0%} ceiling"
    )
    emit(
        benchmark,
        "telemetry/overhead",
        measured=overhead,
        gate=OVERHEAD_CEILING,
        spans=len(spans),
    )
