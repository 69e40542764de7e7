"""Streaming-monitor speedup gate: incremental vs per-window recompute.

Not a paper artifact; locks in the streaming subsystem the way
``bench_inference.py`` locks the batched pipeline. Workload: sliding
windows over a long record stream on the 210-path two-tier mesh
(the PR-3 gate topology). Two implementations of the same windowed
verdict sequence:

* **incremental** — :class:`~repro.streaming.window.
  SlidingWindowStats` consuming the stream in chunks: each chunk's
  congestion status and ``sent > 0`` matrices kept as appended, in
  O(new intervals), each window's unsolvability scores from
  sliding-delta member, pair and valid-interval counts and the
  memoized slice batch;
* **recompute** — the offline route per window: build a fresh
  window :class:`MeasurementData`, run
  :func:`~repro.measurement.normalize.batch_slice_observations` and
  score it.

Both sides produce the per-window score arrays that Algorithm 1's
decide + prune tail consumes (the tail is identical work either way
— the verdict is a pure function of the scores, which are asserted
fp-equal window by window; a full
:class:`~repro.streaming.monitor.NeutralityMonitor` equality run is
covered by the streaming test suite).

Gates: ≥ 5× amortized speedup of the incremental window updates over
the per-window full recompute, on the stream as synthesized (every
path sends in every interval) and on the same stream with a few paths
dark in about 30% of intervals, as emulated records are.

A second section monitors a mid-run policing onset on the dumbbell
(fluid substrate, segment mode, one ``monitor_scenario`` run per
window length) and prints the detection-latency table quoted in
EXPERIMENTS.md: intervals until the switch is flagged, per window
length.
"""

import gc
import time

import numpy as np
import pytest
from conftest import BENCH_QUICK, heading, run_once
from _emit import emit

from repro.core.algorithm import DEFAULT_MIN_PATHSETS
from repro.core.slices import (
    batch_unsolvability_arrays,
    build_slice_batch,
)
from repro.experiments.config import EmulationSettings
from repro.measurement.normalize import batch_slice_observations
from repro.measurement.records import MeasurementData, PathRecord
from repro.measurement.synthetic import synthesize_records
from repro.streaming.monitor import monitor_scenario
from repro.streaming.stream import ReplayStream
from repro.streaming.window import SlidingWindowStats
from repro.substrate.scenario import DifferentiationPolicy, Scenario
from repro.topology.generators import (
    random_mesh_network,
    random_two_class_performance,
)

#: Amortized speedup the incremental window updates must reach.
MIN_SPEEDUP = 5.0

#: Gate topology: 21 stubs → 210 paths (same as bench_inference).
GATE_STUBS = 21

#: Stream length / window geometry: a 60 s sliding window
#: re-evaluated every 2.5 s — the monitor CLI's default cadence.
#: Quick mode keeps enough windows that the amortized ratio is
#: stable (the incremental side's cost is dominated by appends,
#: which grow sub-linearly in window count).
NUM_INTERVALS = 1800 if BENCH_QUICK else 2400
WINDOW = 600
STRIDE = 25

SETTINGS = EmulationSettings()


#: Dark paths of the second gate stream, and the share of intervals
#: in which each sends nothing (topology B's dark paths send in
#: 40–86% of intervals).
DARK_PATHS = 4
DARK_SHARE = 0.3


def _mesh_stream(seed=42, dark=False):
    """The gate's record stream; with ``dark``, a seeded few paths are
    silent in about 30% of intervals, so σ groups have their own valid
    intervals."""
    rng = np.random.default_rng(seed)
    net = random_mesh_network(rng, num_stubs=GATE_STUBS, extra_edges=6)
    perf, _ = random_two_class_performance(
        np.random.default_rng(seed + 1), net, num_violations=3
    )
    data = synthesize_records(
        perf,
        np.random.default_rng(seed + 100),
        num_intervals=NUM_INTERVALS,
    )
    if dark:
        holes = np.random.default_rng(seed + 200)
        sent, lost = data.sent_matrix.copy(), data.lost_matrix.copy()
        rows = holes.choice(sent.shape[0], DARK_PATHS, replace=False)
        silent = holes.random((DARK_PATHS, NUM_INTERVALS)) < DARK_SHARE
        sent[rows] = np.where(silent, 0, sent[rows])
        lost[rows] = np.where(silent, 0, lost[rows])
        data = MeasurementData.from_matrices(
            data.path_ids, sent, lost, data.interval_seconds
        )
    return net, data


def _window_bounds():
    return [
        (end - WINDOW, end)
        for end in range(WINDOW, NUM_INTERVALS + 1, STRIDE)
    ]


def _run_incremental(net, data):
    """Stream chunks in, emit every due window's score array."""
    stats = SlidingWindowStats(net, loss_threshold=SETTINGS.loss_threshold)
    scores = []
    next_end = WINDOW
    for chunk in ReplayStream(data, chunk_intervals=STRIDE):
        stats.append(chunk)
        while next_end <= stats.num_intervals:
            y_member, y_pair = stats.window_costs(
                next_end - WINDOW, next_end
            )
            scores.append(
                batch_unsolvability_arrays(stats.batch, y_member, y_pair)
            )
            next_end += STRIDE
    return scores


def _run_recompute(net, data):
    """The offline route, once per window, from the raw records."""
    batch, _ = build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    scores = []
    path_ids = data.path_ids
    sent = data.sent_matrix
    lost = data.lost_matrix
    for lo, hi in _window_bounds():
        window = MeasurementData(
            [
                PathRecord(pid, sent[i, lo:hi], lost[i, lo:hi])
                for i, pid in enumerate(path_ids)
            ],
            data.interval_seconds,
        )
        _, y_member, y_pair = batch_slice_observations(
            window, batch, loss_threshold=SETTINGS.loss_threshold
        )
        scores.append(
            batch_unsolvability_arrays(batch, y_member, y_pair)
        )
    return scores


@pytest.mark.parametrize(
    "dark", [False, True], ids=["all-traffic", "dark-paths"]
)
def test_streaming_speedup_gate(benchmark, dark):
    net, data = _mesh_stream(dark=dark)
    assert len(net.paths) >= 200
    assert (data.sent_matrix == 0).any() == dark
    # Warm both routes end to end (BLAS init, the memoized slice
    # batch, allocator steady state) so the timings compare the
    # algorithms, not first-call effects.
    _run_incremental(net, data)
    _run_recompute(net, data)

    gc.collect()
    t0 = time.perf_counter()
    recomputed = _run_recompute(net, data)
    t_full = time.perf_counter() - t0

    gc.collect()
    t0 = time.perf_counter()
    incremental = run_once(benchmark, _run_incremental, net, data)
    t_inc = time.perf_counter() - t0

    num_windows = len(_window_bounds())
    assert len(incremental) == num_windows == len(recomputed)
    speedup = t_full / t_inc
    heading(
        f"windowed scores on |P|={len(net.paths)} mesh"
        f"{' with dark paths' if dark else ''}: "
        f"{num_windows} windows of {WINDOW} intervals (stride "
        f"{STRIDE}) — recompute {t_full:.2f} s, incremental "
        f"{t_inc:.3f} s → {speedup:.1f}x"
    )

    # Equality, not just speed: fp-identical score arrays per window
    # (the decide + prune tail is a pure function of these).
    for inc, full in zip(incremental, recomputed):
        np.testing.assert_array_equal(inc, full)

    assert speedup >= MIN_SPEEDUP, (
        f"incremental window updates {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x gate"
    )
    emit(benchmark, "streaming/speedup" + ("-dark" if dark else ""),
         measured=speedup, gate=MIN_SPEEDUP)


def test_onset_detection_latency_table(benchmark):
    """Mid-run policing onset on the dumbbell: intervals until the
    monitor flags the shared link, per window length — the
    EXPERIMENTS.md streaming table."""
    settings = EmulationSettings(
        duration_seconds=30.0 if BENCH_QUICK else 60.0,
        warmup_seconds=5.0,
        seed=3,
    )
    onset = 100 if BENCH_QUICK else 200
    scenario = Scenario(
        name="bench-onset",
        topology="dumbbell",
        policy=DifferentiationPolicy(mechanism="policing"),
        settings=settings,
    )

    def _measure():
        rows = []
        for window in (50, 100, 150):
            report, _ = monitor_scenario(
                scenario,
                chunk_intervals=25,
                window_intervals=window,
                stride=25,
                onset_interval=onset,
            )
            rows.append((window, report.detection_delay(("l5",), onset)))
        return rows

    rows = run_once(benchmark, _measure)
    heading(
        f"onset-detection latency (policing switched on at interval "
        f"{onset}; stride 25)"
    )
    print(f"{'window':>8} {'delay (intervals)':>18} {'delay (s)':>10}")
    for window, delay in rows:
        shown = str(delay) if delay is not None else "miss"
        secs = (
            f"{delay * settings.interval_seconds:.1f}"
            if delay is not None
            else "-"
        )
        print(f"{window:>8} {shown:>18} {secs:>10}")
    # The switch is detected at every window size, never before the
    # onset (positive delay), within a bounded lag (policer bucket +
    # TCP adaptation put the floor near 100 intervals; see the
    # EXPERIMENTS.md discussion).
    for window, delay in rows:
        assert delay is not None, f"window {window}: onset missed"
        assert 0 < delay <= 250, f"window {window}: delay {delay}"
    emit(
        benchmark,
        "streaming/onset-latency",
        measured=max(delay for _, delay in rows),
        gate=250,
        delays={str(w): d for w, d in rows},
    )
