"""The benchmark workloads.

``run.py`` runs ``sweep-table2``, ``infer-fed`` and ``monitor-replay``;
``monitor-packet`` is traced inside ``monitor-replay``'s traced run
only (see :class:`MonitorPacket`).

Each workload owns its inputs: it derives them from the workload seed,
hands the program only the generated topology, records, sweep points
or switch schedule, and checks every operation's output against
``reference.json``. A workload runs in four steps, driven by
``worker.py``:

* ``setup(clock)`` — import the program, build the topology and
  generate the inputs (the ``inputs`` part is not counted as set-up);
* ``cold(clock)`` — the first operation, which fills the program's
  lazy caches and pools;
* ``measure(seconds)`` — warm operations until the time is up;
* ``trace(tracer, clock)`` — the traced run: the same operations split
  into calls to each layer's public functions, each inside a
  benchmark-owned span. It replaces ``cold`` and ``measure``.

Seeds: the workload seed picks one entry of the workload's ``POOL``
(``seed % len(POOL)``); every pool entry was checked when the
benchmark was made, and its expected outputs are in ``reference.json``
(``python3 perfbench/worker.py --workload NAME --mode record``
re-records them).

Nothing here imports the program or numpy at module level: set-up
time is counted from the first program import.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def load_reference(name):
    """The recorded outputs of workload ``name``, keyed by pool seed."""
    with open(REFERENCE) as fh:
        return json.load(fh).get(name, {})


class Clock:
    """Named wall-time parts of one set-up."""

    def __init__(self):
        self.parts = {}

    @contextmanager
    def part(self, name):
        start = perf_counter()
        try:
            yield
        finally:
            self.parts[name] = (
                self.parts.get(name, 0.0) + perf_counter() - start
            )


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _sigma_names(sigmas):
    """Link sequences as sorted ``a+b`` strings (JSON-friendly)."""
    return sorted("+".join(sigma) for sigma in sigmas)


class Log:
    """Operations attempted and failed, and the latency samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.latencies = []
        self.units = 0.0
        self.wall = 0.0

    def outcome(self, ok, count=1, failed=None):
        """Book ``count`` operations, ``failed`` of them (default: all
        of them when ``ok`` is false)."""
        self.attempted += count
        if failed is None:
            failed = 0 if ok else count
        self.failed += failed

    def error(self, exc):
        self.errors.append(repr(exc))


class Workload:
    """Shared seed handling and bookkeeping."""

    name = ""
    POOL = ()

    def __init__(self, seed, reference):
        self.seed = seed
        self.pool_seed = self.POOL[seed % len(self.POOL)]
        self.reference = reference
        self.log = Log()
        self.digest = None

    def expected(self, key=None):
        return self.reference[str(self.pool_seed if key is None else key)]

    def _digest(self, *parts):
        h = hashlib.sha256()
        for part in parts:
            h.update(part if isinstance(part, bytes) else repr(part).encode())
        self.digest = h.hexdigest()

    def close(self):
        pass


def _layer_probe(name, fn):
    """Run one optional layer probe; a layer whose public function is
    gone or fails reports zeros instead of ending the traced run."""
    try:
        fn()
    except Exception as exc:  # boundary: report, keep tracing the rest
        print(f"perfbench: layer probe {name} failed: {exc!r}",
              file=sys.stderr)


# ----------------------------------------------------------------------
# sweep-table2
# ----------------------------------------------------------------------


class SweepTable2(Workload):
    """Table 2 sets 4 and 6 on the fluid substrate through one warm
    two-worker ``SweepRunner`` (no cache, default batching); one
    latency sample per sweep, eight points each."""

    name = "sweep-table2"
    POOL = (1, 2, 3, 4, 5, 6)
    SETS = (4, 6)
    # 60 s points (the CLI default is 120 s) keep three cold and three
    # warm sweeps per timed run inside the benchmark's time budget on a
    # slow host; verdicts at 60 s match the 120 s ones at every pool seed.
    DURATION = 60.0
    WORKERS = 2

    def setup(self, clock):
        with clock.part("import"):
            from repro.experiments.config import EmulationSettings
            from repro.experiments.sweep import SweepRunner
            from repro.experiments.topology_a import sweep_points
        with clock.part("build"):
            self.settings = EmulationSettings(
                duration_seconds=self.DURATION, seed=self.pool_seed
            )
            self.points = sweep_points(self.SETS, self.settings)
            self.runner = SweepRunner.for_settings(
                self.settings, workers=self.WORKERS
            )
        with clock.part("inputs"):
            self._digest(*[
                (p.key, sorted(p.kwargs.items()), p.seed, p.substrate,
                 p.batch_group)
                for p in self.points
            ])

    def _wrong(self, results):
        """Points whose verdict differs from the reference."""
        expect = self.expected()
        wrong = sum(
            1 for key, outcome in results.items()
            if bool(outcome.verdict_non_neutral) != expect[key]
        )
        return wrong + sum(1 for key in expect if key not in results)

    def sweep(self):
        gc.collect()
        start = perf_counter()
        try:
            results = self.runner.run(self.points)
        except Exception as exc:  # a raising sweep fails its points
            self.log.error(exc)
            results = None
        elapsed = perf_counter() - start
        n = len(self.points)
        if results is None:
            self.log.outcome(False, count=n)
        else:
            self.log.outcome(True, count=n, failed=self._wrong(results))
        return elapsed

    def cold(self, clock):
        with clock.part("cold"):
            self.sweep()
        self.pool_setup_s = self.runner.stats.pool_setup_seconds

    def measure(self, seconds):
        log = self.log
        while log.wall < seconds:
            elapsed = self.sweep()
            log.latencies.append(elapsed)
            log.units += len(self.points)
            log.wall += elapsed

    def trace(self, tr, clock):
        from repro.experiments.runner import outcome_from_emulation
        from repro.experiments.sweep import SweepRunner, derive_seed
        from repro.experiments.topology_a import build_experiment
        from repro.substrate.batch import ScenarioBatch, run_scenario_batch
        from repro.substrate.registry import get_substrate
        from repro.substrate.spec import normalize_specs
        from repro.topology.dumbbell import SHARED_LINK, build_dumbbell

        out = {}
        self.cold(clock)
        out["sweep.pool_setup_s"] = self.pool_setup_s
        self.sweep()
        stats = self.runner.stats
        out["sweep.batches"] = stats.batches
        out["sweep.batched_points"] = stats.batched_points
        out["sweep.parallel_eff"] = stats.executed_seconds / (
            stats.workers * stats.wall_seconds
        )

        # The same sweep inline, untraced: the base of the overhead.
        with SweepRunner.for_settings(self.settings, workers=1) as inline:
            gc.collect()
            start = perf_counter()
            inline.run(self.points)
            untraced = perf_counter() - start

        settings = self.settings
        fluid = get_substrate("fluid")
        singles = [p for p in self.points if p.batch_func is None]
        grouped = [p for p in self.points if p.batch_func is not None]
        results = {}

        def finish(point, topo, exp, emulation, seed):
            truth = {SHARED_LINK} if exp.expect_non_neutral else set()
            with tr.span("runner.infer_tail"):
                results[point.key] = outcome_from_emulation(
                    topo.network, topo.classes, exp.workloads, emulation,
                    settings=settings.with_seed(seed),
                    ground_truth_links=truth,
                )

        gc.collect()
        with tr.span("op"):
            for point in singles:
                seed = derive_seed(settings.seed, point.key)
                with tr.span("topology.build"):
                    exp = build_experiment(
                        point.kwargs["set_number"], point.kwargs["value"]
                    )
                    topo = build_dumbbell(
                        mechanism=exp.mechanism,
                        rate_fraction=exp.rate_fraction,
                    )
                with tr.span("substrate.compile"):
                    specs = normalize_specs(topo.link_specs)
                with tr.span("fluid.single"):
                    emulation = fluid.run(
                        topo.network, topo.classes, specs, exp.workloads,
                        settings.with_seed(seed),
                    )
                finish(point, topo, exp, emulation, seed)
            if grouped:
                seeds = [derive_seed(settings.seed, p.key) for p in grouped]
                with tr.span("topology.build"):
                    exps = [
                        build_experiment(
                            p.kwargs["set_number"], p.kwargs["value"]
                        )
                        for p in grouped
                    ]
                    topos = [
                        build_dumbbell(
                            mechanism=e.mechanism,
                            rate_fraction=e.rate_fraction,
                        )
                        for e in exps
                    ]
                with tr.span("substrate.compile"):
                    batch = ScenarioBatch.compile(
                        topos[0].network, topos[0].classes,
                        exps[0].workloads,
                        [t.link_specs for t in topos], seeds,
                    )
                with tr.span("fluid.batch"):
                    emulations = run_scenario_batch(batch, settings, "fluid")
                for point, exp, emulation, seed in zip(
                    grouped, exps, emulations, seeds
                ):
                    finish(point, topos[0], exp, emulation, seed)
        self.log.outcome(
            True, count=len(self.points), failed=self._wrong(results)
        )

        steps = int(round(
            (settings.warmup_seconds + settings.duration_seconds)
            / settings.dt
        ))
        single_s = tr.per_call("fluid.single")
        batch_s = tr.total("fluid.batch") / max(1, len(grouped))
        out.update({
            "topology.build_s": tr.total("topology.build"),
            "substrate.compile_s": tr.total("substrate.compile"),
            "fluid.single_s": single_s,
            "fluid.batch_s_per_scenario": batch_s,
            "fluid.steps": steps,
            "fluid.step_us_single": single_s / steps * 1e6,
            "fluid.step_us_batch": batch_s / steps * 1e6,
            "runner.infer_tail_s": tr.per_call("runner.infer_tail"),
            "trace.overhead_frac": tr.total("op") / untraced - 1.0,
        })
        return out

    def record(self, clock):
        entries = {}
        for pool_seed in self.POOL:
            self.pool_seed = pool_seed
            self.setup(clock)
            try:
                results = self.runner.run(self.points)
            finally:
                self.runner.close()
            verdicts = {
                key: bool(outcome.verdict_non_neutral)
                for key, outcome in results.items()
            }
            missed = sorted(k for k, v in verdicts.items() if not v)
            # Every point polices class c2; only the 10000 Mb-flow point
            # of set 4 is known to be missed.
            if missed != ["topoA/set4/10000.0"]:
                raise RuntimeError(f"pool seed {pool_seed} misses {missed}")
            entries[str(pool_seed)] = verdicts
        return entries

    def close(self):
        runner = getattr(self, "runner", None)
        if runner is not None:
            runner.close()


# ----------------------------------------------------------------------
# infer-fed
# ----------------------------------------------------------------------


class InferFed(Workload):
    """Records → verdict on the 8×13 federated topology (5356 paths),
    default ``infer_from_measurements`` on a warm network. Record sets
    rotate, and each operation gets a fresh ``MeasurementData``, so no
    per-data cache serves a repeat."""

    name = "infer-fed"
    POOL = tuple(range(8))
    SHAPE = (8, 13)
    INTERVALS = 240
    VIOLATIONS = 4
    SETS = 3

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        self.record_seeds = [
            self.POOL[(seed * self.SETS + k) % len(self.POOL)]
            for k in range(self.SETS)
        ]
        self.turn = 0

    def _generate(self, record_seed):
        import numpy as np

        from repro.measurement.synthetic import synthesize_records
        from repro.topology.generators import random_two_class_performance

        perf, _ = random_two_class_performance(
            np.random.default_rng(record_seed), self.net,
            num_violations=self.VIOLATIONS,
        )
        data = synthesize_records(
            perf, np.random.default_rng(10_000 + record_seed),
            num_intervals=self.INTERVALS,
        )
        return data.path_ids, data.sent_matrix, data.lost_matrix

    def setup(self, clock):
        with clock.part("import"):
            from repro.experiments.runner import infer_from_measurements
            from repro.measurement.records import MeasurementData, PathRecord
            from repro.topology.multi_isp import build_federated_multi_isp
        self._infer = infer_from_measurements
        self._data_types = (MeasurementData, PathRecord)
        with clock.part("build"):
            self.fed = build_federated_multi_isp(*self.SHAPE)
            self.net = self.fed.network
        with clock.part("inputs"):
            self.sets = [self._generate(s) for s in self.record_seeds]
            self._digest(
                self.net.path_ids, self.net.link_ids,
                *[(ids, sent.tobytes(), lost.tobytes())
                  for ids, sent, lost in self.sets],
            )

    def fresh(self, k):
        """A new ``MeasurementData`` over record set ``k``."""
        MeasurementData, PathRecord = self._data_types
        ids, sent, lost = self.sets[k]
        return MeasurementData(
            [PathRecord(pid, sent[i], lost[i]) for i, pid in enumerate(ids)],
            0.1,
        )

    def _check(self, k, result):
        return _sigma_names(result.identified) == self.expected(
            self.record_seeds[k]
        )

    def verdict(self):
        k = self.turn % self.SETS
        self.turn += 1
        data = self.fresh(k)
        gc.collect()
        start = perf_counter()
        try:
            _, result = self._infer(self.net, data)
        except Exception as exc:  # a raising verdict is a failed one
            self.log.error(exc)
            result = None
        elapsed = perf_counter() - start
        self.log.outcome(result is not None and self._check(k, result))
        return elapsed

    def cold(self, clock):
        with clock.part("cold"):
            self.verdict()

    def measure(self, seconds):
        log = self.log
        while log.wall < seconds:
            elapsed = self.verdict()
            log.latencies.append(elapsed)
            log.units += 1
            log.wall += elapsed

    def trace(self, tr, clock):
        from repro.core.algorithm import (
            DEFAULT_MIN_PATHSETS,
            identify_from_scores,
        )
        from repro.core.slices import (
            batch_unsolvability_arrays,
            build_slice_batch,
        )
        from repro.experiments.config import EmulationSettings
        from repro.measurement.clustering import make_cluster_decider
        from repro.measurement.normalize import batch_slice_observations

        st = EmulationSettings()
        net = self.net
        out = {"topology.build_s": clock.parts["build"]}

        def staged(k, op_name):
            """``infer_from_measurements``' four stages, in order."""
            data = self.fresh(k)
            gc.collect()
            with tr.span(op_name):
                with tr.span("core.slices"):
                    batch, skipped = build_slice_batch(
                        net, DEFAULT_MIN_PATHSETS
                    )
                with tr.span("measurement.normalize"):
                    _, y_single, y_pair = batch_slice_observations(
                        data, batch, loss_threshold=st.loss_threshold,
                        mode=st.normalization_mode, materialize=True,
                    )
                with tr.span("core.score"):
                    score_array = batch_unsolvability_arrays(
                        batch, y_single, y_pair
                    )
                scores = {
                    sigma: float(score)
                    for sigma, score in zip(batch.sigmas, score_array)
                }
                decider = make_cluster_decider(
                    min_absolute=st.decider_min_absolute,
                    min_ratio=st.decider_min_ratio,
                    definite=st.decider_definite,
                )
                with tr.span("core.decide"):
                    result = identify_from_scores(
                        batch, skipped, scores, decider,
                        include_systems=True,
                    )
            self.log.outcome(self._check(k, result))
            with tr.span("measurement.normalize_nomat"):
                batch_slice_observations(
                    data, batch, loss_threshold=st.loss_threshold,
                    mode=st.normalization_mode, materialize=False,
                )
            return batch, y_pair

        staged(0, "cold")
        out["core.slices_cold_s"] = tr.total("core.slices")
        out["core.decide_cold_s"] = tr.total("core.decide")
        tr.reset()
        for k in (1, 2):
            batch, y_pair = staged(k, "op")
        untraced = [self.verdict() for _ in range(2)]
        out.update({
            "core.slices_s": tr.per_call("core.slices"),
            "measurement.normalize_s": tr.per_call("measurement.normalize"),
            "measurement.normalize_nomat_s": tr.per_call(
                "measurement.normalize_nomat"
            ),
            "core.score_s": tr.per_call("core.score"),
            "core.decide_s": tr.per_call("core.decide"),
            "core.sigmas": len(batch.sigmas),
            "core.pairs": len(y_pair),
            "trace.overhead_frac": tr.per_call("op") / _mean(untraced) - 1.0,
        })
        _layer_probe("sharding", lambda: self._trace_shards(tr, out))
        return out

    def _trace_shards(self, tr, out):
        from repro.core.sharding import infer_sharded
        from repro.parallel import ShardExecutor

        plan = self.fed.shard_plan()

        def timed(name, **kwargs):
            infer_sharded(self.net, self.fresh(1), plan, **kwargs)  # warm
            data = self.fresh(2)
            gc.collect()
            with tr.span(name):
                _, result = infer_sharded(self.net, data, plan, **kwargs)
            self.log.outcome(self._check(2, result))
            out[name + "_s"] = tr.total(name)

        timed("sharding.seq", workers=1)
        for mode in ("process", "thread"):
            with ShardExecutor(workers=2, mode=mode) as executor:
                timed(f"parallel.{mode}2", executor=executor)

    def record(self, clock):
        self.record_seeds = list(self.POOL)
        self.SETS = len(self.POOL)
        self.setup(clock)
        entries = {}
        for k, record_seed in enumerate(self.record_seeds):
            _, result = self._infer(self.net, self.fresh(k))
            if not result.identified:
                raise RuntimeError(f"record seed {record_seed}: no verdict")
            entries[str(record_seed)] = _sigma_names(result.identified)
        return entries


# ----------------------------------------------------------------------
# monitor-replay and monitor-packet
# ----------------------------------------------------------------------


class _Monitor(Workload):
    """A record stream fed chunk by chunk into a ``NeutralityMonitor``.

    Subclasses provide ``start()`` (a fresh stream and monitor),
    ``step(observe)`` (one chunk: ``(seconds, intervals, sampled)`` or
    None at the end), ``summary(report)`` and ``valid(summary)``, the
    property every pool seed must show.
    """

    def finish(self):
        """Close the stream: final report and its check."""
        try:
            summary = self.summary(self.monitor.report())
            ok = self.valid(summary) and summary == self.expected()
        except Exception as exc:  # a raising report fails its stream
            self.log.error(exc)
            ok = False
        self.log.outcome(ok)

    def cold(self, clock):
        with clock.part("cold"):
            self.start()
            while True:
                stepped = self.step()
                if stepped is None or stepped[2]:
                    break

    def _run_stream(self):
        """Observe the rest of the current stream, timing each chunk."""
        log = self.log
        start = perf_counter()
        try:
            while True:
                stepped = self.step()
                if stepped is None:
                    break
                elapsed, intervals, sampled = stepped
                if sampled:
                    log.latencies.append(elapsed)
                log.units += intervals
            self.finish()
        except Exception as exc:  # a raising stream is a failed one
            log.error(exc)
            log.outcome(False)
        log.wall += perf_counter() - start

    def measure(self, seconds):
        self._run_stream()
        while self.log.wall < seconds:
            gc.collect()
            start = perf_counter()
            self.start()
            self.log.wall += perf_counter() - start
            self._run_stream()

    def _untraced_stream(self):
        gc.collect()
        start = perf_counter()
        self.start()
        self._run_stream()
        return perf_counter() - start

    def _traced_stream(self, tr):
        """One stream with spans around ``observe`` and the two window
        stages it calls (the CUSUM update is ``observe``'s self time)."""
        gc.collect()
        with tr.span("op"):
            with tr.span("stream.start"):
                self.start()
            tr.wrap(self.monitor.stats, "append", "streaming.append")
            tr.wrap(self.monitor, "evaluate_window", "streaming.evaluate")
            observe = tr.wrapped(self.monitor.observe, "streaming.observe")
            while self.step(observe) is not None:
                pass
            tr.unwrap(self.monitor.stats, "append")
            tr.unwrap(self.monitor, "evaluate_window")
            self.finish()

    def _streaming_layers(self, tr):
        windows = tr.count("streaming.evaluate")
        return {
            "streaming.append_ms": tr.per_call("streaming.append") * 1e3,
            "streaming.evaluate_ms": tr.per_call("streaming.evaluate") * 1e3,
            "streaming.cusum_ms": (
                tr.self_total("streaming.observe") / windows * 1e3
                if windows else 0.0
            ),
            "streaming.observe_ms": tr.per_call("streaming.observe") * 1e3,
        }

    def record(self, clock):
        entries = {}
        for pool_seed in self.POOL:
            self.pool_seed = pool_seed
            self.setup(clock)
            self.start()
            while self.step() is not None:
                pass
            summary = self.summary(self.monitor.report())
            if not self.valid(summary):
                raise RuntimeError(f"pool seed {pool_seed} fails: {summary}")
            entries[str(pool_seed)] = summary
        return entries


class MonitorReplay(_Monitor):
    """A 1225-path federated stream (5×10) of 1200 intervals: neutral
    for 600, then 4 planted violations; replayed in 25-interval chunks
    into ``NeutralityMonitor(window_intervals=100, stride=25)``. One
    latency sample per window-emitting ``observe`` call."""

    name = "monitor-replay"
    POOL = tuple(range(6))
    SHAPE = (5, 10)
    HALF = 600
    VIOLATIONS = 4
    CHUNK = 25
    WINDOW = 100

    def setup(self, clock):
        with clock.part("import"):
            import numpy as np

            from repro.core.performance import (
                LinkPerformance,
                NetworkPerformance,
            )
            from repro.measurement.records import MeasurementData, PathRecord
            from repro.measurement.synthetic import synthesize_records
            from repro.streaming.monitor import NeutralityMonitor
            from repro.streaming.stream import ReplayStream
            from repro.topology.generators import random_two_class_performance
            from repro.topology.multi_isp import build_federated_multi_isp
        self._monitor_type = NeutralityMonitor
        self._replay = ReplayStream
        with clock.part("build"):
            self.net = build_federated_multi_isp(*self.SHAPE).network
        with clock.part("inputs"):
            net = self.net
            perf, classes = random_two_class_performance(
                np.random.default_rng(self.pool_seed), net,
                num_violations=self.VIOLATIONS,
            )
            # The neutral half keeps every link's base cost and drops
            # the violations, so the only change at HALF is the onset.
            neutral = NetworkPerformance(net, classes, {
                lid: LinkPerformance.neutral(
                    min(perf.link_performance(lid).for_class(c)
                        for c in classes.names),
                    classes.names,
                )
                for lid in net.link_ids
            })
            before = synthesize_records(
                neutral, np.random.default_rng(1_000 + self.pool_seed),
                num_intervals=self.HALF,
            )
            after = synthesize_records(
                perf, np.random.default_rng(2_000 + self.pool_seed),
                num_intervals=self.HALF,
            )
            sent = np.hstack([before.sent_matrix, after.sent_matrix])
            lost = np.hstack([before.lost_matrix, after.lost_matrix])
            self.data = MeasurementData(
                [PathRecord(pid, sent[i], lost[i])
                 for i, pid in enumerate(before.path_ids)],
                before.interval_seconds,
            )
            self._digest(net.path_ids, net.link_ids, sent.tobytes(),
                         lost.tobytes(), self.HALF)

    def start(self):
        self.monitor = self._monitor_type(
            self.net, window_intervals=self.WINDOW, stride=self.CHUNK
        )
        self.chunks = iter(self._replay(self.data, chunk_intervals=self.CHUNK))

    def step(self, observe=None):
        chunk = next(self.chunks, None)
        if chunk is None:
            return None
        observe = observe or self.monitor.observe
        start = perf_counter()
        emitted = observe(chunk)
        return perf_counter() - start, chunk.sent.shape[1], bool(emitted)

    def summary(self, report):
        onsets = [cp.interval for cp in report.change_points
                  if cp.kind == "onset"]
        final = report.final.identified if report.final else ()
        return {
            "first_onset": min(onsets) if onsets else None,
            "final": _sigma_names(final),
        }

    def valid(self, summary):
        """No onset before the planted one, and the first within one
        window after it."""
        first = summary["first_onset"]
        return first is not None and (
            self.HALF < first <= self.HALF + self.WINDOW
        )

    def trace(self, tr, clock):
        self.cold(clock)
        self._run_stream()
        untraced = [self._untraced_stream() for _ in range(2)]
        for _ in range(2):
            self._traced_stream(tr)
        out = self._streaming_layers(tr)
        out["topology.build_s"] = clock.parts["build"]
        out["trace.overhead_frac"] = (
            tr.per_call("op") / _mean(untraced) - 1.0
        )
        _layer_probe("emulator", lambda: out.update(self._trace_packet(tr)))
        return out

    def _trace_packet(self, tr):
        """The packet-engine layers, from one ``monitor-packet`` stream
        outside the ``op`` spans; its check counts in this run's log."""
        packet = MonitorPacket(self.seed, load_reference(MonitorPacket.name))
        packet.log = self.log
        clock = Clock()
        packet.setup(clock)
        return packet.trace(tr, clock)


class MonitorPacket(_Monitor):
    """A live packet-substrate ``EmulationStream`` on the dumbbell,
    240 s, with policing at 30% switched on at 120 s through
    ``set_link_specs``; chunk 25, window 100. One latency sample per
    emulated-and-observed chunk.

    Not a benchmark workload: a stream is pure-Python packet work, and
    on a shared 2-vCPU host whose speed switches between two levels
    ~35% apart for a minute or more, the throughput of ten timed runs
    of three streams each spread (IQR/median) by up to 0.25, and of five
    runs of six streams by 0.31: past the bound either way.
    ``monitor-replay``'s traced run traces one stream for the packet
    layers instead."""

    name = "monitor-packet"
    # Seeds whose stream raises no flag before the onset (about half of
    # seeds 1-32 do, a known false positive) and whose packet counts lie
    # within 5% of each other, so every seed asks for the same work.
    POOL = (6, 10, 15, 17, 19, 23)
    DURATION = 240.0
    WARMUP = 5.0
    ONSET_SECONDS = 120.0
    RATE = 0.3
    CHUNK = 25
    WINDOW = 100

    def setup(self, clock):
        with clock.part("import"):
            from dataclasses import replace

            from repro.experiments.config import EmulationSettings
            from repro.experiments.runner import measured_subnetwork
            from repro.streaming.monitor import NeutralityMonitor
            from repro.streaming.stream import EmulationStream
            from repro.substrate.scenario import (
                DifferentiationPolicy,
                Scenario,
                compile_scenario,
            )
        self._types = (EmulationStream, NeutralityMonitor)
        with clock.part("inputs"):
            self.settings = EmulationSettings(
                duration_seconds=self.DURATION,
                warmup_seconds=self.WARMUP,
                seed=self.pool_seed,
            )
            scenario = Scenario(
                name="perfbench-packet",
                topology="dumbbell",
                substrate="packet",
                policy=DifferentiationPolicy(
                    mechanism="policing", rate_fraction=self.RATE
                ),
                settings=self.settings,
            )
            self.onset = int(round(
                self.ONSET_SECONDS / self.settings.interval_seconds
            ))
            self._digest(scenario, self.onset, self.CHUNK, self.WINDOW)
        with clock.part("build"):
            self.on = compile_scenario(scenario)
            self.off = compile_scenario(replace(scenario, policy=None))
            self.inference_net = measured_subnetwork(
                self.on.network, self.on.workloads
            )

    def start(self):
        EmulationStream, NeutralityMonitor = self._types
        on = self.on
        self.stream = EmulationStream(
            on.network, on.classes, self.off.link_specs, on.workloads,
            settings=self.settings, substrate="packet",
            chunk_intervals=self.CHUNK,
            switches={self.onset: on.link_specs},
            keep_ground_truth=False,
        )
        self.monitor = NeutralityMonitor(
            self.inference_net, settings=self.settings,
            window_intervals=self.WINDOW, stride=self.CHUNK,
        )
        self.chunks = iter(self.stream)
        self.pkts = 0

    def step(self, observe=None):
        observe = observe or self.monitor.observe
        start = perf_counter()
        chunk = next(self.chunks, None)
        if chunk is None:
            return None
        observe(chunk)
        elapsed = perf_counter() - start
        self.pkts += int(chunk.sent.sum())
        return elapsed, chunk.sent.shape[1], True

    def summary(self, report):
        onsets = [(cp.sigma, cp.interval) for cp in report.change_points
                  if cp.kind == "onset"]
        truth = self.on.ground_truth_links
        hits = [i for sigma, i in onsets if set(sigma) & truth]
        final = report.final.identified if report.final else ()
        return {
            "pre_onset_flags": sum(1 for _, i in onsets if i <= self.onset),
            "delay": min(hits) - self.onset if hits else None,
            "final": _sigma_names(final),
        }

    def valid(self, summary):
        """No flag before the switch, the switch detected, and the
        policed shared link as the final verdict."""
        return (
            summary["pre_onset_flags"] == 0
            and summary["delay"] is not None
            and summary["final"] == ["l5"]
        )

    def trace(self, tr, clock):
        """A stream after the cold first chunk, with spans around the
        packet session's ``advance`` and ``set_link_specs``."""
        self.cold(clock)
        gc.collect()
        with tr.span("packet.start"):
            self.start()
        tr.wrap(self.stream.session, "advance", "emulator.advance")
        tr.wrap(self.stream.session, "set_link_specs", "substrate.swap")
        while self.step() is not None:
            pass
        self.finish()
        advance = tr.total("emulator.advance")
        return {
            "substrate.compile_s": (
                clock.parts["build"] + tr.total("packet.start")
            ),
            "substrate.swap_s": tr.total("substrate.swap"),
            "emulator.advance_s": tr.per_call("emulator.advance"),
            "emulator.pkts": self.pkts,
            "emulator.pkts_per_s": self.pkts / advance if advance else 0.0,
        }


#: Every workload ``worker.py`` can set up, measure, trace or record;
#: ``run.py`` runs all but ``monitor-packet`` (see its docstring).
WORKLOADS = {
    cls.name: cls
    for cls in (SweepTable2, InferFed, MonitorReplay, MonitorPacket)
}
