"""Benchmark entry point: end-to-end and per-layer numbers of one workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``sweep-table2``,
``infer-fed``, ``monitor-replay``.

``--trace 0`` is a timed run: three fresh interpreters (``worker.py``)
one after the other, each setting up once and then measuring for a
third of ``--seconds``, so the samples spread over the whole run. It
reports the end-to-end metrics: ``setup_s`` (median of the three
set-ups: program import, topology build/compile and the first, cold
operation; input generation is not counted), ``peak_rss_mb`` (largest
of the processes and their pool workers), ``throughput`` (work units
per second: sweep points, verdicts, or record intervals). The
latency median and p90 over the pooled samples (one per sweep,
verdict, or window-emitting ``observe`` call) are printed beside them.

``--trace 1`` is the traced run: one process that splits the same
operations into calls to each layer's public functions, inside
benchmark-owned spans, and reports the per-layer metrics
(``layers.json`` says which end-to-end metric each should move). A
layer the workload does not use reports 0. ``monitor-replay``'s traced
run also traces one live packet-engine stream for the emulator and
spec-swap layers, which no timed workload runs.

Every process runs with ``REPRO_TELEMETRY`` and ``REPRO_INFER_WORKERS``
unset, ``REPRO_KERNEL=numpy``, one BLAS thread and ``PYTHONHASHSEED=0``.
The last line of standard output is the JSON result; the details (run
manifest, input digest, samples) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Fresh processes per timed run, each one set-up sample.
PROCESSES = 3
#: Fresh-interpreter ``import repro.cli`` samples per traced run.
IMPORT_SAMPLES = 3
#: Wall-clock cap on any one child process, in seconds.
CHILD_TIMEOUT = 150

#: The names the workload descriptions use for the figures, printed
#: beside the metrics: (alias, figure, scale, unit). Latencies are
#: printed only: on a shared 2-vCPU host their run-to-run spread
#: reaches the largest allowed bound, and the sweep and verdict
#: workloads take too few samples for a tail percentile.
ALIASES = {
    "sweep-table2": [("points_per_s", "throughput", 1.0, "points/s")],
    "infer-fed": [("verdict_s_p50", "latency_p50_ms", 1e-3, "s")],
    "monitor-replay": [
        ("window_ms_p50", "latency_p50_ms", 1.0, "ms"),
        ("window_ms_p90", "latency_p90_ms", 1.0, "ms"),
    ],
}


class BenchError(RuntimeError):
    """A child process crashed or overran: the run has no result."""


def pinned_env():
    env = dict(os.environ)
    for key in ("REPRO_TELEMETRY", "REPRO_INFER_WORKERS"):
        env.pop(key, None)
    env.update(
        REPRO_KERNEL="numpy",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.path.join(ROOT, "src"),
    )
    return env


def call(args, env):
    """Run one child interpreter; returns its last stdout line as JSON.

    The child gets its own process group, so a timeout also ends any
    pool workers it forked.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0]} overran {CHILD_TIMEOUT} s")
    if err:
        sys.stderr.write(err)
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args[:4])} exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolation percentile, ``q`` in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def worker_args(args, mode, seconds):
    return [WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--mode", mode]


def timed_run(args, env):
    runs = [call(worker_args(args, "measure", args.seconds / PROCESSES), env)
            for _ in range(PROCESSES)]
    lat = [x for run in runs for x in run["latencies"]]
    metrics = {
        "setup_s": (percentile([r["setup_s"] for r in runs], 0.5), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
        "throughput": (sum(r["units"] for r in runs)
                       / sum(r["wall"] for r in runs), "1/s"),
    }
    detail = {"runs": runs, "samples": len(lat),
              "latency_p50_ms": percentile(lat, 0.5) * 1e3,
              "latency_p90_ms": percentile(lat, 0.9) * 1e3}
    return metrics, runs, detail


def traced_run(args, env, per_layer):
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    imports = [call(["-c", code], env) for _ in range(IMPORT_SAMPLES)]
    os.makedirs(OUT_DIR, exist_ok=True)
    run = call(worker_args(args, "trace", args.seconds) + ["--out", OUT_DIR],
               env)
    layers = dict(run["layers"], **{"cli.import_s": percentile(imports, 0.5)})
    unknown = sorted(set(layers) - set(per_layer))
    if unknown:
        raise BenchError(f"layers missing from BENCHMARK.json: {unknown}")
    metrics = {
        name: (float(layers.get(name, 0.0)), unit)
        for name, unit in per_layer.items()
    }
    return metrics, [run], {"import_samples": imports, "runs": [run]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under src/repro", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    env = pinned_env()
    try:
        if args.trace:
            metrics, procs, detail = traced_run(args, env, per_layer)
        else:
            metrics, procs, detail = timed_run(args, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    digests = {p["digest"] for p in procs}
    correct = failed == 0 and attempted > 0 and len(digests) == 1

    print(f"workload {args.workload}, seed {args.seed} "
          f"(pool seed {procs[0]['pool_seed']}), trace {args.trace}")
    print(f"inputs sha256 {', '.join(sorted(map(str, digests)))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    if not args.trace:
        figures = {name: value for name, (value, _) in metrics.items()}
        for name in ("latency_p50_ms", "latency_p90_ms"):
            figures[name] = detail[name]
            print(f"  {name:<32} {figures[name]:>14.6g} ms")
        for alias, name, scale, unit in ALIASES[args.workload]:
            print(f"  {alias:<32} {figures[name] * scale:>14.6g} {unit}")
        print(f"  {'samples':<32} {detail['samples']:>14d}")
    print(f"  {'op_fail_rate':<32} {failed / max(attempted, 1):>14.6g} "
          f"fraction ({failed}/{attempted})")
    for error in [e for p in procs for e in p["errors"]]:
        print(f"  error: {error}")

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "metrics": metrics, "detail": detail}, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
