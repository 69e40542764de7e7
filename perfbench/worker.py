"""One benchmark process: set up a workload, then measure or trace it.

``run.py`` starts this script in fresh interpreters with the pinned
environment and ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        [--seconds S] [--out DIR]

Modes:

* ``measure`` — set up (import, build and the first, cold operation),
  then warm operations for ``--seconds``.
* ``trace`` — the traced run; prints per-layer values.
* ``record`` — re-record the workload's entry in ``reference.json``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from contextlib import contextmanager
from time import perf_counter

from workloads import REFERENCE, WORKLOADS, Clock, load_reference


class Tracer:
    """Benchmark-owned spans, kept in memory.

    A span is ``[name, parent index, start, end]``; a layer's self
    time is its duration minus the part its child spans cover.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def reset(self):
        self.spans = []

    @contextmanager
    def span(self, name):
        record = [name, self._stack[-1] if self._stack else None,
                  perf_counter(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def wrapped(self, fn, name):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def wrap(self, obj, attr, name):
        """Time every call of ``obj.attr`` (an instance attribute
        shadows the method until :meth:`unwrap`)."""
        setattr(obj, attr, self.wrapped(getattr(obj, attr), name))

    def unwrap(self, obj, attr):
        delattr(obj, attr)

    def _durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def total(self, name):
        return sum(self._durations(name))

    def count(self, name):
        return len(self._durations(name))

    def per_call(self, name):
        durations = self._durations(name)
        return sum(durations) / len(durations) if durations else 0.0

    def self_times(self):
        own = [s[3] - s[2] for s in self.spans]
        for span in self.spans:
            if span[1] is not None:
                own[span[1]] -= span[3] - span[2]
        return own

    def self_total(self, name):
        own = self.self_times()
        return sum(t for t, s in zip(own, self.spans) if s[0] == name)

    def coverage(self):
        """Share of operation wall time that layer spans account for."""
        wall = self.total("op")
        return 1.0 - self.self_total("op") / wall if wall else 0.0

    def dump(self):
        return [
            {"name": s[0], "parent": s[1], "start": s[2], "end": s[3]}
            for s in self.spans
        ]


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _manifest(workload, seed):
    """The program's run manifest plus the pinned environment."""
    pinned = {
        key: os.environ.get(key)
        for key in ("REPRO_KERNEL", "REPRO_TELEMETRY", "REPRO_INFER_WORKERS",
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "PYTHONHASHSEED")
    }
    extra = {"nproc": os.cpu_count(), "env": pinned}
    try:
        from repro.telemetry import RunManifest

        return RunManifest.collect(
            f"perfbench:{workload}", seed=seed, extra=extra
        ).as_dict()["manifest"]
    except Exception as exc:  # provenance only: never fail the run
        return {"error": repr(exc), "extra": extra}


def _record(name):
    entries = WORKLOADS[name](0, {}).record(Clock())
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    reference[name] = entries
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"recorded": name, "entries": len(entries)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", required=True,
                        choices=("measure", "trace", "record"))
    parser.add_argument("--out", default=None,
                        help="directory for the span dump (trace mode)")
    args = parser.parse_args(argv)
    if args.mode == "record":
        print(json.dumps(_record(args.workload)))
        return 0

    workload = WORKLOADS[args.workload](args.seed, load_reference(args.workload))
    clock = Clock()
    result = {}
    try:
        workload.setup(clock)
        if args.mode == "trace":
            tracer = Tracer()
            layers = workload.trace(tracer, clock)
            layers["trace.coverage"] = tracer.coverage()
            result["layers"] = layers
            if args.out:
                path = os.path.join(
                    args.out, f"{args.workload}-seed{args.seed}-spans.json"
                )
                with open(path, "w") as fh:
                    json.dump(tracer.dump(), fh)
        else:
            workload.cold(clock)
            workload.measure(args.seconds)
    finally:
        workload.close()
    log = workload.log
    result.update({
        "setup_parts": clock.parts,
        "setup_s": sum(v for k, v in clock.parts.items() if k != "inputs"),
        "attempted": log.attempted,
        "failed": log.failed,
        "errors": log.errors[:5],
        "latencies": log.latencies,
        "units": log.units,
        "wall": log.wall,
        "peak_rss_mb": _peak_rss_mb(),
        "pool_seed": workload.pool_seed,
        "digest": workload.digest,
        "manifest": _manifest(args.workload, args.seed),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
