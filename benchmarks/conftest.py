"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper: it runs the
experiment once (``benchmark.pedantic`` with a single round — the
benchmark clock then reports the cost of regenerating the artifact),
prints the reproduced rows/series, and asserts the paper's qualitative
claims so a regression in reproduction quality fails the bench.

Environment knobs (all optional):

* ``REPRO_BENCH_QUICK=1`` — shorten emulations to 120 s smoke runs
  (CI uses this; the full-length claims are asserted locally).
* ``REPRO_BENCH_WORKERS=N`` — fan sweep-shaped benches over N
  processes via :class:`repro.experiments.sweep.SweepRunner`.
* ``REPRO_BENCH_CACHE=DIR`` — memoize sweep points on disk, so
  re-running a bench harness replays finished experiments.
* ``REPRO_BENCH_MANIFEST=1`` (or the ``--manifest`` flag) — embed a
  :class:`repro.telemetry.RunManifest` provenance record in every
  bench's ``extra_info``, so each ``BENCH_*.json`` artifact states
  what produced it (see ``_emit.py`` for the normalized schema).
"""

import os
import sys

import pytest

from repro.experiments.config import EmulationSettings


def pytest_addoption(parser):
    parser.addoption(
        "--manifest",
        action="store_true",
        default=False,
        help="embed RunManifest provenance in every bench artifact",
    )


def pytest_configure(config):
    # The flag degrades to the env knob so _emit.py (and subprocesses)
    # see one switch regardless of how the harness was invoked.
    if config.getoption("--manifest"):
        os.environ["REPRO_BENCH_MANIFEST"] = "1"

# The frozen reference engines the speedup gates measure against live
# with the tests (``tests/oracles``); appended, so this directory's own
# ``conftest`` and helpers still win any name clash.
sys.path.append(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests")
)

#: Bench-wide emulation length. The paper runs 600 s; 240 s keeps the
#: full harness under ~15 minutes while (per the calibration notes in
#: EXPERIMENTS.md) leaving verdicts stable. Quick mode (CI smoke)
#: drops to 120 s — the shortest span at which the rarest asserted
#: event (an all-paths-congested interval on the neutral dumbbell)
#: still shows up reliably.
BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

BENCH_SETTINGS = EmulationSettings(
    duration_seconds=120.0 if BENCH_QUICK else 240.0, seed=3
)

#: Sweep-parallelism knobs for benches that run whole experiment sets.
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark clock."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, iterations=1, rounds=1
    )


def heading(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)
