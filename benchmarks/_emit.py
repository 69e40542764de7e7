"""Normalized schema for ``BENCH_*.json`` artifacts.

Every bench records the same fields into pytest-benchmark's
``extra_info``, so the ``--benchmark-json`` artifacts CI uploads are
uniformly machine-readable instead of each bench inventing its own
shape:

* ``name`` — stable artifact id (``"table2/sets"``, ``"batch/throughput"``).
* ``gate`` — the asserted floor/ceiling for gate benches; ``None``
  for claim-only benches (qualitative paper assertions, no threshold).
* ``measured`` — the observed value the gate compares against (or the
  headline number of a claim-only bench).
* ``quick`` — whether ``REPRO_BENCH_QUICK`` shortened the run (gates
  and durations differ between quick and full mode; downstream
  tooling must not compare across them).
* ``manifest`` — a :class:`repro.telemetry.RunManifest` provenance
  record (substrate tags, versions, git, host),
  embedded when the harness runs with ``--manifest`` or
  ``REPRO_BENCH_MANIFEST=1``.

Any extra keyword pairs land verbatim (JSON-serializable values only).
"""

import os

#: Mirrors ``conftest.BENCH_QUICK`` without importing conftest (keeps
#: this module importable from anywhere, including doc tooling).
_QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def manifest_enabled() -> bool:
    """True when bench artifacts should embed provenance manifests."""
    return os.environ.get("REPRO_BENCH_MANIFEST", "") not in ("", "0")


def emit(benchmark, name, *, gate=None, measured=None, **extra):
    """Record the normalized artifact schema for one bench.

    Args:
        benchmark: The pytest-benchmark fixture of the running test.
        gate: Asserted threshold (``None`` for claim-only benches).
        measured: Observed value the gate compares against.
        extra: Additional JSON-serializable fields, stored verbatim.
    """
    info = benchmark.extra_info
    info["name"] = name
    info["gate"] = gate
    info["measured"] = measured
    info["quick"] = _QUICK
    info.update(extra)
    if manifest_enabled():
        from repro.telemetry import RunManifest

        info["manifest"] = RunManifest.collect(
            f"bench:{name}"
        ).as_dict()["manifest"]
