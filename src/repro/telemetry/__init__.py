"""Zero-dependency tracing, metrics, and run manifests.

Opt-in observability for the whole reproduction: hierarchical spans
(:mod:`repro.telemetry.trace`), typed counters/gauges/histograms with
Prometheus/JSON export (:mod:`repro.telemetry.metrics`), and
:class:`RunManifest` provenance records (:mod:`repro.telemetry.manifest`).

Disabled by default.  Enable with ``REPRO_TELEMETRY=1`` (in-memory
spans), ``REPRO_TELEMETRY=<dir>`` (JSONL export to ``<dir>/trace.jsonl``
plus ``metrics.json`` from CLI runs), or programmatically via
:func:`configure`.  Hot paths check :func:`enabled` once per session —
the disabled path is a module-level no-op and is pinned bit-identical
by the golden/hypothesis suites (see DESIGN.md S23).
"""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "manifest": ("RunManifest", "write_manifest"),
    "metrics": (
        "DEFAULT_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "NOOP_INSTRUMENT",
        "Registry",
        "get_registry",
        "load_metrics",
        "reset_registry",
        "CountingRNG",
    ),
    "trace": (
        "ENV_VAR",
        "METRICS_FILENAME",
        "NOOP_SPAN",
        "Span",
        "SpanContext",
        "TRACE_FILENAME",
        "Tracer",
        "activate",
        "configure",
        "configure_from_env",
        "current_context",
        "enabled",
        "export_dir",
        "get_tracer",
        "load_trace",
        "span",
        "trace_path",
    ),
})
