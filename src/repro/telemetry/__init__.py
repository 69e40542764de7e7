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

from repro.telemetry.manifest import RunManifest, write_manifest
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    NOOP_INSTRUMENT,
    Registry,
    get_registry,
    load_metrics,
    reset_registry,
)
from repro.telemetry.trace import (
    ENV_VAR,
    METRICS_FILENAME,
    NOOP_SPAN,
    Span,
    SpanContext,
    TRACE_FILENAME,
    Tracer,
    activate,
    configure,
    configure_from_env,
    current_context,
    enabled,
    export_dir,
    get_tracer,
    load_trace,
    span,
    trace_path,
)

__all__ = [
    "ENV_VAR",
    "METRICS_FILENAME",
    "TRACE_FILENAME",
    "NOOP_INSTRUMENT",
    "NOOP_SPAN",
    "Counter",
    "CountingRNG",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "Registry",
    "RunManifest",
    "Span",
    "SpanContext",
    "Tracer",
    "activate",
    "configure",
    "configure_from_env",
    "count_rng",
    "current_context",
    "enabled",
    "export_dir",
    "get_registry",
    "get_tracer",
    "load_metrics",
    "load_trace",
    "reset_registry",
    "span",
    "trace_path",
    "write_manifest",
]


class CountingRNG:
    """Forwarding proxy that counts method calls on a numpy Generator.

    Every attribute access forwards to the wrapped generator, so the
    underlying bit stream is untouched — draws made through the proxy
    are bit-identical to draws made directly.  Only *method calls* are
    counted (one per call, regardless of the size drawn), which is what
    the engines need to spot workload-mix changes.
    """

    __slots__ = ("_rng", "_counter")

    def __init__(self, rng, counter) -> None:
        self._rng = rng
        self._counter = counter

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr
        counter = self._counter

        def _counted(*args, **kwargs):
            counter.inc()
            return attr(*args, **kwargs)

        return _counted


def count_rng(rng, counter):
    """Wrap ``rng`` in a :class:`CountingRNG` when telemetry is enabled."""
    if not enabled():
        return rng
    return CountingRNG(rng, counter)


