"""Typed counters, gauges, and histograms with Prometheus/JSON export.

A :class:`Registry` hands out instruments on demand::

    reg = telemetry.get_registry()
    hits = reg.counter("repro_sweep_cache_hits_total",
                       help="sweep cache hits")
    hits.inc(3)

Instruments are keyed by ``(name, sorted labels)``; asking twice returns
the same instrument.  When the registry is disabled every accessor
returns a shared no-op instrument, but the supported pattern on hot
paths is the one used throughout the codebase: consult
``telemetry.enabled()`` once per session and skip instrument setup
entirely when it is false, so the disabled path costs nothing.

Instruments are plain-Python and rely on the GIL for atomicity; the
codebase parallelises with processes, not threads, and each process
owns its registry (sweep workers report timings back through the
existing result channel, which the parent folds into its histograms).

Export formats:

* :meth:`Registry.to_prometheus` — Prometheus text exposition
  (``# HELP`` / ``# TYPE`` + samples, histograms with cumulative
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` series).
* :meth:`Registry.to_json` — stable JSON used by ``metrics.json``
  artifacts and ``repro metrics``.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ConfigurationError

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(key: _LabelKey, extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative buckets on export)."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +1 = +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.total += value
        self.count += 1


class _NoopInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


NOOP_INSTRUMENT = _NoopInstrument()


class CountingRNG:
    """Forwarding proxy that counts method calls on a numpy Generator.

    Every attribute access forwards to the wrapped generator, so the
    underlying bit stream is untouched — draws made through the proxy
    are bit-identical to draws made directly.  Only *method calls* are
    counted (one per call, regardless of the size drawn), which is what
    the engines need to spot workload-mix changes.  The engines wrap
    their generator only after their own ``telemetry.enabled()`` check.
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


class _Family:
    __slots__ = ("kind", "help", "buckets", "instruments")

    def __init__(self, kind: str, help: str,
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.instruments: Dict[_LabelKey, Any] = {}


class Registry:
    """Namespace of metric families, each a set of labelled instruments."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- instrument accessors ---------------------------------------------

    def _get(self, kind: str, name: str, help: str, labels: Dict[str, Any],
             buckets: Optional[Tuple[float, ...]] = None) -> Any:
        if not self.enabled:
            return NOOP_INSTRUMENT
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind, help, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}")
            if help and not family.help:
                family.help = help
            instrument = family.instruments.get(key)
            if instrument is None:
                if kind == "counter":
                    instrument = Counter()
                elif kind == "gauge":
                    instrument = Gauge()
                else:
                    instrument = Histogram(family.buckets or DEFAULT_BUCKETS)
                family.instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Iterable[float]] = None,
                  **labels: Any) -> Histogram:
        bucket_tuple = tuple(buckets) if buckets is not None else None
        return self._get("histogram", name, help, labels, bucket_tuple)

    def reset(self) -> None:
        with self._lock:
            self._families.clear()

    # -- export -------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series: List[Dict[str, Any]] = []
            for key in sorted(family.instruments):
                instrument = family.instruments[key]
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["buckets"] = list(instrument.buckets)
                    entry["counts"] = list(instrument.counts)
                    entry["sum"] = instrument.total
                    entry["count"] = instrument.count
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            out[name] = {"kind": family.kind, "help": family.help,
                         "series": series}
        return out

    def to_prometheus(self) -> str:
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.instruments):
                instrument = family.instruments[key]
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(instrument.buckets,
                                            instrument.counts):
                        cumulative += count
                        labels = _format_labels(
                            key, (("le", _format_value(bound)),))
                        lines.append(
                            f"{name}_bucket{labels} {cumulative}")
                    cumulative += instrument.counts[-1]
                    labels = _format_labels(key, (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                    plain = _format_labels(key)
                    lines.append(
                        f"{name}_sum{plain} {_format_value(instrument.total)}")
                    lines.append(f"{name}_count{plain} {instrument.count}")
                else:
                    labels = _format_labels(key)
                    lines.append(
                        f"{name}{labels} {_format_value(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


# -- module-level default registry -------------------------------------------

_REGISTRY = Registry(enabled=True)


def get_registry() -> Registry:
    """The process-wide default registry.

    The registry itself is always live (instruments are cheap); gating
    happens at the call sites, which consult ``telemetry.enabled()``
    before creating instruments at all.
    """
    return _REGISTRY


def reset_registry() -> None:
    _REGISTRY.reset()


def load_metrics(path: str) -> Dict[str, Any]:
    """Read a :meth:`Registry.to_json` payload back from ``path``.

    Raises :class:`~repro.exceptions.ConfigurationError` unless the
    file is a JSON object mapping each family name to an object with
    a list ``series`` of objects.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ConfigurationError(
                f"{path} is not a metrics file: {exc}"
            ) from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} is not a metrics file")
    for name, family in data.items():
        series = (
            family.get("series") if isinstance(family, dict) else None
        )
        if not isinstance(series, list) or not all(
            isinstance(entry, dict) for entry in series
        ):
            raise ConfigurationError(
                f"{path}: metric family {name!r} is malformed"
            )
    return data
