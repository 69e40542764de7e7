"""Hierarchical tracing spans with JSONL export.

The tracer is a strictly opt-in observability layer: with
``REPRO_TELEMETRY`` unset the module-level :func:`span` helper returns a
shared no-op singleton and the hot paths never allocate, never touch the
clock, and never take a lock.  Callers consult :func:`enabled` once per
session/run and skip instrument setup entirely when it is false.

Enablement (checked once at import, mutable via :func:`configure`):

* ``REPRO_TELEMETRY`` unset / ``""`` / ``"0"`` — disabled.
* ``"1"`` / ``"true"`` / ``"yes"`` / ``"on"`` — enabled, spans kept
  in-memory only (drain with :meth:`Tracer.drain`).
* any other value — treated as an output *directory*: spans are
  appended to ``<dir>/trace.jsonl`` and CLI commands/benches drop
  ``metrics.json`` beside it.

Span records are one JSON object per line::

    {"name": "sweep.point", "span": "1a2b.3", "parent": "1a2b.2",
     "wall": 1717171717.1, "dur": 0.0123, "pid": 6789,
     "run": "r-1a2b", "attrs": {"key": "p0"}}

Durations come from ``time.perf_counter()`` (monotonic); ``wall`` is a
``time.time()`` stamp used only for ordering across processes.  Export
is multi-process safe: each finished span is written as a single
``O_APPEND`` line, which the kernel keeps atomic for our record sizes,
so pool workers and the parent can share one ``trace.jsonl``.  Worker
spans are parented to the dispatching span via the picklable
:class:`SpanContext` (see :func:`current_context` / :func:`activate`).

Telemetry never touches RNG streams or arithmetic: the fp-identity of
every golden suite holds with tracing enabled or disabled.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.exceptions import ConfigurationError

ENV_VAR = "REPRO_TELEMETRY"

_TRUTHY = ("1", "true", "yes", "on")

TRACE_FILENAME = "trace.jsonl"
METRICS_FILENAME = "metrics.json"


def _parse_env(value: Optional[str]) -> "tuple[bool, Optional[str]]":
    """Map an ``REPRO_TELEMETRY`` value to ``(enabled, trace_path)``."""
    if value is None or value == "" or value == "0":
        return False, None
    if value.lower() in _TRUTHY:
        return True, None
    return True, os.path.join(value, TRACE_FILENAME)


class _NoopSpan:
    """Shared do-nothing span returned whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Span:
    """A single timed operation; use as a context manager."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "_tracer",
                 "_start", "wall", "dur")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: Optional[str], attrs: Dict[str, Any]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._tracer = tracer
        self._start = 0.0
        self.wall = 0.0
        self.dur = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.dur = time.perf_counter() - self._start
        if exc_type is not None:
            self.attrs.setdefault("error", getattr(exc_type, "__name__",
                                                   str(exc_type)))
        self._tracer._pop(self)
        self._tracer._record(self)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "wall": self.wall,
            "dur": self.dur,
            "pid": os.getpid(),
            "run": self._tracer.run_id,
            "attrs": self.attrs,
        }


@dataclass(frozen=True)
class SpanContext:
    """Picklable handle for parenting spans across process boundaries.

    ``SweepRunner`` attaches the dispatching span's context to each pool
    task; the worker calls :func:`activate` so its spans land in the
    same ``trace.jsonl`` under the right parent.  A ``None`` context (or
    ``enabled=False``) makes :func:`activate` a no-op.
    """

    run_id: str
    span_id: Optional[str]
    trace_path: Optional[str]
    enabled: bool = True


class _Local(threading.local):
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.remote_parent: Optional[str] = None


class Tracer:
    """Produces hierarchical spans and exports them as JSONL."""

    def __init__(self, enabled: bool = True,
                 trace_path: Optional[str] = None,
                 run_id: Optional[str] = None) -> None:
        self.enabled = enabled
        self.trace_path = trace_path
        self.run_id = run_id or f"r-{os.getpid():x}-{int(time.time()):x}"
        self._local = _Local()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._finished: List[Dict[str, Any]] = []
        self._sink = None
        self._sink_pid = -1

    # -- span lifecycle -------------------------------------------------

    def span(self, name: str, /, **attrs: Any) -> Any:
        """Open a span; returns the no-op singleton when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        span_id = f"{os.getpid():x}.{seq:x}"
        stack = self._local.stack
        parent = stack[-1].span_id if stack else self._local.remote_parent
        return Span(self, name, span_id, parent, dict(attrs))

    def _push(self, span: Span) -> None:
        self._local.stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)

    def _record(self, span: Span) -> None:
        record = span.as_dict()
        self._finished.append(record)
        if self.trace_path is not None:
            self._write_line(record)

    # -- export ----------------------------------------------------------

    def _write_line(self, record: Dict[str, Any]) -> None:
        # One O_APPEND write per record: atomic for our line sizes, so a
        # parent and its fork/spawn pool workers can share one file.
        if self._sink is None or self._sink_pid != os.getpid():
            directory = os.path.dirname(self.trace_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._sink = open(self.trace_path, "a", encoding="utf-8")
            self._sink_pid = os.getpid()
        self._sink.write(json.dumps(record, sort_keys=True) + "\n")
        self._sink.flush()

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append an arbitrary record (e.g. a manifest) to the trace."""
        if not self.enabled:
            return
        self._finished.append(dict(record))
        if self.trace_path is not None:
            self._write_line(record)

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the in-memory finished-span buffer."""
        out = self._finished
        self._finished = []
        return out

    @property
    def finished(self) -> List[Dict[str, Any]]:
        return list(self._finished)

    def flush(self) -> None:
        if self._sink is not None and self._sink_pid == os.getpid():
            self._sink.flush()

    # -- cross-process parenting ------------------------------------------

    def current_context(self) -> Optional[SpanContext]:
        if not self.enabled:
            return None
        stack = self._local.stack
        parent = stack[-1].span_id if stack else self._local.remote_parent
        return SpanContext(run_id=self.run_id, span_id=parent,
                           trace_path=self.trace_path, enabled=True)


# -- module-level default tracer ------------------------------------------

_ENABLED, _TRACE_PATH = _parse_env(os.environ.get(ENV_VAR))
_TRACER = Tracer(enabled=_ENABLED, trace_path=_TRACE_PATH)


def enabled() -> bool:
    """True when the module default tracer is recording spans."""
    return _TRACER.enabled


def get_tracer() -> Tracer:
    return _TRACER


def span(name: str, /, **attrs: Any) -> Any:
    """Open a span on the default tracer (no-op singleton if disabled)."""
    if not _TRACER.enabled:
        return NOOP_SPAN
    return _TRACER.span(name, **attrs)


def trace_path() -> Optional[str]:
    return _TRACER.trace_path


def export_dir() -> Optional[str]:
    """Directory holding trace.jsonl (None when in-memory or disabled)."""
    if _TRACER.trace_path is None:
        return None
    return os.path.dirname(_TRACER.trace_path) or "."


def configure(enabled: bool = True, trace_path: Optional[str] = None,
              run_id: Optional[str] = None) -> Tracer:
    """Replace the module default tracer (programmatic opt-in)."""
    global _TRACER
    _TRACER = Tracer(enabled=enabled, trace_path=trace_path, run_id=run_id)
    return _TRACER


def configure_from_env() -> Tracer:
    """Re-read ``REPRO_TELEMETRY`` and rebuild the default tracer."""
    on, path = _parse_env(os.environ.get(ENV_VAR))
    return configure(enabled=on, trace_path=path)


def current_context() -> Optional[SpanContext]:
    """Picklable context for the active span (None when disabled)."""
    return _TRACER.current_context()


@contextmanager
def activate(ctx: Optional[SpanContext]) -> Iterator[None]:
    """Adopt a :class:`SpanContext` in a worker process.

    Ensures the default tracer matches the dispatcher's configuration
    (important under spawn, harmless under fork) and parents new
    top-level spans to ``ctx.span_id``.
    """
    if ctx is None or not ctx.enabled:
        yield
        return
    global _TRACER
    tracer = _TRACER
    if (not tracer.enabled or tracer.trace_path != ctx.trace_path
            or tracer.run_id != ctx.run_id):
        tracer = Tracer(enabled=True, trace_path=ctx.trace_path,
                        run_id=ctx.run_id)
        _TRACER = tracer
    prev = tracer._local.remote_parent
    tracer._local.remote_parent = ctx.span_id
    try:
        yield
    finally:
        tracer._local.remote_parent = prev
        tracer.flush()


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a trace.jsonl file into its records.

    Blank and undecodable lines are skipped: a writer killed mid-write
    leaves a torn last line, and the records before it still stand.
    A line that decodes to something other than a trace record raises
    :class:`~repro.exceptions.ConfigurationError` naming the file and
    line: a value that is not a JSON object, a non-object
    ``manifest``, or a span record (one with ``name`` and ``span``)
    whose name is not a string, whose ``span`` / ``parent`` id is not
    a string or an integer, or whose ``dur`` / ``wall`` (its start
    stamp) is not a finite number.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            problem = _record_problem(record)
            if problem is not None:
                raise ConfigurationError(f"{path}:{lineno}: {problem}")
            records.append(record)
    return records


def _is_id(value: Any) -> bool:
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _record_problem(record: Any) -> Optional[str]:
    """Why a decoded trace line is not a record (None when it is one)."""
    if not isinstance(record, dict):
        return "trace record is not a JSON object"
    if "manifest" in record and not isinstance(record["manifest"], dict):
        return "manifest is not a JSON object"
    if "name" not in record or "span" not in record:
        return None
    if not isinstance(record["name"], str):
        return "span name is not a string"
    if not _is_id(record["span"]):
        return "span id is not a string or an integer"
    if record.get("parent") is not None and not _is_id(record["parent"]):
        return "span parent id is not a string or an integer"
    for key in ("dur", "wall"):
        if key in record and not _is_finite(record[key]):
            return f"span {key} is not a finite number"
    return None
