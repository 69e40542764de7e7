"""Streaming monitor: incremental Algorithm 1/2 over live record streams.

The offline pipeline emulates a whole experiment and infers once over
the full record matrix. This package turns that into an *online*
monitor in three layers:

* :mod:`repro.streaming.stream` — record streams: replay a stored
  :class:`~repro.measurement.records.MeasurementData` in chunks, or
  drive either emulation substrate in segment mode (emulate N
  intervals, yield, continue from carried state — including mid-run
  differentiation policy switches).
* :mod:`repro.streaming.window` — incremental sufficient statistics
  for Algorithm 2 over sliding/tumbling windows: the appended chunks
  and their status rows kept in O(new intervals), sliding singleton
  and pair counts, reusing the network's memoized
  :class:`~repro.core.slices.SliceSystemBatch` across window
  advances.
* :mod:`repro.streaming.monitor` — the
  :class:`~repro.streaming.monitor.NeutralityMonitor`: a rolling
  :class:`~repro.core.algorithm.AlgorithmResult` per window plus a
  CUSUM change-point detector that timestamps when each pathset
  family flips neutral ↔ non-neutral — and
  :func:`~repro.streaming.monitor.monitor_scenario`, which drives one
  declarative scenario's emulation stream into a monitor (what
  ``repro monitor`` runs).

See DESIGN.md S18 for window semantics and cache-reuse rules.
"""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "monitor": (
        "ChangePoint",
        "MonitorReport",
        "NeutralityMonitor",
        "WindowVerdict",
        "monitor_scenario",
    ),
    "stream": ("EmulationStream", "ReplayStream"),
    "window": ("SlidingWindowStats",),
})
