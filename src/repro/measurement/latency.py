"""Latency-threshold performance metrics (paper §7, "Performance
metrics").

The paper's loss metric cannot see violations that manifest as extra
*latency* only. §7's proposed remedy: convert latency into an
additive, pathset-capable metric by thresholding — define a path as
"latency-congested" in an interval when its delay exceeds a
pre-configured threshold, a pathset as latency-congestion-free when
all members are below threshold, and take ``y = −log P`` as usual.
Every downstream piece (System 4, unsolvability, clustering) then
works unchanged.

Inputs are per-interval delay series per path (the fluid emulator's
``SubstrateResult.path_rtt_seconds``), so this module is array-in,
observations-out.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.core.pathsets import PathSet, PathSetFamily
from repro.exceptions import MeasurementError
from repro.measurement.normalize import _family_values


def latency_indicators(
    delays: Mapping[str, np.ndarray],
    threshold_seconds: float,
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Per-interval below-threshold indicators for each path.

    Args:
        delays: ``{path: delay per interval}`` (seconds), one 1-D
            series per path, all of one length, with no NaN.
        threshold_seconds: The latency threshold, positive and finite.

    Returns:
        ``(ok, ids)``: ``ok[i, t]`` is 1 when path ``ids[i]``'s delay
        stayed below the threshold in interval ``t``.
    """
    if not 0 < threshold_seconds < math.inf:
        raise MeasurementError(
            "latency threshold must be positive and finite, got "
            f"{threshold_seconds!r}"
        )
    ids = tuple(sorted(delays))
    if not ids:
        raise MeasurementError("no delay series provided")
    series = [np.asarray(delays[pid], dtype=float) for pid in ids]
    if any(s.ndim != 1 for s in series):
        raise MeasurementError("delay series must be one-dimensional")
    lengths = {s.size for s in series}
    if len(lengths) != 1:
        raise MeasurementError(
            f"delay series lengths differ: {sorted(lengths)}"
        )
    stacked = np.stack(series)
    if np.isnan(stacked).any():
        raise MeasurementError("delay series contain NaN")
    return (stacked < threshold_seconds).astype(np.int8), ids


def latency_performance_numbers(
    delays: Mapping[str, np.ndarray],
    family: PathSetFamily,
    threshold_seconds: float,
) -> Dict[PathSet, float]:
    """Pathset performance numbers under the latency metric.

    ``y_Φ = −log P(every member path below threshold)`` — additive
    across independent links exactly like the loss metric, so the
    returned mapping plugs straight into
    :func:`repro.core.algorithm.identify_non_neutral`. Costs are
    priced like the loss metric's (every interval is valid).
    """
    paths = tuple(sorted({pid for ps in family for pid in ps}))
    if not paths:
        return {}
    missing = [pid for pid in paths if pid not in delays]
    if missing:
        raise MeasurementError(f"no delay series for: {missing}")
    ok, ids = latency_indicators(
        {pid: delays[pid] for pid in paths}, threshold_seconds
    )
    if ok.shape[1] == 0:
        raise MeasurementError("empty delay series")
    index = {pid: i for i, pid in enumerate(ids)}
    values = _family_values(ok.astype(bool), family, index)
    return {ps: float(values[f]) for f, ps in enumerate(family)}


def latency_congestion_probability(
    delays: Mapping[str, np.ndarray],
    path_id: str,
    threshold_seconds: float,
) -> float:
    """Fraction of intervals in which the path exceeded the threshold."""
    ok, ids = latency_indicators(
        {path_id: delays[path_id]}, threshold_seconds
    )
    return float(1.0 - ok[0].mean())
