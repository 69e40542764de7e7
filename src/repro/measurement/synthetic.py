"""Model-faithful synthetic measurement records.

Samples per-interval packet/loss counters directly from a
:class:`~repro.core.performance.NetworkPerformance` ground truth,
skipping the emulators entirely. Used by the inference benchmarks and
the golden equivalence suite, where the quantity under test is the
records→verdict pipeline (Algorithms 1/2), not the emulation.

The sampler mirrors the paper's probabilistic model:

* Each link ``l`` congests class ``n`` in an interval with probability
  ``1 − exp(−x_l(n))`` — the ground-truth marginal.
* One uniform draw per link and interval is shared by all classes, so
  congestion events *nest* across classes: whenever a link congests
  its better-treated class it also congests the worse-treated ones
  (the paper's assumption #3, the same coupling the equivalent
  neutral network encodes).
* A path is congested when any of its links congests the path's
  class; all paths see the same per-link draws, so pathset joint
  congestion-free frequencies converge to the equivalent-network
  probabilities as the number of intervals grows.

Congested intervals lose ``congested_loss`` of the path's packets
(safely above Algorithm 2's threshold), clean intervals lose
``clean_loss`` (safely below), so the congestion indicator recovers
the sampled link events exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.performance import NetworkPerformance
from repro.exceptions import MeasurementError
from repro.measurement.records import MeasurementData


def synthesize_records(
    perf: NetworkPerformance,
    rng: np.random.Generator,
    num_intervals: int = 2000,
    mean_rate: int = 1000,
    rate_jitter: float = 0.3,
    congested_loss: float = 0.05,
    clean_loss: float = 0.002,
    interval_seconds: float = 0.1,
    paths: Optional[Sequence[str]] = None,
) -> MeasurementData:
    """Sample :class:`MeasurementData` from ground-truth performance.

    Args:
        perf: The ground-truth model (network, classes, link costs).
        rng: Seeded generator — output is fully deterministic.
        num_intervals: Measurement intervals to sample.
        mean_rate: Mean packets sent per path and interval.
        rate_jitter: Sent counts are uniform in
            ``mean_rate · [1−jitter, 1+jitter]``.
        congested_loss: Loss fraction in congested intervals (must
            exceed the detection threshold in use).
        clean_loss: Loss fraction in clean intervals (below it).
        interval_seconds: Interval length of the resulting records.
        paths: Paths to emit records for (default: all).

    Returns:
        One record per path, aligned on ``num_intervals`` intervals.
    """
    if num_intervals < 1:
        raise MeasurementError("num_intervals must be >= 1")
    if not 0.0 <= clean_loss < congested_loss < 1.0:
        raise MeasurementError(
            "need 0 <= clean_loss < congested_loss < 1, got "
            f"{clean_loss} / {congested_loss}"
        )
    net = perf.network
    classes = perf.classes
    path_ids = tuple(paths) if paths is not None else net.path_ids
    link_ids = net.link_ids
    link_row = {lid: k for k, lid in enumerate(link_ids)}
    class_names = tuple(classes.names)

    # Ground-truth congestion probability per link and class.
    q = np.empty((len(link_ids), len(class_names)), dtype=float)
    for k, lid in enumerate(link_ids):
        lp = perf.link_performance(lid)
        for c, cname in enumerate(class_names):
            q[k, c] = 1.0 - np.exp(-lp.for_class(cname))

    # One uniform per link and interval, shared across classes so that
    # per-class congestion events nest (assumption #3).
    u = rng.random((len(link_ids), num_intervals))
    congested_by_class = {
        cname: u < q[:, c][:, None] for c, cname in enumerate(class_names)
    }

    lo = max(1, int(round(mean_rate * (1.0 - rate_jitter))))
    hi = max(lo + 1, int(round(mean_rate * (1.0 + rate_jitter))) + 1)
    sent = np.empty((len(path_ids), num_intervals), dtype=np.int64)
    lost = np.empty_like(sent)
    for i, pid in enumerate(path_ids):
        cname = classes.class_of(pid)
        rows = [link_row[lid] for lid in net.links_of(pid)]
        path_congested = congested_by_class[cname][rows].any(axis=0)
        row = sent[i] = rng.integers(lo, hi, size=num_intervals)
        frac = np.where(path_congested, congested_loss, clean_loss)
        lost[i] = np.minimum(np.round(row * frac).astype(np.int64), row)
    return MeasurementData.from_matrices(
        path_ids, sent, lost, interval_seconds
    )
