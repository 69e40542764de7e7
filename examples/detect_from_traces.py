#!/usr/bin/env python
"""Run the inference on externally collected measurements.

Shows the adoption path for real data: you bring (a) the network
graph between your vantage points and (b) per-interval packet/loss
counts per path — exactly what a measurement platform in the paper's
deployment model (§7) uploads. Here the "collected" traces are
synthesized to mimic a link that throttles one customer's traffic.

Run:  python examples/detect_from_traces.py
"""

import numpy as np

from repro.core import network_from_path_specs
from repro.core.algorithm import (
    DEFAULT_MIN_PATHSETS,
    identify_from_score_array,
)
from repro.core.slices import (
    batch_pair_estimates_arrays,
    batch_unsolvability_arrays,
    build_slice_batch,
)
from repro.measurement import from_arrays
from repro.measurement.normalize import batch_slice_observations


def synthesize_traces(rng, intervals=3000):
    """Synthetic per-interval counts for a 5-path star network.

    The hub link congests everyone 2% of the time; additionally it
    throttles paths p4 and p5 (one customer's traffic), congesting
    them — together — another 12% of the time.
    """
    shared_event = rng.random(intervals) < 0.02
    throttle_event = rng.random(intervals) < 0.12
    sent, lost = {}, {}
    for i in range(1, 6):
        pid = f"p{i}"
        sent[pid] = rng.integers(180, 220, size=intervals)
        loss_frac = np.where(shared_event, 0.03, 0.0)
        if i >= 4:  # the throttled customer
            loss_frac = np.maximum(
                loss_frac, np.where(throttle_event, 0.05, 0.0)
            )
        # Private background noise, below the congestion threshold.
        loss_frac = loss_frac + rng.uniform(0, 0.004, size=intervals)
        lost[pid] = (sent[pid] * loss_frac).astype(np.int64)
    return from_arrays(sent, lost, interval_seconds=0.1)


def main() -> None:
    rng = np.random.default_rng(42)

    # (a) The graph between vantage points: a star through one hub.
    net = network_from_path_specs(
        {f"p{i}": ["hub", f"access{i}"] for i in range(1, 6)}
    )

    # (b) The collected traces.
    data = synthesize_traces(rng)
    print(f"loaded {data.num_intervals} intervals over "
          f"{len(data.path_ids)} paths")

    # Normalize each slice (Algorithm 2), then score and decide
    # (Algorithm 1) from the per-slice cost arrays.
    batch, skipped = build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    _, y_member, y_pair = batch_slice_observations(data, batch)
    result = identify_from_score_array(
        batch, skipped, batch_unsolvability_arrays(batch, y_member, y_pair)
    )

    print("\nper-pair estimates of the hub's cost:")
    g = batch.system_of[("hub",)]
    lo, hi = batch.offsets[g], batch.offsets[g + 1]
    estimates = batch_pair_estimates_arrays(batch, y_member, y_pair)
    for pair, est in sorted(
        zip(batch.system(g).pairs, estimates[lo:hi].tolist())
    ):
        print(f"  {pair}: {est:+.4f}")

    print(f"\nunsolvability score: {result.scores[('hub',)]:.4f}")
    if result.identified:
        print(f"verdict: the hub link is NON-NEUTRAL "
              f"(identified {result.identified})")
        print("interpretation: paths p4 and p5 congest together far "
              "more often than their co-occurrence with the others "
              "can explain — the hub treats them as a separate class.")
    else:
        print("verdict: consistent with a neutral hub")


if __name__ == "__main__":
    main()
