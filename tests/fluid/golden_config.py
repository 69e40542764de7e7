"""Shared configuration for the seeded-equivalence golden tests.

The golden file (``golden/scalar_goldens.json``) holds per-path
``(sent, lost)`` totals and congestion probabilities captured from the
*pre-vectorization scalar engine* (the seed implementation, now frozen
as ``tests/oracles/engine_scalar.py``). The equivalence test re-runs the
same configurations on the vectorized engine and compares against
these numbers with tolerances — locking in that the rewrite changed
the arithmetic layout, not the emulated physics.

Regenerate (only if the *reference* model itself legitimately changes)
with::

    PYTHONPATH=src:tests python tests/fluid/golden_config.py
"""

import json
import os

import numpy as np

from repro.fluid.params import FlowSlotSpec, PathWorkload
from repro.measurement.normalize import path_congestion_probability
from repro.topology.dumbbell import build_dumbbell

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "scalar_goldens.json"
)

#: The three locked configurations: neutral, policing, shaping.
SCENARIOS = ("neutral", "policing", "shaping")

SEED = 7
DURATION = 40.0
WARMUP = 5.0
RATE_FRACTION = 0.3
SLOTS_PER_PATH = 10


def scenario_inputs(scenario):
    """Build the (net, classes, link_specs, workloads) of one scenario."""
    mechanism = None if scenario == "neutral" else scenario
    topo = build_dumbbell(mechanism=mechanism, rate_fraction=RATE_FRACTION)
    workloads = {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=10.0, mean_gap_seconds=2.0),)
            * SLOTS_PER_PATH,
            rtt_seconds=0.05,
        )
        for pid in topo.network.path_ids
    }
    return topo, workloads


def summarize(result):
    """Reduce one FluidResult to the golden summary dict."""
    out = {"paths": {}, "l5_class_congestion": {}}
    for pid in sorted(result.measurements.path_ids):
        rec = result.measurements.record(pid)
        out["paths"][pid] = {
            "sent": int(rec.sent.sum()),
            "lost": int(rec.lost.sum()),
            "p_congested": float(
                path_congestion_probability(result.measurements, pid)
            ),
        }
    for cname in ("c1", "c2"):
        out["l5_class_congestion"][cname] = float(
            result.link_congestion_probability("l5", cname)
        )
    return out


def run_scenario(engine_cls, scenario):
    """Run one scenario on the given engine class and summarize it."""
    topo, workloads = scenario_inputs(scenario)
    sim = engine_cls(
        topo.network, topo.classes, topo.link_specs, workloads, seed=SEED
    )
    result = sim.run(duration_seconds=DURATION, warmup_seconds=WARMUP)
    return summarize(result)


def capture(engine_cls):
    """Capture golden summaries for every scenario."""
    return {sc: run_scenario(engine_cls, sc) for sc in SCENARIOS}


if __name__ == "__main__":
    from oracles.engine_scalar import ScalarFluidNetwork

    goldens = capture(ScalarFluidNetwork)
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
    print(f"wrote {GOLDEN_PATH}")
