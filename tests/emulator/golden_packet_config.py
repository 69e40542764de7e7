"""Shared configuration for the packet-substrate golden smoke.

The golden file (``golden/packet_goldens.json``) holds per-path
``(sent, lost)`` totals and congestion probabilities captured from
the batched packet engine on four locked dumbbell configurations —
neutral, policing, AQM, weighted — at a pinned seed, mirroring
``tests/fluid/golden_config.py``. The smoke test re-runs the same
configurations and compares with tolerances, locking the engine's
emulated physics (not its float-exact output, which may shift with
numpy builds) across refactors.

Regenerate (only if the packet model legitimately changes — bump
:data:`repro.emulator.core.PACKET_ENGINE_VERSION` alongside) with::

    PYTHONPATH=src python tests/emulator/golden_packet_config.py
"""

import json
import os

from repro.emulator.core import PacketNetwork
from repro.fluid.params import FlowSlotSpec, PathWorkload
from repro.measurement.normalize import path_congestion_probability
from repro.substrate.scenario import DifferentiationPolicy
from repro.substrate.spec import LinkSpec
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "packet_goldens.json"
)

#: The locked configurations.
SCENARIOS = ("neutral", "policing", "aqm", "weighted")

SEED = 7
DURATION = 40.0
WARMUP = 5.0
RATE_FRACTION = 0.3
SLOTS_PER_PATH = 10
CAPACITY_MBPS = 24.0  # 2000 packets/second at the bottleneck


def scenario_inputs(scenario):
    """Build (topology, link specs, workloads)."""
    topo = build_dumbbell(mechanism=None)
    specs = {
        lid: LinkSpec(capacity_mbps=10 * CAPACITY_MBPS, buffer_seconds=0.2)
        for lid in topo.network.link_ids
    }
    shared = LinkSpec(capacity_mbps=CAPACITY_MBPS, buffer_seconds=0.2)
    if scenario != "neutral":
        mechanism = {"policing": "policing"}.get(scenario, scenario)
        policy = DifferentiationPolicy(
            mechanism=mechanism, rate_fraction=RATE_FRACTION
        )
        shared = policy.apply_to(shared)
    specs[SHARED_LINK] = shared
    workloads = {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=10.0, mean_gap_seconds=2.0),)
            * SLOTS_PER_PATH,
            rtt_seconds=0.05,
        )
        for pid in topo.network.path_ids
    }
    return topo, specs, workloads


def summarize(result):
    """Reduce one PacketResult to the golden summary dict."""
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
            result.link_congestion_probability(SHARED_LINK, cname)
        )
    return out


def run_scenario(scenario):
    """Run one locked scenario on the packet engine and summarize."""
    topo, specs, workloads = scenario_inputs(scenario)
    sim = PacketNetwork(
        topo.network, topo.classes, specs, workloads=workloads, seed=SEED
    )
    result = sim.run(duration_seconds=DURATION, warmup_seconds=WARMUP)
    return summarize(result)


def capture():
    return {sc: run_scenario(sc) for sc in SCENARIOS}


if __name__ == "__main__":
    goldens = capture()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
    print(f"wrote {GOLDEN_PATH}")
