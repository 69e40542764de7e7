"""Packet engine: batched numpy loop vs the seed per-event loop.

Two claims, mirroring ``bench_baseline.py``'s fluid-engine gate:

* **Agreement** — on a common policed dumbbell both engines produce
  the same differentiation signal (the policed class congests far
  more often).
* **Throughput** — the batched engine, measured at its new design
  point (a ≥ 10⁶-packet run the per-event loop cannot reach in
  bounded wall time — its droptail bookkeeping degrades
  super-linearly with queue depth and event count), serves at least
  10× the packets/second of the seed loop measured at *its* design
  point (the ~10⁵-packet budget documented for it in DESIGN.md S12).
  This is the gate behind raising the S12 scale budget ≥ 10×.
"""

import time

from conftest import BENCH_QUICK, heading, run_once
from _emit import emit
from oracles.event_reference import EventPacketNetwork, packet_link_spec

from repro.analysis.stats import format_table
from repro.core.classes import two_classes
from repro.core.network import Network, Path
from repro.emulator import PacketNetwork
from repro.fluid.params import MSS_BITS, LinkSpec, PolicerSpec
from repro.measurement.normalize import path_congestion_probability

#: (shared-link pps, emulated seconds) per engine and mode. The
#: reference runs its documented ~1e5-packet budget; the batched
#: engine runs the raised budget (~2e6 packets full, ~5e5 quick).
REFERENCE_POINT = (8333.0, 6.0) if BENCH_QUICK else (12500.0, 10.0)
BATCHED_POINT = (100000.0, 10.0) if BENCH_QUICK else (200000.0, 20.0)

#: Speedup floors (packets/second ratio). Quick mode keeps a noise
#: margin for shared CI runners; the full claim is 10×.
SPEEDUP_FLOOR = 5.0 if BENCH_QUICK else 10.0


def _dumbbell(shared_pps, policer_pps=None, queue=300):
    # 10 ms per hop ≈ a 60 ms-RTT WAN dumbbell (the paper's RTT
    # range); both engines run the identical topology.
    paths = [
        Path(f"p{i}", (f"a{i}", "shared", f"e{i}")) for i in range(1, 5)
    ]
    links = (
        [f"a{i}" for i in range(1, 5)]
        + ["shared"]
        + [f"e{i}" for i in range(1, 5)]
    )
    net = Network(links, paths)
    classes = two_classes(net, ["p3", "p4"])
    # Queues of 500 (edges) and ``queue`` (shared) packets; the
    # policer's bucket holds 8 packets.
    fast = LinkSpec(
        capacity_mbps=5 * shared_pps * MSS_BITS / 1e6,
        buffer_seconds=500 / (5 * shared_pps),
        delay_seconds=0.01,
    )
    shared = LinkSpec(
        capacity_mbps=shared_pps * MSS_BITS / 1e6,
        buffer_seconds=queue / shared_pps,
        delay_seconds=0.01,
        policer=(
            PolicerSpec(
                "c2",
                policer_pps / shared_pps,
                burst_seconds=8.0 / policer_pps,
            )
            if policer_pps
            else None
        ),
    )
    specs = {lid: fast for lid in links}
    specs["shared"] = shared
    return net, classes, specs


def _engine_specs(engine_cls, specs):
    """The reference loop reads its own packet-unit spec."""
    if engine_cls is EventPacketNetwork:
        return {lid: packet_link_spec(s) for lid, s in specs.items()}
    return specs


def _throughput(engine_cls, shared_pps, duration):
    net, classes, specs = _dumbbell(shared_pps)
    sim = engine_cls(
        net, classes, _engine_specs(engine_cls, specs),
        {pid: [10**9] for pid in net.path_ids},
        seed=7,
    )
    t0 = time.perf_counter()
    result = sim.run(duration_seconds=duration)
    wall = time.perf_counter() - t0
    data = getattr(result, "measurements", result)
    packets = sum(
        int(data.record(pid).sent.sum()) for pid in net.path_ids
    )
    return packets, wall, packets / wall


def test_packet_engine_agreement_and_speedup(benchmark):
    # --- agreement on a common policed workload ---------------------
    split = {}
    for name, engine_cls in (
        ("batched", PacketNetwork),
        ("reference", EventPacketNetwork),
    ):
        net, classes, specs = _dumbbell(
            4000.0, policer_pps=1200.0, queue=200
        )
        sim = engine_cls(
            net, classes, _engine_specs(engine_cls, specs),
            {pid: [10**9] for pid in net.path_ids}, seed=11,
        )
        result = sim.run(duration_seconds=15.0)
        data = getattr(result, "measurements", result)
        c1 = sum(
            path_congestion_probability(data, p) for p in ("p1", "p2")
        ) / 2
        c2 = sum(
            path_congestion_probability(data, p) for p in ("p3", "p4")
        ) / 2
        split[name] = (c1, c2)

    # --- throughput at each engine's design point -------------------
    ref_pkts, ref_wall, ref_rate = _throughput(
        EventPacketNetwork, *REFERENCE_POINT
    )

    def batched_run():
        return _throughput(PacketNetwork, *BATCHED_POINT)

    vec_pkts, vec_wall, vec_rate = run_once(benchmark, batched_run)
    speedup = vec_rate / ref_rate

    heading("Packet engine: batched vs seed per-event loop")
    rows = [
        (
            "reference",
            f"{REFERENCE_POINT[0]:.0f} pps × {REFERENCE_POINT[1]:.0f}s",
            f"{ref_pkts:,}",
            f"{ref_wall:.2f}s",
            f"{ref_rate:,.0f}",
        ),
        (
            "batched",
            f"{BATCHED_POINT[0]:.0f} pps × {BATCHED_POINT[1]:.0f}s",
            f"{vec_pkts:,}",
            f"{vec_wall:.2f}s",
            f"{vec_rate:,.0f}",
        ),
    ]
    print(format_table(
        ["engine", "workload", "packets", "wall", "pkt/s"], rows
    ))
    for name, (c1, c2) in split.items():
        print(f"  {name}: policed split c1={c1:.1%} c2={c2:.1%}")
    print(f"\n  packets/second advantage: {speedup:.1f}x "
          f"(floor {SPEEDUP_FLOOR}x)")

    # Same differentiation signal from both engines...
    for name, (c1, c2) in split.items():
        assert c2 > c1 + 0.05, (name, c1, c2)
        assert c2 > 1.5 * c1, (name, c1, c2)
    # ...and the batched engine's scale budget is ≥ 10× the seed's
    # (≥ 1e6 packets emulated at ≥ 10× the seed loop's pkt/s; quick
    # mode shrinks the run but must still clear 3e5).
    assert vec_pkts >= (3 if BENCH_QUICK else 10) * 1e5
    assert speedup >= SPEEDUP_FLOOR, (
        f"packet vectorization speedup regressed: {speedup:.1f}x"
    )
    emit(
        benchmark,
        "packet-engine/speedup",
        measured=speedup,
        gate=SPEEDUP_FLOOR,
        packets=vec_pkts,
    )
