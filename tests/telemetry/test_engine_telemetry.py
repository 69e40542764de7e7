"""The engine session's telemetry, on both substrates.

One session class drives both engines, so both export the same
``repro_engine_*`` counters under their own ``substrate=`` label (the
fluid engine adds its step count), and one ``engine.advance`` span
per advance. A traced session emits records bit-identical to an
untraced one.
"""

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.emulator.core import PacketNetwork
from repro.fluid.batch import FluidBatchNetwork
from repro.fluid.engine import FluidNetwork
from repro.fluid.params import PolicerSpec
from repro.substrate.spec import normalize_specs
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell
from repro.workloads.profiles import class_workload

SEGMENTS = (4, 6)

#: case -> (substrate label, worlds)
CASES = {"fluid": ("fluid", 1), "fluid-batch": ("fluid", 2),
         "packet": ("packet", 1)}


@pytest.fixture(scope="module")
def dumbbell():
    topo = build_dumbbell()
    specs = normalize_specs(topo.link_specs)
    policed = dict(specs)
    policed[SHARED_LINK] = dataclasses.replace(
        specs[SHARED_LINK], policer=PolicerSpec("c2", 0.1)
    )
    wl = class_workload(topo.network.path_ids, mean_size_mb=5.0)
    return topo, specs, policed, wl


def _drive(case, dumbbell):
    """Two segments around one swap; every chunk and every result."""
    topo, specs, policed, wl = dumbbell
    net, classes = topo.network, topo.classes
    if case == "fluid":
        session = FluidNetwork(net, classes, specs, wl, seed=5).session()
    elif case == "fluid-batch":
        session = FluidBatchNetwork(
            net, classes, [specs, policed], wl, [5, 6]
        ).session()
    else:
        session = PacketNetwork(
            net, classes, specs, workloads=wl, seed=5
        ).session()
    chunks = [session.advance(SEGMENTS[0])]
    session.set_link_specs(policed)
    chunks.append(session.advance(SEGMENTS[1]))
    return chunks, session.results()


def _arrays(chunks, results):
    """Every array the session emitted, in a fixed order."""
    out = []
    for step in chunks:
        for chunk in step if isinstance(step, list) else [step]:
            out += [chunk.sent, chunk.lost]
    for result in results:
        out += [result.measurements.sent_matrix,
                result.measurements.lost_matrix]
        for per_link in (result.link_class_arrivals,
                         result.link_class_drops):
            out += [a for lid in sorted(per_link)
                    for _, a in sorted(per_link[lid].items())]
        out += [result.queue_occupancy[lid]
                for lid in sorted(result.queue_occupancy)]
        out += [result.path_rtt_seconds[pid]
                for pid in sorted(result.path_rtt_seconds)]
        out.append(np.array(sorted(result.flows_completed.items())))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_spans_and_identity(dumbbell, case):
    substrate, worlds = CASES[case]
    plain = _arrays(*_drive(case, dumbbell))
    telemetry.configure(enabled=True)
    telemetry.reset_registry()
    try:
        traced = _arrays(*_drive(case, dumbbell))
        metrics = telemetry.get_registry().to_json()
        spans = [
            r for r in telemetry.get_tracer().finished
            if r["name"] == "engine.advance"
        ]
    finally:
        telemetry.configure(enabled=False)
        telemetry.reset_registry()

    assert len(plain) == len(traced)
    for a, b in zip(plain, traced):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype

    engine = {
        name: family for name, family in metrics.items()
        if name.startswith("repro_engine_")
    }
    expected = {
        "repro_engine_intervals_total",
        "repro_engine_spec_swaps_total",
        "repro_engine_rng_draws_total",
    }
    if substrate == "fluid":
        expected.add("repro_engine_steps_total")
    assert set(engine) == expected
    for family in engine.values():
        assert family["kind"] == "counter"
        (series,) = family["series"]
        assert series["labels"] == {"substrate": substrate}

    def value(name):
        return engine[name]["series"][0]["value"]

    assert value("repro_engine_intervals_total") == sum(SEGMENTS) * worlds
    assert value("repro_engine_spec_swaps_total") == 1
    assert value("repro_engine_rng_draws_total") > 0
    if substrate == "fluid":
        # Default dt (10 ms) and interval (100 ms): 10 steps each.
        assert value("repro_engine_steps_total") == sum(SEGMENTS) * 10

    assert len(spans) == len(SEGMENTS)
    assert [s["attrs"]["intervals"] for s in spans] == list(SEGMENTS)
    assert [s["attrs"]["start"] for s in spans] == [0, SEGMENTS[0]]
    for s in spans:
        assert s["attrs"]["substrate"] == substrate
