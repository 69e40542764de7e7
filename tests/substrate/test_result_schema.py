"""Both engines hand their run over as one result class.

A fluid run and a packet run return a
:class:`~repro.substrate.base.SubstrateResult` with the same fields
and dtypes, built by one packager; a workload that measures no path
is refused when a session opens, before either engine emulates.
"""

import dataclasses

import numpy as np
import pytest

from repro.emulator.core import PacketNetwork
from repro.exceptions import EmulationError
from repro.fluid.engine import FluidNetwork
from repro.substrate.base import SubstrateResult
from repro.substrate.spec import normalize_specs
from repro.topology.dumbbell import build_dumbbell
from repro.workloads.profiles import class_workload


@pytest.fixture(scope="module")
def dumbbell():
    topo = build_dumbbell(mechanism="policing")
    return topo, normalize_specs(topo.link_specs)


def _engine(substrate, dumbbell, workloads):
    topo, specs = dumbbell
    if substrate == "fluid":
        return FluidNetwork(
            topo.network, topo.classes, specs, workloads, seed=3
        )
    return PacketNetwork(
        topo.network, topo.classes, specs, workloads=workloads, seed=3
    )


def _schema(result):
    """Field name → the dtypes of the arrays it holds (or its type)."""
    data = result.measurements
    return {
        "measurements": (data.sent_matrix.dtype, data.lost_matrix.dtype),
        "link_class_arrivals": {
            arr.dtype
            for by_class in result.link_class_arrivals.values()
            for arr in by_class.values()
        },
        "link_class_drops": {
            arr.dtype
            for by_class in result.link_class_drops.values()
            for arr in by_class.values()
        },
        "queue_occupancy": {
            arr.dtype for arr in result.queue_occupancy.values()
        },
        "interval_seconds": type(result.interval_seconds),
        "flows_completed": {
            type(n) for n in result.flows_completed.values()
        },
        "path_rtt_seconds": {
            arr.dtype for arr in result.path_rtt_seconds.values()
        },
    }


def test_both_engines_return_one_result_class(dumbbell):
    topo, _ = dumbbell
    wl = class_workload(topo.network.path_ids, mean_size_mb=5.0)
    fluid = _engine("fluid", dumbbell, wl).run(2.0)
    packet = _engine("packet", dumbbell, wl).run(2.0)
    assert type(fluid) is type(packet) is SubstrateResult
    names = [f.name for f in dataclasses.fields(SubstrateResult)]
    assert names == list(_schema(fluid))
    assert _schema(fluid) == _schema(packet)
    assert _schema(fluid)["measurements"] == (np.int64, np.int64)
    assert _schema(fluid)["link_class_arrivals"] == {np.dtype(float)}
    for result in (fluid, packet):
        data = result.measurements
        assert data.path_ids == tuple(sorted(topo.network.path_ids))
        assert data.num_intervals == 20
        assert set(result.flows_completed) == set(topo.network.path_ids)


class TestUnmeasuredWorkload:
    """No measured path: refused before the interval loop runs."""

    @pytest.fixture
    def unmeasured(self, dumbbell, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the interval loop was reached")

        monkeypatch.setattr(FluidNetwork, "_interval_loop", reached)
        monkeypatch.setattr(PacketNetwork, "_interval_loop", reached)
        topo, _ = dumbbell
        return {
            pid: dataclasses.replace(wl, measured=False)
            for pid, wl in class_workload(
                topo.network.path_ids, mean_size_mb=5.0
            ).items()
        }

    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_run_rejected(self, dumbbell, unmeasured, substrate):
        engine = _engine(substrate, dumbbell, unmeasured)
        with pytest.raises(EmulationError, match="no measured paths"):
            engine.run(2.0)

    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_session_rejected(self, dumbbell, unmeasured, substrate):
        engine = _engine(substrate, dumbbell, unmeasured)
        with pytest.raises(EmulationError, match="no measured paths"):
            engine.session()
