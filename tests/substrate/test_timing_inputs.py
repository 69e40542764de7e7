"""Run and session timing: both engines apply one set of rules.

A duration and an interval must be finite and positive, and a warmup
finite and non-negative. Both substrates reject anything else with
:class:`EmulationError` before they emulate a step, so a NaN or an
infinity never reaches a ``round`` or an ``int`` cast as a bare
``ValueError`` or ``OverflowError``. A fluid batch runs every world
for one duration and swaps every world's specs at once.
"""

import dataclasses

import numpy as np
import pytest

from repro.emulator.core import PacketNetwork
from repro.exceptions import EmulationError
from repro.fluid.batch import FluidBatchNetwork
from repro.fluid.engine import FluidNetwork
from repro.fluid.params import PolicerSpec
from repro.measurement.records import RecordChunk
from repro.substrate.spec import normalize_specs
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell
from repro.workloads.profiles import class_workload

SUBSTRATES = ["fluid", "packet"]
NAN, INF = float("nan"), float("inf")
BAD_SPANS = [NAN, INF, 0.0, -1.0]
BAD_WARMUPS = [NAN, INF, -0.05]


@pytest.fixture(scope="module")
def dumbbell():
    topo = build_dumbbell()
    return (
        topo,
        normalize_specs(topo.link_specs),
        class_workload(topo.network.path_ids, mean_size_mb=5.0),
    )


def _engine(substrate, dumbbell, seed=1):
    topo, specs, wl = dumbbell
    if substrate == "fluid":
        return FluidNetwork(topo.network, topo.classes, specs, wl, seed=seed)
    return PacketNetwork(
        topo.network, topo.classes, specs, workloads=wl, seed=seed
    )


class TestBothEnginesReject:
    @pytest.mark.parametrize("duration", BAD_SPANS)
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_run_duration(self, dumbbell, substrate, duration):
        with pytest.raises(EmulationError):
            _engine(substrate, dumbbell).run(duration)

    @pytest.mark.parametrize("interval", BAD_SPANS)
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_run_interval(self, dumbbell, substrate, interval):
        with pytest.raises(EmulationError):
            _engine(substrate, dumbbell).run(1.0, interval_seconds=interval)

    @pytest.mark.parametrize("interval", BAD_SPANS)
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_session_interval(self, dumbbell, substrate, interval):
        with pytest.raises(EmulationError):
            _engine(substrate, dumbbell).session(interval_seconds=interval)

    @pytest.mark.parametrize("warmup", BAD_WARMUPS)
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_session_warmup(self, dumbbell, substrate, warmup):
        with pytest.raises(EmulationError):
            _engine(substrate, dumbbell).session(warmup_seconds=warmup)


class TestBatchTiming:
    def _batch(self, dumbbell, spec_sets):
        topo, _, wl = dumbbell
        return FluidBatchNetwork(
            topo.network, topo.classes, spec_sets, wl,
            list(range(1, len(spec_sets) + 1)),
        )

    @pytest.mark.parametrize(
        "duration", [[1.0, 2.0], np.array([1.0, 2.0])]
    )
    def test_run_takes_one_duration(self, dumbbell, duration):
        _, specs, _ = dumbbell
        with pytest.raises(EmulationError, match="one number"):
            self._batch(dumbbell, [specs, specs]).run(duration)

    def test_advance_returns_one_chunk_per_world(self, dumbbell):
        _, specs, _ = dumbbell
        session = self._batch(dumbbell, [specs] * 3).session()
        for start, n in ((0, 4), (4, 2)):
            chunks = session.advance(n)
            assert len(chunks) == 3
            for chunk in chunks:
                assert isinstance(chunk, RecordChunk)
                assert chunk.start_interval == start
                assert chunk.num_intervals == n
        assert session.intervals_done == 6

    def test_swap_applies_to_every_world(self, dumbbell):
        """Each world of a swapped batch matches a single session with
        the same seed and the same swap, and differs from the same
        world left unswapped."""
        topo, specs, wl = dumbbell
        policed = dict(specs)
        policed[SHARED_LINK] = dataclasses.replace(
            specs[SHARED_LINK], policer=PolicerSpec("c2", 0.1)
        )
        batch = self._batch(dumbbell, [specs, specs]).session()
        singles = [
            FluidNetwork(
                topo.network, topo.classes, specs, wl, seed=seed
            ).session()
            for seed in (1, 2)
        ]
        batch_chunks = [batch.advance(5)]
        single_chunks = [[s.advance(5)] for s in singles]
        batch.set_link_specs(policed)
        for s in singles:
            s.set_link_specs(policed)
        batch_chunks.append(batch.advance(10))
        for b, s in enumerate(singles):
            single_chunks[b].append(s.advance(10))
        unswapped = self._batch(dumbbell, [specs, specs]).session()
        unswapped.advance(5)
        kept = unswapped.advance(10)
        for b in range(2):
            assert not np.array_equal(batch_chunks[1][b].lost, kept[b].lost)
            for seg in range(2):
                np.testing.assert_array_equal(
                    batch_chunks[seg][b].sent, single_chunks[b][seg].sent
                )
                np.testing.assert_array_equal(
                    batch_chunks[seg][b].lost, single_chunks[b][seg].lost
                )
