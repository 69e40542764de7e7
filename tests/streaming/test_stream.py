"""Record streams and resumable substrate sessions.

The load-bearing guarantee of the streaming layer: advancing an
emulation in segments — through the engine sessions directly or the
substrate-agnostic :class:`EmulationStream` — produces *bit-identical*
records and ground truth to a one-shot run of the same total length,
on both substrates. Everything the monitor concludes then reduces to
properties of the offline pipeline, which the golden suites already
pin.
"""

import numpy as np
import pytest

from repro.emulator.core import PacketNetwork
from repro.exceptions import (
    ConfigurationError,
    EmulationError,
    MeasurementError,
)
from repro.experiments.config import EmulationSettings
from repro.fluid.engine import FluidNetwork
from repro.measurement.records import MeasurementData, PathRecord
from repro.streaming.stream import EmulationStream, ReplayStream
from repro.substrate.registry import get_substrate
from repro.substrate.spec import normalize_specs
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell
from repro.workloads.profiles import class_workload

QUICK = EmulationSettings(
    duration_seconds=10.0, warmup_seconds=2.0, seed=5
)


@pytest.fixture(scope="module")
def dumbbell():
    return build_dumbbell(mechanism="policing")


@pytest.fixture(scope="module")
def neutral_dumbbell():
    return build_dumbbell(mechanism=None)


@pytest.fixture(scope="module")
def workloads(dumbbell):
    return class_workload(dumbbell.network.path_ids, mean_size_mb=5.0)


def _assert_results_equal(one, seg):
    assert one.measurements.path_ids == seg.measurements.path_ids
    np.testing.assert_array_equal(
        one.measurements.sent_matrix, seg.measurements.sent_matrix
    )
    np.testing.assert_array_equal(
        one.measurements.lost_matrix, seg.measurements.lost_matrix
    )
    for lid, occ in one.queue_occupancy.items():
        np.testing.assert_array_equal(occ, seg.queue_occupancy[lid])
    for lid, by_class in one.link_class_drops.items():
        for cn, arr in by_class.items():
            np.testing.assert_array_equal(
                arr, seg.link_class_drops[lid][cn]
            )
    for pid, rtt in one.path_rtt_seconds.items():
        np.testing.assert_array_equal(rtt, seg.path_rtt_seconds[pid])
    assert one.flows_completed == seg.flows_completed


def _assert_chunks_are_the_result(chunks, result):
    """A session's chunks concatenate to exactly its result's
    measured-path counters (one rounding serves both)."""
    data = result.measurements
    for chunk in chunks:
        assert chunk.path_ids == data.path_ids
    assert [c.start_interval for c in chunks[1:]] == [
        c.end_interval for c in chunks[:-1]
    ]
    for attr in ("sent", "lost"):
        matrix = getattr(data, f"{attr}_matrix")
        joined = np.concatenate([getattr(c, attr) for c in chunks], axis=1)
        assert joined.dtype == matrix.dtype == np.int64
        np.testing.assert_array_equal(joined, matrix)


class TestFluidSession:
    def test_segmented_equals_one_shot(self, dumbbell, workloads):
        def make():
            return FluidNetwork(
                dumbbell.network,
                dumbbell.classes,
                dumbbell.link_specs,
                workloads,
                seed=5,
            )

        one = make().run(duration_seconds=10.0, warmup_seconds=2.0)
        session = make().session(warmup_seconds=2.0)
        chunks = [session.advance(n) for n in (30, 1, 49, 20)]
        _assert_results_equal(one, session.result())
        _assert_chunks_are_the_result(chunks, session.result())
        assert [c.start_interval for c in chunks] == [0, 30, 31, 80]

    def test_result_before_advance_rejected(self, dumbbell, workloads):
        session = FluidNetwork(
            dumbbell.network,
            dumbbell.classes,
            dumbbell.link_specs,
            workloads,
            seed=5,
        ).session()
        with pytest.raises(EmulationError):
            session.result()
        with pytest.raises(EmulationError):
            session.advance(0)

    def test_swap_validation(self, dumbbell, workloads):
        session = FluidNetwork(
            dumbbell.network,
            dumbbell.classes,
            dumbbell.link_specs,
            workloads,
            seed=5,
        ).session()
        with pytest.raises(ConfigurationError):
            session.set_link_specs({"no-such-link": dumbbell.link_specs[SHARED_LINK]})

    def test_policy_onset_changes_stream(
        self, dumbbell, neutral_dumbbell, workloads
    ):
        """Switching policing on mid-run actually differentiates from
        that point; the pre-switch prefix matches a neutral run."""

        def neutral_sim():
            return FluidNetwork(
                neutral_dumbbell.network,
                neutral_dumbbell.classes,
                neutral_dumbbell.link_specs,
                workloads,
                seed=5,
            )

        baseline = neutral_sim().run(
            duration_seconds=16.0, warmup_seconds=2.0
        )
        session = neutral_sim().session(warmup_seconds=2.0)
        pre = session.advance(80)
        session.set_link_specs(dumbbell.link_specs)
        session.advance(80)
        switched = session.result()
        # Identical prefix (the swap is applied exactly at the
        # boundary), diverging afterwards.
        np.testing.assert_array_equal(
            pre.sent, baseline.measurements.sent_matrix[:, :80]
        )
        post_drops = {
            lid: by_class["c2"][80:].sum()
            for lid, by_class in switched.link_class_drops.items()
        }
        base_drops = baseline.link_class_drops[SHARED_LINK]["c2"][80:].sum()
        assert post_drops[SHARED_LINK] > base_drops + 100


    def test_dual_queue_backlog_survives_swap_off(self, workloads):
        """Regression: turning a shaper OFF mid-run must fold its
        virtual-queue backlog into the droptail queue so it drains —
        not strand it in reported occupancy forever."""
        shaped = build_dumbbell(mechanism="shaping")
        neutral = build_dumbbell(mechanism=None)
        session = FluidNetwork(
            shaped.network,
            shaped.classes,
            shaped.link_specs,
            workloads,
            seed=5,
        ).session(warmup_seconds=2.0)
        session.advance(150)  # let the shaper build standing backlog
        session.set_link_specs(neutral.link_specs)
        session.advance(200)
        occ = session.result().queue_occupancy[SHARED_LINK]
        at_swap = occ[149]
        assert at_swap > 1.0  # the shaper really was backlogged
        # After the swap the backlog is serviceable again: occupancy
        # falls well below the shaped level and reaches (near) empty
        # in at least some post-swap interval.
        assert occ[150:].min() < min(1.0, 0.1 * at_swap)

    def test_droptail_backlog_moves_into_dual_queues(self, workloads):
        """The converse swap hands the droptail backlog to the
        virtual queues instead of double-serving the link at 2x
        capacity (total occupancy stays continuous at the boundary)."""
        shaped = build_dumbbell(mechanism="shaping")
        neutral = build_dumbbell(mechanism=None)
        session = FluidNetwork(
            neutral.network,
            neutral.classes,
            neutral.link_specs,
            workloads,
            seed=5,
        ).session(warmup_seconds=2.0)
        session.advance(150)
        session.set_link_specs(shaped.link_specs)
        session.advance(10)
        occ = session.result().queue_occupancy[SHARED_LINK]
        # No discontinuous drain: right after the swap the occupancy
        # cannot fall by more than ~one interval of full capacity
        # (which is what a 2x-service bug would exceed when the
        # pre-swap queue was deep).
        cap_per_interval = 1e8 / 12000 * 0.1  # 100 Mbps, 0.1 s
        assert occ[150] >= occ[149] - cap_per_interval


class TestPacketSession:
    def test_segmented_equals_one_shot(self, dumbbell, workloads):
        specs = normalize_specs(dumbbell.link_specs)

        def make():
            return PacketNetwork(
                dumbbell.network,
                dumbbell.classes,
                specs,
                workloads=workloads,
                seed=7,
            )

        one = make().run(duration_seconds=8.0, warmup_seconds=2.0)
        session = make().session(warmup_seconds=2.0)
        chunks = [session.advance(n) for n in (13, 1, 50, 16)]
        _assert_results_equal(one, session.result())
        _assert_chunks_are_the_result(chunks, session.result())

    def test_swap_validation(self, dumbbell, workloads):
        specs = normalize_specs(dumbbell.link_specs)
        session = PacketNetwork(
            dumbbell.network,
            dumbbell.classes,
            specs,
            workloads=workloads,
            seed=7,
        ).session()
        with pytest.raises(ConfigurationError):
            session.set_link_specs({"no-such-link": specs[SHARED_LINK]})


class TestSubstrateStart:
    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_start_matches_run(self, substrate, dumbbell, workloads):
        specs = normalize_specs(dumbbell.link_specs)
        one = get_substrate(substrate).run(
            dumbbell.network, dumbbell.classes, specs, workloads, QUICK
        )
        session = get_substrate(substrate).start(
            dumbbell.network, dumbbell.classes, specs, workloads, QUICK
        )
        session.advance(60)
        session.advance(40)
        assert session.intervals_done == 100
        _assert_results_equal(one, session.result())

    def test_session_accepts_shared_specs(self, dumbbell, workloads):
        specs = normalize_specs(dumbbell.link_specs)
        session = get_substrate("fluid").start(
            dumbbell.network, dumbbell.classes, specs, workloads, QUICK
        )
        session.advance(1)
        session.set_link_specs(specs)  # the engine session, unwrapped
        session.advance(1)
        assert session.intervals_done == 2


class TestReplayStream:
    def test_chunks_reassemble(self):
        rng = np.random.default_rng(0)
        sent = rng.integers(1, 50, size=(3, 37))
        lost = rng.integers(0, 5, size=(3, 37))
        lost = np.minimum(lost, sent)
        data = MeasurementData(
            [
                PathRecord(f"p{i}", sent[i], lost[i])
                for i in range(3)
            ],
            0.1,
        )
        stream = ReplayStream(data, chunk_intervals=10)
        chunks = list(stream)
        assert [c.num_intervals for c in chunks] == [10, 10, 10, 7]
        assert [c.start_interval for c in chunks] == [0, 10, 20, 30]
        np.testing.assert_array_equal(
            np.concatenate([c.sent for c in chunks], axis=1),
            data.sent_matrix,
        )
        # Re-iterating replays from the start (pure view of the data).
        assert len(list(stream)) == 4

    def test_bad_chunk_rejected(self):
        data = MeasurementData([PathRecord("p1", [1], [0])], 0.1)
        with pytest.raises(MeasurementError):
            ReplayStream(data, chunk_intervals=0)


class TestEmulationStream:
    def test_stream_matches_one_shot(self, dumbbell, workloads):
        specs = normalize_specs(dumbbell.link_specs)
        one = get_substrate("fluid").run(
            dumbbell.network, dumbbell.classes, specs, workloads, QUICK
        )
        stream = EmulationStream(
            dumbbell.network,
            dumbbell.classes,
            specs,
            workloads,
            settings=QUICK,
            chunk_intervals=30,
        )
        chunks = list(stream)
        assert sum(c.num_intervals for c in chunks) == 100
        np.testing.assert_array_equal(
            np.concatenate([c.sent for c in chunks], axis=1),
            one.measurements.sent_matrix,
        )
        _assert_results_equal(one, stream.result())

    def test_single_use(self, dumbbell, workloads):
        stream = EmulationStream(
            dumbbell.network,
            dumbbell.classes,
            normalize_specs(dumbbell.link_specs),
            workloads,
            settings=QUICK,
        )
        list(stream)
        with pytest.raises(ConfigurationError):
            list(stream)

    def test_switch_boundaries_respected(
        self, neutral_dumbbell, dumbbell, workloads
    ):
        """Chunks split exactly at scheduled switch intervals."""
        stream = EmulationStream(
            neutral_dumbbell.network,
            neutral_dumbbell.classes,
            normalize_specs(neutral_dumbbell.link_specs),
            workloads,
            settings=QUICK,
            chunk_intervals=30,
            switches={45: normalize_specs(dumbbell.link_specs)},
        )
        starts = [c.start_interval for c in stream]
        assert 45 in starts
        assert stream.session.intervals_done == 100

    def test_keep_ground_truth_false_bounds_memory(
        self, dumbbell, workloads
    ):
        """Dropping history leaves the chunks bit-identical but makes
        result() unavailable (the continuous-monitoring mode)."""
        specs = normalize_specs(dumbbell.link_specs)

        def chunks_of(keep):
            stream = EmulationStream(
                dumbbell.network,
                dumbbell.classes,
                specs,
                workloads,
                settings=QUICK,
                chunk_intervals=30,
                keep_ground_truth=keep,
            )
            return stream, list(stream)

        full_stream, full = chunks_of(True)
        lean_stream, lean = chunks_of(False)
        for a, b in zip(full, lean):
            np.testing.assert_array_equal(a.sent, b.sent)
            np.testing.assert_array_equal(a.lost, b.lost)
        full_stream.result()  # available with history
        with pytest.raises(EmulationError):
            lean_stream.result()

    def test_bad_switch_interval_rejected(self, dumbbell, workloads):
        with pytest.raises(ConfigurationError):
            EmulationStream(
                dumbbell.network,
                dumbbell.classes,
                normalize_specs(dumbbell.link_specs),
                workloads,
                settings=QUICK,
                switches={1000: {}},
            )
