"""Shared-memory transport lifecycle (DESIGN.md S24).

The contract under test: segments are owned by the exporting
registry, refcounted, unlinked exactly once at refcount zero (so
``/dev/shm`` never leaks names — not even when a worker holding a
mapping is killed), and task payloads carry *descriptors*, never
pickled array bytes.
"""

import os
import pickle
import signal

import numpy as np
import pytest

from repro.core.network import Network, Path
from repro.exceptions import MeasurementError
from repro.measurement.records import MeasurementData, PathRecord
from repro.parallel import shm
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    IncidenceShare,
    MeasurementShare,
    SegmentRegistry,
    SharedArrayHandle,
    attach,
    attach_measurements,
    reset_transport_stats,
    shm_available,
    transport_stats,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def _devshm_leftovers():
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # non-Linux: fall back to the registry's view
        return []
    return [n for n in names if n.startswith(SEGMENT_PREFIX)]


@pytest.fixture(autouse=True)
def _no_leaks():
    before = set(_devshm_leftovers())
    yield
    shm.detach_all()
    leaked = [n for n in _devshm_leftovers() if n not in before]
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


def _measurements(num_paths=4, num_intervals=16, seed=3):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(num_paths):
        sent = rng.integers(10, 50, size=num_intervals)
        records.append(
            PathRecord(f"p{i}", sent, rng.binomial(sent, 0.1))
        )
    return MeasurementData(records)


class TestSegmentRegistry:
    def test_export_attach_roundtrip(self):
        reg = SegmentRegistry()
        array = np.arange(24, dtype=np.float64).reshape(4, 6)
        handle = reg.export(array)
        try:
            view = attach(handle)
            np.testing.assert_array_equal(view, array)
            assert not view.flags.writeable
            assert handle.nbytes == array.nbytes
        finally:
            shm.detach_all()
            reg.release(handle.name)
        assert reg.active_segments() == 0

    def test_refcount_unlinks_only_at_zero(self):
        reg = SegmentRegistry()
        handle = reg.export(np.ones(8))
        reg.retain(handle.name)
        reg.release(handle.name)
        # One reference left: the name must still resolve.
        seg_names = _devshm_leftovers()
        assert any(handle.name == n for n in seg_names)
        reg.release(handle.name)
        assert reg.active_segments() == 0
        assert handle.name not in _devshm_leftovers()
        # Idempotent: releasing an already-dead name is a no-op.
        reg.release(handle.name)

    def test_unlink_all_sweeps_everything(self):
        reg = SegmentRegistry()
        handles = [reg.export(np.zeros(4)) for _ in range(3)]
        assert reg.active_segments() == 3
        assert reg.active_bytes() == 3 * 4 * 8
        reg.unlink_all()
        assert reg.active_segments() == 0
        for handle in handles:
            assert handle.name not in _devshm_leftovers()

    def test_exported_bytes_total_is_monotonic(self):
        reg = SegmentRegistry()
        handle = reg.export(np.zeros(16))
        total = reg.exported_bytes_total
        reg.release(handle.name)
        assert reg.exported_bytes_total == total == 16 * 8


class TestCrashSafety:
    def test_killed_worker_does_not_leak(self):
        """POSIX semantics: the owner's unlink removes the name; a
        killed attacher's mapping is reclaimed by the OS without a
        chance to resurrect or leak the segment."""
        reg = SegmentRegistry()
        handle = reg.export(np.arange(32, dtype=np.int64))
        pid = os.fork()
        if pid == 0:  # child: attach, then die without cleanup
            attach(handle)
            os.kill(os.getpid(), signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        reg.release(handle.name)
        assert handle.name not in _devshm_leftovers()

    def test_attach_after_owner_release_fails(self):
        reg = SegmentRegistry()
        handle = reg.export(np.ones(4))
        reg.release(handle.name)
        with pytest.raises(Exception):
            attach(handle)


class TestTransportAccounting:
    def test_handle_pickle_is_counted_and_carries_no_array(self):
        reg = SegmentRegistry()
        handle = reg.export(np.zeros((64, 64)))
        try:
            reset_transport_stats()
            payload = pickle.dumps(handle)
            restored = pickle.loads(payload)
            assert restored == handle
            stats = transport_stats()
            assert stats.handle_pickles == 1
            # The descriptor is metadata: orders of magnitude smaller
            # than the 32 KiB array it references.
            assert len(payload) < 1024
        finally:
            reg.release(handle.name)

    def test_count_task_payload_flags_raw_arrays(self):
        reset_transport_stats()
        shm.count_task_payload((1, ("p0", "p1"), {"k": 2.0}))
        assert transport_stats().task_array_bytes == 0
        shm.count_task_payload((1, np.zeros(10)))
        assert transport_stats().task_array_bytes == 80
        assert transport_stats().tasks == 2


class TestShares:
    def test_measurement_share_roundtrip(self):
        data = _measurements()
        share = MeasurementShare.export(data)
        try:
            back = attach_measurements(share.descriptor)
            np.testing.assert_array_equal(
                back.sent_matrix, data.sent_matrix
            )
            np.testing.assert_array_equal(
                back.lost_matrix, data.lost_matrix
            )
            assert back.path_ids == data.path_ids
            assert back.interval_seconds == data.interval_seconds
            assert (
                back.all_sent_positive == data.all_sent_positive
            )
        finally:
            shm.detach_all()
            share.close()
        # close() is idempotent and the names are gone.
        share.close()
        assert share.descriptor.sent.name not in _devshm_leftovers()

    @pytest.mark.parametrize(
        "lost", [[[0, -1], [0, 0]], [[0, 0], [5, 0]]],
        ids=["negative", "lost-exceeds-sent"],
    )
    def test_attach_rejects_invalid_counters(self, lost):
        """A worker attaching corrupt counters gets a MeasurementError,
        not a silently wrong verdict."""
        sent = shm.REGISTRY.export(np.array([[3, 2], [4, 4]]))
        bad = shm.REGISTRY.export(np.array(lost))
        desc = shm.MeasurementDescriptor(
            sent=sent,
            lost=bad,
            path_ids=("p1", "p2"),
            interval_seconds=0.1,
            all_sent_positive=True,
        )
        try:
            with pytest.raises(MeasurementError):
                attach_measurements(desc)
        finally:
            shm.detach_all()
            shm.REGISTRY.release(sent.name)
            shm.REGISTRY.release(bad.name)

    def test_incidence_share_roundtrip(self):
        net = Network(
            ["l0", "l1", "l2"],
            [
                Path("p0", ("l0", "l1")),
                Path("p1", ("l1", "l2")),
                Path("p2", ("l0", "l2")),
            ],
        )
        share = IncidenceShare.export(net)
        try:
            desc = share.descriptor
            assert desc.path_ids == net.path_ids
            assert desc.link_ids == net.link_ids
            packed = attach(desc.packed)
            bits = np.unpackbits(
                np.ascontiguousarray(packed).view(np.uint8), axis=1
            )[:, : len(desc.link_ids)].astype(bool)
            np.testing.assert_array_equal(
                bits, net.path_index.incidence
            )
        finally:
            shm.detach_all()
            share.close()


class TestHandle:
    def test_handle_is_plain_metadata(self):
        handle = SharedArrayHandle(
            name="x", shape=(2, 3), dtype="float64"
        )
        assert handle.nbytes == 48
