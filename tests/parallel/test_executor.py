"""ShardExecutor legs vs the sequential pipeline (DESIGN.md S24).

Every leg — inline, thread, process+shm — must return per-shard
``ShardResult`` arrays bitwise-equal to direct
:func:`~repro.parallel.executor.shard_contribution` calls, and the
process leg must move matrices through shared memory only (zero
ndarray bytes in task payloads).
"""

import os

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.measurement.synthetic import synthesize_records
from repro.parallel import (
    ENV_WORKERS,
    REGISTRY,
    ShardExecutor,
    default_infer_workers,
    reset_transport_stats,
    resolve_shard_mode,
    shard_contribution,
    transport_stats,
)
from repro.topology.generators import random_two_class_performance
from repro.topology.multi_isp import build_federated_multi_isp


def _case(num_isps=3, hosts=4, seed=11, intervals=120):
    fed = build_federated_multi_isp(num_isps, hosts)
    perf, _ = random_two_class_performance(
        np.random.default_rng(seed), fed.network, num_violations=2
    )
    data = synthesize_records(
        perf, np.random.default_rng(seed + 1), num_intervals=intervals
    )
    shard_path_ids = [
        shard.path_ids
        for shard in fed.shard_plan().shards
        if len(shard.path_ids) >= 2
    ]
    return fed.network, data, shard_path_ids


def _sequential(net, data, shard_path_ids):
    return [
        shard_contribution(
            net,
            data,
            pids,
            loss_threshold=0.05,
            normalization_mode="expected",
        )
        for pids in shard_path_ids
    ]


def _assert_results_bitwise(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if e is None:
            assert g is None
            continue
        assert g.sigmas == e.sigmas
        np.testing.assert_array_equal(g.offsets, e.offsets)
        np.testing.assert_array_equal(g.keys, e.keys)
        # Bitwise, not approx: the executor contract.
        assert g.estimates.tobytes() == e.estimates.tobytes()


class TestWorkerConfig:
    def test_default_is_inline(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert default_infer_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "4")
        assert default_infer_workers() == 4

    @pytest.mark.parametrize("raw", ["zero", "-1", "0"])
    def test_bad_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_WORKERS, raw)
        with pytest.raises(ConfigurationError):
            default_infer_workers()

    def test_mode_resolution(self):
        assert resolve_shard_mode("auto") == "process"
        assert resolve_shard_mode("thread") == "thread"
        with pytest.raises(ConfigurationError):
            resolve_shard_mode("greenlet")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardExecutor(workers=2, mode="fiber")
        with pytest.raises(ConfigurationError):
            ShardExecutor(workers=0)


class TestLegs:
    def test_inline_leg_matches_sequential(self):
        net, data, shards = _case()
        expected = _sequential(net, data, shards)
        with ShardExecutor(workers=1) as ex:
            got = ex.run_shards(
                net,
                data,
                shards,
                loss_threshold=0.05,
                normalization_mode="expected",
            )
        assert ex.last_mode == "inline"
        _assert_results_bitwise(got, expected)

    def test_thread_leg_matches_sequential(self):
        net, data, shards = _case()
        expected = _sequential(net, data, shards)
        with ShardExecutor(workers=2, mode="thread") as ex:
            got = ex.run_shards(
                net,
                data,
                shards,
                loss_threshold=0.05,
                normalization_mode="expected",
            )
            assert ex.last_mode == "thread"
            assert ex.last_shm_bytes == 0
        _assert_results_bitwise(got, expected)

    def test_process_leg_matches_sequential(self):
        net, data, shards = _case()
        expected = _sequential(net, data, shards)
        with ShardExecutor(workers=2, mode="process") as ex:
            got = ex.run_shards(
                net,
                data,
                shards,
                loss_threshold=0.05,
                normalization_mode="expected",
            )
            assert ex.last_mode == "process"
            assert ex.last_shm_bytes > 0
        _assert_results_bitwise(got, expected)
        # All segments released after the gather.
        assert REGISTRY.active_segments() == 0

    def test_process_leg_is_pickle_free(self):
        net, data, shards = _case()
        reset_transport_stats()
        with ShardExecutor(workers=2, mode="process") as ex:
            ex.run_shards(
                net,
                data,
                shards,
                loss_threshold=0.05,
                normalization_mode="expected",
            )
        stats = transport_stats()
        assert stats.tasks == len(shards)
        # The invariant of the transport layer: matrices travel via
        # shared memory, task payloads carry zero ndarray bytes.
        assert stats.task_array_bytes == 0
        assert stats.shm_bytes_exported == (
            data.sent_matrix.nbytes
            + data.lost_matrix.nbytes
            + net.path_index.packed.nbytes
        )

    def test_executor_reuse_across_runs(self):
        """Two consecutive runs on one executor: same pool, fresh
        segments, identical results both times."""
        net, data, shards = _case()
        expected = _sequential(net, data, shards)
        with ShardExecutor(workers=2, mode="process") as ex:
            first = ex.run_shards(
                net,
                data,
                shards,
                loss_threshold=0.05,
                normalization_mode="expected",
            )
            pool = ex._pool
            second = ex.run_shards(
                net,
                data,
                shards,
                loss_threshold=0.05,
                normalization_mode="expected",
            )
            assert ex._pool is pool  # warm pool survived
            assert ex.runs == 2
        _assert_results_bitwise(first, expected)
        _assert_results_bitwise(second, expected)
        assert REGISTRY.active_segments() == 0

    def test_single_shard_runs_inline(self):
        net, data, shards = _case()
        with ShardExecutor(workers=4, mode="process") as ex:
            got = ex.run_shards(
                net,
                data,
                shards[:1],
                loss_threshold=0.05,
                normalization_mode="expected",
            )
        assert ex.last_mode == "inline"
        _assert_results_bitwise(
            got, _sequential(net, data, shards[:1])
        )

    def test_close_is_idempotent(self):
        ex = ShardExecutor(workers=2, mode="process")
        ex.close()
        ex.close()


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-based crash test"
)
def test_no_devshm_leak_after_runs():
    net, data, shards = _case(num_isps=2, hosts=3, intervals=60)
    with ShardExecutor(workers=2, mode="process") as ex:
        ex.run_shards(
            net,
            data,
            shards,
            loss_threshold=0.05,
            normalization_mode="expected",
        )
    try:
        leftovers = [
            n
            for n in os.listdir("/dev/shm")
            if n.startswith("repro-par")
        ]
    except OSError:
        leftovers = []
    assert leftovers == []
