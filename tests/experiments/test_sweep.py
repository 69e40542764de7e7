"""Tests for the parallel sweep runner: determinism, caching, seeding.

The load-bearing properties:

* same seed + config ⇒ identical results for ``workers=1`` and
  ``workers=4`` (parallelism must never leak into outcomes);
* the result cache returns hits instead of re-running;
* per-point seed derivation is stable and key-sensitive.
"""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import batch_key
from repro.experiments.sweep import (
    SweepPoint,
    SweepRunner,
    derive_seed,
)
from repro.experiments.topology_a import (
    _sweep_point_batch,
    compile_topology_a,
    run_full_set,
    sweep_points,
)

QUICK = EmulationSettings(duration_seconds=30.0, warmup_seconds=5.0)


# Module-level so worker pools can pickle it.
def _emulate_point(value, seed):
    """A tiny real emulation: seed-sensitive, value-sensitive."""
    from repro.fluid.params import FlowSlotSpec, PathWorkload
    from repro.fluid.engine import FluidNetwork
    from repro.topology.dumbbell import build_dumbbell

    topo = build_dumbbell()
    wl = {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=value, mean_gap_seconds=2.0),)
            * 4,
            rtt_seconds=0.05,
        )
        for pid in topo.network.path_ids
    }
    sim = FluidNetwork(
        topo.network, topo.classes, topo.link_specs, wl, seed=seed
    )
    res = sim.run(duration_seconds=5.0)
    return {
        pid: res.measurements.record(pid).sent.tolist()
        for pid in res.measurements.path_ids
    }


def _points(values=(1.0, 2.0, 5.0)):
    return [
        SweepPoint(
            key=f"point/{v}", func=_emulate_point, kwargs={"value": v}
        )
        for v in values
    ]


# Module-level batch executors (picklable for worker pools).
def _emulate_batch(seeds, kwargs_list):
    """Reference batch executor: per-member results must equal the
    single-point path exactly, so delegating to it is the contract."""
    return [
        _emulate_point(seed=seed, **kwargs)
        for seed, kwargs in zip(seeds, kwargs_list)
    ]


def _broken_batch(seeds, kwargs_list):
    raise RuntimeError("this batch executor always fails")


def _short_batch(seeds, kwargs_list):
    return [_emulate_point(seed=seeds[0], **kwargs_list[0])]


def _unbatched(points):
    """The same points without batch hooks: the runner runs each
    through its own ``func``."""
    return [replace(p, batch_func=None, batch_group=None) for p in points]


def _batched_points(values=(1.0, 2.0, 5.0), batch_func=_emulate_batch):
    return [
        SweepPoint(
            key=f"point/{v}",
            func=_emulate_point,
            kwargs={"value": v},
            batch_func=batch_func,
            batch_group="grp",
        )
        for v in values
    ]


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_key_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_range(self):
        for base in (0, 1, 2**40):
            for key in ("x", "topoA/set1/10.0"):
                assert 0 <= derive_seed(base, key) < 2**31


class TestValidation:
    def test_workers_positive(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(workers=0)

    def test_duplicate_keys_rejected(self):
        runner = SweepRunner()
        pts = _points((1.0, 1.0))
        with pytest.raises(ConfigurationError):
            runner.run(pts)


class TestDeterminism:
    def test_workers_1_vs_4_identical(self):
        """The headline property: worker count never changes results."""
        seq = SweepRunner(base_seed=5, workers=1).run(_points())
        par = SweepRunner(base_seed=5, workers=4).run(_points())
        assert seq.keys() == par.keys()
        for key in seq:
            assert seq[key] == par[key], key

    def test_same_seed_reproduces(self):
        a = SweepRunner(base_seed=5, workers=2).run(_points())
        b = SweepRunner(base_seed=5, workers=2).run(_points())
        assert a == b

    def test_different_base_seed_differs(self):
        a = SweepRunner(base_seed=5, workers=1).run(_points((5.0,)))
        b = SweepRunner(base_seed=6, workers=1).run(_points((5.0,)))
        assert a != b

    def test_explicit_seed_overrides_derivation(self):
        pts = [
            SweepPoint(
                key="pinned",
                func=_emulate_point,
                kwargs={"value": 5.0},
                seed=123,
            )
        ]
        a = SweepRunner(base_seed=1).run(pts)
        b = SweepRunner(base_seed=999).run(pts)
        assert a == b  # base seed is irrelevant for pinned points

    def test_result_order_follows_point_order(self):
        results = SweepRunner(base_seed=5, workers=4).run(_points())
        assert list(results) == [p.key for p in _points()]


class TestCache:
    def test_hits_instead_of_rerun(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = SweepRunner(base_seed=5, cache_dir=cache)
        a = first.run(_points())
        assert first.stats.cache_hits == 0
        assert first.stats.executed == 3
        second = SweepRunner(base_seed=5, cache_dir=cache)
        b = second.run(_points())
        assert second.stats.cache_hits == 3
        assert second.stats.executed == 0
        assert a == b

    def test_seed_changes_cache_key(self, tmp_path):
        cache = str(tmp_path / "cache")
        SweepRunner(base_seed=5, cache_dir=cache).run(_points((1.0,)))
        other = SweepRunner(base_seed=6, cache_dir=cache)
        other.run(_points((1.0,)))
        assert other.stats.cache_hits == 0
        assert other.stats.executed == 1

    def test_salt_changes_cache_key(self, tmp_path):
        cache = str(tmp_path / "cache")
        SweepRunner(base_seed=5, cache_dir=cache).run(_points((1.0,)))
        salted = SweepRunner(base_seed=5, cache_dir=cache, cache_salt="x")
        salted.run(_points((1.0,)))
        assert salted.stats.cache_hits == 0

    def test_substrate_changes_cache_key(self, tmp_path):
        """Satellite regression: the digest used to fingerprint only
        the fluid engine version, so a packet-substrate point could
        replay a fluid-substrate result from a shared cache dir."""
        cache = str(tmp_path / "cache")
        SweepRunner(base_seed=5, cache_dir=cache).run(_points((1.0,)))
        packet_points = [
            SweepPoint(
                key="point/1.0",
                func=_emulate_point,
                kwargs={"value": 1.0},
                substrate="packet",
            )
        ]
        other = SweepRunner(base_seed=5, cache_dir=cache)
        other.run(packet_points)
        assert other.stats.cache_hits == 0
        assert other.stats.executed == 1

    def test_substrate_version_in_digest(self):
        from repro.emulator.core import PACKET_ENGINE_VERSION
        from repro.fluid.engine import ENGINE_VERSION

        fluid = _points((1.0,))[0]
        packet = SweepPoint(
            key="point/1.0",
            func=_emulate_point,
            kwargs={"value": 1.0},
            substrate="packet",
        )
        assert fluid.spec_digest(1, "") != packet.spec_digest(1, "")
        # Digest must move when the substrate's model version moves.
        import repro.substrate.registry as registry

        class _Stub:
            name = "fluid"
            version = ENGINE_VERSION + "-next"

        original = registry._SUBSTRATES["fluid"]
        registry._SUBSTRATES["fluid"] = _Stub()
        try:
            bumped = fluid.spec_digest(1, "")
        finally:
            registry._SUBSTRATES["fluid"] = original
        assert bumped != fluid.spec_digest(1, "")
        assert PACKET_ENGINE_VERSION  # packet version is a real tag

    def test_corrupt_entry_reruns(self, tmp_path):
        cache = tmp_path / "cache"
        runner = SweepRunner(base_seed=5, cache_dir=str(cache))
        runner.run(_points((1.0,)))
        for entry in cache.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        again = SweepRunner(base_seed=5, cache_dir=str(cache))
        again.run(_points((1.0,)))
        assert again.stats.executed == 1

    def test_truncated_entry_reruns_and_heals(self, tmp_path):
        """Satellite regression: a crashed worker must never be able
        to leave a truncated pickle that poisons ``_cache_load``. The
        atomic temp-file + ``os.replace`` write makes truncation
        impossible in-process; if one appears anyway (kill -9 legacy
        file, disk-full remnant), loading must treat it as a miss and
        the re-run must heal the entry."""
        cache = tmp_path / "cache"
        runner = SweepRunner(base_seed=5, cache_dir=str(cache))
        first = runner.run(_points((1.0,)))
        entries = list(cache.glob("*.pkl"))
        assert len(entries) == 1
        valid = entries[0].read_bytes()
        entries[0].write_bytes(valid[: len(valid) // 2])  # truncate
        again = SweepRunner(base_seed=5, cache_dir=str(cache))
        healed = again.run(_points((1.0,)))
        assert again.stats.cache_hits == 0
        assert again.stats.executed == 1
        assert healed == first
        # ...and the entry is whole again afterwards.
        third = SweepRunner(base_seed=5, cache_dir=str(cache))
        assert third.run(_points((1.0,))) == first
        assert third.stats.cache_hits == 1

    def test_failed_store_preserves_existing_entry(self, tmp_path, monkeypatch):
        """A write that dies mid-pickle must leave the previous entry
        (and no temp litter) behind — the rename is all-or-nothing."""
        import pickle as pickle_module

        cache = tmp_path / "cache"
        runner = SweepRunner(base_seed=5, cache_dir=str(cache))
        first = runner.run(_points((1.0,)))
        [entry] = list(cache.glob("*.pkl"))
        before = entry.read_bytes()

        def exploding_dump(obj, fh, protocol=None):
            fh.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(pickle_module, "dump", exploding_dump)
        # Force a re-execution (cache_salt change) writing to the same
        # directory; its store attempt fails mid-write.
        salted = SweepRunner(
            base_seed=5, cache_dir=str(cache), cache_salt="x"
        )
        rerun = salted.run(_points((1.0,)))
        monkeypatch.undo()
        assert rerun == first  # result still produced
        assert entry.read_bytes() == before  # old entry untouched
        assert not list(cache.glob("*.tmp*"))  # no litter


class TestBatching:
    def test_batched_equals_single(self, tmp_path):
        """Grouped execution must be invisible in the results."""
        plain = SweepRunner(base_seed=5).run(_points())
        batched = SweepRunner(base_seed=5).run(_batched_points())
        assert plain == batched

    def test_batched_equals_single_parallel(self):
        plain = SweepRunner(base_seed=5, workers=1).run(_points())
        batched = SweepRunner(base_seed=5, workers=3).run(
            _batched_points()
        )
        assert plain == batched

    def test_stats_count_batches(self):
        runner = SweepRunner(base_seed=5)
        runner.run(_batched_points())
        assert runner.stats.batches == 1
        assert runner.stats.batched_points == 3
        assert runner.stats.executed == 3

    def test_batch_size_caps_groups(self, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "DEFAULT_BATCH_SIZE", 2)
        runner = SweepRunner(base_seed=5)
        runner.run(_batched_points((1.0, 2.0, 5.0, 7.0, 9.0)))
        # 5 points at cap 2 -> batches of 2+2, last point single.
        assert runner.stats.batches == 2
        assert runner.stats.batched_points == 4

    def test_points_without_hooks_run_singly(self):
        runner = SweepRunner(base_seed=5)
        results = runner.run(_unbatched(_batched_points()))
        assert runner.stats.batches == 0
        assert results == SweepRunner(base_seed=5).run(_points())

    def test_mixed_groups_and_singles(self):
        points = _batched_points((1.0, 2.0)) + _points((5.0,))
        runner = SweepRunner(base_seed=5)
        results = runner.run(points)
        assert runner.stats.batches == 1
        assert runner.stats.batched_points == 2
        assert results == SweepRunner(base_seed=5).run(_points())

    def test_lone_group_member_runs_single(self):
        runner = SweepRunner(base_seed=5)
        runner.run(_batched_points((1.0,)))
        assert runner.stats.batches == 0
        assert runner.stats.executed == 1

    def test_failed_batch_retries_members_singly(self):
        """The retry phase: a broken batch executor must not lose the
        sweep — every member re-runs through its own func, and the
        failure is surfaced as a warning, not swallowed."""
        runner = SweepRunner(base_seed=5)
        with pytest.warns(RuntimeWarning, match="always fails"):
            results = runner.run(
                _batched_points(batch_func=_broken_batch)
            )
        assert runner.stats.batch_retries == 3
        assert results == SweepRunner(base_seed=5).run(_points())

    def test_failed_batch_retries_members_singly_parallel(self):
        runner = SweepRunner(base_seed=5, workers=3)
        with pytest.warns(RuntimeWarning, match="retrying each point"):
            results = runner.run(
                _batched_points(batch_func=_broken_batch)
            )
        assert runner.stats.batch_retries == 3
        assert results == SweepRunner(base_seed=5).run(_points())

    def test_wrong_length_batch_result_retried(self):
        runner = SweepRunner(base_seed=5)
        with pytest.warns(RuntimeWarning):
            results = runner.run(
                _batched_points(batch_func=_short_batch)
            )
        assert runner.stats.batch_retries == 3
        assert results == SweepRunner(base_seed=5).run(_points())

    def test_mismatched_batch_members_recovered_via_guard(self):
        """Review regression: the topology-A batch executor rejects
        members whose shared kwargs disagree (an incomplete
        batch_group upstream must fail loudly, not emulate a member
        under another member's settings); the runner then recovers
        every point singly with correct results. Members may differ
        in seed (each runs at its own), so the settings differ in
        duration."""
        other = EmulationSettings(
            duration_seconds=25.0, warmup_seconds=5.0, seed=9
        )
        from repro.experiments.topology_a import (
            _sweep_point,
            _sweep_point_batch,
        )

        points = [
            SweepPoint(
                key=f"mix/{i}",
                func=_sweep_point,
                kwargs={
                    "set_number": 6,
                    "value": value,
                    "settings": settings,
                    "substrate": "fluid",
                },
                batch_func=_sweep_point_batch,
                batch_group="mix",  # deliberately too-coarse group
            )
            for i, (value, settings) in enumerate(
                [(30.0, QUICK), (20.0, other)]
            )
        ]
        runner = SweepRunner(base_seed=5)
        with pytest.warns(RuntimeWarning, match="must share"):
            results = runner.run(points)
        assert runner.stats.batch_retries == 2
        singles = SweepRunner(base_seed=5).run(_unbatched(points))
        for key in results:
            assert (
                results[key].path_congestion
                == singles[key].path_congestion
            )

    def test_cache_interchangeable_with_single_results(self, tmp_path):
        """Per-point digests are batching-agnostic: a batched sweep
        fills the cache a later unbatched sweep hits, and vice
        versa."""
        cache = str(tmp_path / "cache")
        SweepRunner(base_seed=5, cache_dir=cache).run(_batched_points())
        unbatched = SweepRunner(base_seed=5, cache_dir=cache)
        results = unbatched.run(_points())
        assert unbatched.stats.cache_hits == 3
        assert unbatched.stats.executed == 0
        assert results == SweepRunner(base_seed=5).run(_points())

    def test_partial_cache_batches_only_misses(self, tmp_path):
        cache = str(tmp_path / "cache")
        SweepRunner(base_seed=5, cache_dir=cache).run(_points((1.0,)))
        runner = SweepRunner(base_seed=5, cache_dir=cache)
        runner.run(_batched_points((1.0, 2.0, 5.0)))
        assert runner.stats.cache_hits == 1
        assert runner.stats.batches == 1
        assert runner.stats.batched_points == 2


class TestTiming:
    def test_executed_points_are_timed(self):
        runner = SweepRunner(base_seed=5)
        runner.run(_points())
        stats = runner.stats
        assert set(stats.point_seconds) == {
            p.key for p in _points()
        }
        assert all(s >= 0.0 for s in stats.point_seconds.values())
        assert stats.wall_seconds > 0.0
        assert stats.executed_seconds == pytest.approx(
            sum(stats.point_seconds.values())
        )
        # Compute time is bounded by the (sequential) wall clock.
        assert stats.executed_seconds <= stats.wall_seconds

    def test_cache_hits_are_not_timed(self, tmp_path):
        cache = str(tmp_path / "cache")
        SweepRunner(base_seed=5, cache_dir=cache).run(_points())
        replay = SweepRunner(base_seed=5, cache_dir=cache)
        replay.run(_points())
        assert replay.stats.point_seconds == {}
        assert replay.stats.executed_seconds == 0.0
        # ...but the run still reports a wall clock.
        assert replay.stats.wall_seconds > 0.0

    def test_batch_elapsed_split_across_members(self):
        """A batch's elapsed time is attributed evenly to its
        members, so per-point accounting stays comparable between
        batched and single execution."""
        runner = SweepRunner(base_seed=5)
        runner.run(_batched_points())
        shares = runner.stats.point_seconds
        assert len(shares) == 3
        assert len(set(shares.values())) == 1  # one equal split

    def test_re_executed_digest_accumulates_timing(self, monkeypatch):
        """Regression: a digest whose ok-payload lands more than once
        in one run (e.g. its batch result arrived *and* it re-ran
        singly in the batch-retry phase) used to keep only the *last*
        execution's seconds, silently dropping the earlier compute
        from ``point_seconds`` / ``executed_seconds``. Both slices
        must accumulate."""
        import repro.experiments.sweep as sweep_mod

        real = sweep_mod._execute_task

        def re_executed(task):
            outcome = real(task)
            if outcome[0] != "ok":
                return outcome
            payload = [(d, r, 1.0) for d, r, _ in outcome[1]]
            return ("ok", payload * 2)  # same digest observed twice

        monkeypatch.setattr(sweep_mod, "_execute_task", re_executed)
        runner = SweepRunner(base_seed=5)
        runner.run(_points((1.0,)))
        assert runner.stats.executed == 2
        assert runner.stats.point_seconds == {
            "point/1.0": pytest.approx(2.0)
        }
        assert runner.stats.executed_seconds == pytest.approx(2.0)

    def test_failed_batch_retry_records_retry_timing(self, monkeypatch):
        """The batch-retry phase: a failed batch contributes no
        timing, and each member's single re-run is charged exactly
        once to its own key."""
        import repro.experiments.sweep as sweep_mod

        real = sweep_mod._execute_task

        def pinned_time(task):
            outcome = real(task)
            if outcome[0] != "ok":
                return outcome
            return ("ok", [(d, r, 1.0) for d, r, _ in outcome[1]])

        monkeypatch.setattr(sweep_mod, "_execute_task", pinned_time)
        runner = SweepRunner(base_seed=5)
        with pytest.warns(RuntimeWarning, match="always fails"):
            runner.run(_batched_points(batch_func=_broken_batch))
        assert runner.stats.batch_retries == 3
        assert runner.stats.point_seconds == {
            p.key: pytest.approx(1.0) for p in _points()
        }
        assert runner.stats.executed_seconds == pytest.approx(3.0)


class TestTopologyAWiring:
    def test_run_full_set_parallel_matches_sequential(self, tmp_path):
        """End-to-end: the Table 2 sweep through the real pipeline is
        worker-count-invariant, and caching replays it."""
        cache = str(tmp_path / "cache")
        seq = run_full_set(3, QUICK, workers=1)
        par = run_full_set(3, QUICK, workers=2, cache_dir=cache)
        assert [v for v, _ in seq] == [v for v, _ in par]
        for (_, a), (_, b) in zip(seq, par):
            assert a.verdict_non_neutral == b.verdict_non_neutral
            assert a.path_congestion == b.path_congestion
            for pid in a.emulation.measurements.path_ids:
                np.testing.assert_array_equal(
                    a.emulation.measurements.record(pid).sent,
                    b.emulation.measurements.record(pid).sent,
                )
        cached = run_full_set(3, QUICK, workers=2, cache_dir=cache)
        for (_, a), (_, c) in zip(par, cached):
            assert a.path_congestion == c.path_congestion

    def test_sweep_points_cover_sets(self):
        pts = sweep_points([1, 2], QUICK)
        assert len(pts) == 8  # 4 values + 4 values
        assert len({p.key for p in pts}) == 8
        assert all(p.seed is None for p in pts)
        pinned = sweep_points([1], QUICK, derive_seeds=False)
        assert all(p.seed == QUICK.seed for p in pinned)

    def test_rate_varying_sets_carry_batch_hooks(self):
        """Sets 6/9 share topology+workloads across values (only the
        mechanism rate changes), so they batch on the fluid
        substrate; the values of a workload-varying set share no
        scenario among themselves, and batchless substrates must not
        batch."""
        for set_number in (6, 9):
            pts = sweep_points([set_number], QUICK)
            assert all(p.batch_func is not None for p in pts)
            assert len({p.batch_group for p in pts}) == 1
        for set_number in (1, 4, 7):
            assert all(
                p.batch_func is None
                for p in sweep_points([set_number], QUICK)
            )
        assert all(
            p.batch_func is None and p.batch_group is None
            for p in sweep_points(range(1, 10), QUICK, substrate="packet")
        )

    def test_table2_batch_groups_are_derived_from_scenarios(self):
        """Every point that shares its compiled scenario with another
        point batches, across sets: 27 of Table 2's 34 points, in
        groups of 14, 3 and five pairs. A point alone in its group
        carries neither batch field."""
        pts = sweep_points(range(1, 10), QUICK)
        groups = {}
        for p in pts:
            if p.batch_group is not None:
                assert p.batch_func is _sweep_point_batch
                assert p.batch_group == batch_key(compile_topology_a(
                    p.kwargs["set_number"], p.kwargs["value"], QUICK
                ))
                groups.setdefault(p.batch_group, []).append(p.key)
        assert sorted(map(len, groups.values()), reverse=True) == [
            14, 3, 2, 2, 2, 2, 2,
        ]
        alone = [p for p in pts if p.batch_group is None]
        assert len(alone) == 7
        assert all(p.batch_func is None for p in alone)
        assert sorted(p.key for p in alone) == sorted(
            [f"topoA/set1/{v}" for v in (10.0, 40.0, 10000.0)]
            + [f"topoA/set2/{v}" for v in (80.0, 120.0, 200.0)]
            + ["topoA/set3/newreno"]
        )

    def test_sets_4_and_6_batch_set4_10_with_set6(self):
        """Set 4's 10 Mb point runs the default workloads, so it joins
        set 6's batch; set 4's other values stay single."""
        pts = sweep_points((4, 6), QUICK)
        batched = [p.key for p in pts if p.batch_func is not None]
        assert batched == ["topoA/set4/10.0"] + [
            f"topoA/set6/{v}" for v in (50.0, 40.0, 30.0, 20.0)
        ]
        assert len({p.batch_group for p in pts if p.batch_func}) == 1

    def test_batch_groups_are_stable_across_processes(self):
        """The key is a digest of canonical texts: two interpreters
        with different string-hash seeds derive the same groups."""
        script = (
            "from repro.experiments.config import EmulationSettings\n"
            "from repro.experiments.topology_a import sweep_points\n"
            "s = EmulationSettings(duration_seconds=30.0,"
            " warmup_seconds=5.0)\n"
            "print([p.batch_group for p in sweep_points(range(1, 10), s)])"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
            )
            outputs.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert outputs == {
            repr([p.batch_group for p in sweep_points(range(1, 10), QUICK)])
            + "\n"
        }

    def test_batched_set6_matches_unbatched(self):
        """The real scenario-batched pipeline: one Table 2 rate grid,
        and a cross-set sweep whose batches mix neutral, policed and
        shaped scenarios, emulated in batches must reproduce the
        one-at-a-time sweep outcome for outcome, bit for bit."""
        quick = EmulationSettings(
            duration_seconds=20.0, warmup_seconds=2.0
        )

        def sweep(points):
            runner = SweepRunner.for_settings(quick)
            results = runner.run(points)
            return runner.stats.batched_points, results

        for sets, batched_points in (((6,), 4), ((2, 4, 7), 9)):
            points = sweep_points(sets, quick, derive_seeds=False)
            _, plain = sweep(_unbatched(points))
            count, runner_checked = sweep(points)
            assert count == batched_points
            assert list(plain) == list(runner_checked)
            for key, a in plain.items():
                b = runner_checked[key]
                assert a.verdict_non_neutral == b.verdict_non_neutral
                assert a.path_congestion == b.path_congestion
                assert a.observations == b.observations
                for pid in a.emulation.measurements.path_ids:
                    np.testing.assert_array_equal(
                        a.emulation.measurements.record(pid).sent,
                        b.emulation.measurements.record(pid).sent,
                    )
                    np.testing.assert_array_equal(
                        a.emulation.measurements.record(pid).lost,
                        b.emulation.measurements.record(pid).lost,
                    )

    def test_batched_cache_interchangeable_with_singles(self, tmp_path):
        """A batched Table 2 sweep fills the same per-point cache
        entries the unbatched sweep would hit."""
        quick = EmulationSettings(
            duration_seconds=15.0, warmup_seconds=2.0
        )
        cache = str(tmp_path / "cache")
        run_full_set(6, quick, cache_dir=cache)  # batched fill
        runner = SweepRunner.for_settings(quick, cache_dir=cache)
        runner.run(_unbatched(sweep_points([6], quick, derive_seeds=False)))
        assert runner.stats.cache_hits == 4
        assert runner.stats.executed == 0


class TestPersistentPool:
    def test_pool_survives_runs(self):
        """The tentpole property: one warm pool serves every run()."""
        with SweepRunner(base_seed=5, workers=2) as runner:
            first = runner.run(_points())
            assert runner.stats.workers == 2
            assert runner.stats.pool_reused is False
            assert runner.stats.pool_setup_seconds > 0.0
            second = runner.run(_points())
            assert runner.stats.pool_reused is True
            assert runner.stats.pool_setup_seconds == 0.0
        assert first == second
        runner.close()  # idempotent after the context manager's close
        # Closed: the next run builds a fresh pool.
        third = runner.run(_points())
        assert runner.stats.pool_reused is False
        assert runner.stats.pool_setup_seconds > 0.0
        assert third == first
        runner.close()

    def test_results_identical_to_inline(self):
        seq = SweepRunner(base_seed=5, workers=1).run(_points())
        with SweepRunner(base_seed=5, workers=2) as runner:
            runner.run(_points())
            par = runner.run(_points())  # warm-pool run
            assert runner.stats.pool_reused is True
        assert par == seq

    def test_inline_runner_never_builds_a_pool(self):
        runner = SweepRunner(base_seed=5, workers=1)
        runner.run(_points((1.0,)))
        assert runner.stats.workers == 1
        assert runner.stats.pool_reused is False
        assert runner.stats.pool_setup_seconds == 0.0
        runner.close()  # no-op, must not raise

    def test_batch_retry_keeps_pool_warm(self):
        """A failed batch retries point-by-point on the same warm
        pool, which stays reusable for the next run."""
        expected = SweepRunner(base_seed=5, workers=1).run(_points())
        with SweepRunner(base_seed=5, workers=2) as runner:
            with pytest.warns(RuntimeWarning, match="retrying each"):
                got = runner.run(
                    _batched_points(batch_func=_broken_batch)
                )
            assert runner.stats.batch_retries == 3
            assert got == expected
            runner.run(_points())
            assert runner.stats.pool_reused is True

    def test_summary_renders_pool_line(self):
        from repro.experiments.reporting import render_sweep_summary

        with SweepRunner(base_seed=5, workers=2) as runner:
            runner.run(_points())
            runner.run(_points())
            summary = render_sweep_summary({}, runner.stats)
        assert "parallel: 2 workers, warm pool reused" in summary


def _worker_pids():
    import multiprocessing as mp

    return {proc.pid for proc in mp.active_children()}


class TestPoolLifetime:
    """Which worker processes a parallel runner owns, and when they
    end: the same workers serve every warm run, close() and dropping
    the runner both terminate them, and a reopened pool is new. Each
    run has two points: a lone point runs inline."""

    def test_warm_runs_share_one_set_of_workers(self):
        before = _worker_pids()
        with SweepRunner(base_seed=5, workers=2) as runner:
            runner.run(_points((1.0, 2.0)))
            workers = _worker_pids() - before
            assert len(workers) == 2
            runner.run(_points((5.0, 0.5)))
            assert _worker_pids() - before == workers

    def test_close_terminates_the_workers(self):
        before = _worker_pids()
        runner = SweepRunner(base_seed=5, workers=2)
        runner.run(_points((1.0, 2.0)))
        workers = _worker_pids() - before
        runner.close()
        assert not workers & _worker_pids()

    def test_dropped_runner_terminates_its_workers(self):
        import gc

        before = _worker_pids()
        runner = SweepRunner(base_seed=5, workers=2)
        runner.run(_points((1.0, 2.0)))
        workers = _worker_pids() - before
        assert workers
        del runner
        gc.collect()
        assert not workers & _worker_pids()

    def test_reopened_pool_has_new_workers(self):
        before = _worker_pids()
        runner = SweepRunner(base_seed=5, workers=2)
        runner.run(_points((1.0, 2.0)))
        first = _worker_pids() - before
        runner.close()
        runner.run(_points((1.0, 2.0)))
        second = _worker_pids() - before
        runner.close()
        assert len(second) == 2
        assert not first & second


def test_for_settings_binds_seed_and_fingerprint():
    settings = QUICK.with_seed(11)
    runner = SweepRunner.for_settings(settings, workers=1)
    assert runner.base_seed == 11
    assert runner.cache_salt == settings.fingerprint()
    other = SweepRunner.for_settings(settings.quick(20.0))
    assert other.cache_salt != runner.cache_salt
