"""Parallel execution of the per-shard inference pipeline.

The compute layer of :mod:`repro.parallel` (DESIGN.md S24): one
module-level :func:`shard_contribution` is *the* per-shard pipeline —
``restricted_to_paths → build_slice_batch → batch_slice_observations
→ batch_pair_estimates_arrays → global pair keys`` — and the executor
merely decides where it runs:

* **inline** (``workers == 1``): the exact sequential loop.
* **thread leg**: the same function over the parent's objects on a
  ``ThreadPoolExecutor``, with no transport at all. Opt-in
  (``mode="thread"``).
* **process leg**: what ``auto`` resolves to. Matrices and packed
  incidence travel once through
  :mod:`repro.parallel.shm` segments; per-task payloads carry only
  shard identities and descriptors, and workers rebuild sub-networks
  from the shared incidence.

Bitwise identity: every leg computes per-shard ``(σ, keys,
estimates)`` arrays with the same numpy arithmetic on the same
inputs, and the caller folds them **in shard order** — so the σ-keyed
merge in :func:`repro.core.sharding.infer_sharded` sees byte-for-byte
the contributions the sequential loop produces (DESIGN.md S24 has the
full argument).

This module also hosts :class:`SweepExecutor`, the persistent warm
pool behind :class:`repro.experiments.sweep.SweepRunner`: one pool
survives across ``run()`` calls and adaptive waves, so per-wave
dispatch stops paying fork + import costs.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.network import LinkSeq, Network, Path
from repro.core.slices import (
    batch_pair_estimates_arrays,
    build_slice_batch,
    pair_keys,
)
from repro.exceptions import ConfigurationError
from repro.measurement.normalize import batch_slice_observations
from repro.measurement.records import MeasurementData
from repro.parallel import shm

#: Worker-count override for parallel sharded inference; unset means
#: inline sequential execution (deterministic default).
ENV_WORKERS = "REPRO_INFER_WORKERS"

#: Executor modes: ``auto`` resolves to ``process``.
MODES = ("auto", "thread", "process")


def default_infer_workers() -> int:
    """Worker count from :data:`ENV_WORKERS` (1 when unset)."""
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_WORKERS} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ConfigurationError(
            f"{ENV_WORKERS} must be >= 1, got {workers}"
        )
    return workers


def resolve_shard_mode(mode: str = "auto") -> str:
    """Resolve ``auto`` to a concrete leg.

    ``auto`` is processes plus shared-memory transport; the thread
    leg is opt-in.
    """
    if mode not in MODES:
        raise ConfigurationError(
            f"unknown parallel mode {mode!r}; expected one of {MODES}"
        )
    return "process" if mode == "auto" else mode


class ShardResult(NamedTuple):
    """One shard's merged-merge input, in gatherable array form.

    ``keys[offsets[s]:offsets[s+1]]`` / ``estimates[...]`` are the
    global pair keys and pair estimates of ``sigmas[s]`` — exactly
    the ``(keys, estimates)`` slices the sequential loop appends into
    ``per_sigma``.
    """

    sigmas: Tuple[LinkSeq, ...]
    offsets: np.ndarray
    keys: np.ndarray
    estimates: np.ndarray

    @property
    def pairs(self) -> int:
        return int(self.keys.size)


def shard_contribution(
    net: Network,
    measurements: MeasurementData,
    shard_path_ids: Sequence[str],
    *,
    loss_threshold: float,
    normalization_mode: str,
) -> Optional[ShardResult]:
    """The per-shard pipeline, shared by every execution leg.

    Returns ``None`` for a shard with no σ systems. Only called on
    the expected-mode fast path (the only inputs
    :func:`~repro.core.sharding.infer_sharded` shards), so no rng is
    consumed.
    """
    sub = net.restricted_to_paths(shard_path_ids)
    # Threshold 1: keep every σ group — Algorithm 1 line 10 applies
    # to the *merged* counts, not the per-shard ones.
    batch, _ = build_slice_batch(sub, 1)
    if batch.num_systems == 0:
        return None
    _, y_single, y_pair_flat = batch_slice_observations(
        measurements,
        batch,
        loss_threshold=loss_threshold,
        mode=normalization_mode,
        rng=None,
    )
    estimates = batch_pair_estimates_arrays(batch, y_single, y_pair_flat)
    index = net.path_index
    # Shard→global row map is monotonic (both id-sorted), so a < b
    # survives and keys stay row-major within a group.
    to_global = index.rows(batch.index.path_ids)
    keys = pair_keys(
        to_global[batch.pair_a], to_global[batch.pair_b], index.num_paths
    )
    return ShardResult(batch.sigmas, batch.offsets, keys, estimates)


# ----------------------------------------------------------------------
# Process-leg worker
# ----------------------------------------------------------------------

#: One-entry worker cache of run-scoped derived state (attached
#: views, unpacked incidence, row maps); rotated when a task names a
#: different segment pair.
_WORKER_STATE: Dict[Tuple, Dict] = {}


def _worker_state(meas_desc, inc_desc, params) -> Dict:
    key = (meas_desc.sent.name, inc_desc.packed.name, params)
    state = _WORKER_STATE.get(key)
    if state is not None:
        return state
    _WORKER_STATE.clear()
    shm.detach_all()
    data = shm.attach_measurements(meas_desc)
    packed = shm.attach(inc_desc.packed)
    num_links = len(inc_desc.link_ids)
    bits = np.unpackbits(
        np.ascontiguousarray(packed).view(np.uint8), axis=1
    )[:, :num_links].astype(bool)
    state = {
        "data": data,
        "bits": bits,
        "pos": {pid: i for i, pid in enumerate(inc_desc.path_ids)},
        "link_ids": inc_desc.link_ids,
        "num_paths": len(inc_desc.path_ids),
    }
    _WORKER_STATE[key] = state
    return state


def _run_shard_task(task) -> Tuple[int, Optional[ShardResult]]:
    """Worker entry: rebuild the shard's sub-network from the shared
    incidence and run the pipeline over the shared matrices.

    Paths are reconstructed with links in incidence-column (sorted)
    order; every downstream quantity — sub-incidence, σ sequences
    (canonicalized sorted tuples), pair arrays, estimates — depends
    only on link *sets*, so results are bitwise-identical to the
    parent-side :func:`shard_contribution`.
    """
    seq, shard_path_ids, meas_desc, inc_desc, params = task
    loss_threshold, normalization_mode = params
    state = _worker_state(meas_desc, inc_desc, params)
    bits = state["bits"]
    link_ids = state["link_ids"]
    pos = state["pos"]
    paths = []
    used = set()
    for pid in shard_path_ids:
        links = tuple(
            link_ids[k] for k in np.flatnonzero(bits[pos[pid]])
        )
        paths.append(Path(pid, links))
        used.update(links)
    sub = Network(sorted(used), paths)
    batch, _ = build_slice_batch(sub, 1)
    if batch.num_systems == 0:
        return seq, None
    _, y_single, y_pair_flat = batch_slice_observations(
        state["data"],
        batch,
        loss_threshold=loss_threshold,
        mode=normalization_mode,
        rng=None,
    )
    estimates = batch_pair_estimates_arrays(batch, y_single, y_pair_flat)
    to_global = np.array(
        [pos[pid] for pid in batch.index.path_ids], dtype=np.intp
    )
    keys = pair_keys(
        to_global[batch.pair_a], to_global[batch.pair_b], state["num_paths"]
    )
    return seq, ShardResult(batch.sigmas, batch.offsets, keys, estimates)


def _terminate_pool(pool) -> None:
    pool.terminate()
    pool.join()


def _make_pool(workers: int):
    import multiprocessing as mp
    import sys

    # fork is the cheap option where it is safe (Linux); elsewhere
    # fall back to the platform default (spawn) — task payloads are
    # picklable descriptors, so both work.
    method = "fork" if sys.platform == "linux" else None
    return mp.get_context(method).Pool(workers)


# ----------------------------------------------------------------------
# Shard executor
# ----------------------------------------------------------------------


class ShardExecutor:
    """Runs shard pipelines inline, on threads, or on processes.

    Persistent: the thread pool and the process pool are created
    lazily and survive across :meth:`run_shards` calls, so a caller
    holding one executor (a bench, a monitoring loop) pays pool setup
    once. Shared-memory segments are per run — exported before
    dispatch, released (refcount → unlink) right after the gather.

    Args:
        workers: Worker count; ``None`` reads ``REPRO_INFER_WORKERS``
            (1 when unset → inline).
        mode: ``auto`` (resolves to ``process``), ``thread``, or
            ``process``.
    """

    def __init__(
        self, workers: Optional[int] = None, mode: str = "auto"
    ) -> None:
        if mode not in MODES:
            raise ConfigurationError(
                f"unknown parallel mode {mode!r}; expected one of {MODES}"
            )
        self.workers = (
            default_infer_workers() if workers is None else int(workers)
        )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.mode = mode
        self._threads: Optional[ThreadPoolExecutor] = None
        self._pool = None
        self._pool_finalizer = None
        #: Cumulative bookkeeping (telemetry folds these in).
        self.runs = 0
        self.shard_tasks = 0
        self.last_mode: Optional[str] = None
        self.last_shm_bytes = 0

    # -- pools ----------------------------------------------------------

    def _ensure_threads(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
        return self._threads

    def _ensure_pool(self):
        if self._pool is None:
            pool = _make_pool(self.workers)
            self._pool = pool
            self._pool_finalizer = weakref.finalize(
                self, _terminate_pool, pool
            )
        return self._pool

    def close(self) -> None:
        """Shut both pools down (idempotent)."""
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool_finalizer = None
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------

    def run_shards(
        self,
        net: Network,
        measurements: MeasurementData,
        shard_path_ids: Sequence[Sequence[str]],
        *,
        loss_threshold: float,
        normalization_mode: str,
    ) -> List[Optional[ShardResult]]:
        """One contribution per shard, in shard (submission) order."""
        self.runs += 1
        self.shard_tasks += len(shard_path_ids)
        self.last_shm_bytes = 0
        if self.workers <= 1 or len(shard_path_ids) <= 1:
            self.last_mode = "inline"
            return [
                shard_contribution(
                    net,
                    measurements,
                    pids,
                    loss_threshold=loss_threshold,
                    normalization_mode=normalization_mode,
                )
                for pids in shard_path_ids
            ]
        mode = resolve_shard_mode(self.mode)
        self.last_mode = mode
        if mode == "thread":
            return self._run_threaded(
                net,
                measurements,
                shard_path_ids,
                loss_threshold=loss_threshold,
                normalization_mode=normalization_mode,
            )
        return self._run_processes(
            net,
            measurements,
            shard_path_ids,
            loss_threshold=loss_threshold,
            normalization_mode=normalization_mode,
        )

    def _run_threaded(
        self,
        net,
        measurements,
        shard_path_ids,
        *,
        loss_threshold,
        normalization_mode,
    ) -> List[Optional[ShardResult]]:
        # Materialize every lazy cache the workers share *before*
        # dispatch, so no two threads race a build.
        net.path_index
        measurements.sent_matrix
        measurements.lost_matrix
        measurements.all_sent_positive
        pool = self._ensure_threads()
        futures = [
            pool.submit(
                shard_contribution,
                net,
                measurements,
                pids,
                loss_threshold=loss_threshold,
                normalization_mode=normalization_mode,
            )
            for pids in shard_path_ids
        ]
        return [future.result() for future in futures]

    def _run_processes(
        self,
        net,
        measurements,
        shard_path_ids,
        *,
        loss_threshold,
        normalization_mode,
    ) -> List[Optional[ShardResult]]:
        meas_share = shm.MeasurementShare.export(measurements)
        inc_share = shm.IncidenceShare.export(net)
        self.last_shm_bytes = (
            meas_share.descriptor.sent.nbytes
            + meas_share.descriptor.lost.nbytes
            + inc_share.descriptor.packed.nbytes
        )
        params = (float(loss_threshold), str(normalization_mode))
        try:
            tasks = [
                (
                    seq,
                    tuple(pids),
                    meas_share.descriptor,
                    inc_share.descriptor,
                    params,
                )
                for seq, pids in enumerate(shard_path_ids)
            ]
            for task in tasks:
                shm.count_task_payload(task)
            pool = self._ensure_pool()
            results: List[Optional[ShardResult]] = [None] * len(tasks)
            for seq, res in pool.imap_unordered(
                _run_shard_task, tasks, chunksize=1
            ):
                results[seq] = res
            return results
        finally:
            # Owner-side release: the /dev/shm names disappear here;
            # worker mappings (even a killed worker's) are reclaimed
            # by the OS without being able to resurrect the segment.
            meas_share.close()
            inc_share.close()


# ----------------------------------------------------------------------
# Persistent sweep pool
# ----------------------------------------------------------------------


class SweepExecutor:
    """A warm ``multiprocessing.Pool`` reused across sweep runs.

    Owned by :class:`repro.experiments.sweep.SweepRunner` (and hence
    by adaptive sweeps and monitor fleets): the first parallel
    ``run()`` pays pool setup, every later run — every adaptive wave
    — dispatches onto the same workers. Seeding, caching, and retry
    semantics are untouched: the pool is an execution vehicle, task
    construction never sees it.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self._pool = None
        self._finalizer = None
        self.pools_created = 0
        self.reuses = 0
        self.setup_seconds_total = 0.0
        self.last_setup_seconds = 0.0

    def ensure_pool(self) -> Tuple[object, bool]:
        """``(pool, created)`` — created is False on warm reuse."""
        if self._pool is not None:
            self.reuses += 1
            return self._pool, False
        start = time.perf_counter()
        pool = _make_pool(self.workers)
        elapsed = time.perf_counter() - start
        self._pool = pool
        self._finalizer = weakref.finalize(self, _terminate_pool, pool)
        self.pools_created += 1
        self.setup_seconds_total += elapsed
        self.last_setup_seconds = elapsed
        return pool, True

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
