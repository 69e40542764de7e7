"""Parallel sweep execution with deterministic seeding and caching.

Every figure and table of the paper is a *sweep*: a list of mutually
independent experiment points (a Table 2 set × its x-axis values,
topology B × seeds, an ablation grid). The seed runner executed them
strictly sequentially; :class:`SweepRunner` fans them out over
``multiprocessing`` workers and memoizes finished points in an
on-disk cache, while keeping results bit-reproducible:

* **Deterministic per-point seeding.** Each point's emulation seed is
  derived from the runner's base seed and the point's key via CRC-32
  (stable across processes and Python builds, unlike ``hash``), so a
  point's result depends only on ``(base_seed, key, spec)`` — never
  on worker count, scheduling order, or which points share the run.
* **Order-independent collection.** Results are returned keyed by
  point, in submission order, regardless of completion order.
* **On-disk memoization.** A point's cache entry is keyed by the
  SHA-256 of its full spec (function, kwargs, derived seed, and the
  point's substrate tag ``name:version``), so re-running a sweep
  replays cache hits instead of re-emulating. The substrate tag
  means a fluid-substrate point and a packet-substrate point can
  never collide in a shared cache directory, and bumping the
  substrate's version constant
  (:data:`repro.fluid.engine.ENGINE_VERSION` /
  :data:`repro.emulator.core.PACKET_ENGINE_VERSION`) invalidates
  entries when that *emulation model* changes; no other code is
  fingerprinted — experiment construction (topology builders,
  workload profiles) and downstream inference/analysis both feed
  the cached results without being part of the key, so clear the
  cache directory (or pass a fresh ``cache_salt``) after changing
  any of that code.

Points must be *picklable*: a module-level callable plus plain-data
kwargs. The callable receives ``seed=<derived seed>`` on top of its
kwargs and must be pure given those arguments.

**Scenario batching.** Points may additionally carry a
``batch_func`` and a ``batch_group``: points sharing both (same
module-level batch callable, same compatibility group — the
:func:`~repro.experiments.runner.batch_key` of the point's compiled
scenario, so "same network, classes, workloads, settings and
substrate"; Table 2 groups points across sets) are *grouped* and
dispatched to workers as one task each, executed as
``batch_func(seeds=[...], kwargs_list=[...]) -> [result, ...]``. The
contract is that ``batch_func`` returns, per member, **exactly** the
result ``func(seed=s, **kwargs)`` would return (the scenario-batched
fluid engine is floating-point-identical to single runs, so grouped
experiment points satisfy this by construction). Cache semantics are
untouched: digests are per point, results are cached per point, and
a cached single-run result is interchangeable with a batched one. A
batch task that fails is retried point-by-point on the same pool, so
batching can never lose a sweep.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import warnings
import weakref
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.substrate.registry import substrate_cache_tag


def derive_seed(base_seed: int, key: str) -> int:
    """Stable per-point seed: CRC-32 of the key folded with the base.

    ``zlib.crc32`` is deterministic across processes and platforms
    (Python's builtin ``hash`` is salted per process, which would
    make worker results irreproducible).
    """
    return (int(base_seed) * 1_000_003 + zlib.crc32(key.encode())) % (2**31)


@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of a sweep.

    Attributes:
        key: Unique, human-readable point id (also the seed salt).
        func: Module-level callable run as ``func(seed=..., **kwargs)``.
        kwargs: Plain-data keyword arguments for ``func``.
        seed: Explicit emulation seed; ``None`` (the default) derives
            one from the runner's base seed and ``key``. Set it when
            a sweep must reproduce canonical seeds (e.g. a figure
            bench pinned to specific realizations).
        substrate: Emulation substrate the point runs on; its
            ``name:version`` tag is part of the cache digest, so
            results from different substrates (or different model
            revisions of one substrate) never collide.
        batch_func: Optional module-level batched executor,
            ``batch_func(seeds=[...], kwargs_list=[...]) ->
            [result, ...]``, returning per member exactly what
            ``func(seed=s, **kwargs)`` would. Points sharing
            ``(batch_func, batch_group)`` may run as one task.
        batch_group: Compatibility key for grouping: the
            :func:`~repro.experiments.runner.batch_key` of the point's
            compiled scenario (same network, classes, workloads,
            settings and substrate). ``None`` disables batching for
            the point. Neither batching field enters
            the cache digest — a point's result is the same either
            way, so cached entries stay interchangeable.
    """

    key: str
    func: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    substrate: str = "fluid"
    batch_func: Optional[Callable[..., Any]] = None
    batch_group: Optional[str] = None

    def spec_digest(self, seed: int, salt: str) -> str:
        """Cache digest of everything that determines the result."""
        parts = [
            self.key,
            f"{self.func.__module__}.{self.func.__qualname__}",
            repr(sorted(self.kwargs.items())),
            str(seed),
            salt,
            substrate_cache_tag(self.substrate),
        ]
        return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


#: Batch width: wide enough to amortize the per-step numpy
#: program over many scenarios, small enough that one worker's batch
#: state (B× engine arrays + collected columns) stays modest.
DEFAULT_BATCH_SIZE = 32


def _execute_task(task: Tuple) -> Tuple:
    """Worker entry: one single point or one scenario batch.

    Returns ``("ok", [(digest, result, seconds), ...])`` — the
    per-point compute time of a batch is its elapsed time split
    evenly over its members (the lockstep program advances them
    together, so no finer attribution exists). A failed *batch*
    returns ``("batch_error", [digest, ...], error_repr)`` so the
    parent can retry its members point-by-point (a failed single
    point raises, exactly like the pre-batching pool did). Only the
    digest, the result payload, and the timing cross the process
    boundary on the way back.
    """
    # The trailing element of every task tuple is an optional
    # telemetry.SpanContext: workers adopt it so their spans land in
    # the shared trace.jsonl parented under the dispatching sweep.run
    # span (None — the default — costs nothing).
    with telemetry.activate(task[-1]):
        return _execute_task_body(task)


def _execute_task_body(task: Tuple) -> Tuple:
    if task[0] == "batch":
        _, batch_func, members, _ctx = task
        digests = [digest for digest, _, _, _ in members]
        start = time.perf_counter()
        with telemetry.span(
            "sweep.batch",
            points=len(members),
            keys=[key for _, _, _, key in members],
        ):
            try:
                results = batch_func(
                    seeds=[seed for _, seed, _, _ in members],
                    kwargs_list=[dict(kwargs) for _, _, kwargs, _ in members],
                )
                if len(results) != len(members):
                    raise RuntimeError(
                        f"batch executor returned {len(results)} results "
                        f"for {len(members)} points"
                    )
            except Exception as exc:  # retried singly by the parent
                return ("batch_error", digests, repr(exc))
        share = (time.perf_counter() - start) / len(members)
        return (
            "ok",
            [(d, r, share) for d, r in zip(digests, results)],
        )
    _, func, kwargs, seed, digest, key, _ctx = task
    start = time.perf_counter()
    with telemetry.span("sweep.point", key=key, seed=seed):
        result = func(seed=seed, **dict(kwargs))
    return ("ok", [(digest, result, time.perf_counter() - start)])


@dataclass
class SweepStats:
    """Bookkeeping of one :meth:`SweepRunner.run` call."""

    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    #: Scenario batches dispatched, and how many points they covered.
    batches: int = 0
    batched_points: int = 0
    #: Points re-run singly after their batch task failed.
    batch_retries: int = 0
    #: Worker-side compute seconds per executed point key (a batched
    #: point's share is its batch's elapsed time over the member
    #: count); cache hits don't appear — they cost no compute.
    point_seconds: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds of the whole :meth:`SweepRunner.run` call.
    wall_seconds: float = 0.0
    #: Pool shape of the run: configured worker count, whether a warm
    #: pool was reused (vs created — or never needed, for inline
    #: runs), and the seconds spent creating one when it wasn't.
    workers: int = 1
    pool_reused: bool = False
    pool_setup_seconds: float = 0.0

    @property
    def executed_seconds(self) -> float:
        """Total worker-side compute seconds across executed points."""
        return sum(self.point_seconds.values())


def _make_pool(workers: int):
    import multiprocessing as mp
    import sys

    # fork is the cheap option where it is safe (Linux); elsewhere
    # fall back to the platform default (spawn) — tasks are picklable
    # module-level functions and arguments, so both work.
    method = "fork" if sys.platform == "linux" else None
    return mp.get_context(method).Pool(workers)


def _terminate_pool(pool) -> None:
    pool.terminate()
    pool.join()


class SweepRunner:
    """Run independent sweep points, in parallel, with memoization.

    Args:
        base_seed: Folded into every point's derived seed.
        workers: Process count; 1 runs inline (no pool, easier to
            debug and profile — results are identical by design).
        cache_dir: Directory for result pickles; ``None`` disables
            caching.
        cache_salt: Extra cache-key component (e.g. a settings
            fingerprint not captured in point kwargs).

    Batches hold at most :data:`DEFAULT_BATCH_SIZE` points; a point
    without batch hooks runs through its own ``func``, and results
    are the same either way.

    A parallel runner creates its worker pool on the first parallel
    :meth:`run` and keeps it warm across later calls; :meth:`close`
    (or the context manager) shuts it down, and a later run creates a
    fresh one. The warm pool buys no throughput: on a 2-vCPU host,
    Table 2 sets 4 and 6 at 60 s with 2 workers took a median 2.33
    vs 2.41 s and 2.14 vs 2.02 s warm vs fresh over 14 alternating
    pairs, the fresh runner slower in only 8 of them, and ``Pool()``
    creation costs about 7 ms. It stays because a pool per run would
    change what a sweep's peak RSS reads: terminated workers enter
    ``RUSAGE_CHILDREN`` (43.0 MB after :meth:`close`, 3.0 MB while
    the pool is alive, against 40.1 MB for the parent).
    """

    def __init__(
        self,
        base_seed: int = 1,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        cache_salt: str = "",
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.base_seed = base_seed
        self.workers = workers
        self.cache_dir = cache_dir
        self.cache_salt = cache_salt
        self.stats = SweepStats()
        self._pool = None
        self._finalizer = None

    def close(self) -> None:
        """Tear the warm pool down (idempotent; inline runners no-op)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
            self._pool = None

    def _warm_pool(self):
        """The worker pool, created on first use and reused after;
        records which of the two happened in :attr:`stats`."""
        if self._pool is not None:
            self.stats.pool_reused = True
            return self._pool
        start = time.perf_counter()
        self._pool = _make_pool(self.workers)
        self.stats.pool_setup_seconds = time.perf_counter() - start
        # The finalizer holds the pool, not the runner, so a runner
        # dropped without close() still terminates its workers.
        self._finalizer = weakref.finalize(
            self, _terminate_pool, self._pool
        )
        return self._pool

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def for_settings(
        cls,
        settings,
        workers: int = 1,
        cache_dir: Optional[str] = None,
    ) -> "SweepRunner":
        """Runner bound to an :class:`~repro.experiments.config.
        EmulationSettings`: its seed becomes the base seed and its
        fingerprint the cache salt, so two sweeps with different
        settings can never collide in the same cache directory."""
        return cls(
            base_seed=settings.seed,
            workers=workers,
            cache_dir=cache_dir,
            cache_salt=settings.fingerprint(),
        )

    # ------------------------------------------------------------------

    def _cache_path(self, digest: str) -> str:
        return os.path.join(self.cache_dir, f"{digest}.pkl")

    def _cache_load(self, digest: str):
        if self.cache_dir is None:
            return None
        path = self._cache_path(digest)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception:
            # Best-effort: a missing, truncated, or stale entry (e.g.
            # pickled against an older class layout, which raises
            # AttributeError/ImportError rather than UnpicklingError)
            # is simply a miss.
            return None

    def _cache_store(self, digest: str, result: Any) -> None:
        if self.cache_dir is None:
            return
        path = self._cache_path(digest)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            # Caching is best-effort: an unwritable directory or an
            # unpicklable result must not lose the computed sweep.
            try:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------

    def _build_tasks(
        self,
        pending: List[Tuple[SweepPoint, int, str]],
        ctx: Optional[telemetry.SpanContext] = None,
    ) -> List[Tuple]:
        """Group batchable pending points; single tasks for the rest.

        Points sharing ``(batch_func, batch_group)`` form scenario
        batches of at most :data:`DEFAULT_BATCH_SIZE` members
        (submission order preserved); a "group" of one falls back to a
        single task — a one-world batch has no amortization to offer.
        """
        groups: Dict[Tuple[str, str], List[Tuple[SweepPoint, int, str]]] = {}
        singles: List[Tuple[SweepPoint, int, str]] = []
        for entry in pending:
            point = entry[0]
            if point.batch_func is not None and point.batch_group is not None:
                func_id = (
                    f"{point.batch_func.__module__}."
                    f"{point.batch_func.__qualname__}"
                )
                groups.setdefault((func_id, point.batch_group), []).append(
                    entry
                )
            else:
                singles.append(entry)
        tasks: List[Tuple] = []
        for members in groups.values():
            if len(members) == 1:
                singles.append(members[0])
                continue
            for lo in range(0, len(members), DEFAULT_BATCH_SIZE):
                chunk = members[lo : lo + DEFAULT_BATCH_SIZE]
                if len(chunk) == 1:
                    singles.append(chunk[0])
                    continue
                tasks.append(
                    (
                        "batch",
                        chunk[0][0].batch_func,
                        [
                            (digest, seed, dict(point.kwargs), point.key)
                            for point, seed, digest in chunk
                        ],
                        ctx,
                    )
                )
                self.stats.batches += 1
                self.stats.batched_points += len(chunk)
        for point, seed, digest in singles:
            tasks.append(
                (
                    "single",
                    point.func,
                    dict(point.kwargs),
                    seed,
                    digest,
                    point.key,
                    ctx,
                )
            )
        return tasks

    def run(self, points: Sequence[SweepPoint]) -> Dict[str, Any]:
        """Run every point; returns ``{key: result}`` in point order.

        Cache hits are returned without executing; misses run on the
        worker pool (or inline for ``workers=1``) and are stored.
        Compatible points run as scenario batches (see the module
        docstring); a failed batch is retried point-by-point on the
        *same* pool before anything is given up on.
        """
        keys = [p.key for p in points]
        if len(set(keys)) != len(keys):
            raise ConfigurationError("sweep point keys must be unique")
        self.stats = SweepStats()  # per-run bookkeeping, as documented
        self.stats.workers = self.workers
        run_start = time.perf_counter()
        # Telemetry is consulted once per run; when disabled the
        # span below is the shared no-op and nothing else is touched.
        tel = telemetry.enabled()
        point_hist = (
            telemetry.get_registry().histogram(
                "repro_sweep_point_seconds",
                "worker-side compute seconds per executed sweep point",
            )
            if tel
            else telemetry.NOOP_INSTRUMENT
        )
        with telemetry.span(
            "sweep.run", points=len(points), workers=self.workers
        ) as run_span:
            span_ctx = telemetry.current_context() if tel else None
            by_digest: Dict[str, Any] = {}
            key_digest: Dict[str, str] = {}
            digest_key: Dict[str, str] = {}
            pending: List[Tuple[SweepPoint, int, str]] = []
            pending_by_digest: Dict[str, Tuple[SweepPoint, int]] = {}
            for point in points:
                seed = (
                    point.seed
                    if point.seed is not None
                    else derive_seed(self.base_seed, point.key)
                )
                digest = point.spec_digest(seed, self.cache_salt)
                key_digest[point.key] = digest
                digest_key[digest] = point.key
                cached = self._cache_load(digest)
                if cached is not None:
                    by_digest[digest] = cached
                    self.stats.cache_hits += 1
                else:
                    pending.append((point, seed, digest))
                    pending_by_digest[digest] = (point, seed)
                    self.stats.cache_misses += 1

            if pending:
                tasks = self._build_tasks(pending, span_ctx)

                def _collect(outcomes) -> List[Tuple]:
                    """Record ok-payloads; return retry tasks for failed
                    batches (executed point-by-point)."""
                    retries: List[Tuple] = []
                    for outcome in outcomes:
                        if outcome[0] == "ok":
                            for digest, result, seconds in outcome[1]:
                                by_digest[digest] = result
                                self.stats.executed += 1
                                # Accumulate, never overwrite: a point
                                # observed twice in one run (e.g. its
                                # batch payload landed *and* it re-ran
                                # singly after a batch retry) has spent
                                # both slices of compute.
                                key = digest_key[digest]
                                self.stats.point_seconds[key] = (
                                    self.stats.point_seconds.get(key, 0.0)
                                    + seconds
                                )
                                point_hist.observe(seconds)
                                self._cache_store(digest, result)
                        else:  # batch_error
                            _, digests, err = outcome
                            self.stats.batch_retries += len(digests)
                            # Loud, not fatal: the members re-run singly
                            # with identical results, but a
                            # systematically failing batch executor
                            # (losing the whole speedup) must not be
                            # silent.
                            warnings.warn(
                                f"scenario batch of {len(digests)} points "
                                f"failed ({err}); retrying each point "
                                f"singly",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                            for digest in digests:
                                point, seed = pending_by_digest[digest]
                                retries.append(
                                    (
                                        "single",
                                        point.func,
                                        dict(point.kwargs),
                                        seed,
                                        digest,
                                        digest_key[digest],
                                        span_ctx,
                                    )
                                )
                    return retries

                if self.workers == 1 or (
                    len(tasks) == 1 and tasks[0][0] == "single"
                ):
                    retries = _collect(map(_execute_task, tasks))
                    if retries:
                        _collect(map(_execute_task, retries))
                else:
                    has_batches = any(t[0] == "batch" for t in tasks)
                    # Unordered streaming keeps every worker busy (slow
                    # points no longer gate their map chunk); results are
                    # re-keyed by digest, so completion order is
                    # irrelevant to the returned mapping. Chunking only
                    # helps swarms of light single points — batch tasks
                    # are few and heavy, so they ship one at a time.
                    chunksize = (
                        1
                        if has_batches
                        else max(
                            1,
                            min(8, len(tasks) // (4 * self.workers) or 1),
                        )
                    )
                    # One warm pool across run() calls; a failed
                    # batch's members retry point-by-point on it.
                    pool = self._warm_pool()
                    retries = _collect(
                        pool.imap_unordered(
                            _execute_task, tasks, chunksize=chunksize
                        )
                    )
                    if retries:
                        # Same pool, second phase: the members of any
                        # failed batch run as ordinary single points.
                        _collect(
                            pool.imap_unordered(
                                _execute_task, retries, chunksize=1
                            )
                        )

            self.stats.wall_seconds = time.perf_counter() - run_start
            run_span.set(
                cache_hits=self.stats.cache_hits,
                cache_misses=self.stats.cache_misses,
                executed=self.stats.executed,
                batches=self.stats.batches,
                wall_seconds=self.stats.wall_seconds,
                pool_reused=self.stats.pool_reused,
                pool_setup_seconds=self.stats.pool_setup_seconds,
            )
            if tel:
                self._fold_stats_into_registry()
            return {key: by_digest[key_digest[key]] for key in keys}

    def _fold_stats_into_registry(self) -> None:
        """Mirror :class:`SweepStats` into the telemetry registry.

        The dataclass keeps its public API (callers and tests read it
        directly); the registry gets the same counts so exported
        ``metrics.json`` artifacts carry sweep health without anyone
        threading ``SweepStats`` around.
        """
        reg = telemetry.get_registry()
        stats = self.stats
        reg.counter(
            "repro_sweep_cache_hits_total", "sweep cache hits"
        ).inc(stats.cache_hits)
        reg.counter(
            "repro_sweep_cache_misses_total", "sweep cache misses"
        ).inc(stats.cache_misses)
        reg.counter(
            "repro_sweep_points_executed_total",
            "sweep points actually computed (cache misses that ran)",
        ).inc(stats.executed)
        reg.counter(
            "repro_sweep_batches_total", "scenario batches dispatched"
        ).inc(stats.batches)
        reg.counter(
            "repro_sweep_batched_points_total",
            "points covered by scenario batches",
        ).inc(stats.batched_points)
        reg.counter(
            "repro_sweep_batch_retries_total",
            "points re-run singly after a failed batch",
        ).inc(stats.batch_retries)
        reg.counter(
            "repro_sweep_wall_seconds_total",
            "wall-clock seconds across SweepRunner.run calls",
        ).inc(stats.wall_seconds)
        reg.counter(
            "repro_sweep_pool_setup_seconds_total",
            "seconds spent creating sweep worker pools",
        ).inc(stats.pool_setup_seconds)
        reg.counter(
            "repro_sweep_pool_reuses_total",
            "sweep runs dispatched onto an already-warm pool",
        ).inc(1 if stats.pool_reused else 0)
