"""Per-subnet sharded Algorithm 1/2 with a cross-subnet merge.

An Internet-scale deployment of the paper's observatory cannot run
records→verdict as one monolith: each ISP (subnet) administers its
own links and vantage points. This module runs inference *per shard*
of a link partition and merges the per-σ evidence — with verdicts
provably identical to the monolithic pipeline (DESIGN.md S20,
differentially tested in ``tests/tomography/``).

Why the merge is exact, not approximate:

* A shard owns a set of links ``L_s`` (a partition of ``L``) and
  measures ``P_s = ∪_{l ∈ L_s} Paths(l)``. Any sharing path pair
  ``{a, b}`` with ``σ = Links(a) ∩ Links(b) ≠ ∅`` lies entirely
  inside the shard that owns any ``l ∈ σ`` — so the union over
  shards enumerates *every* sharing pair (some more than once; the
  merge dedups by global pair key).
* :meth:`~repro.core.network.Network.restricted_to_paths` keeps all
  links of the retained paths, so a pair's shared sequence computed
  inside a shard equals its global σ — per-shard grouping never
  splits or relabels a monolithic group.
* Under expected-mode normalization with traffic in every interval
  (the fast path shared with
  :func:`repro.measurement.normalize.batch_slice_observations`),
  every pathset cost is a function of full-length status rows and
  the global interval count only — per-shard values are *bitwise*
  equal to monolithic ones, hence so is every pair estimate
  ``y_a + y_b − y_ab``, and the per-σ score (max − min over the
  deduped estimate multiset) is bitwise equal too.
* Algorithm 1's line-10 threshold is applied *after* the merge,
  against the merged member/pair counts, so the kept/skipped split
  matches the monolithic one exactly.

Inputs outside the fast path (sampled-mode normalization, or
intervals without traffic on some path) couple normalization across
slice families in a way that does not decompose by shard;
:func:`infer_sharded` then delegates to the monolithic pipeline
rather than return approximate verdicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.algorithm import (
    DEFAULT_MIN_PATHSETS,
    AlgorithmResult,
    remove_redundant,
)
from repro.core.network import LinkSeq, Network
from repro.core.pathsets import PathSet
from repro.core.slices import sorted_unique
from repro.exceptions import ShardingError, UnknownLinkError
from repro.experiments.config import EmulationSettings
from repro.measurement.clustering import make_cluster_decider
from repro.measurement.records import MeasurementData
from repro.parallel.executor import (
    ShardExecutor,
    default_infer_workers,
    shard_contribution,
)


@dataclass(frozen=True)
class Shard:
    """One inference shard of a link partition.

    Attributes:
        name: Shard (subnet/ISP) name.
        link_ids: The links this shard owns, sorted.
        path_ids: ``∪ Paths(l)`` over the owned links, sorted — the
            paths whose evidence this shard contributes.
    """

    name: str
    link_ids: Tuple[str, ...]
    path_ids: Tuple[str, ...]


@dataclass(frozen=True)
class ShardPlan:
    """A full link partition resolved into :class:`Shard` objects.

    Attributes:
        shards: The shards, sorted by name.
    """

    shards: Tuple[Shard, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(shard.name for shard in self.shards)

    @classmethod
    def from_link_partition(
        cls, net: Network, owner_of: Mapping[str, str]
    ) -> "ShardPlan":
        """Resolve ``{link_id: shard name}`` into a plan.

        Args:
            net: The full inference network.
            owner_of: The administrative owner of every link.

        Raises:
            UnknownLinkError: If ``owner_of`` names a link not in
                the network.
            ShardingError: If some network link has no owner.
        """
        for lid in owner_of:
            if lid not in net:
                raise UnknownLinkError(lid)
        missing = [lid for lid in net.link_ids if lid not in owner_of]
        if missing:
            raise ShardingError(
                f"links without a shard owner: {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )
        by_owner: Dict[str, List[str]] = {}
        for lid in net.link_ids:
            by_owner.setdefault(owner_of[lid], []).append(lid)
        shards = []
        for name in sorted(by_owner):
            link_ids = tuple(sorted(by_owner[name]))
            paths: set = set()
            for lid in link_ids:
                paths.update(net.paths_through(lid))
            shards.append(
                Shard(
                    name=name,
                    link_ids=link_ids,
                    path_ids=tuple(sorted(paths)),
                )
            )
        return cls(shards=tuple(shards))


def infer_sharded(
    net: Network,
    measurements: MeasurementData,
    plan: ShardPlan,
    settings: EmulationSettings = EmulationSettings(),
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
    rng: Optional[np.random.Generator] = None,
    *,
    workers: Optional[int] = None,
    parallel_mode: str = "auto",
    executor: Optional[ShardExecutor] = None,
) -> Tuple[Dict[PathSet, float], AlgorithmResult]:
    """Records → verdict, sharded per subnet, exact cross-shard merge.

    Mirrors :func:`repro.experiments.runner.infer_from_measurements`
    (same signature shape, same :class:`AlgorithmResult` semantics);
    the sharded fast path returns an empty observations dict and an
    empty ``systems`` dict — the memory-bounded mode. See the module
    docstring for the exactness argument; inputs outside the fast
    path delegate to the monolithic pipeline.

    Args:
        workers: Per-shard parallelism; ``None`` reads
            ``REPRO_INFER_WORKERS`` (1 when unset → the sequential
            loop). Contributions are folded in shard order, so
            verdicts are bitwise-identical for every worker count.
        parallel_mode: ``auto`` (processes + shared-memory
            transport), ``thread``, or ``process``.
        executor: A caller-owned :class:`~repro.parallel.executor.
            ShardExecutor` to reuse (its warm pools survive across
            calls); overrides ``workers``/``parallel_mode``.
    """
    fast = (
        settings.normalization_mode == "expected"
        and measurements.all_sent_positive
    )
    if not fast:
        # local import: the runner sits above core in the layering
        from repro.experiments.runner import infer_from_measurements

        return infer_from_measurements(
            net,
            measurements,
            settings=settings,
            min_pathsets=min_pathsets,
            rng=rng,
        )

    tel = telemetry.enabled()
    index = net.path_index
    num_paths = index.num_paths
    eligible = [s for s in plan.shards if len(s.path_ids) >= 2]
    num_workers = (
        executor.workers
        if executor is not None
        else (workers if workers is not None else default_infer_workers())
    )
    parallel = num_workers > 1 and len(eligible) > 1
    sharded_span = telemetry.span(
        "infer.sharded",
        shards=len(plan.shards),
        paths=num_paths,
        workers=num_workers,
    )
    sharded_span.__enter__()
    try:
        # σ → list of (global pair keys, estimates) contributions.
        per_sigma: Dict[
            LinkSeq, List[Tuple[np.ndarray, np.ndarray]]
        ] = {}

        def _fold(shard: Shard, res) -> None:
            for s, sigma in enumerate(res.sigmas):
                lo, hi = res.offsets[s], res.offsets[s + 1]
                per_sigma.setdefault(sigma, []).append(
                    (res.keys[lo:hi], res.estimates[lo:hi])
                )
            if tel:
                telemetry.get_registry().counter(
                    "repro_sharded_pairs_total",
                    "pathset pairs contributed per shard",
                    shard=shard.name,
                ).inc(res.pairs)

        if parallel:
            own_executor = executor is None
            exec_ = executor if executor is not None else ShardExecutor(
                workers=num_workers, mode=parallel_mode
            )
            try:
                results = exec_.run_shards(
                    net,
                    measurements,
                    [shard.path_ids for shard in eligible],
                    loss_threshold=settings.loss_threshold,
                    normalization_mode=settings.normalization_mode,
                )
            finally:
                if own_executor:
                    exec_.close()
            # Fold in shard order: per-σ contribution order — hence
            # the merge's concatenations — match the sequential loop
            # byte for byte.
            for shard, res in zip(eligible, results):
                if res is not None:
                    _fold(shard, res)
            sharded_span.set(
                mode=exec_.last_mode, shm_bytes=exec_.last_shm_bytes
            )
            if tel:
                telemetry.get_registry().counter(
                    "repro_parallel_shard_tasks_total",
                    "shard tasks dispatched by the parallel executor",
                    mode=exec_.last_mode,
                ).inc(len(eligible))
        else:
            for shard in eligible:
                with telemetry.span(
                    "infer.shard", shard=shard.name,
                    paths=len(shard.path_ids),
                ) as shard_span:
                    res = shard_contribution(
                        net,
                        measurements,
                        shard.path_ids,
                        loss_threshold=settings.loss_threshold,
                        normalization_mode=settings.normalization_mode,
                    )
                    if res is None:
                        continue
                    _fold(shard, res)
                    shard_span.set(pairs=res.pairs)

        merge_start = time.perf_counter()
        kept_sigmas: List[LinkSeq] = []
        skipped: List[LinkSeq] = []
        scores: Dict[LinkSeq, float] = {}
        with telemetry.span("infer.merge", sigmas=len(per_sigma)):
            for sigma in sorted(per_sigma):
                parts = per_sigma[sigma]
                keys = np.concatenate([k for k, _ in parts])
                ests = np.concatenate([e for _, e in parts])
                # A pair sharing several links appears in every shard
                # owning one of them — duplicates carry
                # bitwise-identical estimates, so keeping the first of
                # each key is exact.
                uniq, first = np.unique(keys, return_index=True)
                ests = ests[first]
                members = int(
                    sorted_unique(
                        np.concatenate(
                            (uniq // num_paths, uniq % num_paths)
                        )
                    ).size
                )
                if members + int(uniq.size) < min_pathsets:
                    skipped.append(sigma)
                    continue
                kept_sigmas.append(sigma)
                clipped = np.maximum(ests, 0.0)
                scores[sigma] = (
                    float(clipped.max() - clipped.min())
                    if uniq.size >= 2
                    else 0.0
                )
        if tel:
            telemetry.get_registry().counter(
                "repro_sharded_merge_seconds_total",
                "cross-shard merge time",
            ).inc(time.perf_counter() - merge_start)
    finally:
        sharded_span.__exit__(None, None, None)

    decider = make_cluster_decider(
        min_absolute=settings.decider_min_absolute,
        min_ratio=settings.decider_min_ratio,
        definite=settings.decider_definite,
    )
    verdict = decider(scores)
    identified_raw = tuple(
        sigma for sigma in kept_sigmas if verdict.get(sigma, False)
    )
    neutral = tuple(
        sigma for sigma in kept_sigmas if not verdict.get(sigma, False)
    )
    identified = remove_redundant(identified_raw, tuple(kept_sigmas))
    return {}, AlgorithmResult(
        identified=identified,
        identified_raw=identified_raw,
        neutral=neutral,
        skipped=tuple(skipped),
        scores=scores,
        systems={},
    )
