"""Algorithm 1: identification of non-neutral link sequences (paper §5).

The pipeline, exactly as in the paper:

1. For every path pair, compute the shared link sequence σ and bucket
   the pair under σ (lines 2–8).
2. Keep only sequences with ``|Φ_σ| ≥ min_pathsets`` (line 10; the
   paper uses 5, i.e. at least two path pairs).
3. For each surviving σ, build System 4 and decide whether it "has a
   solution" (line 13). Two decision modes are provided:

   * **exact** — rank test on noise-free observations (theory mode);
   * **scored** — the practical mode of §6.2: compute the
     unsolvability score (spread of per-pair estimates of ``x_σ``) and
     let a *decider* (by default 2-cluster splitting, see
     :mod:`repro.measurement.clustering`) separate solvable from
     unsolvable systems.

   Both modes end in one decide + prune tail,
   :func:`identify_from_score_array` (DESIGN.md S26).

4. Prune redundant sequences from the identified set Σn̄: σ is
   redundant when it is the union of other examined sequences, at
   least one of which was itself identified — keeping it adds no
   information (§5). The sequence itself is excluded from its own
   decomposition, otherwise every identified σ would be trivially
   redundant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.network import LinkSeq, Network
from repro.core.pathsets import PathSet
from repro.core.performance import NetworkPerformance
from repro.core.slices import (
    SliceSystem,
    SliceSystemBatch,
    SliceSystemsView,
    _observation_arrays,
    batch_unsolvability_arrays,
    build_slice_batch,
)

#: Algorithm 1's minimum pathset count (2 path pairs + 3 singletons…
#: the paper states "at least 2 path pairs (equivalent to at least 5
#: pathsets)": 2 pairs sharing one endpoint give 3 singletons + 2
#: pairs = 5 rows.
DEFAULT_MIN_PATHSETS = 5


@dataclass(frozen=True)
class AlgorithmResult:
    """Everything Algorithm 1 produced.

    Attributes:
        identified: Σn̄ after redundancy pruning — the output.
        identified_raw: Σn̄ before pruning.
        neutral: Σn — examined sequences whose system was solvable.
        skipped: Sequences with too few pathsets (non-identifiable),
            then those Algorithm 2 could not normalize (no interval
            in which all their paths sent).
        scores: Unsolvability score per examined sequence (scored
            mode) or residual-based indicator (exact mode).
        systems: The :class:`SliceSystem` per examined sequence — a
            :class:`~repro.core.slices.SliceSystemsView` that builds a
            system only when it is read.
    """

    identified: Tuple[LinkSeq, ...]
    identified_raw: Tuple[LinkSeq, ...]
    neutral: Tuple[LinkSeq, ...]
    skipped: Tuple[LinkSeq, ...]
    scores: Dict[LinkSeq, float] = field(default_factory=dict)
    systems: Mapping[LinkSeq, SliceSystem] = field(default_factory=dict)

    @property
    def identified_links(self) -> frozenset:
        """Union of links over all identified sequences."""
        out = set()
        for sigma in self.identified:
            out.update(sigma)
        return frozenset(out)


def redundant_rows(
    incidence: np.ndarray, sizes: np.ndarray, rows: Sequence[int]
) -> np.ndarray:
    """Which identified sequences are redundant, by the rule of
    :func:`prune_identified`.

    Only proper subsets of σ can be in its decomposition, so σ is
    redundant iff its proper subsets cover every link of σ and one of
    them is identified. Both tests are two small products over the
    identified rows: ``σ_j ⊂ σ`` iff ``|σ ∩ σ_j| = |σ_j| < |σ|``,
    and a link of σ is covered iff some proper subset holds it.

    Args:
        incidence: ``(E, |L|)`` 0/1 float32 incidence of the examined
            sequences (exact: every product is a small integer).
        sizes: ``(E,)`` link count of each examined sequence.
        rows: Positions of the identified sequences in ``incidence``.

    Returns:
        ``(len(rows),)`` boolean: True where the sequence is redundant.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size == 0:
        return np.zeros(0, dtype=bool)
    targets = incidence[rows]
    target_sizes = sizes[rows]
    proper = (targets @ incidence.T == sizes) & (
        sizes < target_sizes[:, None]
    )
    covered = (proper.astype(np.float32) @ incidence > 0).sum(axis=1)
    return (covered == target_sizes) & proper[:, rows].any(axis=1)


def prune_identified(
    batch: SliceSystemBatch,
    rows: Sequence[int],
    examined: Optional[np.ndarray] = None,
) -> Tuple[LinkSeq, ...]:
    """Prune redundant sequences from Σn̄ = ``batch.sigmas[rows]``
    (paper §5); the rest stay in ``rows`` order.

    σ ∈ Σn̄ is redundant iff there exist examined sequences
    ``{σ_i} ⊆ (Σn ∪ Σn̄) ∖ {σ}`` whose union equals σ with at least
    one σ_i ∈ Σn̄. Redundancy is evaluated against the *original*
    sets, in one pass: if σ_b in σ_a's decomposition is itself
    redundant, σ_b's own decomposition substitutes transitively, so
    iterating cannot remove more. The test is :func:`redundant_rows`
    over the batch's cached σ incidence; a decomposition uses only
    the ``examined`` σ (a boolean mask over the batch; ``None``:
    every σ).
    """
    rows = np.asarray(rows, dtype=np.intp)
    incidence, sizes = batch.sigma_incidence
    positions = rows
    if examined is not None and not examined.all():
        incidence, sizes = incidence[examined], sizes[examined]
        positions = (np.cumsum(examined) - 1)[rows]
    drop = redundant_rows(incidence, sizes, positions).tolist()
    sigmas = batch.sigmas
    return tuple(
        sigmas[r] for r, d in zip(rows.tolist(), drop) if not d
    )


def identify_non_neutral(
    net: Network,
    observations: Mapping[PathSet, float],
    decider: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
) -> AlgorithmResult:
    """Algorithm 1 in its practical, score-based form (paper §6.2).

    The mapping is converted once to the scorer's arrays, every σ
    pricing a path by its one singleton value; records take
    :func:`repro.experiments.runner.infer_from_measurements`.

    Args:
        net: The network graph.
        observations: Performance numbers keyed by pathset, hand-built
            or exact. Must cover ``Φ_σ`` for every candidate σ (use
            :func:`required_pathsets` to know what to measure).
        decider: Flags the examined scores (see
            :func:`identify_from_score_array`).
        min_pathsets: Line 10's threshold.

    Returns:
        The :class:`AlgorithmResult`.
    """
    batch, skipped = build_slice_batch(net, min_pathsets)
    score_array = batch_unsolvability_arrays(
        batch, *_observation_arrays(batch, observations)
    )
    return identify_from_score_array(batch, skipped, score_array, decider)


def identify_from_scores(
    batch: SliceSystemBatch,
    skipped: Sequence[LinkSeq],
    scores: Mapping[LinkSeq, float],
    decider: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    include_systems: bool = True,
) -> AlgorithmResult:
    """:func:`identify_from_score_array` on a ``{σ: score}`` mapping,
    taken in batch order: a σ with no score (or a NaN one) is not
    examined. With ``include_systems=False`` the result's ``systems``
    is left empty.
    """
    score_array = np.array(
        [scores.get(sigma, np.nan) for sigma in batch.sigmas], dtype=float
    )
    return identify_from_score_array(
        batch, skipped, score_array, decider, None if include_systems else {}
    )


def identify_from_score_array(
    batch: SliceSystemBatch,
    skipped: Sequence[LinkSeq],
    score_array: np.ndarray,
    classify: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    systems: Optional[Mapping[LinkSeq, SliceSystem]] = None,
) -> AlgorithmResult:
    """Lines 13+ of Algorithm 1: decide and prune from the batch's
    score array — the one tail of every route (offline, exact and in
    the monitor).

    ``classify`` flags the examined scores, an array in, a boolean
    array out; it defaults to the §6.2 cluster decision,
    :func:`~repro.measurement.clustering.classify_score_array`. A NaN
    score marks a σ Algorithm 2 could not normalize (no interval in
    which all its paths sent): it is not examined, so it joins
    ``skipped``, has no score and is no part of a pruning
    decomposition. ``systems`` defaults to a lazy view over the batch
    (no System 4 is built unless read).
    """
    if classify is None:
        from repro.measurement.clustering import classify_score_array

        classify = classify_score_array
    examined = ~np.isnan(score_array)
    flagged = np.zeros(score_array.size, dtype=bool)
    flagged[examined] = classify(score_array[examined])
    sigmas = batch.sigmas
    return AlgorithmResult(
        identified=prune_identified(batch, np.flatnonzero(flagged), examined),
        identified_raw=tuple(compress(sigmas, flagged.tolist())),
        neutral=tuple(compress(sigmas, (examined & ~flagged).tolist())),
        skipped=tuple(skipped) + tuple(compress(sigmas, (~examined).tolist())),
        scores=dict(
            compress(zip(sigmas, score_array.tolist()), examined.tolist())
        ),
        systems=SliceSystemsView(batch) if systems is None else systems,
    )


def identify_non_neutral_exact(
    perf: NetworkPerformance,
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
    tol: float = 1e-9,
) -> AlgorithmResult:
    """Algorithm 1 with exact observations and the rank-based test.

    This is the algorithm as stated in §5, before measurement noise
    enters: with exact observations it suffers zero false positives
    and misses exactly the non-identifiable violations. The rank
    test's flags replace the score decider in
    :func:`identify_from_score_array`.
    """
    from repro.core.equivalent import build_equivalent  # local: avoid cycle
    from repro.core.linear import is_solvable

    net = perf.network
    batch, skipped = build_slice_batch(net, min_pathsets)
    # One equivalent-network build serves every pathset, and all
    # pathset costs come from one membership-matrix evaluation (the
    # naive form walked every virtual link per pathset).
    equivalent = build_equivalent(perf)
    y_single, y_pair_flat = equivalent.batch_pathset_costs(
        batch.index.path_ids, batch.pair_a, batch.pair_b
    )
    y_member = y_single[batch.member_rows]
    score_array = batch_unsolvability_arrays(batch, y_member, y_pair_flat)
    unsolvable = np.zeros(batch.num_systems, dtype=bool)
    for g, system in enumerate(batch.systems):
        # The system's observation vector in family order: member
        # singletons, then pairs — sliced straight from the flat
        # batch arrays.
        y = np.concatenate(
            (
                y_member[batch.member_offsets[g]:batch.member_offsets[g + 1]],
                y_pair_flat[batch.offsets[g]:batch.offsets[g + 1]],
            )
        )
        unsolvable[g] = not is_solvable(system.matrix, y, tol=tol)
    examined = ~np.isnan(score_array)
    return identify_from_score_array(
        batch, skipped, score_array, lambda _: unsolvable[examined]
    )


def required_pathsets(
    net: Network, min_pathsets: int = DEFAULT_MIN_PATHSETS
) -> Tuple[PathSet, ...]:
    """All pathsets Algorithm 1 will need observations for.

    The measurement layer calls this before an experiment to know
    which single paths and path pairs to monitor.
    """
    batch, _ = build_slice_batch(net, min_pathsets)
    seen = set()
    out: List[PathSet] = []
    for family in batch.families():
        for ps in family:
            if ps not in seen:
                seen.add(ps)
                out.append(ps)
    return tuple(out)
