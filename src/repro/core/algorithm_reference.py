"""Frozen reference implementation of Algorithms 1 and 2.

This module is a verbatim freeze of the inference pipeline as it stood
before the indexed/vectorized rewrite (PR 3): per-pair ``frozenset``
intersections in ``shared_sequences``, per-pathset Python loops in the
normalization, and per-pair dict lookups in the scoring. It plays the
same role ``tests/oracles/engine_scalar.py`` and
``tests/oracles/event_reference.py`` play for the two emulation
substrates:

* the golden equivalence suite runs both implementations on the seed
  topologies and asserts identical identified/neutral/skipped sets and
  matching scores;
* ``benchmarks/bench_inference.py`` measures the vectorized pipeline's
  records→verdict speedup against this baseline (gate: ≥ 10×).

Do not optimize this module; it is the baseline. The public, fast
implementations live in :mod:`repro.core.slices`,
:mod:`repro.core.algorithm`, :mod:`repro.measurement.normalize`, and
:mod:`repro.measurement.clustering`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.algorithm import DEFAULT_MIN_PATHSETS, AlgorithmResult
from repro.core.network import LinkSeq, Network, make_linkseq
from repro.core.pathsets import PathSet, PathSetFamily
from repro.core.performance import NetworkPerformance
from repro.core.slices import SIGMA_COLUMN, SliceSystem
from repro.exceptions import MeasurementError, SliceError
from repro.measurement.clustering import (
    DEFAULT_DEFINITE,
    DEFAULT_MIN_ABSOLUTE,
    DEFAULT_MIN_RATIO,
    ClusterSplit,
)
from repro.measurement.normalize import DEFAULT_LOSS_THRESHOLD
from repro.measurement.records import MeasurementData

# ----------------------------------------------------------------------
# Algorithm 1, lines 2–8: shared sequences (per-pair set intersections)
# ----------------------------------------------------------------------


def shared_sequences_reference(
    net: Network,
) -> Dict[LinkSeq, List[Tuple[str, str]]]:
    """Group all path pairs by their shared link sequence (frozen)."""
    buckets: Dict[LinkSeq, List[Tuple[str, str]]] = {}
    for pa, pb in net.path_pairs():
        sigma = make_linkseq(net.links_of(pa) & net.links_of(pb))
        if not sigma:
            continue
        buckets.setdefault(sigma, []).append((pa, pb))
    return buckets


def build_slice_system_reference(
    net: Network,
    sigma: LinkSeq,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
) -> Optional[SliceSystem]:
    """Construct System 4 for a link sequence (frozen per-row loops)."""
    sigma = make_linkseq(sigma)
    if not sigma:
        raise SliceError("sigma may not be empty")
    if pairs is not None:
        pair_list = list(pairs)
    else:
        target = make_linkseq(sigma)
        pair_list = [
            (pa, pb)
            for pa, pb in net.path_pairs()
            if make_linkseq(net.links_of(pa) & net.links_of(pb)) == target
        ]
    if not pair_list:
        return None

    path_ids: List[str] = sorted({p for pair in pair_list for p in pair})
    sigma_set = set(sigma)
    remainders: Dict[str, frozenset] = {
        pid: frozenset(net.links_of(pid) - sigma_set) for pid in path_ids
    }
    columns: List[str] = [SIGMA_COLUMN] + [
        pid for pid in path_ids if remainders[pid]
    ]
    col_index = {label: j for j, label in enumerate(columns)}

    family: List[PathSet] = [frozenset([pid]) for pid in path_ids]
    family += [frozenset(pair) for pair in pair_list]

    matrix = np.zeros((len(family), len(columns)), dtype=float)
    for i, ps in enumerate(family):
        matrix[i, 0] = 1.0  # every pathset here traverses σ
        for pid in ps:
            j = col_index.get(pid)
            if j is not None:
                matrix[i, j] = 1.0

    return SliceSystem(
        sigma=sigma,
        paths=tuple(path_ids),
        pairs=tuple(pair_list),
        family=tuple(family),
        matrix=matrix,
        columns=tuple(columns),
    )


def _candidate_systems_reference(
    net: Network, min_pathsets: int
) -> Tuple[Dict[LinkSeq, SliceSystem], List[LinkSeq]]:
    """Lines 2–12: candidate systems and the skipped sequences."""
    systems: Dict[LinkSeq, SliceSystem] = {}
    skipped: List[LinkSeq] = []
    for sigma, pairs in sorted(shared_sequences_reference(net).items()):
        system = build_slice_system_reference(net, sigma, pairs)
        if system is None or system.num_pathsets < min_pathsets:
            skipped.append(sigma)
            continue
        systems[sigma] = system
    return systems, skipped


# ----------------------------------------------------------------------
# Scoring: per-pair dict lookups (appendix Equation 14)
# ----------------------------------------------------------------------


def pair_estimates_reference(
    system: SliceSystem, observations: Mapping[PathSet, float]
) -> Dict[Tuple[str, str], float]:
    """Per-pair estimates of σ's cost (frozen dict-lookup loop)."""
    estimates: Dict[Tuple[str, str], float] = {}
    for pa, pb in system.pairs:
        y_a = observations[frozenset([pa])]
        y_b = observations[frozenset([pb])]
        y_ab = observations[frozenset([pa, pb])]
        estimates[(pa, pb)] = y_a + y_b - y_ab
    return estimates


def unsolvability_reference(
    system: SliceSystem, observations: Mapping[PathSet, float]
) -> float:
    """Unsolvability score: max − min clipped pair estimate (frozen)."""
    estimates = [
        max(v, 0.0)
        for v in pair_estimates_reference(system, observations).values()
    ]
    if len(estimates) < 2:
        return 0.0
    return float(max(estimates) - min(estimates))


def remove_redundant_reference(
    identified: Sequence[LinkSeq],
    examined: Sequence[LinkSeq],
) -> Tuple[LinkSeq, ...]:
    """Prune redundant sequences from Σn̄ (frozen set-union loop)."""
    identified_set = set(identified)
    examined_set = set(examined)
    kept: List[LinkSeq] = []
    for sigma in identified:
        target = set(sigma)
        candidates = [
            other
            for other in examined_set
            if other != sigma and set(other) <= target
        ]
        union = set()
        has_identified = False
        for other in candidates:
            union.update(other)
            if other in identified_set:
                has_identified = True
        if union == target and has_identified:
            continue  # redundant
        kept.append(sigma)
    return tuple(kept)


# ----------------------------------------------------------------------
# §6.2 clustering (frozen per-split loop)
# ----------------------------------------------------------------------


def two_means_split_reference(
    values: Sequence[float],
    min_absolute: float = DEFAULT_MIN_ABSOLUTE,
    min_ratio: float = DEFAULT_MIN_RATIO,
) -> ClusterSplit:
    """Optimal 1-D 2-means split (frozen ``for k in range(1, n)``)."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise MeasurementError("cannot cluster an empty score list")
    if arr.size == 1 or np.isclose(arr[0], arr[-1]):
        return ClusterSplit(
            threshold=float(arr[-1]),
            low_center=float(arr.mean()),
            high_center=float(arr.mean()),
            separated=False,
        )

    best_cost = np.inf
    best_split = 1
    prefix = np.cumsum(arr)
    prefix_sq = np.cumsum(arr**2)
    total = prefix[-1]
    total_sq = prefix_sq[-1]
    n = arr.size
    for k in range(1, n):
        left_n, right_n = k, n - k
        left_sum = prefix[k - 1]
        right_sum = total - left_sum
        left_sq = prefix_sq[k - 1]
        right_sq = total_sq - left_sq
        cost = (left_sq - left_sum**2 / left_n) + (
            right_sq - right_sum**2 / right_n
        )
        if cost < best_cost - 1e-15:
            best_cost = cost
            best_split = k
    low = arr[:best_split]
    high = arr[best_split:]
    low_center = float(low.mean())
    high_center = float(high.mean())
    floor = max(low_center, min_absolute / min_ratio, 1e-9)
    separated = high_center >= min_absolute and high_center >= min_ratio * floor
    return ClusterSplit(
        threshold=float((low[-1] + high[0]) / 2.0),
        low_center=low_center,
        high_center=high_center,
        separated=separated,
    )


def classify_scores_reference(
    scores: Mapping[LinkSeq, float],
    min_absolute: float = DEFAULT_MIN_ABSOLUTE,
    min_ratio: float = DEFAULT_MIN_RATIO,
    definite: float = DEFAULT_DEFINITE,
) -> Dict[LinkSeq, bool]:
    """Solvable/unsolvable classification (frozen)."""
    if not scores:
        return {}
    split = two_means_split_reference(
        list(scores.values()), min_absolute=min_absolute, min_ratio=min_ratio
    )
    if not split.separated:
        return {key: value >= definite for key, value in scores.items()}
    return {
        key: value > split.threshold or value >= definite
        for key, value in scores.items()
    }


# ----------------------------------------------------------------------
# Algorithm 1 end to end (frozen)
# ----------------------------------------------------------------------


def identify_non_neutral_reference(
    net: Network,
    observations: Mapping[PathSet, float],
    decider: Optional[Callable[..., Mapping[LinkSeq, bool]]] = None,
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
    prune_redundant: bool = True,
) -> AlgorithmResult:
    """Algorithm 1, score-based form (frozen loops throughout)."""
    if decider is None:
        decider = classify_scores_reference
    systems, skipped = _candidate_systems_reference(net, min_pathsets)
    scores: Dict[LinkSeq, float] = {
        sigma: unsolvability_reference(system, observations)
        for sigma, system in systems.items()
    }
    verdict = decider(scores)
    identified_raw = tuple(
        sigma for sigma in systems if verdict.get(sigma, False)
    )
    neutral = tuple(
        sigma for sigma in systems if not verdict.get(sigma, False)
    )
    identified = (
        remove_redundant_reference(identified_raw, tuple(systems))
        if prune_redundant
        else identified_raw
    )
    return AlgorithmResult(
        identified=identified,
        identified_raw=identified_raw,
        neutral=neutral,
        skipped=tuple(skipped),
        scores=scores,
        systems=systems,
    )


def identify_non_neutral_exact_reference(
    perf: NetworkPerformance,
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
    tol: float = 1e-9,
    prune_redundant: bool = True,
) -> AlgorithmResult:
    """Algorithm 1 with exact observations and the rank test (frozen)."""
    net = perf.network
    systems, skipped = _candidate_systems_reference(net, min_pathsets)
    observations: Dict[PathSet, float] = {}
    for system in systems.values():
        for ps in system.family:
            if ps not in observations:
                observations[ps] = perf.pathset_performance(ps)
    scores: Dict[LinkSeq, float] = {}
    identified_raw: List[LinkSeq] = []
    neutral: List[LinkSeq] = []
    for sigma, system in systems.items():
        scores[sigma] = unsolvability_reference(system, observations)
        if system.is_solvable_exact(observations, tol=tol):
            neutral.append(sigma)
        else:
            identified_raw.append(sigma)
    identified = (
        remove_redundant_reference(identified_raw, tuple(systems))
        if prune_redundant
        else tuple(identified_raw)
    )
    return AlgorithmResult(
        identified=tuple(identified),
        identified_raw=tuple(identified_raw),
        neutral=tuple(neutral),
        skipped=tuple(skipped),
        scores=scores,
        systems=systems,
    )


# ----------------------------------------------------------------------
# Algorithm 2 (frozen per-family stacking and per-pathset loops)
# ----------------------------------------------------------------------


def congestion_free_matrix_reference(
    data: MeasurementData,
    path_ids: Tuple[str, ...],
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-interval congestion-free indicators (frozen)."""
    if not 0.0 < loss_threshold < 1.0:
        raise MeasurementError(
            f"loss threshold must be in (0,1), got {loss_threshold}"
        )
    if mode not in ("expected", "sampled"):
        raise MeasurementError(f"unknown mode {mode!r}")
    if mode == "sampled" and rng is None:
        raise MeasurementError("mode='sampled' requires an rng")

    sent = np.stack([data.record(pid).sent for pid in path_ids])
    lost = np.stack([data.record(pid).lost for pid in path_ids])
    num_paths, num_intervals = sent.shape

    valid = (sent > 0).all(axis=0)
    m = np.where(valid, sent.min(axis=0), 0)

    if mode == "expected":
        with np.errstate(divide="ignore", invalid="ignore"):
            sampled_lost = np.where(sent > 0, lost * (m / sent), 0.0)
    else:
        sampled_lost = np.zeros_like(sent, dtype=float)
        for i in range(num_paths):
            for t in range(num_intervals):
                if not valid[t] or m[t] == 0:
                    continue
                ngood = int(sent[i, t] - lost[i, t])
                nbad = int(lost[i, t])
                sampled_lost[i, t] = rng.hypergeometric(
                    nbad, ngood, int(m[t])
                )

    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(m > 0, sampled_lost / np.maximum(m, 1), 0.0)
    status = (frac < loss_threshold).astype(np.int8)
    status[:, ~valid] = 0
    return status, valid


def pathset_performance_numbers_reference(
    data: MeasurementData,
    family: PathSetFamily,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
    min_probability: Optional[float] = None,
) -> Dict[PathSet, float]:
    """Algorithm 2 for a family of pathsets (frozen per-pathset loop)."""
    paths: Tuple[str, ...] = tuple(
        sorted({pid for ps in family for pid in ps})
    )
    if not paths:
        return {}
    status, valid = congestion_free_matrix_reference(
        data, paths, loss_threshold, mode, rng
    )
    index = {pid: i for i, pid in enumerate(paths)}
    total_valid = int(valid.sum())
    if total_valid == 0:
        raise MeasurementError(
            "no interval has traffic on every involved path; cannot "
            "normalize (paths: %s)" % (paths,)
        )
    eps = (
        min_probability
        if min_probability is not None
        else 1.0 / (2.0 * total_valid)
    )
    out: Dict[PathSet, float] = {}
    for ps in family:
        rows = [index[pid] for pid in ps]
        joint = status[rows].min(axis=0)  # AND over member paths
        p_free = joint[valid].mean() if total_valid else 0.0
        p_free = min(max(float(p_free), eps), 1.0)
        out[ps] = -float(np.log(p_free))
    return out


def slice_observations_reference(
    data: MeasurementData,
    families,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
) -> Dict[PathSet, float]:
    """Per-slice normalization over many families (frozen merge loop)."""
    merged: Dict[PathSet, float] = {}
    for fam in sorted(
        families, key=lambda f: tuple(sorted(tuple(sorted(ps)) for ps in f))
    ):
        if not fam:
            continue
        values = pathset_performance_numbers_reference(
            data, fam, loss_threshold, mode, rng
        )
        merged.update(values)
    return merged


# ----------------------------------------------------------------------
# Records → verdict (frozen end-to-end inference, as runner.py had it)
# ----------------------------------------------------------------------


def infer_reference(
    net: Network,
    data: MeasurementData,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
    decider: Optional[Callable[..., Mapping[LinkSeq, bool]]] = None,
) -> Tuple[Dict[PathSet, float], AlgorithmResult]:
    """The full frozen inference pipeline: records → verdict.

    Mirrors the pre-rewrite inference block of
    :func:`repro.experiments.runner.run_experiment`: per-slice
    normalization (each System 4 family normalized over its own
    paths, merged in sorted-σ order) followed by score-based
    Algorithm 1. This is the baseline the ≥10× gate of
    ``benchmarks/bench_inference.py`` measures against.
    """
    observations: Dict[PathSet, float] = {}
    for sigma, pairs in sorted(shared_sequences_reference(net).items()):
        system = build_slice_system_reference(net, sigma, pairs)
        if system is None or system.num_pathsets < min_pathsets:
            continue
        observations.update(
            pathset_performance_numbers_reference(
                data,
                system.family,
                loss_threshold=loss_threshold,
                mode=mode,
                rng=rng,
            )
        )
    algorithm = identify_non_neutral_reference(
        net,
        observations,
        decider=decider,
        min_pathsets=min_pathsets,
    )
    return observations, algorithm
