"""Family-scoped reference of Algorithm 2 and scored Algorithm 1.

The paper's Algorithm 2 normalizes each slice over that slice's own
valid intervals, so a path in several slices has one singleton cost
per slice. :func:`infer_family_reference` follows that rule with the
frozen per-pathset loops of ``algorithm_reference.py``: every σ
family is normalized on its own and its system is scored with its
own values. ``algorithm_reference.infer_reference`` instead merges
the families into one mapping, in which a later family's singleton
overwrites an earlier one's, and scores every σ from that mapping.
The two agree whenever every path sent in every interval (expected
mode); with silent intervals or sampled normalization only this one
is Algorithm 2.

Do not optimize this module; it is a test oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from oracles.algorithm_reference import (
    _candidate_systems_reference,
    classify_scores_reference,
    pathset_performance_numbers_reference,
    remove_redundant_reference,
    unsolvability_reference,
)
from repro.core.algorithm import DEFAULT_MIN_PATHSETS, AlgorithmResult
from repro.core.network import LinkSeq, Network
from repro.core.pathsets import PathSet
from repro.measurement.normalize import DEFAULT_LOSS_THRESHOLD
from repro.measurement.records import MeasurementData

#: ``{σ: {pathset: y}}`` — each σ's own family's performance numbers.
FamilyObservations = Dict[LinkSeq, Dict[PathSet, float]]


def infer_family_reference(
    net: Network,
    data: MeasurementData,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
    min_pathsets: int = DEFAULT_MIN_PATHSETS,
    decider: Optional[Callable[..., Mapping[LinkSeq, bool]]] = None,
) -> Tuple[FamilyObservations, AlgorithmResult]:
    """Records → verdict with each σ priced by its own family.

    Families are normalized in sorted-σ order (sampled mode draws the
    RNG stream in that order, as the batched pipeline does), each
    system is scored by :func:`unsolvability_reference` over its own
    family's values, then decided and pruned as in
    ``identify_non_neutral_reference``.
    """
    if decider is None:
        decider = classify_scores_reference
    systems, skipped = _candidate_systems_reference(net, min_pathsets)
    per_sigma: FamilyObservations = {}
    scores: Dict[LinkSeq, float] = {}
    for sigma, system in systems.items():
        values = pathset_performance_numbers_reference(
            data, system.family, loss_threshold, mode, rng
        )
        per_sigma[sigma] = values
        scores[sigma] = unsolvability_reference(system, values)
    verdict = decider(scores)
    identified_raw = tuple(
        sigma for sigma in systems if verdict.get(sigma, False)
    )
    neutral = tuple(
        sigma for sigma in systems if not verdict.get(sigma, False)
    )
    return per_sigma, AlgorithmResult(
        identified=remove_redundant_reference(
            identified_raw, tuple(systems)
        ),
        identified_raw=identified_raw,
        neutral=neutral,
        skipped=tuple(skipped),
        scores=scores,
        systems=systems,
    )


def family_observations_reference(
    data: MeasurementData,
    batch,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
) -> FamilyObservations:
    """Each σ family of a slice batch normalized on its own, in batch
    order, by the frozen per-pathset loop."""
    return {
        sigma: pathset_performance_numbers_reference(
            data, family, loss_threshold, mode, rng
        )
        for sigma, family in zip(batch.sigmas, batch.families())
    }


def member_costs_reference(
    batch, per_sigma: FamilyObservations
) -> Tuple[np.ndarray, np.ndarray]:
    """``(y_member, y_pair_flat)`` laid out like a slice batch's cost
    arrays, read one σ family at a time from ``per_sigma``."""
    path_ids = batch.index.path_ids
    y_member = []
    y_pair = []
    for g, sigma in enumerate(batch.sigmas):
        values = per_sigma[sigma]
        members = batch.member_rows[
            batch.member_offsets[g]:batch.member_offsets[g + 1]
        ]
        y_member.extend(
            values[frozenset([path_ids[r]])] for r in members.tolist()
        )
        lo, hi = batch.offsets[g], batch.offsets[g + 1]
        y_pair.extend(
            values[frozenset((path_ids[a], path_ids[b]))]
            for a, b in zip(
                batch.pair_a[lo:hi].tolist(), batch.pair_b[lo:hi].tolist()
            )
        )
    return np.array(y_member, dtype=float), np.array(y_pair, dtype=float)
