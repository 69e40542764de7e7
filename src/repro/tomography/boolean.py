"""Classical Boolean network tomography baseline (DESIGN.md S16).

The approach the paper inverts: assume the network is neutral and
infer which links are congested from end-to-end path states. We
implement the standard congested-link localization in the style of
Nguyen & Thiran [22] and Duffield [13]:

* **Per interval**: a path is *good* when congestion-free; every link
  of a good path is good. Among the remaining candidate links, cover
  the bad paths greedily with the fewest links (smallest-explanation
  heuristic).
* **Aggregated**: each link's congestion probability is estimated as
  the fraction of intervals in which it was blamed.

This baseline is *sound only for neutral networks* — which is exactly
the paper's point: under differentiation it produces systematically
wrong answers, while the paper's algorithm flags the differentiation
itself. The comparison bench (bench_baseline) demonstrates this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

import numpy as np

from repro.core.network import Network
from repro.exceptions import MeasurementError
from repro.measurement.records import MeasurementData


@dataclass(frozen=True)
class BooleanTomographyResult:
    """Outcome of Boolean tomography.

    Attributes:
        link_congestion: ``{link: estimated congestion probability}``.
        blamed_counts: ``{link: number of intervals blamed}``.
        intervals: Number of intervals used.
    """

    link_congestion: Dict[str, float]
    blamed_counts: Dict[str, int]
    intervals: int


def path_states(
    data: MeasurementData,
    path_ids: Iterable[str],
    loss_threshold: float = 0.01,
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Per-interval good/bad states: True = congestion-free.

    Intervals where a path sent nothing count as good for that path
    (no evidence of congestion).
    """
    ids = tuple(sorted(path_ids))
    states = np.ones((len(ids), data.num_intervals), dtype=bool)
    for i, pid in enumerate(ids):
        rec = data.record(pid)
        frac = rec.loss_fraction()
        states[i] = ~((frac >= loss_threshold) & (rec.sent > 0))
    return states, ids


def smallest_explanation(
    net: Network,
    good_paths: Set[str],
    bad_paths: Set[str],
) -> FrozenSet[str]:
    """Greedy minimal set of links explaining the bad paths.

    Links on any good path are exonerated; remaining links are chosen
    greedily by how many still-unexplained bad paths they cover.
    """
    exonerated: Set[str] = set()
    for pid in good_paths:
        exonerated |= net.links_of(pid)
    blamed: Set[str] = set()
    unexplained = set(bad_paths)
    while unexplained:
        best_link = None
        best_cover: Set[str] = set()
        for lid in net.link_ids:
            if lid in exonerated or lid in blamed:
                continue
            cover = {
                pid
                for pid in unexplained
                if lid in net.links_of(pid)
            }
            if len(cover) > len(best_cover) or (
                len(cover) == len(best_cover)
                and best_link is not None
                and cover
                and lid < best_link
            ):
                best_link, best_cover = lid, cover
        if not best_cover:
            break  # unexplainable paths (all their links exonerated)
        blamed.add(best_link)
        unexplained -= best_cover
    return frozenset(blamed)


def boolean_tomography(
    net: Network,
    data: MeasurementData,
    loss_threshold: float = 0.01,
) -> BooleanTomographyResult:
    """Run Boolean congested-link tomography over all intervals."""
    monitored = [pid for pid in net.path_ids if pid in data]
    if not monitored:
        raise MeasurementError("no monitored paths in the data")
    states, ids = path_states(data, monitored, loss_threshold)
    blamed_counts = {lid: 0 for lid in net.link_ids}
    for t in range(data.num_intervals):
        good = {pid for i, pid in enumerate(ids) if states[i, t]}
        bad = {pid for i, pid in enumerate(ids) if not states[i, t]}
        if not bad:
            continue
        for lid in smallest_explanation(net, good, bad):
            blamed_counts[lid] += 1
    link_congestion = {
        lid: count / data.num_intervals
        for lid, count in blamed_counts.items()
    }
    return BooleanTomographyResult(
        link_congestion=link_congestion,
        blamed_counts=blamed_counts,
        intervals=data.num_intervals,
    )
