"""Pathsets and families of pathsets (the paper's Φ and 𝒫*).

A *pathset* Φ is a set of paths observed jointly: its performance
number is (minus log of) the probability that *all* member paths are
congestion-free during a time interval. Families of pathsets index the
rows of generalized routing matrices, so they need a canonical,
hashable representation — we use ``frozenset`` of path ids, and keep
families as ordered tuples so that matrix rows are reproducible.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Tuple

from repro.core.network import Network

#: A pathset Φ — a frozenset of path ids.
PathSet = FrozenSet[str]

#: An ordered family of pathsets (rows of a routing matrix).
PathSetFamily = Tuple[PathSet, ...]


def pathset(*path_ids: str) -> PathSet:
    """Construct a pathset from path ids: ``pathset("p1", "p2")``."""
    return frozenset(path_ids)


def family(collections: Iterable[Iterable[str]]) -> PathSetFamily:
    """Normalize an iterable of path-id collections into a family.

    Duplicate pathsets are removed; the order of first appearance is
    preserved so that routing-matrix rows match construction order.
    """
    seen = set()
    out: List[PathSet] = []
    for entry in collections:
        ps = frozenset(entry)
        if ps and ps not in seen:
            seen.add(ps)
            out.append(ps)
    return tuple(out)


def singletons(net: Network) -> PathSetFamily:
    """The family of all single-path pathsets ``{{p} | p ∈ P}``."""
    return tuple(frozenset([pid]) for pid in net.path_ids)


def all_pairs(net: Network) -> PathSetFamily:
    """The family of all two-path pathsets."""
    return tuple(
        frozenset(pair) for pair in itertools.combinations(net.path_ids, 2)
    )


def singletons_and_pairs(net: Network) -> PathSetFamily:
    """Singletons followed by pairs — the measurable family in practice.

    Measuring a pathset of size k requires correlating k simultaneous
    path observations; the paper's algorithm only ever needs sizes 1
    and 2, and this family is what the experiment pipeline measures.
    """
    return singletons(net) + all_pairs(net)


def power_family(net: Network) -> PathSetFamily:
    """All non-empty pathsets: the power set 𝒫* minus the empty set.

    It is exponential in |P|; it is used by the exact observability
    oracle on the small theory networks, never on emulated
    topologies.
    """
    ids = net.path_ids
    out: List[PathSet] = []
    for size in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            out.append(frozenset(combo))
    return tuple(out)


def format_pathset(ps: PathSet) -> str:
    """Human-readable rendering, e.g. ``{p1,p3}`` — used in reports."""
    return "{" + ",".join(sorted(ps)) + "}"
