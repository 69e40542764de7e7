"""Observability of neutrality violations (paper Section 3, Theorem 1).

A non-neutral network's violation is *observable* when some set of
pathsets yields an unsolvable System 3 (Definition 1). Theorem 1 gives
the structural characterization: the violation is observable **iff**
the equivalent neutral network contains a virtual link ``l+(n)`` that
is *distinguishable from every link of the original network* — i.e.
``Paths(l+(n)) ≠ Paths(l')`` for all ``l' ∈ L``.

Two entry points:

* :func:`check_observability` — applies Theorem 1 to a concrete
  :class:`~repro.core.performance.NetworkPerformance` (only regulation
  links with a real extra cost count).
* :func:`find_unsolvable_family` — a constructive oracle: searches for
  a pathset family whose System 3 is unsolvable, returning a witness.
  Exponential in |P|; intended for the small theory networks of the
  paper's figures and for the test suite, where it cross-validates
  Theorem 1 against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.equivalent import VirtualLink, build_equivalent
from repro.core.linear import is_solvable
from repro.core.pathsets import PathSetFamily, power_family
from repro.core.performance import NetworkPerformance
from repro.core.routing import routing_matrix


@dataclass(frozen=True)
class ObservabilityResult:
    """Outcome of the Theorem 1 check.

    Attributes:
        observable: Whether the violation is observable.
        witnesses: Regulation virtual links that satisfy the theorem's
            distinguishability condition (empty when not observable).
        masked: Regulation links that are indistinguishable from some
            original link, with the masking link id — the paper's
            "the effect can always be attributed to l'".
    """

    observable: bool
    witnesses: Tuple[VirtualLink, ...]
    masked: Tuple[Tuple[VirtualLink, str], ...]


def check_observability(perf: NetworkPerformance) -> ObservabilityResult:
    """Theorem 1 on a concrete performance assignment.

    Only *effective* regulation links count: a regulation link with
    zero extra cost or no traversing path cannot influence any
    observation, so it cannot witness a violation.

    Returns:
        :class:`ObservabilityResult`; ``observable`` is False for a
        neutral network (there are no regulation links at all).
    """
    equivalent = build_equivalent(perf)
    net = equivalent.original
    real_path_sets = {lid: net.paths_through(lid) for lid in net.link_ids}
    witnesses: List[VirtualLink] = []
    masked: List[Tuple[VirtualLink, str]] = []
    for vl in equivalent.regulation_links():
        if not vl.is_effective:
            continue
        mask = next(
            (
                lid
                for lid, paths in sorted(real_path_sets.items())
                if paths == vl.paths
            ),
            None,
        )
        if mask is None:
            witnesses.append(vl)
        else:
            masked.append((vl, mask))
    return ObservabilityResult(
        observable=bool(witnesses),
        witnesses=tuple(witnesses),
        masked=tuple(masked),
    )


@dataclass(frozen=True)
class UnsolvableWitness:
    """A constructive witness of non-neutrality.

    Attributes:
        family: The pathset family Φ whose System 3 has no solution.
        matrix: ``A(Φ)`` over the original links.
        observations: The exact observation vector ``y``.
    """

    family: PathSetFamily
    matrix: np.ndarray
    observations: np.ndarray


def find_unsolvable_family(
    perf: NetworkPerformance,
    tol: float = 1e-9,
) -> Optional[UnsolvableWitness]:
    """Search for a pathset family making System 3 unsolvable.

    Builds exact observations for the whole power family and tests
    solvability of the single big system — if any sub-family is
    inconsistent, the full family is too, so one test suffices.

    Returns:
        A witness, or ``None`` if System 3 is solvable for the whole
        power family (by Theorem 1, exactly the non-observable case).

    Warning:
        Exponential in the number of paths; use on small networks.
    """
    net = perf.network
    fam = power_family(net)
    if not fam:
        return None
    rm = routing_matrix(net, fam)
    y = perf.observe(fam)
    if is_solvable(rm.matrix, y, tol=tol):
        return None
    return UnsolvableWitness(family=fam, matrix=rm.matrix, observations=y)


def minimal_unsolvable_family(
    perf: NetworkPerformance,
    tol: float = 1e-9,
) -> Optional[UnsolvableWitness]:
    """A greedily minimized unsolvable family (for human inspection).

    Starts from the full power-family witness and drops pathsets whose
    removal keeps the system unsolvable. The result is inclusion-
    minimal (dropping any single remaining pathset restores
    solvability), not globally minimum.
    """
    witness = find_unsolvable_family(perf, tol=tol)
    if witness is None:
        return None
    net = perf.network
    fam = list(witness.family)
    changed = True
    while changed:
        changed = False
        for i in range(len(fam) - 1, -1, -1):
            trial = fam[:i] + fam[i + 1 :]
            if not trial:
                continue
            rm = routing_matrix(net, tuple(trial))
            y = perf.observe(tuple(trial))
            if not is_solvable(rm.matrix, y, tol=tol):
                fam = trial
                changed = True
    fam_t = tuple(fam)
    rm = routing_matrix(net, fam_t)
    return UnsolvableWitness(
        family=fam_t, matrix=rm.matrix, observations=perf.observe(fam_t)
    )
