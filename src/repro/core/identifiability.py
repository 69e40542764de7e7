"""Identifiability of non-neutral link sequences (paper Section 4.2).

Definitions and results implemented here:

* **Definition 2**: a non-neutral σ is *identifiable* when System 4
  for σ has no solution. :func:`is_identifiable_exact` evaluates this
  on exact (model-level) observations.
* **Lemma 2**: an unsolvable System 4 implies σ is non-neutral —
  the exact test can therefore never produce a false positive.
* **Lemma 3**: a sufficient structural condition: σ is identifiable
  whenever ``Φ_σ`` contains a pair entirely inside some
  lower-priority class and another pair not inside that class.
  :func:`satisfies_lemma3` checks the condition from topology and
  class structure alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.classes import ClassAssignment
from repro.core.network import LinkSeq, Network, make_linkseq
from repro.core.performance import NetworkPerformance
from repro.core.slices import build_slice_system


@dataclass(frozen=True)
class Lemma3Result:
    """Outcome of the Lemma 3 sufficiency check.

    Attributes:
        satisfied: Whether the condition holds.
        lower_class: The lower-priority class ``c_n`` witnessing it.
        inside_pair: A pair entirely within ``lower_class``.
        outside_pair: A pair not entirely within ``lower_class``.
    """

    satisfied: bool
    lower_class: Optional[str] = None
    inside_pair: Optional[Tuple[str, str]] = None
    outside_pair: Optional[Tuple[str, str]] = None


def satisfies_lemma3(
    net: Network,
    classes: ClassAssignment,
    sigma: LinkSeq,
    top_class: str,
) -> Lemma3Result:
    """Check Lemma 3's sufficient condition for identifiability.

    Args:
        net: The network.
        classes: The class assignment.
        sigma: The (hypothesized non-neutral) link sequence.
        top_class: σ's top-priority class ``c_n*``.

    Returns:
        A :class:`Lemma3Result`; when ``satisfied`` is True and σ is
        truly non-neutral with that top class, Lemma 3 guarantees an
        unsolvable System 4.
    """
    system = build_slice_system(net, make_linkseq(sigma))
    if system is None or len(system.pairs) < 2:
        return Lemma3Result(satisfied=False)
    for cls in classes:
        if cls.name == top_class:
            continue
        inside = None
        outside = None
        for pair in system.pairs:
            entirely = all(p in cls.paths for p in pair)
            if entirely and inside is None:
                inside = pair
            if not entirely and outside is None:
                outside = pair
            if inside and outside:
                return Lemma3Result(
                    satisfied=True,
                    lower_class=cls.name,
                    inside_pair=inside,
                    outside_pair=outside,
                )
    return Lemma3Result(satisfied=False)


def is_identifiable_exact(
    perf: NetworkPerformance,
    sigma: LinkSeq,
    tol: float = 1e-9,
) -> bool:
    """Definition 2 evaluated on exact observations.

    Builds System 4 for σ, fills in the exact pathset performance
    numbers from the ground-truth model, and tests solvability.

    Returns:
        True iff System 4 exists and has no solution. By Lemma 2 a
        True result certifies σ is non-neutral; a False result means
        σ is either neutral or non-identifiable.
    """
    system = build_slice_system(perf.network, make_linkseq(sigma))
    if system is None:
        return False
    observations = {ps: perf.pathset_performance(ps) for ps in system.family}
    return not system.is_solvable_exact(observations, tol=tol)


def identifiable_sequences_exact(
    perf: NetworkPerformance,
    min_pathsets: int = 5,
    tol: float = 1e-9,
) -> Tuple[LinkSeq, ...]:
    """All identifiable link sequences under exact observations.

    Enumerates candidate σ (shared link sequences of path pairs, as in
    Algorithm 1) and returns those whose System 4 is unsolvable.

    Args:
        perf: Ground-truth model.
        min_pathsets: Minimum ``|Φ_σ|`` (Algorithm 1 uses 5, i.e. at
            least two path pairs).
        tol: Rank tolerance.
    """
    from repro.core.slices import shared_sequences

    net = perf.network
    out = []
    for sigma, pairs in sorted(shared_sequences(net).items()):
        system = build_slice_system(net, sigma, pairs)
        if system is None or system.num_pathsets < min_pathsets:
            continue
        observations = {
            ps: perf.pathset_performance(ps) for ps in system.family
        }
        if not system.is_solvable_exact(observations, tol=tol):
            out.append(sigma)
    return tuple(out)
