"""Quality metrics for Algorithm 1's output (paper Section 5).

Three metrics, defined exactly as in the paper:

* **False-negative rate** — fraction of truly non-neutral links that
  appear in *no* identified sequence.
* **Granularity** — average length of the identified sequences
  (ideal 1: each violation pinned to a single link).
* **False-positive rate** — fraction of truly neutral links that
  participate in *neutral* sequences incorrectly present in Σn̄ (a
  sequence is "neutral" when it contains no non-neutral link; a
  neutral link inside a correctly identified mixed sequence is *not*
  a false positive, it is a granularity cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Set

from repro.core.algorithm import AlgorithmResult
from repro.core.network import LinkSeq


@dataclass(frozen=True)
class QualityReport:
    """All three §5 metrics plus the underlying link sets.

    Attributes:
        false_negative_rate: In ``[0, 1]``; 0 when every non-neutral
            link is covered (or there are none).
        false_positive_rate: In ``[0, 1]``; 0 when no purely neutral
            sequence was identified (or there are no neutral links).
        granularity: Mean identified-sequence length; ``nan`` when
            nothing was identified.
        missed_links: Non-neutral links in no identified sequence.
        false_positive_links: Neutral links inside incorrectly
            identified, purely-neutral sequences.
    """

    false_negative_rate: float
    false_positive_rate: float
    granularity: float
    missed_links: FrozenSet[str]
    false_positive_links: FrozenSet[str]


def false_negative_rate(
    identified: Sequence[LinkSeq], non_neutral_links: Iterable[str]
) -> float:
    """Fraction of non-neutral links not covered by any identified σ."""
    truth = set(non_neutral_links)
    if not truth:
        return 0.0
    covered: Set[str] = set()
    for sigma in identified:
        covered.update(sigma)
    missed = truth - covered
    return len(missed) / len(truth)


def false_positive_rate(
    identified: Sequence[LinkSeq],
    neutral_links: Iterable[str],
    non_neutral_links: Iterable[str],
) -> float:
    """Fraction of neutral links inside wrongly identified sequences.

    Only sequences containing *no* non-neutral link count as wrong.
    """
    neutral = set(neutral_links)
    if not neutral:
        return 0.0
    bad = set(non_neutral_links)
    wrong_members: Set[str] = set()
    for sigma in identified:
        if not (set(sigma) & bad):
            wrong_members.update(sigma)
    return len(wrong_members & neutral) / len(neutral)


def granularity(identified: Sequence[LinkSeq]) -> float:
    """Average identified-sequence length; ``nan`` when empty."""
    if not identified:
        return math.nan
    return sum(len(sigma) for sigma in identified) / len(identified)


def evaluate(
    result: AlgorithmResult,
    non_neutral_links: Iterable[str],
    all_links: Iterable[str],
) -> QualityReport:
    """Score an :class:`AlgorithmResult` against ground truth.

    Args:
        result: The algorithm output.
        non_neutral_links: Ground-truth non-neutral link ids.
        all_links: Every link id of the network.
    """
    truth = frozenset(non_neutral_links)
    neutral = frozenset(all_links) - truth
    covered: Set[str] = set()
    for sigma in result.identified:
        covered.update(sigma)
    missed = truth - covered
    wrong_members: Set[str] = set()
    for sigma in result.identified:
        if not (set(sigma) & truth):
            wrong_members.update(sigma)
    fp_links = frozenset(wrong_members & neutral)
    return QualityReport(
        false_negative_rate=(len(missed) / len(truth)) if truth else 0.0,
        false_positive_rate=(len(fp_links) / len(neutral)) if neutral else 0.0,
        granularity=granularity(result.identified),
        missed_links=frozenset(missed),
        false_positive_links=fp_links,
    )
