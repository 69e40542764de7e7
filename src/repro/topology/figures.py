"""The example networks of the paper's theory sections (Figures 1–6).

Each function returns the network, the class assignment, and — when
the figure specifies one — a ground-truth performance model, so tests
and examples can reproduce the paper's worked examples verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping

from repro.core.classes import ClassAssignment, PerformanceClass
from repro.core.network import Network, Path
from repro.core.performance import (
    LinkPerformance,
    NetworkPerformance,
    perf_from_probability,
)


@dataclass(frozen=True)
class FigureNetwork:
    """A worked example from the paper.

    Attributes:
        name: Which figure this reproduces.
        network: The graph ``G``.
        classes: The class assignment ``C``.
        non_neutral_links: The links the figure declares non-neutral.
        top_class: Top-priority class per non-neutral link.
        performance: Concrete performance numbers when the figure
            gives them (Figure 5), else a representative assignment
            consistent with the figure's description.
    """

    name: str
    network: Network
    classes: ClassAssignment
    non_neutral_links: FrozenSet[str]
    top_class: Mapping[str, str]
    performance: NetworkPerformance


def _perf(
    net: Network,
    classes: ClassAssignment,
    spec: Mapping[str, object],
) -> NetworkPerformance:
    """Helper: build NetworkPerformance from {link: float | {cls: float}}."""
    link_perf: Dict[str, LinkPerformance] = {}
    for lid in net.link_ids:
        value = spec.get(lid, 0.0)
        if isinstance(value, Mapping):
            link_perf[lid] = LinkPerformance.non_neutral(dict(value))
        else:
            link_perf[lid] = LinkPerformance.neutral(float(value), classes.names)
    return NetworkPerformance(net, classes, link_perf)


def figure1(
    x1_1: float = 0.05, x1_2: float = 0.40, x2: float = 0.02,
    x3: float = 0.03, x4: float = 0.01,
) -> FigureNetwork:
    """Figure 1: the running example.

    Links ``l1..l4``; paths ``p1 = ⟨l1,l2⟩``, ``p2 = ⟨l1,l3⟩``,
    ``p3 = ⟨l3,l4⟩``; classes ``{p1,p3}`` (top) and ``{p2}``. Link
    ``l1`` is non-neutral: it treats traffic from ``p2`` worse than
    from ``p1``. The violation is observable (paper §3.3, "Observable
    violation #1").
    """
    net = Network(
        ["l1", "l2", "l3", "l4"],
        [
            Path("p1", ("l1", "l2")),
            Path("p2", ("l1", "l3")),
            Path("p3", ("l3", "l4")),
        ],
    )
    classes = ClassAssignment(
        [
            PerformanceClass("c1", frozenset({"p1", "p3"})),
            PerformanceClass("c2", frozenset({"p2"})),
        ],
        net,
    )
    perf = _perf(
        net,
        classes,
        {
            "l1": {"c1": x1_1, "c2": x1_2},
            "l2": x2,
            "l3": x3,
            "l4": x4,
        },
    )
    return FigureNetwork(
        name="figure1",
        network=net,
        classes=classes,
        non_neutral_links=frozenset({"l1"}),
        top_class={"l1": "c1"},
        performance=perf,
    )


def figure2(
    x1_1: float = 0.05, x1_2: float = 0.50, x2: float = 0.02, x3: float = 0.03
) -> FigureNetwork:
    """Figure 2: a NON-observable violation.

    Paths ``p1 = ⟨l1,l2⟩``, ``p2 = ⟨l1,l3⟩``; classes ``{p1}`` (top)
    and ``{p2}``. ``l1`` throttles ``p2``, but the extra congestion
    can always be attributed to ``l3`` (the regulation virtual link
    ``l1+(c2)`` is indistinguishable from ``l3``), so no system of
    equations can reveal it.
    """
    net = Network(
        ["l1", "l2", "l3"],
        [Path("p1", ("l1", "l2")), Path("p2", ("l1", "l3"))],
    )
    classes = ClassAssignment(
        [
            PerformanceClass("c1", frozenset({"p1"})),
            PerformanceClass("c2", frozenset({"p2"})),
        ],
        net,
    )
    perf = _perf(
        net,
        classes,
        {"l1": {"c1": x1_1, "c2": x1_2}, "l2": x2, "l3": x3},
    )
    return FigureNetwork(
        name="figure2",
        network=net,
        classes=classes,
        non_neutral_links=frozenset({"l1"}),
        top_class={"l1": "c1"},
        performance=perf,
    )


def figure4(
    x1_1: float = 0.02, x1_low: float = 0.30,
    x2_1: float = 0.01, x2_low: float = 0.25,
    background: float = 0.005,
) -> FigureNetwork:
    """Figure 4: observable violation; ``⟨l1⟩`` identifiable, ``⟨l2⟩`` not.

    Links ``l1..l6``; paths ``p1 = ⟨l1,l2,l3⟩``, ``p2 = ⟨l1,l2,l4⟩``,
    ``p3 = ⟨l1,l2,l5⟩``, ``p4 = ⟨l1,l6⟩``; classes ``{p1}`` (top) and
    ``{p2,p3,p4}``. Links ``l1`` and ``l2`` are non-neutral. No path
    pair shares exactly ``⟨l2⟩`` (every pair through ``l2`` also
    shares ``l1``), so ``⟨l2⟩`` is non-identifiable while ``⟨l1⟩`` and
    ``⟨l1,l2⟩`` are identifiable — the worked example of §5.
    """
    net = Network(
        ["l1", "l2", "l3", "l4", "l5", "l6"],
        [
            Path("p1", ("l1", "l2", "l3")),
            Path("p2", ("l1", "l2", "l4")),
            Path("p3", ("l1", "l2", "l5")),
            Path("p4", ("l1", "l6")),
        ],
    )
    classes = ClassAssignment(
        [
            PerformanceClass("c1", frozenset({"p1"})),
            PerformanceClass("c2", frozenset({"p2", "p3", "p4"})),
        ],
        net,
    )
    perf = _perf(
        net,
        classes,
        {
            "l1": {"c1": x1_1, "c2": x1_low},
            "l2": {"c1": x2_1, "c2": x2_low},
            "l3": background,
            "l4": background,
            "l5": background,
            "l6": background,
        },
    )
    return FigureNetwork(
        name="figure4",
        network=net,
        classes=classes,
        non_neutral_links=frozenset({"l1", "l2"}),
        top_class={"l1": "c1", "l2": "c1"},
        performance=perf,
    )


def figure5() -> FigureNetwork:
    """Figure 5: observable via the pathset ``{p2,p3}`` correlation.

    Paths ``p1 = ⟨l1,l2⟩``, ``p2 = ⟨l1,l3⟩``, ``p3 = ⟨l1,l4⟩``;
    classes ``{p1}`` (top) and ``{p2,p3}``. ``l1`` congests class-2
    traffic with probability 0.5 while everything else is
    congestion-free: ``x1(1) = 0``, ``x1(2) = −log 0.5``,
    ``x2 = x3 = x4 = 0`` — the paper's exact numbers ("Observable
    violation #2"). The tell-tale is that p2 and p3 are always
    congested *together*, visible only through the pair measurement.
    """
    net = Network(
        ["l1", "l2", "l3", "l4"],
        [
            Path("p1", ("l1", "l2")),
            Path("p2", ("l1", "l3")),
            Path("p3", ("l1", "l4")),
        ],
    )
    classes = ClassAssignment(
        [
            PerformanceClass("c1", frozenset({"p1"})),
            PerformanceClass("c2", frozenset({"p2", "p3"})),
        ],
        net,
    )
    perf = _perf(
        net,
        classes,
        {
            "l1": {"c1": 0.0, "c2": perf_from_probability(0.5)},
            "l2": 0.0,
            "l3": 0.0,
            "l4": 0.0,
        },
    )
    return FigureNetwork(
        name="figure5",
        network=net,
        classes=classes,
        non_neutral_links=frozenset({"l1"}),
        top_class={"l1": "c1"},
        performance=perf,
    )


def figure6(
    x1_top: float = 0.02, x1_low: float = 0.35, background: float = 0.004
) -> FigureNetwork:
    """Figure 6's host network (same structure as Figure 4).

    The slice of ``⟨l1⟩`` merges each path's remainder into a logical
    link (``ρ1 = {l2,l3}`` → ``l23`` etc.); the slice construction in
    :mod:`repro.core.slices` reproduces the system of Figure 6(b).
    Only ``l1`` is non-neutral here (Figure 6 labels ``l2``
    non-identifiable but the worked system concerns ``l1``).
    """
    base = figure4(x1_1=x1_top, x1_low=x1_low, background=background)
    perf = _perf(
        base.network,
        base.classes,
        {
            "l1": {"c1": x1_top, "c2": x1_low},
            "l2": background,
            "l3": background,
            "l4": background,
            "l5": background,
            "l6": background,
        },
    )
    return FigureNetwork(
        name="figure6",
        network=base.network,
        classes=base.classes,
        non_neutral_links=frozenset({"l1"}),
        top_class={"l1": "c1"},
        performance=perf,
    )


ALL_FIGURES = {
    "figure1": figure1,
    "figure2": figure2,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
}
