"""Tests for the §7 extension: type-(b) non-neutral links.

A link that keeps separate queues per class violates assumption #3:
its classes' congestion events are independent, so its neutral
equivalent uses parallel per-class virtual links instead of a common
queue plus regulation links.
"""

import math

import numpy as np
import pytest

from repro.core.equivalent import VirtualLinkKind, build_equivalent
from repro.core.pathsets import power_family
from repro.exceptions import TheoryError
from repro.topology.figures import figure5


@pytest.fixture
def fig():
    return figure5()


def _by_origin(eq, link_id):
    """The virtual links modelling one original link."""
    return tuple(
        vl for vl in eq.virtual_links.values() if vl.origin == link_id
    )

class TestTypeBEquivalent:
    def test_parallel_virtual_links(self, fig):
        eq = build_equivalent(fig.performance, uncorrelated_links=["l1"])
        by_origin = _by_origin(eq, "l1")
        assert len(by_origin) == 2
        assert all(
            vl.kind == VirtualLinkKind.REGULATION for vl in by_origin
        )
        by_class = {vl.class_name: vl for vl in by_origin}
        # Each class keeps its full cost and only its own paths.
        assert by_class["c1"].paths == {"p1"}
        assert by_class["c1"].cost == pytest.approx(0.0)
        assert by_class["c2"].paths == {"p2", "p3"}
        assert by_class["c2"].cost == pytest.approx(math.log(2))

    def test_unknown_link_rejected(self, fig):
        with pytest.raises(TheoryError):
            build_equivalent(fig.performance, uncorrelated_links=["l99"])

    def test_neutral_links_unaffected(self, fig):
        eq = build_equivalent(
            fig.performance, uncorrelated_links=["l2"]
        )  # l2 is neutral: flag is a no-op
        (vl,) = _by_origin(eq, "l2")
        assert vl.kind == VirtualLinkKind.NEUTRAL

    def test_observation_difference_only_on_cross_class_pathsets(
        self, fig
    ):
        """Type (a) and type (b) equivalents agree on single-class
        pathsets but differ on cross-class ones: without a common
        queue, a cross-class pathset pays both classes' full costs."""
        type_a = build_equivalent(fig.performance)
        type_b = build_equivalent(
            fig.performance, uncorrelated_links=["l1"]
        )
        same_class = frozenset({"p2", "p3"})
        assert type_a.pathset_performance(
            same_class
        ) == pytest.approx(type_b.pathset_performance(same_class))
        cross = frozenset({"p1", "p2"})
        # Type (a): common queue cost (0) + regulation (log 2).
        # Type (b): c1 cost (0) + c2 cost (log 2) — equal here
        # because x1(1) = 0; make the top class costly to split them.
        from repro.core.performance import (
            LinkPerformance,
            NetworkPerformance,
        )

        perf2 = NetworkPerformance(
            fig.network,
            fig.classes,
            {
                "l1": LinkPerformance.non_neutral(
                    {"c1": 0.2, "c2": 0.5}
                ),
                "l2": LinkPerformance.neutral(0.0, fig.classes.names),
                "l3": LinkPerformance.neutral(0.0, fig.classes.names),
                "l4": LinkPerformance.neutral(0.0, fig.classes.names),
            },
        )
        a = build_equivalent(perf2)
        b = build_equivalent(perf2, uncorrelated_links=["l1"])
        # Type (a): common queue 0.2 shared + extra 0.3 => 0.5.
        assert a.pathset_performance(cross) == pytest.approx(0.5)
        # Type (b): independent queues => 0.2 + 0.5 = 0.7.
        assert b.pathset_performance(cross) == pytest.approx(0.7)

    def test_type_b_violation_still_observable_via_correlation(self, fig):
        """The Figure 5 clue survives queue separation: the pair
        {p2,p3} still reveals l1's class-c2 queue."""
        from repro.core.linear import is_solvable
        from repro.core.routing import routing_matrix

        eq = build_equivalent(fig.performance, uncorrelated_links=["l1"])
        fam = power_family(fig.network)
        rm = routing_matrix(fig.network, fam)
        y = eq.observe(fam)
        assert not is_solvable(rm.matrix, y)
