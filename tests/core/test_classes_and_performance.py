"""Unit tests for performance classes and performance numbers."""

import math

import pytest

from repro.core.classes import (
    ClassAssignment,
    PerformanceClass,
    classes_from_mapping,
    two_classes,
)
from repro.core.network import network_from_path_specs
from repro.core.performance import (
    LinkPerformance,
    NetworkPerformance,
    neutral_performance,
    perf_from_probability,
    performance_with_violations,
    probability_from_perf,
)
from repro.exceptions import ClassAssignmentError, PerformanceError


@pytest.fixture
def net():
    return network_from_path_specs(
        {"p1": ["l1", "l2"], "p2": ["l1", "l3"], "p3": ["l3", "l4"]}
    )


class TestClassAssignment:
    def test_partition_enforced_overlap(self, net):
        with pytest.raises(ClassAssignmentError):
            ClassAssignment(
                [
                    PerformanceClass("a", frozenset({"p1", "p2"})),
                    PerformanceClass("b", frozenset({"p2", "p3"})),
                ],
                net,
            )

    def test_partition_enforced_coverage(self, net):
        with pytest.raises(ClassAssignmentError):
            ClassAssignment(
                [PerformanceClass("a", frozenset({"p1"}))], net
            )

    def test_unknown_path_rejected(self, net):
        with pytest.raises(ClassAssignmentError):
            ClassAssignment(
                [
                    PerformanceClass(
                        "a", frozenset({"p1", "p2", "p3", "p9"})
                    )
                ],
                net,
            )

    def test_empty_class_rejected(self, net):
        with pytest.raises(ClassAssignmentError):
            ClassAssignment(
                [
                    PerformanceClass("a", frozenset()),
                    PerformanceClass(
                        "b", frozenset({"p1", "p2", "p3"})
                    ),
                ],
                net,
            )

    def test_duplicate_names_rejected(self, net):
        with pytest.raises(ClassAssignmentError):
            ClassAssignment(
                [
                    PerformanceClass("a", frozenset({"p1"})),
                    PerformanceClass("a", frozenset({"p2", "p3"})),
                ],
                net,
            )

    def test_class_of(self, net):
        classes = two_classes(net, ["p2"])
        assert classes.class_of("p2") == "c2"
        assert classes.class_of("p1") == "c1"

    def test_two_classes_rejects_all_paths(self, net):
        with pytest.raises(ClassAssignmentError):
            two_classes(net, ["p1", "p2", "p3"])

    def test_from_mapping(self, net):
        classes = classes_from_mapping(
            net, {"p1": "x", "p2": "y", "p3": "x"}
        )
        assert classes.by_name("x").paths == {"p1", "p3"}

    def test_iteration(self, net):
        classes = two_classes(net, ["p2"])
        assert [c.name for c in classes] == ["c1", "c2"]


class TestLinkPerformance:
    def test_neutral_detection(self):
        lp = LinkPerformance.neutral(0.3, ["c1", "c2"])
        assert lp.is_neutral
        assert lp.neutral_value == pytest.approx(0.3)

    def test_non_neutral(self):
        lp = LinkPerformance.non_neutral({"c1": 0.1, "c2": 0.5})
        assert not lp.is_neutral
        assert lp.top_priority_class == "c1"
        assert lp.for_class("c2") == pytest.approx(0.5)

    def test_top_priority_is_lowest_cost(self):
        lp = LinkPerformance.non_neutral({"c1": 0.9, "c2": 0.2})
        assert lp.top_priority_class == "c2"

    def test_negative_cost_rejected(self):
        with pytest.raises(PerformanceError):
            LinkPerformance.non_neutral({"c1": -0.1})

    def test_unknown_class_query(self):
        lp = LinkPerformance.neutral(0.0, ["c1"])
        with pytest.raises(PerformanceError):
            lp.for_class("c9")

    def test_neutral_value_on_non_neutral(self):
        lp = LinkPerformance.non_neutral({"c1": 0.1, "c2": 0.2})
        with pytest.raises(PerformanceError):
            _ = lp.neutral_value


class TestProbabilityConversion:
    def test_round_trip(self):
        for p in (1.0, 0.5, 0.123):
            assert probability_from_perf(
                perf_from_probability(p)
            ) == pytest.approx(p)

    def test_zero_probability_rejected(self):
        with pytest.raises(PerformanceError):
            perf_from_probability(0.0)

    def test_negative_perf_rejected(self):
        with pytest.raises(PerformanceError):
            probability_from_perf(-1.0)


class TestNetworkPerformance:
    def test_neutral_network(self, net):
        classes = two_classes(net, ["p2"])
        perf = neutral_performance(
            net, classes, {"l1": 0.1, "l3": 0.2}
        )
        assert perf.is_network_neutral
        assert perf.neutral_links == set(net.link_ids)

    def test_violations(self, net):
        classes = two_classes(net, ["p2"])
        perf = performance_with_violations(
            net, classes, {}, {"l1": {"c1": 0.1, "c2": 0.5}}
        )
        assert perf.non_neutral_links == {"l1"}
        assert not perf.is_network_neutral

    def test_missing_link_rejected(self, net):
        classes = two_classes(net, ["p2"])
        with pytest.raises(PerformanceError):
            NetworkPerformance(
                net,
                classes,
                {"l1": LinkPerformance.neutral(0.0, classes.names)},
            )

    def test_class_mismatch_rejected(self, net):
        classes = two_classes(net, ["p2"])
        perf_map = {
            lid: LinkPerformance.neutral(0.0, ["c1"])  # missing c2
            for lid in net.link_ids
        }
        with pytest.raises(PerformanceError):
            NetworkPerformance(net, classes, perf_map)

    def test_path_performance_uses_path_class(self, net):
        classes = two_classes(net, ["p2"])
        perf = performance_with_violations(
            net,
            classes,
            {"l3": 0.1},
            {"l1": {"c1": 0.2, "c2": 0.7}},
        )
        # p1 in c1: l1 gives 0.2, l2 gives 0.
        assert perf.path_performance("p1") == pytest.approx(0.2)
        # p2 in c2: l1 gives 0.7, l3 gives 0.1.
        assert perf.path_performance("p2") == pytest.approx(0.8)

    def test_sequence_performance_equation1(self, net):
        classes = two_classes(net, ["p2"])
        perf = neutral_performance(net, classes, {"l1": 0.1, "l2": 0.3})
        assert perf.sequence_performance(
            ["l1", "l2"], "c1"
        ) == pytest.approx(0.4)

    def test_pathset_performance_neutral_equation2(self, net):
        classes = two_classes(net, ["p2"])
        perf = neutral_performance(
            net, classes, {"l1": 0.1, "l2": 0.2, "l3": 0.3, "l4": 0.4}
        )
        # {p1,p2} touches l1,l2,l3.
        assert perf.pathset_performance(
            frozenset({"p1", "p2"})
        ) == pytest.approx(0.6)
