"""Unit tests for the network model (repro.core.network)."""

import pytest

from repro.core.network import (
    Link,
    Network,
    Node,
    NodeKind,
    Path,
    make_linkseq,
    network_from_path_specs,
)
from repro.core.slices import shared_sequences
from repro.exceptions import (
    InvalidPathError,
    ModelError,
    UnknownLinkError,
    UnknownPathError,
)


@pytest.fixture
def fig1_net():
    return network_from_path_specs(
        {"p1": ["l1", "l2"], "p2": ["l1", "l3"], "p3": ["l3", "l4"]}
    )


class TestConstruction:
    def test_links_from_strings(self, fig1_net):
        assert fig1_net.link_ids == ("l1", "l2", "l3", "l4")

    def test_path_ids_sorted(self, fig1_net):
        assert fig1_net.path_ids == ("p1", "p2", "p3")

    def test_duplicate_link_rejected(self):
        with pytest.raises(ModelError):
            Network(["l1", "l1"], [Path("p1", ("l1",))])

    def test_duplicate_path_rejected(self):
        with pytest.raises(ModelError):
            Network(["l1"], [Path("p1", ("l1",)), Path("p1", ("l1",))])

    def test_path_with_unknown_link_rejected(self):
        with pytest.raises(UnknownLinkError):
            Network(["l1"], [Path("p1", ("l1", "l9"))])

    def test_empty_path_rejected(self):
        with pytest.raises(InvalidPathError):
            Path("p1", ())

    def test_looping_path_rejected(self):
        with pytest.raises(InvalidPathError):
            Path("p1", ("l1", "l2", "l1"))

    def test_nodes_synthesized_from_link_endpoints(self):
        net = Network(
            [Link("l1", "a", "b")], [Path("p1", ("l1",))]
        )
        assert set(net.nodes) == {"a", "b"}
        assert net.node("a").kind == NodeKind.RELAY

    def test_invalid_node_kind_rejected(self):
        with pytest.raises(ModelError):
            Node("x", "router")

    def test_host_node(self):
        assert Node("h", NodeKind.HOST).kind == NodeKind.HOST


class TestHelpers:
    def test_paths_through(self, fig1_net):
        assert fig1_net.paths_through("l1") == {"p1", "p2"}
        assert fig1_net.paths_through("l3") == {"p2", "p3"}
        assert fig1_net.paths_through("l2") == {"p1"}

    def test_paths_through_unknown_link(self, fig1_net):
        with pytest.raises(UnknownLinkError):
            fig1_net.paths_through("l99")

    def test_paths_through_all(self, fig1_net):
        assert fig1_net.paths_through_all(["l1", "l3"]) == {"p2"}
        assert fig1_net.paths_through_all([]) == {"p1", "p2", "p3"}

    def test_links_of(self, fig1_net):
        assert fig1_net.links_of("p2") == {"l1", "l3"}

    def test_links_of_unknown_path(self, fig1_net):
        with pytest.raises(UnknownPathError):
            fig1_net.links_of("p99")

    def test_links_of_pathset(self, fig1_net):
        assert fig1_net.links_of_pathset({"p1", "p3"}) == {
            "l1", "l2", "l3", "l4",
        }

    def test_shared_sequences(self, fig1_net):
        # p1 and p3 share no link, so no bucket holds them.
        assert shared_sequences(fig1_net) == {
            ("l1",): [("p1", "p2")],
            ("l3",): [("p2", "p3")],
        }

    def test_distinguishable(self, fig1_net):
        assert fig1_net.distinguishable("l1", "l2")
        # l2 is traversed only by p1, l4 only by p3: distinguishable.
        assert fig1_net.distinguishable("l2", "l4")

    def test_indistinguishable_links(self):
        net = network_from_path_specs({"p1": ["l1", "l2"]})
        assert not net.distinguishable("l1", "l2")

    def test_path_pairs_count(self, fig1_net):
        assert len(list(fig1_net.path_pairs())) == 3

    def test_unused_link_carries_no_path(self):
        net = Network(["l1", "l2"], [Path("p1", ("l1",))])
        assert net.paths_through("l2") == frozenset()

    def test_contains_and_len(self, fig1_net):
        assert "l1" in fig1_net
        assert "l9" not in fig1_net
        assert len(fig1_net) == 4


class TestRestriction:
    def test_restricted_to_paths(self, fig1_net):
        sub = fig1_net.restricted_to_paths(["p1"])
        assert sub.path_ids == ("p1",)
        assert sub.link_ids == ("l1", "l2")

    def test_restricted_unknown_path(self, fig1_net):
        with pytest.raises(UnknownPathError):
            fig1_net.restricted_to_paths(["p9"])


class TestLinkSeq:
    def test_make_linkseq_sorts_and_dedups(self):
        assert make_linkseq(["l3", "l1", "l3"]) == ("l1", "l3")

    def test_make_linkseq_empty(self):
        assert make_linkseq([]) == ()
