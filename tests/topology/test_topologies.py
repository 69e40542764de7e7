"""Tests for the figure networks and evaluation topologies."""

import pytest

from repro.core.slices import shared_sequences
from repro.exceptions import ConfigurationError
from repro.topology.dumbbell import (
    CLASS1_PATHS,
    CLASS2_PATHS,
    SHARED_LINK,
    build_dumbbell,
)
from repro.topology.figures import (
    ALL_FIGURES,
    figure1,
    figure2,
    figure4,
    figure5,
    figure6,
)
from repro.topology.multi_isp import (
    ACCESS,
    INGRESS,
    NEUTRAL_BUSY_LINK,
    POLICED_LINKS,
    STUB_PAIRS,
    build_multi_isp,
)


class TestFigureNetworks:
    def test_all_figures_build(self):
        for name, builder in ALL_FIGURES.items():
            fig = builder()
            assert fig.network.link_ids
            assert fig.performance.network is fig.network

    def test_figure1_structure(self):
        fig = figure1()
        assert fig.network.links_of("p1") == {"l1", "l2"}
        assert fig.network.links_of("p2") == {"l1", "l3"}
        assert fig.network.links_of("p3") == {"l3", "l4"}
        assert fig.non_neutral_links == {"l1"}
        assert fig.classes.class_of("p2") == "c2"

    def test_figure2_two_paths(self):
        fig = figure2()
        assert len(fig.network.paths) == 2

    def test_figure4_l2_unsliceable(self):
        fig = figure4()
        assert ("l2",) not in shared_sequences(fig.network)

    def test_figure5_exact_paper_numbers(self):
        fig = figure5()
        import math

        lp = fig.performance.link_performance("l1")
        assert lp.for_class("c1") == 0.0
        assert lp.for_class("c2") == pytest.approx(math.log(2))

    def test_figure6_only_l1_non_neutral(self):
        fig = figure6()
        assert fig.performance.non_neutral_links == {"l1"}


class TestDumbbell:
    def test_structure(self):
        topo = build_dumbbell()
        net = topo.network
        assert len(net.links) == 9
        assert len(net.paths) == 4
        for pid in net.path_ids:
            assert SHARED_LINK in net.links_of(pid)

    def test_single_candidate_sequence(self):
        topo = build_dumbbell()
        buckets = shared_sequences(topo.network)
        assert set(buckets) == {(SHARED_LINK,)}
        assert len(buckets[(SHARED_LINK,)]) == 6

    def test_classes(self):
        topo = build_dumbbell()
        for pid in CLASS2_PATHS:
            assert topo.classes.class_of(pid) == "c2"
        for pid in CLASS1_PATHS:
            assert topo.classes.class_of(pid) == "c1"

    def test_mechanisms(self):
        assert build_dumbbell().link_specs[SHARED_LINK].policer is None
        pol = build_dumbbell("policing", 0.25)
        assert pol.link_specs[SHARED_LINK].policer.rate_fraction == 0.25
        shp = build_dumbbell("shaping", 0.4)
        assert shp.link_specs[SHARED_LINK].shaper.rate_fraction == 0.4
        with pytest.raises(ConfigurationError):
            build_dumbbell("rate-limiting")

    def test_only_shared_link_is_bottleneck(self):
        topo = build_dumbbell(capacity_mbps=100)
        for lid, spec in topo.link_specs.items():
            if lid == SHARED_LINK:
                assert spec.capacity_mbps == 100
            else:
                assert spec.capacity_mbps == 1000


class TestMultiIsp:
    def test_24_links_25_paths(self):
        topo = build_multi_isp()
        assert len(topo.network.links) == 24
        assert len(topo.network.paths) == 25
        assert len(topo.dark_paths) == 10
        assert len(topo.light_paths) == 10
        assert len(topo.white_paths) == 5

    def test_policers_placed(self):
        topo = build_multi_isp(policing_rate=0.2)
        for lid in POLICED_LINKS:
            policer = topo.link_specs[lid].policer
            assert policer is not None
            assert policer.rate_fraction == 0.2
            assert policer.target_class == "c2"
        assert topo.link_specs[NEUTRAL_BUSY_LINK].policer is None

    def test_classes(self):
        topo = build_multi_isp()
        for pid in topo.light_paths:
            assert topo.classes.class_of(pid) == "c2"
        for pid in topo.dark_paths + topo.white_paths:
            assert topo.classes.class_of(pid) == "c1"

    def test_dark_and_light_share_routes(self):
        topo = build_multi_isp()
        net = topo.network
        for i, j in STUB_PAIRS:
            assert net.links_of(f"dark{i}{j}") == net.links_of(
                f"light{i}{j}"
            )

    def test_every_link_carries_traffic(self):
        topo = build_multi_isp()
        net = topo.network
        assert all(net.paths_through(lid) for lid in net.link_ids)

    def test_policer_sequences_are_candidates(self):
        """Each policer appears in at least one examinable sequence
        (≥ 2 path pairs), so the algorithm can localize it."""
        topo = build_multi_isp()
        measured = topo.network.restricted_to_paths(
            topo.dark_paths + topo.light_paths
        )
        buckets = shared_sequences(measured)
        rich = {
            sigma for sigma, pairs in buckets.items() if len(pairs) >= 2
        }
        for policer in POLICED_LINKS:
            assert any(policer in sigma for sigma in rich), policer

    def test_stub_fan_sequences(self):
        topo = build_multi_isp()
        measured = topo.network.restricted_to_paths(
            topo.dark_paths + topo.light_paths
        )
        buckets = shared_sequences(measured)
        # Stub-1 fan through the policed backbone shortcut.
        assert (ACCESS[1], INGRESS[1], "l5") in buckets
