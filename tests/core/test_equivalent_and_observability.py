"""Tests for the equivalent neutral network and Theorem 1."""

import numpy as np
import pytest

from repro.core.equivalent import (
    VirtualLinkKind,
    build_equivalent,
)
from repro.core.observability import (
    check_observability,
    find_unsolvable_family,
    minimal_unsolvable_family,
)
from repro.core.pathsets import power_family, singletons_and_pairs
from repro.topology.figures import figure1, figure2, figure4, figure5


def _by_origin(eq, link_id):
    """The virtual links modelling one original link."""
    return tuple(
        vl for vl in eq.virtual_links.values() if vl.origin == link_id
    )

class TestEquivalentConstruction:
    def test_figure3_structure(self):
        """Fig 1's equivalent: l1 -> l1+(c1), l1+(c2); others neutral."""
        fig = figure1()
        eq = build_equivalent(fig.performance)
        by_origin = _by_origin(eq, "l1")
        kinds = sorted(vl.kind for vl in by_origin)
        assert kinds == [VirtualLinkKind.COMMON, VirtualLinkKind.REGULATION]
        common = next(
            vl for vl in by_origin if vl.kind == VirtualLinkKind.COMMON
        )
        regulation = next(
            vl for vl in by_origin if vl.kind == VirtualLinkKind.REGULATION
        )
        # Common queue traversed by Paths(l1) = {p1, p2}.
        assert common.paths == {"p1", "p2"}
        # Regulation link traversed by Paths(l1) ∩ c2 = {p2}.
        assert regulation.paths == {"p2"}
        assert regulation.cost == pytest.approx(0.40 - 0.05)

    def test_neutral_links_map_to_themselves(self):
        fig = figure1()
        eq = build_equivalent(fig.performance)
        (vl,) = _by_origin(eq, "l3")
        assert vl.kind == VirtualLinkKind.NEUTRAL
        assert vl.cost == pytest.approx(0.03)
        assert vl.paths == {"p2", "p3"}

    def test_equivalence_of_observations(self):
        """G and G+ produce identical observations for every pathset."""
        for fig in (figure1(), figure2(), figure4(), figure5()):
            eq = build_equivalent(fig.performance)
            fam = power_family(fig.network)
            direct = fig.performance.observe(fam)
            via_eq = eq.observe(fam)
            np.testing.assert_allclose(direct, via_eq, atol=1e-12)

    def test_ineffective_regulation_links_flagged(self):
        fig = figure5()  # x1(1)=0; regulation cost positive
        eq = build_equivalent(fig.performance)
        regs = eq.regulation_links()
        assert len(regs) == 1
        assert regs[0].is_effective

    def test_cost_vector_matches_columns(self):
        fig = figure1()
        eq = build_equivalent(fig.performance)
        assert len(eq.cost_vector()) == len(eq.virtual_link_ids)


class TestTheorem1:
    def test_figure1_observable(self):
        assert check_observability(figure1().performance).observable

    def test_figure2_not_observable(self):
        result = check_observability(figure2().performance)
        assert not result.observable
        # The regulation link is masked by l3 (paper's explanation).
        assert result.masked
        masked_by = {mask for _, mask in result.masked}
        assert "l3" in masked_by

    def test_figure4_observable(self):
        assert check_observability(figure4().performance).observable

    def test_figure5_observable(self):
        assert check_observability(figure5().performance).observable

    def test_neutral_network_not_observable(self):
        from repro.core.performance import neutral_performance

        fig = figure1()
        perf = neutral_performance(
            fig.network, fig.classes, {"l1": 0.2}
        )
        assert not check_observability(perf).observable


class TestBruteForceOracle:
    """Cross-validate Theorem 1 against exhaustive search (Lemma 1)."""

    def test_figure1_witness_exists(self):
        witness = find_unsolvable_family(figure1().performance)
        assert witness is not None
        assert witness.matrix.shape[0] == len(witness.family)

    def test_figure2_no_witness(self):
        assert find_unsolvable_family(figure2().performance) is None

    def test_figure5_needs_pathsets(self):
        """Fig 5's violation is invisible to single-path observations
        but visible once pairs are included (the {p2,p3} clue)."""
        perf = figure5().performance
        net = figure5().network
        from repro.core.linear import is_solvable
        from repro.core.pathsets import singletons
        from repro.core.routing import routing_matrix

        fam1 = singletons(net)
        rm1 = routing_matrix(net, fam1)
        assert is_solvable(rm1.matrix, perf.observe(fam1))

        fam2 = singletons_and_pairs(net)
        rm2 = routing_matrix(net, fam2)
        assert not is_solvable(rm2.matrix, perf.observe(fam2))

    def test_minimal_witness_is_unsolvable_and_minimal(self):
        from repro.core.linear import is_solvable
        from repro.core.routing import routing_matrix

        perf = figure1().performance
        witness = minimal_unsolvable_family(perf)
        assert witness is not None
        assert not is_solvable(witness.matrix, witness.observations)
        # Dropping any single pathset restores solvability.
        net = figure1().network
        for i in range(len(witness.family)):
            fam = witness.family[:i] + witness.family[i + 1 :]
            if not fam:
                continue
            rm = routing_matrix(net, fam)
            assert is_solvable(rm.matrix, perf.observe(fam))
