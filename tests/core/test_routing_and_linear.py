"""Tests for routing matrices and the linear solvability layer."""

import numpy as np
import pytest

from repro.core.linear import (
    is_solvable,
    residual,
    solve_least_squares,
)
from repro.core.network import network_from_path_specs
from repro.core.pathsets import family, power_family, singletons
from repro.core.routing import routing_matrix
from repro.exceptions import TheoryError
from repro.topology.figures import figure1


class TestRoutingMatrix:
    def test_figure1b_matrix(self):
        """Reproduce the exact matrix of Figure 1(b)."""
        net = figure1().network
        fam = family(
            [
                ["p1"],
                ["p2"],
                ["p3"],
                ["p1", "p2"],
                ["p1", "p3"],
                ["p2", "p3"],
                ["p1", "p2", "p3"],
            ]
        )
        rm = routing_matrix(net, fam)
        expected = np.array(
            [
                [1, 1, 0, 0],
                [1, 0, 1, 0],
                [0, 0, 1, 1],
                [1, 1, 1, 0],
                [1, 1, 1, 1],
                [1, 0, 1, 1],
                [1, 1, 1, 1],
            ],
            dtype=float,
        )
        assert rm.columns == ("l1", "l2", "l3", "l4")
        np.testing.assert_array_equal(rm.matrix, expected)

    def test_row_and_column_lookup(self):
        net = figure1().network
        fam = singletons(net)
        rm = routing_matrix(net, fam)
        np.testing.assert_array_equal(
            rm.matrix[rm.rows.index(frozenset({"p2"}))], [1, 0, 1, 0]
        )
        np.testing.assert_array_equal(
            rm.matrix[:, rm.columns.index("l1")], [1, 1, 0]
        )

    def test_explicit_columns(self):
        net = figure1().network
        rm = routing_matrix(net, singletons(net), columns=["l3", "l1"])
        assert rm.shape == (3, 2)
        assert rm.columns == ("l3", "l1")
        np.testing.assert_array_equal(rm.matrix[:, 1], [1, 1, 0])

    def test_format_contains_labels(self):
        net = figure1().network
        rm = routing_matrix(net, singletons(net))
        text = rm.format()
        assert "{p1}" in text and "l4" in text

    def test_full_column_rank_of_power_family(self):
        """Lemma 4: distinguishable links => A(P*) has full column rank."""
        net = figure1().network
        rm = routing_matrix(net, power_family(net))
        assert rm.rank() == rm.shape[1]


class TestSolvability:
    def test_consistent_system(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        x = np.array([2.0, 3.0])
        assert is_solvable(a, a @ x)

    def test_inconsistent_system(self):
        # y1 = x1, y2 = x1 with different values: unsolvable.
        a = np.array([[1.0], [1.0]])
        y = np.array([1.0, 2.0])
        assert not is_solvable(a, y)
        assert residual(a, y) == pytest.approx(np.sqrt(0.5))

    def test_residual_zero_for_solvable(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        assert residual(a, y) == pytest.approx(0.0, abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(TheoryError):
            is_solvable(np.eye(2), np.ones(3))

    def test_non_matrix_rejected(self):
        with pytest.raises(TheoryError):
            residual(np.ones(3), np.ones(3))

    def test_least_squares_unique(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x = np.array([0.5, 1.5])
        sol = solve_least_squares(a, a @ x)
        assert sol.unique
        np.testing.assert_allclose(sol.x, x, atol=1e-9)

    def test_least_squares_nonnegative(self):
        a = np.array([[1.0], [1.0]])
        y = np.array([-1.0, -1.0])
        sol = solve_least_squares(a, y, nonnegative=True)
        assert sol.x[0] == pytest.approx(0.0)

    def test_least_squares_unique_only_at_full_column_rank(self):
        assert not solve_least_squares(np.array([[1.0, 1.0]]), [1.0]).unique
        assert solve_least_squares(np.eye(3), np.ones(3)).unique


class TestLinearEdgeCases:
    """The degenerate systems the algorithm layer can hand down: no
    links (an empty routing matrix), rank deficiency, and observations
    consistent only up to round-off."""

    @pytest.mark.parametrize(
        "y, solvable", [([0.0, 0.0], True), ([0.0, 1e-3], False)]
    )
    def test_empty_system_is_solvable_only_for_zero(self, y, solvable):
        assert is_solvable(np.zeros((2, 0)), y) is solvable

    def test_empty_system_residual_is_observation_norm(self):
        assert residual(np.zeros((2, 0)), [3.0, 4.0]) == pytest.approx(5.0)

    def test_empty_system_cannot_be_solved(self):
        with pytest.raises(TheoryError, match="empty"):
            solve_least_squares(np.zeros((2, 0)), [0.0, 0.0])

    def test_round_off_stays_solvable(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        y = a @ np.array([0.3, 0.7]) + np.array([0.0, 1e-13, 0.0])
        assert is_solvable(a, y)
        assert not is_solvable(a, y, tol=1e-15)

    def test_rank_deficient_solution_is_not_unique(self):
        # Two links always traversed together: only their sum is pinned.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        sol = solve_least_squares(a, [2.0, 2.0])
        assert not sol.unique
        assert sol.x.sum() == pytest.approx(2.0)
        assert sol.residual_norm == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_clamps_and_reports_residual(self):
        sol = solve_least_squares(np.eye(2), [-1.0, 2.0], nonnegative=True)
        np.testing.assert_allclose(sol.x, [0.0, 2.0])
        assert sol.residual_norm == pytest.approx(1.0)
        assert sol.unique

    def test_observation_column_vector_is_accepted(self):
        a = np.array([[1.0], [2.0]])
        assert is_solvable(a, np.array([[1.0], [2.0]]))
