"""Solvability of observation systems ``y = A·x`` (Lemma 1 machinery).

The cornerstone of the paper: a system built from external
observations of a *neutral* network is always solvable (the routing
matrix correctly relates link costs to observations); an unsolvable
system therefore certifies non-neutrality. This module provides:

* :func:`is_solvable` — exact rank test: ``y`` lies in the column
  space of ``A`` iff ``rank([A | y]) == rank(A)``.
* :func:`residual` — least-squares residual norm, the continuous
  "distance from solvability" used with noisy measurements.
* :func:`solve_least_squares` — the tomography-style estimate, with
  optional nonnegativity (performance numbers are costs ≥ 0).

Numerical notes: observations from emulation are never exactly
consistent, so the exact test takes a tolerance, and the algorithm
layer prefers :func:`residual`-based scores plus clustering
(paper §6.2) over hard rank decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import TheoryError


def _as_matrix(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise TheoryError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def _as_vector(y: np.ndarray, rows: int) -> np.ndarray:
    vec = np.asarray(y, dtype=float).reshape(-1)
    if vec.shape[0] != rows:
        raise TheoryError(
            f"observation vector has {vec.shape[0]} entries, "
            f"matrix has {rows} rows"
        )
    return vec


def is_solvable(a: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> bool:
    """Exact solvability test: is ``y`` in the column space of ``A``?

    Uses the rank criterion ``rank([A|y]) == rank(A)`` with a relative
    tolerance. Suitable for analytic (noise-free) observations.
    """
    mat = _as_matrix(a)
    vec = _as_vector(y, mat.shape[0])
    if mat.size == 0:
        return bool(np.allclose(vec, 0.0, atol=tol))
    augmented = np.hstack([mat, vec[:, None]])
    scale = max(1.0, float(np.abs(augmented).max()))
    rank_a = np.linalg.matrix_rank(mat, tol=tol * scale)
    rank_aug = np.linalg.matrix_rank(augmented, tol=tol * scale)
    return bool(rank_aug == rank_a)


def residual(a: np.ndarray, y: np.ndarray) -> float:
    """Least-squares residual ``min_x ||A·x − y||₂``.

    Zero (up to round-off) iff the system is solvable; grows with the
    inconsistency of the observations.
    """
    mat = _as_matrix(a)
    vec = _as_vector(y, mat.shape[0])
    if mat.size == 0:
        return float(np.linalg.norm(vec))
    solution, _, _, _ = np.linalg.lstsq(mat, vec, rcond=None)
    return float(np.linalg.norm(mat @ solution - vec))


@dataclass(frozen=True)
class LeastSquaresSolution:
    """Result of :func:`solve_least_squares`.

    Attributes:
        x: The estimated link costs.
        residual_norm: ``||A·x − y||₂`` at the solution.
        unique: Whether the solution is unique (A has full column rank).
    """

    x: np.ndarray
    residual_norm: float
    unique: bool


def solve_least_squares(
    a: np.ndarray,
    y: np.ndarray,
    nonnegative: bool = False,
    tol: float = 1e-9,
) -> LeastSquaresSolution:
    """Tomography-style estimate of link costs from observations.

    Args:
        a: Routing matrix.
        y: Observation vector.
        nonnegative: Constrain ``x ≥ 0`` (performance numbers are
            costs); uses scipy's NNLS.
        tol: Rank tolerance for the uniqueness flag.
    """
    mat = _as_matrix(a)
    vec = _as_vector(y, mat.shape[0])
    if mat.size == 0:
        raise TheoryError("cannot solve an empty system")
    if nonnegative:
        # scipy is imported here, its one use, so importing the
        # package (and every CLI run) does not pay for it.
        from scipy import optimize

        x, rnorm = optimize.nnls(mat, vec)
    else:
        x, _, _, _ = np.linalg.lstsq(mat, vec, rcond=None)
        rnorm = float(np.linalg.norm(mat @ x - vec))
    scale = max(1.0, float(np.abs(mat).max()))
    unique = np.linalg.matrix_rank(mat, tol=tol * scale) == mat.shape[1]
    return LeastSquaresSolution(np.asarray(x, dtype=float), float(rnorm), unique)
