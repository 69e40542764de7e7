"""Generalized routing matrices (paper Section 2.3, Figure 1b).

Given an ordered family of pathsets ``Φ = (Φ_1, ..., Φ_m)`` and the
links ``L = (l_1, ..., l_k)``, the generalized routing matrix ``A(Φ)``
is the 0/1 matrix with ``A[i][k] = 1`` iff at least one path in
``Φ_i`` traverses ``l_k``. For singleton pathsets, rows coincide with
the classical routing matrix of network tomography.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.network import Network
from repro.core.pathsets import PathSetFamily, format_pathset


@dataclass(frozen=True)
class RoutingMatrix:
    """A generalized routing matrix with its row/column labels.

    Attributes:
        matrix: ``(|Φ|, |L|)`` float array of 0/1 entries.
        rows: The pathset family labelling the rows.
        columns: Link ids labelling the columns.
    """

    matrix: np.ndarray
    rows: PathSetFamily
    columns: Tuple[str, ...]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    def rank(self, tol: float = 1e-9) -> int:
        if self.matrix.size == 0:
            return 0
        return int(np.linalg.matrix_rank(self.matrix, tol=tol))

    def format(self) -> str:
        """Render the matrix like the paper's figures (rows = pathsets)."""
        header = " ".join(f"{c:>6}" for c in self.columns)
        lines = [f"{'':>16} {header}"]
        for ps, row in zip(self.rows, self.matrix):
            cells = " ".join(f"{int(v):>6d}" for v in row)
            lines.append(f"{format_pathset(ps):>16} {cells}")
        return "\n".join(lines)


def routing_matrix(
    net: Network,
    fam: PathSetFamily,
    columns: Sequence[str] = (),
) -> RoutingMatrix:
    """Build ``A(Φ)`` for a network and pathset family.

    Args:
        net: The network providing ``Links(p)``.
        fam: Ordered family of pathsets (matrix rows).
        columns: Optional explicit column order; defaults to the
            network's sorted link ids.

    Returns:
        The :class:`RoutingMatrix`.
    """
    cols: Tuple[str, ...] = tuple(columns) if columns else net.link_ids
    col_index: Dict[str, int] = {lid: j for j, lid in enumerate(cols)}
    matrix = np.zeros((len(fam), len(cols)), dtype=float)
    for i, ps in enumerate(fam):
        links = net.links_of_pathset(ps)
        for lid in links:
            j = col_index.get(lid)
            if j is not None:
                matrix[i, j] = 1.0
    return RoutingMatrix(matrix, tuple(fam), cols)
