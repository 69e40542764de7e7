"""Least-squares loss-rate tomography baseline (DESIGN.md S16).

The additive-metric counterpart of the Boolean baseline: express path
costs ``y = −log P(path congestion-free)`` as sums of link costs and
solve the (usually underdetermined) system with nonnegative least
squares. Like all classical tomography it *assumes neutrality*; the
benches show its estimates splitting incoherently when a link
differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.linear import solve_least_squares
from repro.core.network import Network
from repro.core.pathsets import PathSetFamily, singletons
from repro.core.routing import routing_matrix
from repro.measurement.normalize import pathset_performance_numbers
from repro.measurement.records import MeasurementData


@dataclass(frozen=True)
class LsqTomographyResult:
    """Outcome of least-squares tomography.

    Attributes:
        link_costs: ``{link: estimated cost (−log P)}``.
        residual_norm: The fit residual; large values mean the neutral
            model cannot explain the observations.
        unique: Whether the system pinned the costs uniquely.
    """

    link_costs: Dict[str, float]
    residual_norm: float
    unique: bool


def lsq_tomography(
    net: Network,
    data: MeasurementData,
    family: PathSetFamily = None,
    loss_threshold: float = 0.01,
) -> LsqTomographyResult:
    """Estimate per-link costs assuming a neutral network.

    Args:
        net: The network.
        data: Raw measurements.
        family: Pathsets to fit over; defaults to all single paths
            present in the data.
        loss_threshold: Congestion threshold.
    """
    if family is None:
        family = tuple(
            ps
            for ps in singletons(net)
            if next(iter(ps)) in data
        )
    observations = pathset_performance_numbers(
        data, family, loss_threshold=loss_threshold
    )
    y = np.array([observations[ps] for ps in family])
    rm = routing_matrix(net, family)
    solution = solve_least_squares(rm.matrix, y, nonnegative=True)
    return LsqTomographyResult(
        link_costs={
            lid: float(x) for lid, x in zip(rm.columns, solution.x)
        },
        residual_norm=solution.residual_norm,
        unique=solution.unique,
    )
