"""Analysis helpers: boxplot summaries and report formatting.

The paper's Figure 10 presents per-link / per-sequence performance as
boxplots; the benches render the same data as five-number summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number summary of a sample (what a boxplot draws).

    Attributes:
        minimum / q1 / median / q3 / maximum: The five numbers.
        count: Sample size.
    """

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    count: int

    def format(self, scale: float = 100.0, unit: str = "%") -> str:
        """Compact rendering, by default in percent."""
        return (
            f"[{self.minimum * scale:5.2f} {self.q1 * scale:5.2f} "
            f"{self.median * scale:5.2f} {self.q3 * scale:5.2f} "
            f"{self.maximum * scale:5.2f}]{unit} (n={self.count})"
        )


def boxplot_summary(values: Iterable[float]) -> BoxplotSummary:
    """Five-number summary; empty input yields an all-NaN summary."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        nan = float("nan")
        return BoxplotSummary(nan, nan, nan, nan, nan, 0)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return BoxplotSummary(
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(arr.max()),
        count=int(arr.size),
    )


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Plain-text table with aligned columns (bench output)."""
    materialized: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        materialized.append([str(cell) for cell in row])
    widths = [
        max(len(row[i]) for row in materialized)
        for i in range(len(headers))
    ]
    lines = []
    for idx, row in enumerate(materialized):
        line = "  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        )
        lines.append(line.rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def series_summary(trace: np.ndarray) -> Tuple[float, float, float]:
    """(mean, p95, max) of a queue-occupancy trace (Figure 11)."""
    arr = np.asarray(trace, dtype=float)
    if arr.size == 0:
        return (float("nan"),) * 3
    return (
        float(arr.mean()),
        float(np.percentile(arr, 95)),
        float(arr.max()),
    )
