"""Frozen reference of the streaming monitor's per-sequence CUSUM.

A freeze of ``NeutralityMonitor._emit_window``'s scalar CUSUM loop as
it stood before the update moved to whole-array form
(:func:`repro.streaming.monitor.cusum_update`): one state object per
sequence, Python floats and ``max(0.0, ·)``. The hypothesis suite in
``tests/streaming/test_monitor.py`` checks the array update against
it, flag for flag and statistic for statistic.

Do not optimize this module; it is the baseline.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


class _CusumState:
    __slots__ = ("flagged", "stat", "last_zero")

    def __init__(self) -> None:
        self.flagged = False
        self.stat = 0.0
        self.last_zero = -1


def cusum_reference(
    scores: np.ndarray,
    window_ends: Sequence[int],
    reference: float,
    threshold: float,
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, str, int, int, int]]]:
    """Run the scalar CUSUM over a ``(W, S)`` score timeline.

    A row that is all NaN is an uninformative window: every state
    carries over unchanged, as in the monitor.

    Returns:
        ``(flagged, stats, change_points)``: the ``(W, S)`` state and
        statistic after each window, and one ``(sequence, kind,
        window_index, interval, estimate_interval)`` per firing, in
        detection order.
    """
    scores = np.asarray(scores, dtype=float)
    num_windows, num_sigmas = scores.shape
    states = [_CusumState() for _ in range(num_sigmas)]
    flagged = np.zeros((num_windows, num_sigmas), dtype=bool)
    stats = np.zeros((num_windows, num_sigmas))
    change_points: List[Tuple[int, str, int, int, int]] = []
    for idx in range(num_windows):
        row = scores[idx].tolist()
        if all(x != x for x in row):
            for k, st in enumerate(states):
                flagged[idx, k] = st.flagged
                stats[idx, k] = st.stat
            continue
        end = int(window_ends[idx])
        for k, st in enumerate(states):
            x = row[k]
            excursion = (
                x - reference if not st.flagged else reference - x
            )
            st.stat = max(0.0, st.stat + excursion)
            if st.stat == 0.0:
                st.last_zero = idx
            elif st.stat > threshold:
                estimate = int(window_ends[min(st.last_zero + 1, idx)])
                change_points.append(
                    (
                        k,
                        "offset" if st.flagged else "onset",
                        idx,
                        end,
                        estimate,
                    )
                )
                st.flagged = not st.flagged
                st.stat = 0.0
                st.last_zero = idx
            flagged[idx, k] = st.flagged
            stats[idx, k] = st.stat
    return flagged, stats, change_points
