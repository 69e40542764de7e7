"""Traffic generation for the fluid emulator (paper §6.1).

Each path runs a set of parallel *flow slots*. A slot executes one TCP
flow at a time: sample a transfer size (Pareto-distributed, or fixed
for Table 3's mixes), run the flow to completion, idle for an
exponential gap, repeat. This is the paper's traffic model, chosen
there because it matches observed Internet host-pair behaviour
(Crovella & Bestavros [9]).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.fluid.params import PathWorkload, mb_to_packets


class SlotArrays:
    """Every flow slot of every path, one numpy array per attribute.

    Slots are ordered by path id, a path's slots in workload order, so
    the vectorized engine touches every slot with whole-array
    operations. Flow starts and completions are the only per-event
    work, applied to index subsets. (The seed engine's per-slot
    objects are frozen in ``tests/oracles/flow_scalar.py``; this class
    consumes the same RNG stream.)

    Attributes:
        path_index: Per-slot index into the engine's path order.
        mean_packets: Per-slot mean transfer size (packets).
        alpha: Per-slot Pareto tail index (0 = fixed size).
        gap_mean: Per-slot mean idle gap (seconds).
        is_cubic: Per-slot congestion-control selector.
        rtt_factor: Per-slot multiplicative RTT perturbation.
        remaining: Packets left in the current flow (0 = idle).
        next_start: Time the next flow begins.
        flows_completed: Completed-transfer counters.
    """

    def __init__(
        self,
        workloads: "dict[str, PathWorkload]",
        path_order: List[str],
        rng: np.random.Generator,
        stagger_seconds: float = 0.5,
    ) -> None:
        # Slots in sorted-path order, a path's slots in workload
        # order; each slot draws its start stagger, then its RTT
        # factor, as two scalar draws in slot order (the seed engine's
        # stream — a vectorized draw would change it). Initial starts
        # are staggered so parallel flows do not begin in lockstep.
        pindex = {pid: i for i, pid in enumerate(path_order)}
        path_index, specs, is_cubic, next_start, rtt_factor = (
            [], [], [], [], []
        )
        for path_id in sorted(workloads):
            workload = workloads[path_id]
            for spec in workload.slots:
                path_index.append(pindex[path_id])
                specs.append(spec)
                is_cubic.append(workload.congestion_control == "cubic")
                next_start.append(rng.uniform(0.0, stagger_seconds))
                rtt_factor.append(rng.uniform(0.9, 1.1))
        self.path_index = np.array(path_index, dtype=np.intp)
        self.mean_packets = np.array(
            [mb_to_packets(s.mean_size_mb) for s in specs]
        )
        self.alpha = np.array([s.pareto_shape for s in specs])
        self.gap_mean = np.array([s.mean_gap_seconds for s in specs])
        self.is_cubic = np.array(is_cubic, dtype=bool)
        self.rtt_factor = np.array(rtt_factor)
        self.next_start = np.array(next_start)
        n = len(specs)
        self.remaining = np.zeros(n)
        self.flows_completed = np.zeros(n, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.path_index)

    @classmethod
    def concat(
        cls,
        parts: "list[SlotArrays]",
        num_paths: int,
    ) -> "SlotArrays":
        """Stack per-scenario slot arrays into one batch-ordered set.

        The scenario-batched engine folds the scenario axis into the
        slot axis: scenario ``b``'s slot ``i`` lands at flat index
        ``b * S + i`` and its path at flat index ``b * num_paths +
        p``. Every per-slot operation (offers, TCP updates, flow
        starts/completions on index subsets) then applies unchanged
        to the flattened arrays, and per-path reductions over
        ``path_index`` stay segregated per scenario. Each part must
        be freshly built from its own scenario's RNG so the initial
        stagger/RTT-perturbation draws match the scenario's single
        run.
        """
        merged = cls.__new__(cls)
        merged.path_index = np.concatenate(
            [
                part.path_index + b * num_paths
                for b, part in enumerate(parts)
            ]
        )
        for name in (
            "mean_packets",
            "alpha",
            "gap_mean",
            "is_cubic",
            "rtt_factor",
            "next_start",
            "remaining",
            "flows_completed",
        ):
            setattr(
                merged,
                name,
                np.concatenate([getattr(part, name) for part in parts]),
            )
        return merged

    def start_flows(self, idx: np.ndarray, rng: np.random.Generator) -> None:
        """Begin the next flow on each slot in ``idx``.

        Sizes are Pareto with the slot's tail index α and mean (scale
        ``x_m = mean·(α−1)/α``; one draw per starting Pareto slot, in
        slot order), or the fixed mean for ``alpha == 0``; at least
        one packet either way.
        """
        sizes = self.mean_packets[idx]  # fancy indexing copies
        alphas = self.alpha[idx]
        pareto = alphas > 0
        if pareto.any():
            a = alphas[pareto]
            x_m = sizes[pareto] * (a - 1.0) / a
            sizes[pareto] = x_m * (1.0 + rng.pareto(a))
        np.maximum(sizes, 1.0, out=sizes)
        self.remaining[idx] = sizes

    def complete_flows(
        self, idx: np.ndarray, now: float, rng: np.random.Generator
    ) -> None:
        """Finish the current flow on each slot in ``idx``."""
        self.flows_completed[idx] += 1
        self.remaining[idx] = 0.0
        means = self.gap_mean[idx]
        gaps = np.zeros(len(idx))
        drawn = means > 0
        if drawn.any():
            gaps[drawn] = rng.exponential(means[drawn])
        self.next_start[idx] = now + gaps
