"""Traffic generation for the fluid emulator (paper §6.1).

Each path runs a set of parallel *flow slots*. A slot executes one TCP
flow at a time: sample a transfer size (Pareto-distributed, or fixed
for Table 3's mixes), run the flow to completion, idle for an
exponential gap, repeat. This is the paper's traffic model, chosen
there because it matches observed Internet host-pair behaviour
(Crovella & Bestavros [9]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.fluid.params import FlowSlotSpec, PathWorkload, mb_to_packets
from repro.fluid.tcp import TcpState


def sample_flow_size_packets(
    spec: FlowSlotSpec, rng: np.random.Generator
) -> float:
    """Draw one transfer size, in packets.

    Pareto with tail index α and mean ``mean_size_mb``: the scale is
    ``x_m = mean·(α−1)/α`` so the distribution's mean matches the
    configured mean. ``pareto_shape == 0`` returns the fixed size.
    """
    mean_packets = mb_to_packets(spec.mean_size_mb)
    if spec.pareto_shape == 0:
        return max(mean_packets, 1.0)
    alpha = spec.pareto_shape
    x_m = mean_packets * (alpha - 1.0) / alpha
    size = x_m * (1.0 + rng.pareto(alpha))
    return max(size, 1.0)


def sample_gap_seconds(spec: FlowSlotSpec, rng: np.random.Generator) -> float:
    """Draw one exponential inter-flow idle gap."""
    if spec.mean_gap_seconds == 0:
        return 0.0
    return float(rng.exponential(spec.mean_gap_seconds))


@dataclass
class FlowSlot:
    """Runtime state of one parallel flow slot.

    Attributes:
        path_id: The path the slot sends on.
        spec: The slot's static configuration.
        tcp: TCP congestion state (reset per flow).
        remaining_packets: Packets left in the current flow (0 = idle).
        next_start: Simulation time at which the next flow begins.
        flows_completed: Completed-transfer counter (sanity metric).
        rtt_factor: Per-slot multiplicative RTT perturbation (end-host
            stacks and routes differ slightly); desynchronizes the
            sawtooths of flows sharing a path.
    """

    path_id: str
    spec: FlowSlotSpec
    tcp: TcpState
    remaining_packets: float = 0.0
    next_start: float = 0.0
    flows_completed: int = 0
    rtt_factor: float = 1.0

    @property
    def active(self) -> bool:
        return self.remaining_packets > 0.0

    def maybe_start(self, now: float, rng: np.random.Generator) -> None:
        """Start the next flow if its scheduled time has arrived."""
        if self.active or now < self.next_start:
            return
        self.remaining_packets = sample_flow_size_packets(self.spec, rng)
        self.tcp.reset_for_new_flow()

    def complete(self, now: float, rng: np.random.Generator) -> None:
        """Finish the current flow and schedule the next one."""
        self.remaining_packets = 0.0
        self.flows_completed += 1
        self.next_start = now + sample_gap_seconds(self.spec, rng)


class SlotArrays:
    """Array-of-slots counterpart of a ``List[FlowSlot]``.

    One numpy array per slot attribute, in the same slot order that
    :func:`build_slots` produces (paths sorted by id, a path's slots
    in workload order), so the vectorized engine touches every slot
    with whole-array operations. Flow starts and completions are the
    only per-event work, applied to index subsets.

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
        # Built *from* build_slots output, so slot order and the
        # initial-condition RNG draws are the scalar reference
        # engine's by construction, not by parallel implementation.
        slots = build_slots(workloads, rng, stagger_seconds)
        pindex = {pid: i for i, pid in enumerate(path_order)}
        self.path_index = np.array(
            [pindex[s.path_id] for s in slots], dtype=np.intp
        )
        self.mean_packets = np.array(
            [mb_to_packets(s.spec.mean_size_mb) for s in slots]
        )
        self.alpha = np.array([s.spec.pareto_shape for s in slots])
        self.gap_mean = np.array([s.spec.mean_gap_seconds for s in slots])
        self.is_cubic = np.array(
            [s.tcp.algorithm == "cubic" for s in slots], dtype=bool
        )
        self.rtt_factor = np.array([s.rtt_factor for s in slots])
        self.next_start = np.array([s.next_start for s in slots])
        n = len(slots)
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

        Sizes follow :func:`sample_flow_size_packets`: Pareto with the
        slot's tail index (one draw per starting Pareto slot, in slot
        order), or the fixed mean for ``alpha == 0``.
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


def build_slots(
    workloads: "dict[str, PathWorkload]",
    rng: np.random.Generator,
    stagger_seconds: float = 0.5,
) -> List[FlowSlot]:
    """Instantiate every slot of every path.

    Initial starts are staggered uniformly over ``stagger_seconds`` so
    parallel flows do not begin in lockstep (which would synchronize
    slow-start overshoots unrealistically).
    """
    slots: List[FlowSlot] = []
    for path_id in sorted(workloads):
        workload = workloads[path_id]
        for spec in workload.slots:
            slots.append(
                FlowSlot(
                    path_id=path_id,
                    spec=spec,
                    tcp=TcpState(algorithm=workload.congestion_control),
                    next_start=float(rng.uniform(0.0, stagger_seconds)),
                    rtt_factor=float(rng.uniform(0.9, 1.1)),
                )
            )
    return slots
