"""The topology-B experiment (Figures 9, 10, 11).

One experiment: the multi-ISP network with policers on l5, l14, l20
throttling the long flows (class c2) of light-gray hosts, traffic per
Table 3, and the full inference pipeline. Outputs:

* Figure 10(a): ground-truth per-link congestion probability per
  class (from the emulator's link traces).
* Figure 10(b): inferred per-link-sequence performance per class
  (per-pair estimates grouped by whether the pair is entirely in c2).
* Figure 11: queue-occupancy traces of the neutral l13 vs the
  policing l14.
* §5 metrics: false negatives, false positives, granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.algorithm import DEFAULT_MIN_PATHSETS
from repro.core.network import LinkSeq
from repro.core.slices import batch_pair_estimates_arrays, build_slice_batch
from repro.experiments.config import TOPOLOGY_B_DECIDERS, EmulationSettings
from repro.experiments.runner import ExperimentOutcome, run_scenarios
from repro.fluid.params import MSS_BITS, PathWorkload
from repro.substrate.scenario import CompiledScenario
from repro.topology.multi_isp import (
    NEUTRAL_BUSY_LINK,
    POLICED_LINKS,
    MultiIspTopology,
    build_multi_isp,
)
from repro.workloads.profiles import TABLE3, HostGroupProfile, group_workload


#: Background (white) flow mix: Table 3's white group minus its 10 Gb
#: entry. In the paper's scenario the ISP throttles long flows as a
#: *type*; an unpoliced 10 Gb background flow would be a class-c1
#: elephant — unfaithful to the story and a standing-congestion source
#: that buries every measurement (see DESIGN.md substitutions).
WHITE_MIX = HostGroupProfile(
    name="white", flow_sizes_mb=(1.0, 10.0, 40.0), measured=False
)


def table3_workloads(
    topo: MultiIspTopology,
    parallel_copies_dark: int = 2,
    parallel_copies_light: int = 4,
    parallel_copies_white: int = 2,
) -> Dict[str, PathWorkload]:
    """Per-path workloads for topology B, per Table 3.

    The paper writes one copy of each mix per path; the fluid model
    needs a few parallel copies to keep paths continuously present
    (see DESIGN.md on workload calibration) — the *mix* per group is
    Table 3's, except the white group (see :data:`WHITE_MIX`).
    """
    out: Dict[str, PathWorkload] = {}
    for pid in topo.dark_paths:
        out[pid] = group_workload(
            TABLE3["dark"], parallel_copies=parallel_copies_dark
        )
    for pid in topo.light_paths:
        out[pid] = group_workload(
            TABLE3["light"], parallel_copies=parallel_copies_light
        )
    for pid in topo.white_paths:
        out[pid] = group_workload(
            WHITE_MIX, parallel_copies=parallel_copies_white
        )
    return out


@dataclass(frozen=True)
class SequenceEstimates:
    """Figure 10(b) data for one examined link sequence.

    Attributes:
        sigma: The link sequence.
        identified: Algorithm 1's verdict.
        contains_policer: Whether σ includes l5, l14, or l20.
        c2_estimates: σ-cost estimates from pairs entirely in c2.
        other_estimates: Estimates from all other pairs.
    """

    sigma: LinkSeq
    identified: bool
    contains_policer: bool
    c2_estimates: Tuple[float, ...]
    other_estimates: Tuple[float, ...]


@dataclass(frozen=True)
class TopologyBReport:
    """Everything the topology-B benches print.

    Attributes:
        outcome: The raw experiment outcome.
        ground_truth: ``{link: (p_congestion_c1, p_congestion_c2)}``
            — Figure 10(a).
        sequences: Figure 10(b) rows of the examined sequences, in
            algorithm order.
        queue_traces_mb: ``{link: occupancy in Mb per interval}`` for
            l13 and l14 — Figure 11.
    """

    outcome: ExperimentOutcome
    ground_truth: Dict[str, Tuple[float, float]]
    sequences: Tuple[SequenceEstimates, ...]
    queue_traces_mb: Dict[str, np.ndarray]


#: Topology-B settings: 300 s runs decided by
#: :data:`~repro.experiments.config.TOPOLOGY_B_DECIDERS`.
TOPOLOGY_B_SETTINGS = EmulationSettings(
    duration_seconds=300.0, **TOPOLOGY_B_DECIDERS
)


def compile_topology_b(
    settings: EmulationSettings = TOPOLOGY_B_SETTINGS,
    policing_rate: float = 0.15,
    substrate: str = "fluid",
) -> CompiledScenario:
    """Topology B as one scenario, for every topology-B run (a
    ``multi_isp`` :class:`~repro.substrate.scenario.Scenario` too):
    the multi-ISP network policed at ``policing_rate`` on l5, l14 and
    l20, with Table 3's traffic. Only the link specs vary with the
    rate."""
    topo = build_multi_isp(policing_rate=policing_rate)
    return CompiledScenario(
        network=topo.network,
        classes=topo.classes,
        link_specs=topo.link_specs,
        workloads=table3_workloads(topo),
        settings=settings,
        substrate=substrate,
        ground_truth_links=frozenset(POLICED_LINKS),
    )


def run_topology_b(
    settings: EmulationSettings = TOPOLOGY_B_SETTINGS,
    policing_rate: float = 0.15,
    substrate: str = "fluid",
) -> TopologyBReport:
    """Run the full topology-B experiment and collect figure data."""
    member = compile_topology_b(settings, policing_rate, substrate)
    return _report_from_outcome(member, *run_scenarios([member]))


def _report_from_outcome(
    compiled: CompiledScenario, outcome: ExperimentOutcome
) -> TopologyBReport:
    """Assemble the Figures 10/11 report from one member's outcome."""
    settings = compiled.settings
    ground_truth = {
        lid: (
            outcome.emulation.link_congestion_probability(
                lid, "c1", settings.loss_threshold
            ),
            outcome.emulation.link_congestion_probability(
                lid, "c2", settings.loss_threshold
            ),
        )
        for lid in compiled.network.link_ids
    }

    # Class c2 is topology B's light paths.
    c2_paths = compiled.classes.by_name("c2").paths
    identified = set(outcome.algorithm.identified_raw)
    # Each σ's estimates are its segment of the flat Equation-14
    # array, priced by its own family's costs.
    batch, _ = build_slice_batch(
        outcome.inference_network, DEFAULT_MIN_PATHSETS
    )
    flat = batch_pair_estimates_arrays(batch, *outcome.costs).tolist()
    path_ids = batch.index.path_ids
    pair_ids = [
        (path_ids[a], path_ids[b])
        for a, b in zip(batch.pair_a.tolist(), batch.pair_b.tolist())
    ]
    sequences: List[SequenceEstimates] = []
    for g, sigma in enumerate(batch.sigmas):
        if sigma not in outcome.algorithm.scores:
            continue  # not examined: no valid interval, NaN estimates
        lo, hi = batch.offsets[g], batch.offsets[g + 1]
        estimates = sorted(zip(pair_ids[lo:hi], flat[lo:hi]))
        c2_est = tuple(
            v for (pa, pb), v in estimates
            if pa in c2_paths and pb in c2_paths
        )
        other_est = tuple(
            v for (pa, pb), v in estimates
            if not (pa in c2_paths and pb in c2_paths)
        )
        sequences.append(
            SequenceEstimates(
                sigma=sigma,
                identified=sigma in identified,
                contains_policer=bool(set(sigma) & set(POLICED_LINKS)),
                c2_estimates=c2_est,
                other_estimates=other_est,
            )
        )

    traces = {
        lid: outcome.emulation.queue_occupancy[lid] * MSS_BITS / 1e6
        for lid in (NEUTRAL_BUSY_LINK, "l14")
    }
    return TopologyBReport(
        outcome=outcome,
        ground_truth=ground_truth,
        sequences=tuple(sequences),
        queue_traces_mb=traces,
    )


def run_topology_b_point(
    settings: EmulationSettings,
    policing_rate: float,
    seed: int,
    substrate: str = "fluid",
) -> TopologyBReport:
    """One topology-B sweep point (module-level, so worker pools can
    pickle it); ``seed`` replaces the seed baked into ``settings``."""
    return run_topology_b(
        settings.with_seed(seed), policing_rate, substrate=substrate
    )


def run_topology_b_rate_batch(
    seeds, kwargs_list
) -> List[TopologyBReport]:
    """Batched executor for topology-B points: points that share
    settings and substrate (rates, or seeds of one rate) run as one
    batch of :func:`run_scenarios`."""
    members = [
        compile_topology_b(
            kw["settings"].with_seed(seed),
            kw["policing_rate"],
            kw.get("substrate", "fluid"),
        )
        for seed, kw in zip(seeds, kwargs_list)
    ]
    return [
        _report_from_outcome(member, outcome)
        for member, outcome in zip(members, run_scenarios(members))
    ]
