"""Topology-A experiment sets 1–9 (Table 2, results Figure 8).

Each set varies one parameter across four experiments on the dumbbell
of Figure 7. Sets 1–3 keep the shared link neutral while making the
two classes as different as possible (flow size, RTT, congestion
control) — the hard case for false positives. Sets 4–9 police or
shape class c2 while keeping the classes' *traffic* identical — the
hard case for detection.

The expected verdict per experiment follows the paper: neutral for
sets 1–3, non-neutral for sets 4–9 (the shared link differentiates in
all of them; see EXPERIMENTS.md for the discussion of the
shaping-rate-50 % case, whose *observations* look neutral).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments.config import EmulationSettings
from repro.experiments.runner import (
    ExperimentOutcome,
    batch_key,
    run_scenarios,
)
from repro.experiments.sweep import SweepPoint, SweepRunner
from repro.fluid.params import PathWorkload
from repro.substrate.batch import substrate_supports_batch
from repro.substrate.scenario import CompiledScenario
from repro.topology.dumbbell import (
    CLASS1_PATHS,
    CLASS2_PATHS,
    SHARED_LINK,
    build_dumbbell,
)
from repro.workloads.profiles import TABLE1, class_workload


@dataclass(frozen=True)
class TopologyAExperiment:
    """One experiment (one x-axis point of one Figure 8 panel).

    Attributes:
        set_number: 1–9 (Table 2's first column).
        mechanism: ``None`` / ``"policing"`` / ``"shaping"``.
        varying: Name of the varied parameter.
        value: The varied parameter's value for this experiment.
        workloads: Per-path traffic.
        rate_fraction: Policing/shaping rate (differentiated sets).
        expect_non_neutral: Ground-truth verdict.
    """

    set_number: int
    mechanism: Optional[str]
    varying: str
    value: object
    workloads: Mapping[str, PathWorkload]
    rate_fraction: float
    expect_non_neutral: bool


def _set1(value: float) -> Dict[str, PathWorkload]:
    """Set 1: c1 carries 1 Mb flows, c2 carries ``value`` Mb flows."""
    wl = class_workload(CLASS1_PATHS, mean_size_mb=1.0)
    wl.update(class_workload(CLASS2_PATHS, mean_size_mb=value))
    return wl


def _set2(value: float) -> Dict[str, PathWorkload]:
    """Set 2: c1 at 50 ms RTT, c2 at ``value`` ms."""
    wl = class_workload(CLASS1_PATHS, mean_size_mb=10.0, rtt_ms=50.0)
    wl.update(class_workload(CLASS2_PATHS, mean_size_mb=10.0, rtt_ms=value))
    return wl


def _set3(value: str) -> Dict[str, PathWorkload]:
    """Set 3: c1 uses CUBIC, c2 uses ``value``."""
    wl = class_workload(CLASS1_PATHS, mean_size_mb=10.0)
    wl.update(
        class_workload(
            CLASS2_PATHS, mean_size_mb=10.0, congestion_control=value
        )
    )
    return wl


def _uniform_size(value: float) -> Dict[str, PathWorkload]:
    """Sets 4 & 7: all paths carry ``value`` Mb flows."""
    return class_workload(CLASS1_PATHS + CLASS2_PATHS, mean_size_mb=value)


def _uniform_rtt(value: float) -> Dict[str, PathWorkload]:
    """Sets 5 & 8: all paths at ``value`` ms RTT."""
    return class_workload(
        CLASS1_PATHS + CLASS2_PATHS, mean_size_mb=10.0, rtt_ms=value
    )


def _uniform_default(_: float) -> Dict[str, PathWorkload]:
    """Sets 6 & 9: default traffic; the rate is what varies."""
    return class_workload(CLASS1_PATHS + CLASS2_PATHS, mean_size_mb=10.0)


#: Table 2, encoded. Each entry: (mechanism, varying parameter name,
#: values, workload builder, rate-is-the-varying-parameter?).
TABLE2_SETS: Dict[int, Tuple[Optional[str], str, Tuple, Callable, bool]] = {
    1: (None, "mean_flow_size_mb(c2)", (1.0, 10.0, 40.0, 10000.0), _set1, False),
    2: (None, "rtt_ms(c2)", (50.0, 80.0, 120.0, 200.0), _set2, False),
    3: (None, "congestion_control(c2)", ("cubic", "newreno"), _set3, False),
    4: ("policing", "mean_flow_size_mb", (1.0, 10.0, 40.0, 10000.0), _uniform_size, False),
    5: ("policing", "rtt_ms", (50.0, 80.0, 120.0, 200.0), _uniform_rtt, False),
    6: ("policing", "rate_percent", (50.0, 40.0, 30.0, 20.0), _uniform_default, True),
    7: ("shaping", "mean_flow_size_mb", (1.0, 10.0, 40.0, 10000.0), _uniform_size, False),
    8: ("shaping", "rtt_ms", (50.0, 80.0, 120.0, 200.0), _uniform_rtt, False),
    9: ("shaping", "rate_percent", (50.0, 40.0, 30.0, 20.0), _uniform_default, True),
}


def build_experiment(
    set_number: int, value: object
) -> TopologyAExperiment:
    """Instantiate one Table 2 experiment."""
    mechanism, varying, values, builder, rate_varies = TABLE2_SETS[set_number]
    if value not in values:
        raise ValueError(
            f"set {set_number} does not include value {value!r}; "
            f"valid: {values}"
        )
    rate = (
        float(value) / 100.0
        if rate_varies
        else TABLE1.default_rate_percent / 100.0
    )
    return TopologyAExperiment(
        set_number=set_number,
        mechanism=mechanism,
        varying=varying,
        value=value,
        workloads=builder(value),
        rate_fraction=rate,
        expect_non_neutral=mechanism is not None,
    )


def experiment_values(set_number: int) -> Tuple:
    """The x-axis values of one experiment set."""
    return TABLE2_SETS[set_number][2]


def compile_topology_a(
    set_number: int,
    value: object,
    settings: EmulationSettings = EmulationSettings(),
    substrate: str = "fluid",
) -> CompiledScenario:
    """One Table 2 experiment as a scenario: the dumbbell with the
    set's mechanism and rate on the shared link, and its workloads."""
    exp = build_experiment(set_number, value)
    topo = build_dumbbell(
        mechanism=exp.mechanism, rate_fraction=exp.rate_fraction
    )
    return CompiledScenario(
        network=topo.network,
        classes=topo.classes,
        link_specs=topo.link_specs,
        workloads=exp.workloads,
        settings=settings,
        substrate=substrate,
        ground_truth_links=frozenset(
            (SHARED_LINK,) if exp.expect_non_neutral else ()
        ),
    )


def run_topology_a(
    set_number: int,
    value: object,
    settings: EmulationSettings = EmulationSettings(),
    substrate: str = "fluid",
) -> ExperimentOutcome:
    """Run one topology-A experiment end to end.

    Returns the full :class:`ExperimentOutcome`; the outcome's
    ``path_congestion`` gives the four bars of the corresponding
    Figure 8 panel at this x-axis value, and
    ``verdict_non_neutral`` the algorithm's decision.
    ``substrate`` picks the emulation backend (fluid or packet).
    """
    [outcome] = run_scenarios(
        [compile_topology_a(set_number, value, settings, substrate)]
    )
    return outcome


def _sweep_point(
    set_number: int,
    value: object,
    settings: EmulationSettings,
    seed: int,
    substrate: str = "fluid",
) -> ExperimentOutcome:
    """Module-level sweep-point body (picklable for worker pools).

    The sweep derives ``seed`` per point; it replaces the seed baked
    into ``settings`` so each point gets an independent emulation RNG
    regardless of how the sweep was configured.
    """
    return run_topology_a(
        set_number, value, settings.with_seed(seed), substrate=substrate
    )


def _sweep_point_batch(seeds, kwargs_list) -> List[ExperimentOutcome]:
    """Batched executor for Table 2 points that share a batch key.

    The grouped points (any sets, one substrate, shared settings)
    compile to scenarios that share network, classes, workloads and
    settings and differ only in the shared link's specs (neutral,
    policed or shaped, at any rate), so they run as one batch of
    :func:`~repro.experiments.runner.run_scenarios`, bit-identical to
    ``func``'s results.
    """
    return run_scenarios(
        [
            compile_topology_a(
                kw["set_number"],
                kw["value"],
                kw["settings"].with_seed(seed),
                kw.get("substrate", "fluid"),
            )
            for seed, kw in zip(seeds, kwargs_list)
        ]
    )


def sweep_points(
    set_numbers,
    settings: EmulationSettings,
    derive_seeds: bool = True,
    substrate: str = "fluid",
) -> List[SweepPoint]:
    """Sweep points covering the given Table 2 sets (all values).

    Every point is compiled with :func:`compile_topology_a` and keyed
    by :func:`~repro.experiments.runner.batch_key`. On a
    batch-capable substrate, points whose key another point shares
    (same network, classes, workloads and settings, in any set) carry
    the scenario batch hooks with the key as their ``batch_group``,
    so the sweep runner emulates each group in one lockstep program.
    A point alone in its group carries neither hook.

    Args:
        set_numbers: Table 2 set numbers to cover.
        settings: Common emulation settings.
        derive_seeds: ``True`` (default) gives every point an
            independent seed derived from ``settings.seed`` and the
            point key; ``False`` pins every point to ``settings.seed``
            itself, reproducing the sequential runner's realizations
            exactly (the figure benches rely on those).
        substrate: Emulation backend for every point (part of each
            point's cache digest).
    """
    grid = [
        (set_number, value)
        for set_number in set_numbers
        for value in experiment_values(set_number)
    ]
    groups = [
        batch_key(compile_topology_a(set_number, value, settings, substrate))
        if substrate_supports_batch(substrate)
        else None
        for set_number, value in grid
    ]
    sizes = Counter(groups)
    points = []
    for (set_number, value), group in zip(grid, groups):
        if sizes[group] < 2:
            group = None
        points.append(
            SweepPoint(
                key=f"topoA/set{set_number}/{value}",
                func=_sweep_point,
                kwargs={
                    "set_number": set_number,
                    "value": value,
                    "settings": settings,
                    "substrate": substrate,
                },
                seed=None if derive_seeds else settings.seed,
                substrate=substrate,
                batch_func=_sweep_point_batch if group is not None else None,
                batch_group=group,
            )
        )
    return points


def run_full_set(
    set_number: int,
    settings: EmulationSettings = EmulationSettings(),
    workers: int = 1,
    cache_dir: str = None,
    substrate: str = "fluid",
) -> List[Tuple[object, ExperimentOutcome]]:
    """Run all experiments of one Table 2 set (``repro fig8`` without
    ``--value``).

    With ``workers > 1`` the set's values run on a process pool; with
    a ``cache_dir`` finished points are memoized on disk. Values that
    compile to a shared scenario (all of sets 6 and 9) additionally
    run as one scenario batch on batch-capable substrates. Results
    are identical for any worker count, batched or not, and
    identical to :func:`run_topology_a` at each value: every point
    runs at ``settings.seed`` (the Figure 8 benches assert claims
    about those exact realizations — use :func:`sweep_points`
    directly for independently-seeded points).
    """
    runner = SweepRunner.for_settings(
        settings, workers=workers, cache_dir=cache_dir
    )
    results = runner.run(
        sweep_points(
            [set_number], settings, derive_seeds=False,
            substrate=substrate,
        )
    )
    return [
        (value, results[f"topoA/set{set_number}/{value}"])
        for value in experiment_values(set_number)
    ]
