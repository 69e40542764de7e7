"""Adaptive sweeps: recursive frontier refinement on batched lattices.

The paper's headline artifacts are detection *boundaries* — the
policing-rate/noise combinations where Algorithm 1's verdict flips —
yet a dense parameter grid spends almost all of its scenario budget
far from the boundary, where every neighbour agrees. This module
turns the grid into a search (ROADMAP item 5, following the
route-selection estimator framing of Bhering et al.,
arXiv:2203.15126, see PAPERS.md): a coarse lattice pass, then
recursive subdivision of exactly the cells whose corner labels
disagree, until the boundary is localized at dense-grid-step
precision or a scenario budget runs out.

Design rules, in priority order:

* **Bit-interchangeable with dense grids.** Lattice points are built
  by the same point factory a dense sweep would use, so a point's
  :class:`~repro.experiments.sweep.SweepPoint` key, derived seed, and
  cache digest are identical whether it was visited adaptively or
  densely. An adaptive run warms the cache for a later dense run and
  vice versa, and a refined cell's result is *the* dense result —
  not an approximation of it.
* **Deterministic under any worker count.** Refinement decisions
  depend only on point labels (deterministic given the digest) and
  cells are processed in coordinate order, never completion order.
  The same lattice, factory, label, and budget always visit the
  same points through the same waves.
* **One pool dispatch per wave.** Each refinement wave is a single
  :meth:`~repro.experiments.sweep.SweepRunner.run` call; points built
  by the factory carry ``(batch_func, batch_group)``, so a wave's
  scenarios advance as lockstep
  :class:`~repro.substrate.batch.ScenarioBatch` groups exactly like
  a dense sweep's.
* **Budget counts dispatched lattice points, cache hits included.**
  The refinement trajectory must not depend on cache state (a warm
  cache must not let the search wander further than a cold one), so
  ``budget`` bounds *unique lattice points dispatched*, whether or
  not they were replayed from cache. Exhaustion is loud: dropped
  cells are reported, never silently truncated.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import batch_key, run_scenarios
from repro.experiments.sweep import SweepPoint, SweepRunner
from repro.fluid.params import LinkSpec, PolicerSpec
from repro.substrate.batch import substrate_supports_batch
from repro.substrate.scenario import CompiledScenario
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell
from repro.workloads.profiles import class_workload


# ----------------------------------------------------------------------
# Lattice geometry


@dataclass(frozen=True)
class GridAxis:
    """One axis of the parameter lattice.

    Attributes:
        name: Parameter name — the key under which this axis' value
            reaches the point factory.
        values: Strictly increasing grid values; the *dense* grid is
            their full cross product and index space is ``0 ..
            len(values) - 1``.
        refine: Whether the adaptive driver may subdivide along this
            axis. A non-refined ("scan") axis is enumerated densely
            in the coarse pass and cells have no extent along it —
            e.g. the noise axis of a threshold-vs-noise plane, where
            the question is "the threshold *per* noise level".
    """

    name: str
    values: Tuple[float, ...]
    refine: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 2 and self.refine:
            raise ConfigurationError(
                f"axis {self.name!r}: a refined axis needs >= 2 values"
            )
        if not self.values:
            raise ConfigurationError(f"axis {self.name!r} is empty")
        if any(
            b <= a for a, b in zip(self.values, self.values[1:])
        ):
            raise ConfigurationError(
                f"axis {self.name!r}: values must be strictly increasing"
            )


def _pow2_divisor(n: int) -> int:
    """Largest power of two dividing ``n`` (``n >= 1``)."""
    return n & -n


@dataclass(frozen=True, order=True)
class Cell:
    """An axis-aligned lattice cell (hypercube over the refined axes).

    ``origin`` is the low corner in index space (all axes); ``step``
    is the per-axis side length, with ``0`` on scan axes (the cell
    has no extent there). A cell is *terminal* when every refined
    side is down to one grid step.
    """

    origin: Tuple[int, ...]
    step: Tuple[int, ...]

    @property
    def terminal(self) -> bool:
        return all(s <= 1 for s in self.step)

    def corners(self) -> List[Tuple[int, ...]]:
        """The ``2^r`` corner coordinates (r = refined axes)."""
        choices = [
            (o,) if s == 0 else (o, o + s)
            for o, s in zip(self.origin, self.step)
        ]
        return [tuple(c) for c in product(*choices)]

    def _offsets(self) -> List[Tuple[int, ...]]:
        """Half-step sublattice offsets covering the cell."""
        per_axis = []
        for s in self.step:
            if s <= 1:
                per_axis.append((0,) if s == 0 else (0, 1))
            else:
                half = s // 2
                per_axis.append((0, half, 2 * half))
        return [tuple(o) for o in product(*per_axis)]

    def new_points(self) -> List[Tuple[int, ...]]:
        """Sublattice points not already evaluated as corners."""
        fresh = []
        for offs in self._offsets():
            if any(
                s > 1 and o == s // 2
                for o, s in zip(offs, self.step)
            ):
                fresh.append(
                    tuple(c + o for c, o in zip(self.origin, offs))
                )
        return sorted(fresh)

    def children(self) -> List["Cell"]:
        """The half-step subcells (all corners evaluated after the
        cell's :meth:`new_points` ran)."""
        starts = []
        steps = []
        for o, s in zip(self.origin, self.step):
            if s > 1:
                half = s // 2
                starts.append((o, o + half))
                steps.append(half)
            else:
                starts.append((o,))
                steps.append(s)
        return [
            Cell(origin=tuple(org), step=tuple(steps))
            for org in product(*starts)
        ]


def cell_bounds(
    axes: Sequence[GridAxis], cell: Cell
) -> Dict[str, Tuple[float, float]]:
    """Parameter-space bounds of a cell, ``{axis: (lo, hi)}`` (a scan
    axis maps to a zero-width interval)."""
    out: Dict[str, Tuple[float, float]] = {}
    for ax, o, s in zip(axes, cell.origin, cell.step):
        out[ax.name] = (ax.values[o], ax.values[o + s])
    return out


# ----------------------------------------------------------------------
# The adaptive driver


@dataclass(frozen=True)
class WaveStats:
    """One dispatch wave of an adaptive run."""

    step: Tuple[int, ...]
    points: int
    refined_cells: int
    cache_hits: int
    cache_misses: int
    executed: int
    wall_seconds: float


@dataclass
class AdaptiveResult:
    """Everything one :meth:`AdaptiveSweep.run` produced.

    Attributes:
        axes: The lattice definition.
        results: ``{point key: result}`` for every visited point —
            exactly the dense sweep's results restricted to the
            visited coordinates.
        keys: ``{index coords: point key}``.
        labels: ``{index coords: label}``.
        frontier: Terminal (grid-step-sized) cells whose corner
            labels disagree — the localized boundary.
        dropped: Cells that *disagreed* but could not be refined
            within the budget, at the resolution they were dropped;
            non-empty means the frontier is partial.
        waves: Per-wave dispatch bookkeeping (coarse pass first).
        budget / budget_used: The dispatch cap and the unique lattice
            points dispatched (cache hits included, by design).
        dense_size: Full cross-product size, for savings accounting.
    """

    axes: Tuple[GridAxis, ...]
    results: Dict[str, Any]
    keys: Dict[Tuple[int, ...], str]
    labels: Dict[Tuple[int, ...], int]
    frontier: Tuple[Cell, ...]
    dropped: Tuple[Cell, ...]
    waves: Tuple[WaveStats, ...]
    budget: Optional[int]
    budget_used: int
    dense_size: int

    @property
    def evaluated(self) -> int:
        return len(self.labels)

    @property
    def dense_fraction(self) -> float:
        return self.evaluated / self.dense_size

    @property
    def cache_hits(self) -> int:
        return sum(w.cache_hits for w in self.waves)

    @property
    def cache_misses(self) -> int:
        return sum(w.cache_misses for w in self.waves)

    @property
    def wall_seconds(self) -> float:
        return sum(w.wall_seconds for w in self.waves)

    def frontier_bounds(
        self,
    ) -> List[Dict[str, Tuple[float, float]]]:
        """Parameter-space bounds of every frontier cell, in
        coordinate order."""
        return [
            cell_bounds(self.axes, cell)
            for cell in sorted(self.frontier)
        ]

    def summary(self) -> str:
        """Multi-line human summary (the CLI/bench print this)."""
        lines = [
            f"adaptive sweep: {self.evaluated}/{self.dense_size} "
            f"lattice points ({self.dense_fraction:.1%} of dense), "
            f"{len(self.waves)} wave(s)"
            + (
                f", budget {self.budget_used}/{self.budget}"
                if self.budget is not None
                else ""
            ),
            f"frontier: {len(self.frontier)} cell(s) at grid-step "
            "resolution",
        ]
        if self.dropped:
            lines.append(
                f"budget exhausted: {len(self.dropped)} disagreeing "
                "cell(s) dropped before full refinement — frontier "
                "is PARTIAL"
            )
        per_point = (
            f" ({self.wall_seconds / self.evaluated * 1e3:.0f} "
            "ms/point)"
            if self.evaluated
            else ""
        )
        lines.append(
            f"cache: {self.cache_hits} hits, {self.cache_misses} "
            f"misses; wall {self.wall_seconds:.2f} s{per_point}"
        )
        return "\n".join(lines)


class AdaptiveSweep:
    """Recursive frontier refinement over a parameter lattice.

    Args:
        runner: The sweep runner every wave dispatches through (its
            caching/batching/worker settings apply unchanged).
        axes: Lattice axes; refined axes are subdivided around label
            disagreements, scan axes are enumerated densely.
        point_factory: ``factory({axis name: value}) -> SweepPoint``.
            Must be exactly the factory a dense sweep over the same
            lattice would use — that is what makes adaptive and dense
            results bit-interchangeable (same keys, same digests).
        label: ``label(result) -> int``; cells whose corner labels
            disagree are refined (the plane uses :func:`plane_label`).
        budget: Max unique lattice points dispatched, cache hits
            included (None = unbounded). The coarse pass must fit —
            a budget below it is a :class:`ConfigurationError`;
            mid-refinement exhaustion drops trailing cells loudly
            (:attr:`AdaptiveResult.dropped`).

    A refined axis starts at the largest power of two dividing its
    span (``len(values) - 1``), capped at :attr:`MAX_COARSE`.
    """

    #: Cap on the coarse step: starting coarser than 8 grid steps
    #: risks stepping over narrow features.
    MAX_COARSE = 8

    def __init__(
        self,
        runner: SweepRunner,
        axes: Sequence[GridAxis],
        point_factory: Callable[[Mapping[str, float]], SweepPoint],
        label: Callable[[Any], int],
        budget: Optional[int] = None,
    ) -> None:
        self.runner = runner
        self.axes = tuple(axes)
        if not self.axes:
            raise ConfigurationError("adaptive sweep needs >= 1 axis")
        names = [ax.name for ax in self.axes]
        if len(set(names)) != len(names):
            raise ConfigurationError("axis names must be unique")
        if not any(ax.refine for ax in self.axes):
            raise ConfigurationError(
                "adaptive sweep needs >= 1 refined axis"
            )
        self.point_factory = point_factory
        self.label = label
        if budget is not None and budget < 1:
            raise ConfigurationError("budget must be >= 1")
        self.budget = budget
        self.coarse = tuple(
            min(self.MAX_COARSE, _pow2_divisor(len(ax.values) - 1))
            if ax.refine
            else 0
            for ax in self.axes
        )

    # ------------------------------------------------------------------

    def dense_size(self) -> int:
        return math.prod(len(ax.values) for ax in self.axes)

    def point_at(self, coords: Tuple[int, ...]) -> SweepPoint:
        """The factory's point for one lattice coordinate."""
        return self.point_factory(
            {
                ax.name: ax.values[i]
                for ax, i in zip(self.axes, coords)
            }
        )

    def dense_points(self) -> List[SweepPoint]:
        """Every lattice point, in coordinate order — the dense sweep
        this driver competes with (and shares cache digests with)."""
        ranges = [range(len(ax.values)) for ax in self.axes]
        return [
            self.point_at(tuple(coords))
            for coords in product(*ranges)
        ]

    # ------------------------------------------------------------------

    def _initial_cells(self) -> List[Cell]:
        starts = []
        for ax, step in zip(self.axes, self.coarse):
            span = len(ax.values) - 1
            if step == 0:
                starts.append(tuple(range(len(ax.values))))
            else:
                starts.append(tuple(range(0, span, step)))
        return sorted(
            Cell(origin=tuple(org), step=self.coarse)
            for org in product(*starts)
        )

    def _evaluate(
        self,
        coords: List[Tuple[int, ...]],
        step: Tuple[int, ...],
        refined_cells: int,
        result: AdaptiveResult,
    ) -> None:
        """Dispatch one wave (single pool run) and fold in labels."""
        points = [self.point_at(c) for c in coords]
        with telemetry.span(
            "sweep.wave",
            wave=len(result.waves),
            points=len(coords),
            cells=refined_cells,
            step=list(step),
        ) as wave_span:
            wave_results = self.runner.run(points)
            stats = self.runner.stats
            for c, point in zip(coords, points):
                res = wave_results[point.key]
                result.results[point.key] = res
                result.keys[c] = point.key
                result.labels[c] = int(self.label(res))
            result.budget_used += len(coords)
            wave_span.set(
                cache_hits=stats.cache_hits,
                executed=stats.executed,
                budget_used=result.budget_used,
                pool_reused=stats.pool_reused,
                pool_setup_seconds=stats.pool_setup_seconds,
            )
        if telemetry.enabled():
            reg = telemetry.get_registry()
            reg.counter(
                "repro_adaptive_waves_total", "refinement waves dispatched"
            ).inc()
            reg.counter(
                "repro_adaptive_points_total",
                "unique lattice points dispatched (budget spent)",
            ).inc(len(coords))
            reg.counter(
                "repro_adaptive_cells_refined_total",
                "disagreeing cells subdivided",
            ).inc(refined_cells)
        result.waves += (
            WaveStats(
                step=step,
                points=len(coords),
                refined_cells=refined_cells,
                cache_hits=stats.cache_hits,
                cache_misses=stats.cache_misses,
                executed=stats.executed,
                wall_seconds=stats.wall_seconds,
            ),
        )

    def run(self) -> AdaptiveResult:
        """Coarse pass, then refinement waves until every disagreeing
        cell is terminal or the budget is exhausted."""
        result = AdaptiveResult(
            axes=self.axes,
            results={},
            keys={},
            labels={},
            frontier=(),
            dropped=(),
            waves=(),
            budget=self.budget,
            budget_used=0,
            dense_size=self.dense_size(),
        )
        cells = self._initial_cells()
        coarse_coords = sorted(
            {c for cell in cells for c in cell.corners()}
        )
        if self.budget is not None and len(coarse_coords) > self.budget:
            raise ConfigurationError(
                f"budget {self.budget} cannot cover the "
                f"{len(coarse_coords)}-point coarse pass; raise the "
                "budget or coarsen the lattice"
            )
        self._evaluate(coarse_coords, self.coarse, 0, result)

        frontier: List[Cell] = []
        dropped: List[Cell] = []
        while cells:
            flagged = [
                cell
                for cell in cells
                if len(
                    {result.labels[c] for c in cell.corners()}
                )
                > 1
            ]
            frontier.extend(c for c in flagged if c.terminal)
            refinable_cells = [
                c for c in flagged if not c.terminal
            ]
            if not refinable_cells:
                break
            # Budget-bounded wave planning: admit cells in coordinate
            # order while their novel points fit; the first cell that
            # does not fit drops, with every later cell of the wave —
            # a deterministic prefix rule (results never depend on
            # which smaller cell might have squeezed in).
            kept: List[Cell] = []
            wave_coords: List[Tuple[int, ...]] = []
            seen = set(result.labels)
            remaining = (
                None
                if self.budget is None
                else self.budget - result.budget_used
            )
            for i, cell in enumerate(refinable_cells):
                novel = [
                    c for c in cell.new_points() if c not in seen
                ]
                if remaining is not None and len(novel) > remaining:
                    dropped.extend(refinable_cells[i:])
                    break
                seen.update(novel)
                wave_coords.extend(novel)
                kept.append(cell)
                if remaining is not None:
                    remaining -= len(novel)
            if not kept:
                break
            self._evaluate(
                sorted(wave_coords),
                kept[0].step,
                len(kept),
                result,
            )
            cells = sorted(
                {
                    child
                    for cell in kept
                    for child in cell.children()
                }
            )
        if dropped:
            warnings.warn(
                f"adaptive sweep budget exhausted: {len(dropped)} "
                "disagreeing cell(s) dropped before full refinement "
                "— the reported frontier is partial",
                RuntimeWarning,
                stacklevel=2,
            )
        if telemetry.enabled():
            reg = telemetry.get_registry()
            reg.counter(
                "repro_adaptive_cells_dropped_total",
                "disagreeing cells dropped on budget exhaustion",
            ).inc(len(dropped))
            reg.gauge(
                "repro_adaptive_budget_used",
                "unique lattice points spent by the last adaptive run",
            ).set(result.budget_used)
        result.frontier = tuple(sorted(frontier))
        result.dropped = tuple(sorted(dropped))
        return result


# ----------------------------------------------------------------------
# The policing-rate × congestion-noise detection plane
#
# The concrete frontier the CLI (`repro sweep --adaptive`) and
# `benchmarks/bench_adaptive.py` search: topology A's dumbbell with a
# deep-bucket token policer on the shared link. With a deep bucket
# the policer ignores TCP's transient bursts and fires only on
# *sustained* overload, so the verdict flips at the rate where the
# policed class' demand share crosses the policing rate — a genuine
# detection threshold per congestion level. The second ("noise") axis
# scales the shared link's capacity: scarcer capacity raises every
# class' neutral congestion, which masks the differentiation signal
# and shifts the detectable threshold.


#: Plane axis names — also the executor kwargs they map onto.
PLANE_RATE_AXIS = "policing_rate"
PLANE_NOISE_AXIS = "capacity_mbps"

#: Deep token bucket (seconds at the policing rate): absorbs TCP
#: burstiness so detection tracks sustained policing, not transients.
PLANE_BURST_SECONDS = 0.3

#: Per-path mean flow size feeding the plane's dumbbell.
PLANE_MEAN_SIZE_MB = 10.0

#: Unsolvability-score threshold separating "clear detection" from
#: noise on the plane (from the probe landscape: detected cells score
#: 1.5–6, undetectable ones < 0.7).
PLANE_SCORE_THRESHOLD = 1.0


@dataclass(frozen=True)
class PlanePointResult:
    """Compact, picklable outcome of one plane point.

    Attributes:
        verdict_non_neutral: Algorithm 1's raw verdict.
        truth_score: Max unsolvability score over link sequences
            containing the ground-truth (policing) link.
        max_score: Max score over *all* examined sequences.
        identified: The identified link sequences.
    """

    verdict_non_neutral: bool
    truth_score: float
    max_score: float
    identified: Tuple[Tuple[str, ...], ...]


def plane_label(result: PlanePointResult) -> int:
    """The plane's label: ``1`` where the ground-truth-sequence score
    reaches :data:`PLANE_SCORE_THRESHOLD`, else ``0`` (a NaN score
    bands above the threshold, as :func:`bisect.bisect_right` places
    it)."""
    return bisect_right((PLANE_SCORE_THRESHOLD,), result.truth_score)


def compile_plane_point(
    settings: EmulationSettings,
    policing_rate: float,
    capacity_mbps: float,
    substrate: str = "fluid",
) -> CompiledScenario:
    """One plane point as a scenario: the dumbbell with its shared
    link policed at ``policing_rate`` and sized ``capacity_mbps``."""
    topo = build_dumbbell()
    specs = dict(topo.link_specs)
    specs[SHARED_LINK] = LinkSpec(
        capacity_mbps=capacity_mbps,
        buffer_seconds=0.2,
        policer=PolicerSpec(
            target_class="c2",
            rate_fraction=policing_rate,
            burst_seconds=PLANE_BURST_SECONDS,
        ),
    )
    return CompiledScenario(
        network=topo.network,
        classes=topo.classes,
        link_specs=specs,
        workloads=class_workload(
            topo.network.path_ids, mean_size_mb=PLANE_MEAN_SIZE_MB
        ),
        settings=settings,
        substrate=substrate,
        ground_truth_links=frozenset((SHARED_LINK,)),
    )


def _plane_result(outcome) -> PlanePointResult:
    scores = outcome.algorithm.scores
    truth = max(
        (s for sig, s in scores.items() if SHARED_LINK in sig),
        default=0.0,
    )
    return PlanePointResult(
        verdict_non_neutral=outcome.verdict_non_neutral,
        truth_score=float(truth),
        max_score=float(max(scores.values(), default=0.0)),
        identified=tuple(
            tuple(sig) for sig in outcome.algorithm.identified
        ),
    )


def run_plane_point(
    seed: int,
    settings: EmulationSettings,
    policing_rate: float,
    capacity_mbps: float,
    substrate: str = "fluid",
) -> PlanePointResult:
    """One plane point (module-level, pool-picklable)."""
    member = compile_plane_point(
        settings.with_seed(seed), policing_rate, capacity_mbps, substrate
    )
    return _plane_result(*run_scenarios([member]))


def run_plane_batch(seeds, kwargs_list) -> List[PlanePointResult]:
    """Batched plane executor: the wave's worlds differ only in the
    shared link's rate and capacity, so they run as one batch of
    :func:`~repro.experiments.runner.run_scenarios`."""
    members = [
        compile_plane_point(
            kw["settings"].with_seed(seed),
            kw["policing_rate"],
            kw["capacity_mbps"],
            kw["substrate"],
        )
        for seed, kw in zip(seeds, kwargs_list)
    ]
    return [_plane_result(outcome) for outcome in run_scenarios(members)]


@dataclass(frozen=True)
class PlanePointFactory:
    """Factory mapping lattice values to plane sweep points.

    The adaptive driver and the dense baseline must share one factory
    instance's output — identical keys, kwargs, and batch groups —
    for their cache digests to interchange.
    """

    settings: EmulationSettings
    substrate: str = "fluid"

    def __call__(self, values: Mapping[str, float]) -> SweepPoint:
        key = "plane/" + "/".join(
            f"{name}={values[name]:.8g}" for name in sorted(values)
        )
        batchable = substrate_supports_batch(self.substrate)
        return SweepPoint(
            key=key,
            func=run_plane_point,
            kwargs={
                "settings": self.settings,
                "substrate": self.substrate,
                **values,
            },
            substrate=self.substrate,
            batch_func=run_plane_batch if batchable else None,
            batch_group=(
                batch_key(compile_plane_point(
                    self.settings, substrate=self.substrate, **values
                ))
                if batchable
                else None
            ),
        )


def plane_axes(
    rate_points: int = 65,
    noise_points: int = 5,
) -> Tuple[GridAxis, GridAxis]:
    """The plane's lattice: policing rate (refined) × capacity
    (scan — the threshold is localized per congestion level)."""

    def linspace(lo: float, hi: float, n: int) -> Tuple[float, ...]:
        if n < 2:
            raise ConfigurationError("axes need >= 2 points")
        stepw = (hi - lo) / (n - 1)
        return tuple(lo + i * stepw for i in range(n))

    return (
        GridAxis(
            PLANE_RATE_AXIS, linspace(0.02, 0.3, rate_points)
        ),
        GridAxis(
            PLANE_NOISE_AXIS,
            linspace(40.0, 120.0, noise_points),
            refine=False,
        ),
    )


def run_plane_frontier(
    settings: EmulationSettings,
    rate_points: int = 65,
    noise_points: int = 5,
    budget: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    batch_size: Optional[int] = None,
    substrate: str = "fluid",
) -> AdaptiveResult:
    """Adaptively localize the plane's detection frontier (the CLI's
    ``sweep --adaptive`` path; the bench drives :class:`AdaptiveSweep`
    directly to also time the dense baseline)."""
    # One warm pool across all refinement waves; closed when the
    # search returns (the runner is private to this call).
    with SweepRunner.for_settings(
        settings,
        workers=workers,
        cache_dir=cache_dir,
        batch_size=batch_size,
    ) as runner:
        sweep = AdaptiveSweep(
            runner,
            plane_axes(rate_points, noise_points),
            PlanePointFactory(settings=settings, substrate=substrate),
            plane_label,
            budget=budget,
        )
        return sweep.run()
