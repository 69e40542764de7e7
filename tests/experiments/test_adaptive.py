"""Adaptive frontier refinement: the dense-grid-equivalence suite.

The load-bearing properties (hard requirements of the adaptive
driver's contract):

* the adaptive frontier equals the dense grid's frontier on every
  refined cell — refinement is an optimization, never an
  approximation;
* results are bit-interchangeable with dense sweeps (shared cache
  digests, both directions);
* the refinement trajectory is invariant to worker count, batch
  width, and cache state (the budget counts cache hits);
* budget exhaustion is loud: a partial frontier is reported with the
  dropped cells, never silently truncated.
"""

import pickle
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Tuple

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.experiments.adaptive import (
    AdaptiveSweep,
    Cell,
    DetectionDelayContour,
    GridAxis,
    PlanePointFactory,
    ScoreBands,
    VerdictFlip,
    _pow2_divisor,
    cell_bounds,
    calibrate_fluid_to_packet,
    plane_axes,
    plane_refinable,
    run_plane_batch,
    run_plane_frontier,
)
from repro.experiments.config import EmulationSettings
from repro.experiments.sweep import SweepPoint, SweepRunner

#: Synthetic x lattice: 17 values, a 16-step span (2^4-refinable).
X_VALUES = tuple(float(i) for i in range(17))


# --- synthetic step field (module-level, pool-picklable) -------------

def _step_point(x, y, thresholds, seed):
    """Per-row step field: 1 right of the row's threshold, else 0."""
    return 1.0 if x >= thresholds[int(y)] else 0.0


def _step_batch(seeds, kwargs_list):
    return [
        _step_point(seed=seed, **kwargs)
        for seed, kwargs in zip(seeds, kwargs_list)
    ]


@dataclass(frozen=True)
class _StepFactory:
    """Synthetic plane factory (frozen so worker pools can pickle the
    points it emits)."""

    thresholds: Tuple[float, ...]
    batch: bool = False

    def __call__(self, values) -> SweepPoint:
        return SweepPoint(
            key=f"synth/x={values['x']:.8g}/y={values['y']:.8g}",
            func=_step_point,
            kwargs={
                "x": values["x"],
                "y": values["y"],
                "thresholds": self.thresholds,
            },
            batch_func=_step_batch if self.batch else None,
            batch_group="synth" if self.batch else None,
        )


def _axes(rows):
    return (
        GridAxis("x", X_VALUES),
        GridAxis(
            "y", tuple(float(r) for r in range(rows)), refine=False
        ),
    )


def _bands():
    return ScoreBands(thresholds=(0.5,), getter=float)


def _sweep(t_indices, runner=None, batch=False, **kwargs):
    """An AdaptiveSweep over the synthetic field whose row ``r`` flips
    at x index ``t_indices[r]`` (0 = all-on row, 17 = all-off row)."""
    thresholds = tuple(t - 0.5 for t in t_indices)
    return AdaptiveSweep(
        runner if runner is not None else SweepRunner(base_seed=5),
        _axes(len(t_indices)),
        _StepFactory(thresholds, batch=batch),
        _bands(),
        **kwargs,
    )


def _dense_frontier(t_indices):
    """Ground truth: the dense grid's disagreeing grid-step cells."""
    return tuple(
        sorted(
            Cell(origin=(t - 1, r), step=(1, 0))
            for r, t in enumerate(t_indices)
            if 1 <= t <= len(X_VALUES) - 1
        )
    )


# --- lattice geometry ------------------------------------------------

class TestCellGeometry:
    def test_pow2_divisor(self):
        assert _pow2_divisor(16) == 16
        assert _pow2_divisor(12) == 4
        assert _pow2_divisor(5) == 1
        assert _pow2_divisor(8) == 8

    def test_scan_axis_cell(self):
        cell = Cell(origin=(0, 2), step=(8, 0))
        assert not cell.terminal
        assert cell.corners() == [(0, 2), (8, 2)]
        assert cell.new_points() == [(4, 2)]
        assert cell.children() == [
            Cell(origin=(0, 2), step=(4, 0)),
            Cell(origin=(4, 2), step=(4, 0)),
        ]

    def test_refined_2d_cell(self):
        cell = Cell(origin=(0, 0), step=(4, 4))
        assert len(cell.corners()) == 4
        # Center + one midpoint per edge = 5 novel sublattice points.
        assert cell.new_points() == [
            (0, 2), (2, 0), (2, 2), (2, 4), (4, 2)
        ]
        assert len(cell.children()) == 4

    def test_terminal_cell_has_no_new_points(self):
        cell = Cell(origin=(3, 1), step=(1, 0))
        assert cell.terminal
        assert cell.new_points() == []
        assert cell.children() == [cell]

    def test_cell_bounds(self):
        axes = _axes(rows=3)
        bounds = cell_bounds(axes, Cell(origin=(2, 1), step=(2, 0)))
        assert bounds["x"] == (2.0, 4.0)
        assert bounds["y"] == (1.0, 1.0)  # scan axes are zero-width


class TestValidation:
    def test_axis_needs_increasing_values(self):
        with pytest.raises(ConfigurationError):
            GridAxis("x", (1.0, 1.0, 2.0))
        with pytest.raises(ConfigurationError):
            GridAxis("x", (2.0, 1.0))

    def test_refined_axis_needs_two_values(self):
        with pytest.raises(ConfigurationError):
            GridAxis("x", (1.0,))
        # A single-value scan axis is fine (a degenerate row).
        GridAxis("y", (1.0,), refine=False)
        with pytest.raises(ConfigurationError):
            GridAxis("y", (), refine=False)

    def test_sweep_needs_axes_and_a_refined_one(self):
        runner = SweepRunner()
        factory = _StepFactory((0.5,))
        with pytest.raises(ConfigurationError):
            AdaptiveSweep(runner, (), factory, _bands())
        with pytest.raises(ConfigurationError):
            AdaptiveSweep(
                runner,
                (GridAxis("y", (1.0, 2.0), refine=False),),
                factory,
                _bands(),
            )
        with pytest.raises(ConfigurationError):
            AdaptiveSweep(
                runner,
                (GridAxis("x", X_VALUES), GridAxis("x", X_VALUES)),
                factory,
                _bands(),
            )

    def test_coarse_step_must_be_pow2_dividing_span(self):
        with pytest.raises(ConfigurationError):
            _sweep((4,), coarse_step=3)  # not a power of two
        with pytest.raises(ConfigurationError):
            _sweep((4,), coarse_step=32)  # does not divide 16
        _sweep((4,), coarse_step=4)  # ok
        _sweep((4,), coarse_step={"x": 2})  # per-axis mapping ok

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            _sweep((4,), budget=0)
        # A budget below the coarse pass fails up front, loudly.
        with pytest.raises(ConfigurationError, match="coarse pass"):
            _sweep((4, 4), budget=3).run()

    def test_score_bands_validation(self):
        with pytest.raises(ConfigurationError):
            ScoreBands(thresholds=())
        with pytest.raises(ConfigurationError):
            ScoreBands(thresholds=(2.0, 1.0), getter=float)
        with pytest.raises(ConfigurationError):
            ScoreBands(thresholds=(1.0,))  # neither attr nor getter
        with pytest.raises(ConfigurationError):
            ScoreBands(
                thresholds=(1.0,), attr="score", getter=float
            )  # both


class TestRefinables:
    def test_verdict_flip_dotted_path(self):
        flip = VerdictFlip("outcome.verdict_non_neutral")
        hit = SimpleNamespace(
            outcome=SimpleNamespace(verdict_non_neutral=True)
        )
        miss = SimpleNamespace(
            outcome=SimpleNamespace(verdict_non_neutral=False)
        )
        assert flip.label("k", hit) == 1
        assert flip.label("k", miss) == 0

    def test_score_bands_banding(self):
        bands = ScoreBands(thresholds=(1.0, 3.0), attr="score")
        assert bands.label("k", SimpleNamespace(score=0.5)) == 0
        assert bands.label("k", SimpleNamespace(score=2.0)) == 1
        assert bands.label("k", SimpleNamespace(score=9.0)) == 2

    def test_detection_delay_contour(self):
        contour = DetectionDelayContour(thresholds=(10, 20))
        never = SimpleNamespace(detection_delay_intervals=None)
        fast = SimpleNamespace(detection_delay_intervals=5)
        mid = SimpleNamespace(detection_delay_intervals=15)
        slow = SimpleNamespace(detection_delay_intervals=25)
        assert contour.label("k", never) == 0
        assert contour.label("k", fast) == 1
        assert contour.label("k", mid) == 2
        assert contour.label("k", slow) == 3


# --- frontier equivalence with the dense grid ------------------------

class TestFrontierEquivalence:
    @hyp_settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=len(X_VALUES)),
            min_size=1,
            max_size=4,
        )
    )
    def test_adaptive_frontier_equals_dense_frontier(self, t_indices):
        """For any per-row step field, the adaptive frontier is
        exactly the dense grid's set of disagreeing grid-step cells,
        and every visited label matches the dense field."""
        result = _sweep(t_indices).run()
        assert result.frontier == _dense_frontier(t_indices)
        assert not result.dropped
        for (ix, iy), label in result.labels.items():
            assert label == int(X_VALUES[ix] >= t_indices[iy] - 0.5)
        assert result.evaluated == len(result.labels)
        assert result.budget_used == result.evaluated
        assert result.evaluated <= result.dense_size

    @hyp_settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=len(X_VALUES) - 1),
            min_size=1,
            max_size=3,
        )
    )
    def test_refinement_beats_dense_when_frontiers_exist(
        self, t_indices
    ):
        """With one crossing per row, bisection visits O(rows·log n)
        points — strictly fewer than the dense grid."""
        result = _sweep(t_indices).run()
        assert len(result.frontier) == len(t_indices)
        assert result.evaluated < result.dense_size

    def test_uniform_field_stops_at_coarse_pass(self):
        result = _sweep((0, 0)).run()  # every label is 1
        assert result.frontier == ()
        assert len(result.waves) == 1
        # 3 coarse x stations (0, 8, 16) per row.
        assert result.evaluated == 6

    def test_frontier_bounds_in_parameter_space(self):
        result = _sweep((4,)).run()
        [bounds] = result.frontier_bounds()
        assert bounds["x"] == (3.0, 4.0)
        assert bounds["y"] == (0.0, 0.0)


class TestDeterminism:
    def _trajectory(self, result):
        return (
            result.labels,
            result.keys,
            result.frontier,
            result.dropped,
            result.budget_used,
            [(w.step, w.points, w.refined_cells) for w in result.waves],
        )

    def test_worker_count_invariance(self):
        """The headline determinism property: the refinement
        trajectory and every result are identical for any worker
        count."""
        seq = _sweep((4, 13), runner=SweepRunner(base_seed=5)).run()
        par = _sweep(
            (4, 13), runner=SweepRunner(base_seed=5, workers=2)
        ).run()
        assert self._trajectory(seq) == self._trajectory(par)
        assert seq.results == par.results

    def test_batch_width_invariance(self):
        """Wave batching must be invisible: batched waves and
        point-at-a-time execution walk the same trajectory."""
        batched = _sweep(
            (4, 13), runner=SweepRunner(base_seed=5), batch=True
        ).run()
        singles = _sweep(
            (4, 13),
            runner=SweepRunner(base_seed=5, batch_size=1),
            batch=True,
        ).run()
        plain = _sweep((4, 13), runner=SweepRunner(base_seed=5)).run()
        assert self._trajectory(batched) == self._trajectory(singles)
        assert self._trajectory(batched) == self._trajectory(plain)
        assert batched.results == singles.results == plain.results

    def test_rerun_reproduces(self):
        a = _sweep((7,)).run()
        b = _sweep((7,)).run()
        assert self._trajectory(a) == self._trajectory(b)
        assert a.results == b.results


# --- budget semantics ------------------------------------------------

class TestBudget:
    def test_exhaustion_is_loud_and_partial(self):
        """Budget 14 covers the 12-point coarse pass plus 2 of the 4
        first-wave refinements: the trailing rows drop as one
        deterministic prefix cut, with a warning and a PARTIAL
        summary."""
        sweep = _sweep((4, 4, 4, 4), budget=14)
        with pytest.warns(RuntimeWarning, match="partial"):
            result = sweep.run()
        assert result.dropped
        assert result.budget_used <= 14
        assert "PARTIAL" in result.summary()
        # The dropped cells are recorded at the resolution they died.
        assert {c.step for c in result.dropped} >= {(8, 0)}

    def test_unbudgeted_run_never_warns_or_drops(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _sweep((4, 4, 4, 4)).run()
        assert not result.dropped

    def test_budget_counts_cache_hits(self, tmp_path):
        """A warm cache must not let the search wander further than a
        cold one: the trajectory (and budget accounting) is identical
        when every point replays from cache."""
        cache = str(tmp_path / "cache")
        cold = _sweep(
            (4, 13),
            runner=SweepRunner(base_seed=5, cache_dir=cache),
            budget=30,
        ).run()
        warm = _sweep(
            (4, 13),
            runner=SweepRunner(base_seed=5, cache_dir=cache),
            budget=30,
        ).run()
        assert warm.budget_used == cold.budget_used
        assert warm.cache_misses == 0
        assert warm.cache_hits == warm.evaluated
        assert [w.points for w in warm.waves] == [
            w.points for w in cold.waves
        ]
        assert warm.frontier == cold.frontier
        assert warm.results == cold.results


# --- cache interchange with dense sweeps -----------------------------

class TestCacheInterchange:
    def test_adaptive_fills_dense_cache(self, tmp_path):
        """Every adaptively-visited point replays as a cache hit of
        the dense sweep, bit-identical (same digests, same pickles)."""
        cache = str(tmp_path / "cache")
        sweep = _sweep(
            (4, 13), runner=SweepRunner(base_seed=5, cache_dir=cache)
        )
        adaptive = sweep.run()
        dense_runner = SweepRunner(base_seed=5, cache_dir=cache)
        dense = dense_runner.run(sweep.dense_points())
        assert dense_runner.stats.cache_hits == adaptive.evaluated
        assert dense_runner.stats.executed == (
            adaptive.dense_size - adaptive.evaluated
        )
        for key, result in adaptive.results.items():
            assert pickle.dumps(dense[key]) == pickle.dumps(result)

    def test_dense_fills_adaptive_cache(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep = _sweep(
            (4, 13), runner=SweepRunner(base_seed=5, cache_dir=cache)
        )
        dense = SweepRunner(base_seed=5, cache_dir=cache).run(
            sweep.dense_points()
        )
        adaptive = sweep.run()
        assert adaptive.cache_misses == 0
        assert adaptive.cache_hits == adaptive.evaluated
        for key, result in adaptive.results.items():
            assert pickle.dumps(dense[key]) == pickle.dumps(result)


# --- the policing-rate × capacity plane ------------------------------

PLANE_SETTINGS = EmulationSettings(
    duration_seconds=8.0, warmup_seconds=1.0, seed=3
)


class TestPlaneFactory:
    def test_key_is_sorted_and_stable(self):
        factory = PlanePointFactory(settings=PLANE_SETTINGS)
        point = factory(
            {"policing_rate": 0.08, "capacity_mbps": 60.0}
        )
        assert point.key == "plane/capacity_mbps=60/policing_rate=0.08"
        assert point.substrate == "fluid"
        assert point.batch_func is run_plane_batch
        assert point.batch_group == (
            f"plane/fluid/{PLANE_SETTINGS.fingerprint()}"
        )

    def test_packet_substrate_is_batchless(self):
        factory = PlanePointFactory(
            settings=PLANE_SETTINGS, substrate="packet"
        )
        point = factory(
            {"policing_rate": 0.08, "capacity_mbps": 60.0}
        )
        assert point.batch_func is None
        assert point.batch_group is None
        assert point.substrate == "packet"

    def test_fixed_values_reach_key_and_kwargs(self):
        factory = PlanePointFactory(
            settings=PLANE_SETTINGS,
            fixed=(
                ("policing_rate", 0.08),
                ("capacity_mbps", 100.0),
            ),
        )
        point = factory({"burst_seconds": 0.125})
        assert point.key == (
            "plane/burst_seconds=0.125/capacity_mbps=100/"
            "policing_rate=0.08"
        )
        assert point.kwargs["policing_rate"] == 0.08
        assert point.kwargs["burst_seconds"] == 0.125

    def test_plane_axes_shape(self):
        rate_axis, noise_axis = plane_axes(
            rate_points=9, noise_points=3
        )
        assert rate_axis.refine and not noise_axis.refine
        assert len(rate_axis.values) == 9
        assert rate_axis.values[0] == pytest.approx(0.02)
        assert rate_axis.values[-1] == pytest.approx(0.3)
        assert noise_axis.values == (40.0, 80.0, 120.0)
        with pytest.raises(ConfigurationError):
            plane_axes(rate_points=1)


class TestRealPlane:
    """One short real emulation pass: the adaptive plane run agrees
    with the dense grid on every refined cell and interchanges its
    cache with the dense sweep, bit for bit."""

    def test_frontier_matches_dense_and_interchanges(self, tmp_path):
        cache = str(tmp_path / "cache")
        adaptive = run_plane_frontier(
            PLANE_SETTINGS,
            rate_points=9,
            noise_points=2,
            cache_dir=cache,
        )
        assert adaptive.frontier  # the plane has a real boundary
        assert adaptive.evaluated < adaptive.dense_size

        sweep = AdaptiveSweep(
            SweepRunner.for_settings(PLANE_SETTINGS, cache_dir=cache),
            plane_axes(rate_points=9, noise_points=2),
            PlanePointFactory(settings=PLANE_SETTINGS),
            plane_refinable(),
        )
        dense_runner = sweep.runner
        dense = dense_runner.run(sweep.dense_points())
        # Adaptively-visited points replay as dense cache hits...
        assert dense_runner.stats.cache_hits == adaptive.evaluated
        # ...bit-identical to the adaptive results...
        for key, result in adaptive.results.items():
            assert pickle.dumps(dense[key]) == pickle.dumps(result)
        # ...and the dense labels confirm every refined cell: its
        # corners really disagree on the dense grid.
        refinable = plane_refinable()
        for cell in adaptive.frontier:
            labels = {
                refinable.label(
                    sweep.point_at(corner).key,
                    dense[sweep.point_at(corner).key],
                )
                for corner in cell.corners()
            }
            assert len(labels) > 1, cell


class TestCalibration:
    def test_fits_fluid_to_packet_reference(self, tmp_path):
        result = calibrate_fluid_to_packet(
            PLANE_SETTINGS,
            axes=(
                GridAxis(
                    "burst_seconds",
                    tuple(0.02 + 0.07 * i for i in range(5)),
                ),
            ),
            policing_rate=0.08,
            cache_dir=str(tmp_path / "cache"),
        )
        assert result.reference_key.startswith("plane/")
        assert set(result.best_values) == {"burst_seconds"}
        assert result.best_objective == min(
            result.objectives.values()
        )
        assert result.best_objective == pytest.approx(
            abs(
                result.adaptive.results[result.best_key].truth_score
                - result.reference_score
            )
        )
        assert "calibration:" in result.summary()

    def test_packet_reference_digest_differs_from_fluid(self):
        fixed = (
            ("policing_rate", 0.08),
            ("capacity_mbps", 100.0),
        )
        packet = PlanePointFactory(
            settings=PLANE_SETTINGS, substrate="packet", fixed=fixed
        )({})
        fluid = PlanePointFactory(
            settings=PLANE_SETTINGS, substrate="fluid", fixed=fixed
        )({})
        assert packet.key == fluid.key
        assert packet.spec_digest(1, "") != fluid.spec_digest(1, "")


# --- topology-B frontier wiring --------------------------------------

class TestTopologyBFrontier:
    def test_digests_interchange_with_dense_sweep_rep0(self):
        """A frontier visit at rate r keys the cache exactly like
        ``run_topology_b_sweep``'s first repetition at r (batch hooks
        differ, but they are digest-exempt by design)."""
        from repro.experiments.topology_b import (
            run_topology_b_point,
            run_topology_b_rate_batch,
            topology_b_rate_point,
        )

        settings = EmulationSettings(
            duration_seconds=10.0, warmup_seconds=2.0, seed=1
        )
        frontier_point = topology_b_rate_point(settings)(
            {"policing_rate": 0.15}
        )
        dense_point = SweepPoint(
            key="topoB/rate0.15/rep0",
            func=run_topology_b_point,
            kwargs={
                "settings": settings,
                "policing_rate": 0.15,
                "substrate": "fluid",
            },
            substrate="fluid",
            batch_func=run_topology_b_rate_batch,
            batch_group="topoB/rate0.15/fluid/x",
        )
        assert frontier_point.key == dense_point.key
        assert frontier_point.spec_digest(
            7, ""
        ) == dense_point.spec_digest(7, "")

    def test_uniform_verdict_stops_at_endpoints(self, tmp_path):
        """At this scale every valid rate is detected, so the lattice
        is label-uniform: the frontier run must stop after the coarse
        endpoints — and still warm the dense sweep's rep-0 cache."""
        from repro.experiments.topology_b import (
            run_topology_b_frontier,
            run_topology_b_point,
        )

        settings = EmulationSettings(
            duration_seconds=10.0, warmup_seconds=2.0, seed=1
        )
        cache = str(tmp_path / "cache")
        result = run_topology_b_frontier(
            (0.05, 0.15, 0.25, 0.35, 0.45),
            settings=settings,
            cache_dir=cache,
        )
        assert result.evaluated == 2  # endpoints only
        assert result.frontier == ()
        assert sorted(result.keys.values()) == [
            "topoB/rate0.05/rep0",
            "topoB/rate0.45/rep0",
        ]
        assert all(label == 1 for label in result.labels.values())
        # Cache interchange with the repetition sweep, end to end:
        # rep 0 of a dense sweep at a visited rate replays from the
        # frontier run's cache without re-emulating.
        from repro.experiments.topology_b import run_topology_b_rate_batch

        rep0 = SweepPoint(
            key="topoB/rate0.05/rep0",
            func=run_topology_b_point,
            kwargs={
                "settings": settings,
                "policing_rate": 0.05,
                "substrate": "fluid",
            },
            substrate="fluid",
            batch_func=run_topology_b_rate_batch,
            batch_group="topoB/rate0.05/fluid/x",
        )
        runner = SweepRunner.for_settings(settings, cache_dir=cache)
        replayed = runner.run([rep0])
        assert runner.stats.cache_hits == 1
        assert runner.stats.executed == 0
        frontier_report = result.results["topoB/rate0.05/rep0"]
        assert (
            replayed[rep0.key].outcome.algorithm.scores
            == frontier_report.outcome.algorithm.scores
        )


class TestPersistentPool:
    def test_one_pool_across_all_waves(self):
        """Adaptive refinement dispatches many waves; with the
        persistent executor they all ride one warm pool."""
        with SweepRunner(base_seed=5, workers=2) as runner:
            result = _sweep((4, 13), runner=runner).run()
            assert len(result.waves) > 1  # refinement actually waved
            assert runner.executor.pools_created == 1
            assert runner.executor.reuses == len(result.waves) - 1
        # Trajectory unchanged vs the inline runner.
        seq = _sweep((4, 13), runner=SweepRunner(base_seed=5)).run()
        assert result.results == seq.results
        assert result.frontier == seq.frontier
