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

import inspect
import math
import pickle
from bisect import bisect_right
from dataclasses import dataclass
from typing import Tuple

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.experiments.adaptive import (
    AdaptiveSweep,
    Cell,
    GridAxis,
    PlanePointFactory,
    PlanePointResult,
    _pow2_divisor,
    cell_bounds,
    compile_plane_point,
    plane_axes,
    plane_label,
    run_plane_batch,
    run_plane_frontier,
    run_plane_point,
)
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import batch_key
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


def _label(result):
    return int(result >= 0.5)


def _band_point(x, y, thresholds, seed):
    """Per-row staircase: the number of the row's thresholds at or
    left of ``x`` (0, 1 or 2)."""
    return float(sum(x >= t for t in thresholds[int(y)]))


@dataclass(frozen=True)
class _BandFactory:
    """Synthetic staircase factory: row ``r`` steps up at each of
    ``thresholds[r]``."""

    thresholds: Tuple[Tuple[float, ...], ...]

    def __call__(self, values) -> SweepPoint:
        return SweepPoint(
            key=f"band/x={values['x']:.8g}/y={values['y']:.8g}",
            func=_band_point,
            kwargs={
                "x": values["x"],
                "y": values["y"],
                "thresholds": self.thresholds,
            },
        )


def _band_label(result):
    return bisect_right((0.5, 1.5), result)


def _sweep(t_indices, runner=None, batch=False, **kwargs):
    """An AdaptiveSweep over the synthetic field whose row ``r`` flips
    at x index ``t_indices[r]`` (0 = all-on row, 17 = all-off row)."""
    thresholds = tuple(t - 0.5 for t in t_indices)
    return AdaptiveSweep(
        runner if runner is not None else SweepRunner(base_seed=5),
        _axes(len(t_indices)),
        _StepFactory(thresholds, batch=batch),
        _label,
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
            AdaptiveSweep(runner, (), factory, _label)
        with pytest.raises(ConfigurationError):
            AdaptiveSweep(
                runner,
                (GridAxis("y", (1.0, 2.0), refine=False),),
                factory,
                _label,
            )
        with pytest.raises(ConfigurationError):
            AdaptiveSweep(
                runner,
                (GridAxis("x", X_VALUES), GridAxis("x", X_VALUES)),
                factory,
                _label,
            )

    def test_coarse_step_is_capped_pow2_divisor_of_span(self):
        """Refined axes start at the largest power of two dividing
        their span, capped at 8; scan axes at 0."""
        assert _sweep((4,)).coarse == (8, 0)  # span 16
        sweep = AdaptiveSweep(
            SweepRunner(),
            (
                GridAxis("x", tuple(float(i) for i in range(13))),
                GridAxis("z", (0.0, 1.0, 2.0, 3.0)),
            ),
            _StepFactory((0.5,)),
            _label,
        )
        assert sweep.coarse == (4, 1)  # spans 12 and 3

    def test_sweep_signature(self):
        """The label is a plain callable; the budget is the only
        option."""
        params = inspect.signature(AdaptiveSweep.__init__).parameters
        assert list(params) == [
            "self", "runner", "axes", "point_factory", "label", "budget",
        ]
        assert params["budget"].default is None

    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            _sweep((4,), budget=0)
        # A budget below the coarse pass fails up front, loudly.
        with pytest.raises(ConfigurationError, match="coarse pass"):
            _sweep((4, 4), budget=3).run()

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

    @hyp_settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=len(X_VALUES)),
                min_size=2,
                max_size=2,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_multi_band_label_refines_every_boundary(self, rows):
        """A label with more than two values (a two-threshold band
        rule over a staircase field) refines every cell whose corner
        bands differ: the frontier is the dense grid's, both steps of
        each row included."""
        thresholds = tuple(
            tuple(t - 0.5 for t in sorted(row)) for row in rows
        )
        result = AdaptiveSweep(
            SweepRunner(base_seed=5),
            _axes(len(rows)),
            _BandFactory(thresholds),
            _band_label,
        ).run()

        def band(ix, iy):
            return _band_label(
                _band_point(X_VALUES[ix], iy, thresholds, seed=0)
            )

        dense = tuple(
            sorted(
                Cell(origin=(ix, iy), step=(1, 0))
                for iy in range(len(rows))
                for ix in range(len(X_VALUES) - 1)
                if band(ix, iy) != band(ix + 1, iy)
            )
        )
        assert result.frontier == dense
        assert not result.dropped
        for (ix, iy), label in result.labels.items():
            assert label == band(ix, iy)

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
        assert point.batch_group == batch_key(
            compile_plane_point(PLANE_SETTINGS, 0.08, 60.0)
        )
        # Every plane point compiles to the same shared inputs (only
        # the shared link's specs differ), so the whole plane is one
        # group.
        other = factory({"policing_rate": 0.2, "capacity_mbps": 100.0})
        assert other.batch_group == point.batch_group

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

    def test_packet_digest_differs_from_fluid(self):
        values = {"policing_rate": 0.08, "capacity_mbps": 100.0}
        packet = PlanePointFactory(
            settings=PLANE_SETTINGS, substrate="packet"
        )(values)
        fluid = PlanePointFactory(settings=PLANE_SETTINGS)(values)
        assert packet.key == fluid.key
        assert packet.spec_digest(1, "") != fluid.spec_digest(1, "")

    #: ``spec_digest(1, "")`` of plane points at capacity 80 Mb/s, as
    #: caches already on disk hold them: a change here turns every
    #: cached plane point into a miss. Only a deliberate cache break
    #: (an engine version bump changes the substrate's cache tag)
    #: may update them. Keyed by (settings, substrate, policing rate).
    FROZEN_DIGESTS = {
        ("cli", "fluid", 0.02): "abe33b1374dbcda3d567c0f5f4a877a0"
        "bdf71f6f7f733bb413eb02d3909b3626",
        ("cli", "fluid", 0.16): "1dcb0c3d5d8ef38cc5bb20ed1d9a3ee5"
        "c134e2c96e17238bade2f4e0f4847d3d",
        ("cli", "fluid", 0.3): "2a65d4113093d77e714e9acc6794f221"
        "e7fd40a240f80bd2ee4e67780ef22fcc",
        ("default", "fluid", 0.02): "1e856f6b1ef82b80663898e10c0569e9"
        "78e04af670f712c1e14740be8d6d8663",
        ("default", "fluid", 0.16): "a783eeb2d1c2991719a4bdef121b2008"
        "599a526b1128f0a860ff15bf1cbb9455",
        ("default", "fluid", 0.3): "f1e4bdeb7f258fffc440bfa28009bc5f"
        "2d3a312a0b58217efae8005ecd9e8595",
        ("cli", "packet", 0.02): "924bb9f7f7fd8136192478c9df4b1d94"
        "8c113fefa7d586366587704e6b2294e0",
        ("cli", "packet", 0.16): "b531784d36f8949eb6ef97300b9f87a6"
        "99efdb693311cb864bdfa372ab2c60a9",
        ("cli", "packet", 0.3): "3c9f6a83b6da4a293164c2fd9327ae18"
        "a82205fb1ec59078bb76012220c0586c",
        ("default", "packet", 0.02): "5242962f923b1ff71a5f0da17c945942"
        "26be9f49427bb1c0bfac0e1803538afb",
        ("default", "packet", 0.16): "afeef742cca6613ae0fd6e488bb53934"
        "f5a034d3c27c15b4653cd06683ab4c1e",
        ("default", "packet", 0.3): "04cbb631c6d28906e9134c2376f13ba5"
        "61289ea120da1b1f4b92e8ee16fad15e",
    }

    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_spec_digests_are_frozen(self, substrate):
        """Plane points hash as before, on the lattice values
        ``plane_axes()`` emits: the ``sweep --adaptive --duration 6
        --seed 3`` settings and the defaults."""
        settings = {
            "cli": EmulationSettings(duration_seconds=6.0, seed=3),
            "default": EmulationSettings(),
        }
        rate_axis, capacity_axis = plane_axes()
        assert 80.0 in capacity_axis.values
        for (name, sub, rate), digest in self.FROZEN_DIGESTS.items():
            if sub != substrate:
                continue
            [value] = [
                v for v in rate_axis.values if v == pytest.approx(rate)
            ]
            point = PlanePointFactory(
                settings=settings[name], substrate=substrate
            )({"policing_rate": value, "capacity_mbps": 80.0})
            assert point.spec_digest(1, "") == digest, (name, rate)

    def test_plane_label_bands_the_truth_score(self):
        """1 from ``PLANE_SCORE_THRESHOLD`` (1.0) up, else 0; a NaN
        score lands in band 1, where ``bisect_right`` places it."""

        def label(score):
            return plane_label(
                PlanePointResult(
                    verdict_non_neutral=False,
                    truth_score=score,
                    max_score=score,
                    identified=(),
                )
            )

        assert label(0.0) == 0
        assert label(0.999) == 0
        assert label(1.0) == 1
        assert label(4.0) == 1
        assert label(math.nan) == 1


class TestPlaneExecutors:
    @pytest.mark.parametrize("substrate", ["fluid", "packet"])
    def test_point_is_a_one_member_batch(self, substrate):
        """``run_plane_point`` and a one-member ``run_plane_batch``
        give the same result, bit for bit."""
        kwargs = {
            "settings": PLANE_SETTINGS,
            "policing_rate": 0.1,
            "capacity_mbps": 80.0,
            "substrate": substrate,
        }
        point = run_plane_point(4, **kwargs)
        [batched] = run_plane_batch([4], [kwargs])
        assert pickle.dumps(point) == pickle.dumps(batched)
        assert point.identified  # a real emulation, policing seen


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
            plane_label,
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
        for cell in adaptive.frontier:
            labels = {
                plane_label(dense[sweep.point_at(corner).key])
                for corner in cell.corners()
            }
            assert len(labels) > 1, cell


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
