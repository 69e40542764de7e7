"""A σ whose slice family has no interval in which all its paths sent
cannot be normalized (Algorithm 2). It is left unexamined — NaN
costs, no score, listed in ``skipped`` — while every other σ is
decided as usual, offline and in the monitor. Records with zero
intervals still raise."""

import math

import numpy as np
import pytest

from repro.core.network import network_from_path_specs
from repro.core.slices import (
    batch_pair_estimates_arrays,
    batch_unsolvability_arrays,
    build_slice_batch,
)
from repro.exceptions import MeasurementError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.experiments.topology_b import TOPOLOGY_B_SETTINGS, run_topology_b
from repro.measurement.normalize import batch_slice_observations
from repro.measurement.records import MeasurementData, PathRecord
from repro.streaming.monitor import NeutralityMonitor
from repro.streaming.stream import ReplayStream

INTERVALS = 200
SILENT_SIGMA = ("h1",)
LIVE_SIGMA = ("h2",)


def _network():
    """Two hubs, four paths each: σ ⟨h1⟩ and σ ⟨h2⟩."""
    specs = {f"p{i}": ["h1", f"a{i}"] for i in range(1, 5)}
    specs.update({f"q{i}": ["h2", f"b{i}"] for i in range(1, 5)})
    return network_from_path_specs(specs)


def _records(silent_from=0):
    """Every path sends in every interval, except that from interval
    ``silent_from`` on, p1 sends only in even intervals and p2 only in
    odd ones — so ⟨h1⟩ has no valid interval there."""
    rng = np.random.default_rng(5)
    records = []
    for pid in ("p1", "p2", "p3", "p4", "q1", "q2", "q3", "q4"):
        sent = np.full(INTERVALS, 100, dtype=np.int64)
        lost = rng.binomial(100, 0.01, INTERVALS).astype(np.int64)
        if pid in ("p1", "p2"):
            parity = 1 if pid == "p1" else 0
            silent = np.arange(INTERVALS) % 2 == parity
            silent[:silent_from] = False
            sent[silent] = 0
            lost[silent] = 0
        records.append(PathRecord(pid, sent, lost))
    return MeasurementData(records, 0.1)


@pytest.mark.parametrize("mode", ["expected", "sampled"])
def test_costs_of_a_family_without_valid_interval_are_nan(mode):
    batch, _ = build_slice_batch(_network(), 5)
    obs, y_member, y_pair = batch_slice_observations(
        _records(), batch, mode=mode, rng=np.random.default_rng(0)
    )
    g = batch.sigmas.index(SILENT_SIGMA)
    members = slice(batch.member_offsets[g], batch.member_offsets[g + 1])
    pairs = slice(batch.offsets[g], batch.offsets[g + 1])
    assert np.isnan(y_member[members]).all()
    assert np.isnan(y_pair[pairs]).all()
    assert np.isfinite(np.delete(y_member, np.r_[members])).all()
    assert np.isfinite(np.delete(y_pair, np.r_[pairs])).all()
    # The display view holds only what was normalized.
    assert frozenset({"p1"}) not in obs
    assert frozenset({"q1"}) in obs
    assert all(math.isfinite(v) for v in obs.values())
    estimates = batch_pair_estimates_arrays(batch, y_member, y_pair)
    assert np.isnan(estimates[pairs]).all()
    scores = batch_unsolvability_arrays(batch, y_member, y_pair)
    assert math.isnan(scores[g])
    assert np.isfinite(np.delete(scores, g)).all()


@pytest.mark.parametrize("mode", ["expected", "sampled"])
def test_verdict_leaves_the_family_unexamined(mode):
    _, result = infer_from_measurements(
        _network(),
        _records(),
        settings=EmulationSettings(normalization_mode=mode),
        min_pathsets=5,
        rng=np.random.default_rng(0),
    )
    assert SILENT_SIGMA in result.skipped
    assert SILENT_SIGMA not in result.scores
    assert SILENT_SIGMA not in result.neutral + result.identified_raw
    assert LIVE_SIGMA in result.scores
    assert all(math.isfinite(v) for v in result.scores.values())


def test_zero_intervals_still_raise():
    empty = np.zeros(0, dtype=np.int64)
    data = MeasurementData(
        [PathRecord(pid, empty, empty) for pid in _network().path_ids], 0.1
    )
    with pytest.raises(MeasurementError, match="no interval"):
        infer_from_measurements(_network(), data, min_pathsets=5)


def test_monitor_skips_the_family_in_a_silent_window():
    """Windows after the silence starts still decide ⟨h2⟩; ⟨h1⟩ is
    skipped there (NaN in the score row), and the final whole-stream
    verdict examines both."""
    net = _network()
    monitor = NeutralityMonitor(
        net, EmulationSettings(), window_intervals=50, stride=50,
        min_pathsets=5,
    )
    report = monitor.run(ReplayStream(_records(silent_from=100), 50))
    col = report.sigmas.index(SILENT_SIGMA)
    assert all(w.informative for w in report.windows)
    for w, row in zip(report.windows, report.scores):
        silent = w.start_interval >= 100
        assert math.isnan(row[col]) == silent
        assert (SILENT_SIGMA in w.result.skipped) == silent
        assert (SILENT_SIGMA in w.result.scores) != silent
        assert LIVE_SIGMA in w.result.scores
    assert SILENT_SIGMA in report.final.scores


@pytest.mark.parametrize("seed", [1, 11])
def test_short_topology_b_run_returns_a_report(seed):
    """After a 10 s warm-up, some σ of a 10 s topology-B run has no
    interval in which all its paths sent: the run still reports, with
    that σ unexamined and no NaN score."""
    report = run_topology_b(TOPOLOGY_B_SETTINGS.quick(10.0).with_seed(seed))
    algorithm = report.outcome.algorithm
    _, too_few = build_slice_batch(report.outcome.inference_network, 5)
    assert len(algorithm.skipped) > len(too_few)
    assert algorithm.scores
    assert all(math.isfinite(v) for v in algorithm.scores.values())
    assert set(algorithm.skipped).isdisjoint(algorithm.scores)
    assert [seq.sigma for seq in report.sequences] == list(algorithm.scores)
