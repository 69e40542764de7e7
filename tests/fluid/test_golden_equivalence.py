"""Seeded-equivalence regression: vectorized engine vs scalar goldens.

``golden/scalar_goldens.json`` holds per-path ``(sent, lost)`` totals
and congestion probabilities captured from the pre-vectorization
scalar engine (frozen as ``tests/oracles/engine_scalar.py``) on three
locked dumbbell configurations — neutral, policing, shaping. The
vectorized engine consumes its RNG stream in a different order, so it
realizes a *different sample path* of the same stochastic model;
the comparison is therefore tolerance-based, with tolerances
calibrated against the scalar engine's own seed-to-seed spread
(roughly ±0.06 absolute on congestion probabilities, up to ~2.5× on
per-path volumes under the heavy-tailed Pareto sizes).

What must hold for every scenario:

* per-path congestion probabilities within the seed-noise band of
  the golden values;
* per-path traffic volumes at the same scale;
* the differentiation structure: the policed/shaped class worse by a
  wide margin under differentiation, the classes alike when neutral.
"""

import json

import numpy as np
import pytest

from golden_config import GOLDEN_PATH, SCENARIOS, run_scenario
from repro.fluid.engine import FluidNetwork

#: Absolute tolerance on congestion probabilities vs the golden
#: capture — the scalar engine's own across-seed spread is ~0.06;
#: 0.15 adds headroom without admitting regime changes (the smallest
#: asserted structural gap below is ~2x wider).
P_CONGESTED_TOL = 0.15

#: Per-path sent-volume ratio band vs the golden capture (Pareto flow
#: sizes make single-path volumes vary up to ~2.5x across seeds).
SENT_RATIO_BAND = (1 / 3.0, 3.0)

#: Class-aggregate volumes are steadier; bound them tighter.
CLASS_SENT_RATIO_BAND = (1 / 2.5, 2.5)


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def vectorized():
    return {sc: run_scenario(FluidNetwork, sc) for sc in SCENARIOS}


class TestGoldenEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_path_congestion_within_tolerance(
        self, goldens, vectorized, scenario
    ):
        for pid, gold in goldens[scenario]["paths"].items():
            got = vectorized[scenario]["paths"][pid]
            assert got["p_congested"] == pytest.approx(
                gold["p_congested"], abs=P_CONGESTED_TOL
            ), (scenario, pid)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_sent_volumes_at_same_scale(
        self, goldens, vectorized, scenario
    ):
        lo, hi = SENT_RATIO_BAND
        for pid, gold in goldens[scenario]["paths"].items():
            got = vectorized[scenario]["paths"][pid]
            ratio = got["sent"] / max(gold["sent"], 1)
            assert lo < ratio < hi, (scenario, pid, ratio)
        lo, hi = CLASS_SENT_RATIO_BAND
        for pids in (("p1", "p2"), ("p3", "p4")):
            gold = sum(goldens[scenario]["paths"][p]["sent"] for p in pids)
            got = sum(
                vectorized[scenario]["paths"][p]["sent"] for p in pids
            )
            ratio = got / max(gold, 1)
            assert lo < ratio < hi, (scenario, pids, ratio)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_losses_consistent_with_sends(self, vectorized, scenario):
        for pid, got in vectorized[scenario]["paths"].items():
            assert 0 <= got["lost"] <= got["sent"], (scenario, pid)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_link_ground_truth_within_tolerance(
        self, goldens, vectorized, scenario
    ):
        for cname, gold in goldens[scenario]["l5_class_congestion"].items():
            got = vectorized[scenario]["l5_class_congestion"][cname]
            assert got == pytest.approx(gold, abs=P_CONGESTED_TOL), (
                scenario,
                cname,
            )

    def test_neutral_treats_classes_alike(self, vectorized):
        c = vectorized["neutral"]["l5_class_congestion"]
        assert abs(c["c1"] - c["c2"]) < 0.05

    @pytest.mark.parametrize("scenario", ["policing", "shaping"])
    def test_differentiation_structure_preserved(
        self, vectorized, scenario
    ):
        summary = vectorized[scenario]
        c = summary["l5_class_congestion"]
        assert c["c2"] > 2 * c["c1"], scenario
        c1_mean = np.mean(
            [summary["paths"][p]["p_congested"] for p in ("p1", "p2")]
        )
        c2_mean = np.mean(
            [summary["paths"][p]["p_congested"] for p in ("p3", "p4")]
        )
        assert c2_mean > 2 * c1_mean, scenario
