"""Acceptance: streaming monitor on emulated onset scenarios.

The ISSUE-4 acceptance criterion, on BOTH substrates: a dumbbell
whose shared link switches policing on at interval T mid-run. The
monitor must flag the affected pathset family non-neutral within a
bounded detection delay, never flag it before T, and its final
full-stream verdict must equal the one-shot
:func:`infer_from_measurements` on the session's records.
"""

import numpy as np
import pytest

from repro.experiments.config import EmulationSettings
from repro.experiments.runner import infer_from_measurements
from repro.streaming.monitor import NeutralityMonitor, monitor_scenario
from repro.streaming.stream import EmulationStream, ReplayStream
from repro.substrate.scenario import (
    DifferentiationPolicy,
    Scenario,
    compile_scenario,
)
from repro.topology.dumbbell import SHARED_LINK

#: 45 s stream, policing switched on at interval 200 (t = 20 s).
SETTINGS = EmulationSettings(
    duration_seconds=45.0, warmup_seconds=5.0, seed=3
)
ONSET = 200
WINDOW = 100
STRIDE = 25

#: Detection-delay bound (intervals): one window to fill with
#: post-onset intervals, plus slack for TCP/policer transients and
#: the CUSUM confirmation — twice the window length is comfortable
#: for the 30 % policer (measured delays sit near one window).
MAX_DELAY = 2 * WINDOW

SIGMA = (SHARED_LINK,)


def _scenario(substrate):
    return Scenario(
        name=f"onset-{substrate}",
        topology="dumbbell",
        substrate=substrate,
        policy=DifferentiationPolicy(mechanism="policing"),
        settings=SETTINGS,
    )


@pytest.fixture(scope="module", params=["fluid", "packet"])
def outcome(request):
    report, compiled = monitor_scenario(
        _scenario(request.param),
        chunk_intervals=STRIDE,
        window_intervals=WINDOW,
        stride=STRIDE,
        onset_interval=ONSET,
    )
    return request.param, report, compiled


class TestOnsetAcceptance:
    def test_truth_family_flagged_after_onset_only(self, outcome):
        substrate, report, _ = outcome
        assert SIGMA in report.sigmas
        col = report.sigmas.index(SIGMA)
        flagged_ends = report.window_ends[report.flagged[:, col]]
        assert flagged_ends.size, f"{substrate}: onset never flagged"
        assert int(flagged_ends.min()) > ONSET, (
            f"{substrate}: flagged before the policy switched on"
        )

    def test_detection_delay_bounded(self, outcome):
        substrate, report, compiled = outcome
        delay = report.detection_delay(SIGMA, ONSET)
        assert delay is not None
        assert 0 < delay <= MAX_DELAY, (
            f"{substrate}: detection delay {delay} intervals "
            f"exceeds the {MAX_DELAY}-interval bound"
        )
        assert compiled.ground_truth_links == frozenset({SHARED_LINK})
        truth = [s for s in report.sigmas if SHARED_LINK in s]
        assert truth == [SIGMA]

    def test_final_verdict_matches_one_shot(self, outcome):
        """Replay the same emulated stream and compare the monitor's
        full-stream verdict to the offline records→verdict pipeline
        (exact equality, including scores)."""
        substrate, out, _ = outcome
        from dataclasses import replace

        from repro.experiments.runner import measured_subnetwork

        scenario = _scenario(substrate)
        compiled_on = compile_scenario(scenario)
        compiled_off = compile_scenario(replace(scenario, policy=None))
        stream = EmulationStream(
            compiled_on.network,
            compiled_on.classes,
            compiled_off.link_specs,
            compiled_on.workloads,
            settings=scenario.settings,
            substrate=substrate,
            chunk_intervals=STRIDE,
            switches={ONSET: compiled_on.link_specs},
        )
        inference_net = measured_subnetwork(
            compiled_on.network, compiled_on.workloads
        )
        monitor = NeutralityMonitor(
            inference_net,
            settings=scenario.settings,
            window_intervals=WINDOW,
            stride=STRIDE,
        )
        report = monitor.run(stream)
        records = stream.result().measurements

        _, one_shot = infer_from_measurements(
            inference_net, records, scenario.settings
        )
        assert report.final.identified == one_shot.identified
        assert report.final.neutral == one_shot.neutral
        assert report.final.skipped == one_shot.skipped
        for sigma, score in one_shot.scores.items():
            assert report.final.scores[sigma] == score
        # The full-stream verdict sees the violation (half the stream
        # is policed), and a stream that keeps its ground truth gives
        # monitor_scenario's timeline.
        assert SIGMA in report.final.identified
        np.testing.assert_array_equal(out.scores, report.scores)
        np.testing.assert_array_equal(out.flagged, report.flagged)
        assert out.change_points == report.change_points
        assert out.final.identified == report.final.identified

        # Cross-check: a monitor replaying the emitted records gets
        # the identical timeline (stream source is irrelevant).
        replay_monitor = NeutralityMonitor(
            inference_net,
            settings=scenario.settings,
            window_intervals=WINDOW,
            stride=STRIDE,
        )
        replay = replay_monitor.run(
            ReplayStream(records, chunk_intervals=60)
        )
        np.testing.assert_array_equal(replay.scores, report.scores)
        np.testing.assert_array_equal(replay.flagged, report.flagged)
