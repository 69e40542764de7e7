"""Tests for the reporting helpers and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import EmulationSettings, run_topology_a
from repro.experiments.reporting import (
    render_path_congestion,
    render_verdict,
)

QUICK = EmulationSettings(duration_seconds=45.0, warmup_seconds=5.0)


@pytest.fixture(scope="module")
def outcome():
    return run_topology_a(6, 30.0, QUICK)


class TestReporting:
    def test_render_path_congestion(self, outcome):
        text = render_path_congestion(outcome)
        assert "p1" in text and "P(congested)" in text

    def test_render_verdict(self, outcome):
        text = render_verdict(outcome)
        assert "verdict" in text
        assert "quality" in text


def _summary_outcome(identified, quality=None):
    """Just what ``render_sweep_summary`` reads of an outcome."""
    from types import SimpleNamespace

    return SimpleNamespace(
        algorithm=SimpleNamespace(identified=identified),
        quality=quality,
        verdict_non_neutral=bool(identified),
    )


class TestSweepSummary:
    def test_rows_show_verdict_identified_sets_and_quality(self):
        from repro.core.metrics import QualityReport
        from repro.experiments.reporting import render_sweep_summary

        quality = QualityReport(0.5, 0.25, 1.0, frozenset(), frozenset())
        text = render_sweep_summary(
            {
                "a/1": _summary_outcome((("l5",), ("l1", "l2")), quality),
                "a/2": _summary_outcome(()),
            }
        )
        header, _, first, second = text.splitlines()
        assert header.split() == ["point", "verdict", "identified", "quality"]
        assert first.split() == [
            "a/1", "NON-NEUTRAL", "<l5>;", "<l1,l2>", "FN", "50%", "FP", "25%"
        ]
        assert second.split() == ["a/2", "neutral", "-"]

    def test_no_stats_no_footer(self):
        from repro.experiments.reporting import render_sweep_summary

        text = render_sweep_summary({"a": _summary_outcome(())})
        assert "cache:" not in text and "timing:" not in text

    def test_inline_stats_footer(self):
        from repro.experiments.reporting import render_sweep_summary
        from repro.experiments.sweep import SweepStats

        stats = SweepStats(
            cache_hits=1, cache_misses=2, executed=2,
            point_seconds={"a": 0.5, "b": 1.5}, wall_seconds=2.25,
        )
        footer = render_sweep_summary({}, stats).splitlines()[2:]
        assert footer == [
            "cache: 1 hits, 2 misses, 2 executed",
            "timing: 2.25 s wall, 2.00 s compute (1000 ms/point executed)",
        ]

    def test_all_hits_skip_the_compute_clause(self):
        from repro.experiments.reporting import render_sweep_summary
        from repro.experiments.sweep import SweepStats

        stats = SweepStats(cache_hits=3, wall_seconds=0.01)
        text = render_sweep_summary({}, stats)
        assert text.endswith("timing: 0.01 s wall")

    def test_fresh_pool_line_reports_setup_time(self):
        from repro.experiments.reporting import render_sweep_summary
        from repro.experiments.sweep import SweepStats

        stats = SweepStats(workers=3, pool_setup_seconds=0.0123)
        text = render_sweep_summary({}, stats)
        assert text.endswith("parallel: 3 workers, pool created (0.01 s)")


class TestTopologyBTables:
    def test_ground_truth_rows_follow_link_number_and_mark_policers(self):
        from types import SimpleNamespace

        from repro.experiments.reporting import render_ground_truth

        report = SimpleNamespace(
            ground_truth={
                "l14": (0.1, 0.3), "l2": (0.05, 0.05), "l5": (0.0, 0.2),
            }
        )
        rows = render_ground_truth(report).splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["l2", "l5*", "l14*"]
        assert rows[2].split()[1:] == ["10.00%", "30.00%", "+20.00%"]
        assert rows[0].split()[-1] == "+0.00%"

    def test_queue_traces_summarize_each_link(self):
        from types import SimpleNamespace

        import numpy as np

        from repro.experiments.reporting import render_queue_traces

        report = SimpleNamespace(
            queue_traces_mb={
                "l14": np.array([0.0, 2.0, 4.0]), "l13": np.zeros(4),
            }
        )
        rows = render_queue_traces(report).splitlines()[2:]
        assert [row.split() for row in rows] == [
            ["l13", "0.00", "0.00", "0.00"],
            ["l14", "2.00", "3.80", "4.00"],
        ]


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["fig8", "--set", "6"])
        assert args.set == 6
        args = parser.parse_args(["topo-b", "--seed", "5"])
        assert args.seed == 5
        args = parser.parse_args(["theory"])
        assert args.command == "theory"

    def test_theory_command_runs(self, capsys):
        assert main(["theory"]) == 0
        out = capsys.readouterr().out
        assert "figure4" in out
        assert "<l1>" in out

    @staticmethod
    def _info_field(out, label):
        for line in out.splitlines():
            if line.strip().startswith(label):
                return line.split(label, 1)[1].strip()
        raise AssertionError(f"no {label!r} line in:\n{out}")

    def test_info_command_reports_backend(self, capsys):
        import numpy as np

        from repro.substrate.registry import substrate_cache_tag

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert self._info_field(out, "numpy:") == np.__version__
        assert self._info_field(out, "fluid") == substrate_cache_tag(
            "fluid"
        )
        assert self._info_field(out, "packet") == substrate_cache_tag(
            "packet"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig8", "--set", "6", "--duration", "nan"],
            ["topo-b", "--duration", "inf"],
            ["sweep", "--sets", "6", "--duration", "nan"],
            ["monitor", "--duration", "nan"],
            ["monitor", "--duration", "10", "--onset", "nan"],
            ["monitor", "--duration", "10", "--onset", "inf"],
            ["monitor", "--warmup", "-1"],
            ["fig8", "--set", "6", "--duration", "10", "--seed", "-1"],
            ["topo-b", "--duration", "10", "--seed", "-1"],
            ["sweep", "--sets", "6", "--duration", "10", "--seed", "-1"],
            ["monitor", "--duration", "10", "--seed", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_finite_or_negative_times_rejected(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fig8_command_runs(self, capsys):
        code = main(
            [
                "fig8",
                "--set", "6",
                "--value", "30.0",
                "--duration", "30",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict" in out

    def test_fig8_packet_substrate_runs(self, capsys):
        code = main(
            [
                "fig8",
                "--set", "6",
                "--value", "30.0",
                "--duration", "30",
                "--seed", "1",
                "--substrate", "packet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict" in out

    def test_sweep_packet_substrate_runs(self, capsys):
        code = main(
            [
                "sweep",
                "--sets", "6",
                "--duration", "20",
                "--substrate", "packet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "topoA/set6" in out

    def test_sweep_reports_batches(self, capsys):
        code = main(
            ["sweep", "--sets", "6", "--duration", "15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Set 6's four rates share one scenario: one batch.
        assert "batching: 1 batch(es) covering 4 point(s)" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["fig8", "--set", "4", "--value", "abc"],
                "set 4 accepts values", id="fig8-value-not-a-number",
            ),
            pytest.param(
                ["fig8", "--set", "3", "--value", "bbr"],
                "set 3 accepts values", id="fig8-value-not-in-set",
            ),
            pytest.param(
                ["topo-b", "--duration", "0"], "error: duration_seconds",
                id="topo-b-duration-0",
            ),
            pytest.param(
                ["topo-b", "--duration", "-5"], "error: duration_seconds",
                id="topo-b-duration-negative",
            ),
        ],
    )
    def test_malformed_input_exits_2_before_emulating(
        self, capsys, monkeypatch, argv, message
    ):
        """A value that does not parse, or a duration that is not
        positive, is one stderr line and exit 2, and nothing runs."""
        import repro.experiments.topology_a as topology_a
        import repro.experiments.topology_b as topology_b

        def emulated(*args, **kwargs):
            raise AssertionError("emulated")

        monkeypatch.setattr(topology_a, "run_scenarios", emulated)
        monkeypatch.setattr(topology_b, "run_scenarios", emulated)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, field",
        [("--window", "window_intervals"), ("--chunk", "chunk_intervals"),
         ("--stride", "stride")],
    )
    def test_monitor_bad_shape_exits_2_before_emulating(
        self, capsys, monkeypatch, flag, field
    ):
        from repro.streaming.monitor import NeutralityMonitor

        def emulated(*args, **kwargs):
            raise AssertionError("emulated")

        monkeypatch.setattr(NeutralityMonitor, "run", emulated)
        assert main(["monitor", "--duration", "10", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {field} must be >= 1, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["monitor", "--mechanism", "none", "--onset", "8"],
                "error: scenario 'monitor-dumbbell' schedules a policy "
                "onset but has no differentiation policy",
                id="onset-without-policy",
            ),
            pytest.param(
                ["monitor", "--onset", "50", "--duration", "10"],
                "error: switch interval 500 outside the stream [0, 100)",
                id="onset-outside-stream",
            ),
        ],
    )
    def test_monitor_bad_onset_exits_2_before_printing(
        self, capsys, monkeypatch, argv, message
    ):
        """An onset the stream cannot schedule is refused before the
        banner, with nothing emulated."""
        from repro.substrate.registry import FluidSubstrate

        def emulated(*args, **kwargs):
            raise AssertionError("emulated")

        monkeypatch.setattr(FluidSubstrate, "start", emulated)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""

    def test_fig8_whole_set_prints_each_value_as_alone(self, capsys):
        """``fig8`` without ``--value`` runs the set as one batch and
        prints, byte for byte, what ``--value`` prints per value."""
        argv = ["fig8", "--set", "6", "--duration", "10", "--seed", "2"]
        assert main(argv) == 0
        whole = capsys.readouterr().out
        alone = []
        for value in ("50.0", "40.0", "30.0", "20.0"):
            assert main([*argv, "--value", value]) == 0
            alone.append(capsys.readouterr().out)
        assert whole == "".join(alone)

    def test_unknown_substrate_reports_clean_error(self, capsys):
        code = main(
            ["fig8", "--set", "6", "--substrate", "ns3",
             "--duration", "30"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "error: unknown substrate 'ns3'" in captured.err
        assert "Traceback" not in captured.err

    def test_monitor_unknown_names_report_clean_errors(self, capsys):
        code = main(["monitor", "--substrate", "ns3"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: unknown substrate 'ns3'" in captured.err
        assert "Traceback" not in captured.err

        code = main(["monitor", "--topology", "torus"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: unknown topology 'torus'" in captured.err

        code = main(["monitor", "--mechanism", "bribery"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: unknown mechanism 'bribery'" in captured.err

    def test_monitor_command_runs(self, capsys):
        code = main(
            [
                "monitor",
                "--duration", "20",
                "--warmup", "2",
                "--onset", "8",
                "--window", "60",
                "--chunk", "20",
                "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flagged sequences" in out
        assert "final verdict" in out
        assert "onset at interval 80" in out

    def test_monitor_multi_isp_decides_with_topology_b_bars(
        self, capsys, monkeypatch
    ):
        """``repro monitor --topology multi_isp`` decides, and runs its
        CUSUM, with topology B's decider fields, as ``repro topo-b``
        does; the dumbbell keeps topology A's."""
        from repro.experiments.topology_b import TOPOLOGY_B_SETTINGS
        from repro.streaming import monitor as monitor_module

        monitors = []

        class Recording(monitor_module.NeutralityMonitor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                monitors.append(self)

        monkeypatch.setattr(monitor_module, "NeutralityMonitor", Recording)
        argv = ["--mechanism", "none", "--duration", "4", "--warmup", "1",
                "--window", "20", "--chunk", "10"]
        for topology in ("multi_isp", "dumbbell"):
            assert main(["monitor", "--topology", topology, *argv]) == 0
        out = capsys.readouterr().out
        assert "final verdict" in out
        # Without --onset there is nothing to time a delay from.
        assert "onset at interval" not in out
        multi_isp, dumbbell = monitors
        defaults = EmulationSettings()
        for monitor, want in (
            (multi_isp, TOPOLOGY_B_SETTINGS),
            (dumbbell, defaults),
        ):
            assert monitor._definite == want.decider_definite
            assert monitor._min_ratio == want.decider_min_ratio
            assert monitor._min_absolute == want.decider_min_absolute
            assert monitor._definite == want.decider_definite
        assert TOPOLOGY_B_SETTINGS.decider_definite != (
            defaults.decider_definite
        )

    def test_fig8_invalid_value(self, capsys):
        code = main(
            ["fig8", "--set", "6", "--value", "33.0", "--duration", "30"]
        )
        assert code == 2

    def test_sweep_summary_reports_timing(self, capsys):
        code = main(["sweep", "--sets", "6", "--duration", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "s wall" in out
        assert "ms/point executed" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["--workers", "0"], "--workers must be >= 1", id="workers-0"
            ),
            pytest.param(
                ["--sets", "4,x"], "bad --sets value '4,x'", id="sets-not-int"
            ),
            pytest.param(
                ["--sets", "0"], "--sets takes a comma list", id="sets-below"
            ),
            pytest.param(
                ["--sets", "6,10"], "--sets takes a comma list",
                id="sets-above",
            ),
            pytest.param(
                ["--sets", " , "], "--sets takes a comma list", id="sets-empty"
            ),
        ],
    )
    def test_sweep_bad_arguments_exit_before_emulating(
        self, capsys, argv, message
    ):
        assert main(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "Sweeping" not in captured.out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--adaptive"], ["--resolution", "8"], ["--budget", "5"],
            ["--batch-size", "1"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_removed_sweep_flags_are_usage_errors(self, flags):
        """``sweep`` has one mode, the Table 2 grid, and one batch
        width: it knows no ``--adaptive``, ``--resolution``,
        ``--budget`` or ``--batch-size``, and each exits 2 with one
        argparse usage error and no traceback."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", *flags],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        errors = [
            line for line in proc.stderr.splitlines() if "error:" in line
        ]
        assert errors == [
            f"repro: error: unrecognized arguments: {' '.join(flags)}"
        ]
        assert proc.stderr.startswith("usage: repro")
        assert "Traceback" not in proc.stderr


class TestTelemetryCli:
    def test_info_reports_disabled_state(self, capsys):
        from repro import telemetry

        assert not telemetry.enabled()  # conftest pin
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "state:           disabled" in out
        assert "REPRO_TELEMETRY: (unset)" in out

    def test_info_reports_export_directory(self, capsys, tmp_path):
        import os

        from repro import telemetry

        telemetry.configure(
            enabled=True,
            trace_path=os.path.join(
                str(tmp_path), telemetry.TRACE_FILENAME
            ),
        )
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert f"enabled, exporting to {tmp_path}" in out

    def test_trace_command_renders_tree_and_manifest(
        self, capsys, tmp_path
    ):
        from repro import telemetry

        path = str(tmp_path / telemetry.TRACE_FILENAME)
        telemetry.configure(enabled=True, trace_path=path)
        telemetry.write_manifest(
            telemetry.RunManifest.collect("cli-test", seed=4)
        )
        with telemetry.span("sweep.run"):
            with telemetry.span("sweep.point"):
                pass
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "manifest:" in out
        assert "kind: cli-test" in out
        assert "sweep.run" in out
        assert "  sweep.point" in out  # nested under its parent

    def test_trace_command_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            '{"name": "a", "span": "1", "dur": "x"}',
            '{"name": "a", "span": ["x"], "dur": 1}',
            '{"manifest": 5}',
            "5",
            "[1, 2]",
        ],
        ids=["dur-not-number", "span-id-list", "manifest-not-object",
             "number", "list"],
    )
    def test_trace_command_rejects_malformed_record(
        self, capsys, tmp_path, line
    ):
        """A decodable line that is not a trace record is one error
        line naming the file and line, exit 2; a torn line is skipped."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"name": "ok", "span": "1", "dur": 0.5}\n'
            + "{torn\n"
            + line + "\n"
        )
        assert main(["trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:3: ")
        assert captured.err.count("\n") == 1

    def test_metrics_command_renders_table(self, capsys, tmp_path):
        from repro import telemetry

        telemetry.get_registry().counter(
            "repro_sweep_executed_total", substrate="fluid"
        ).inc(2)
        path = str(tmp_path / telemetry.METRICS_FILENAME)
        telemetry.get_registry().write_json(path)
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "repro_sweep_executed_total{substrate=fluid}" in out

    def test_metrics_command_without_path_or_export_dir(self, capsys):
        assert main(["metrics"]) == 2
        assert "REPRO_TELEMETRY" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        ["not json {", "[]", '{"counters": 5}', '{"metrics": [1]}'],
        ids=["not-json", "not-object", "family-not-object", "series-entry"],
    )
    def test_metrics_command_rejects_malformed_file(
        self, capsys, tmp_path, content
    ):
        path = tmp_path / "metrics.json"
        path.write_text(content)
        assert main(["metrics", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_exporting_run_finalizes_artifacts(self, capsys, tmp_path):
        """REPRO_TELEMETRY=<dir> CLI contract: an emulating command
        leaves trace.jsonl (spans + manifest) and metrics.json."""
        import json
        import os

        from repro import telemetry

        trace_path = os.path.join(
            str(tmp_path), telemetry.TRACE_FILENAME
        )
        telemetry.configure(enabled=True, trace_path=trace_path)
        assert main(["theory"]) == 0
        capsys.readouterr()
        records = telemetry.load_trace(trace_path)
        manifests = [r["manifest"] for r in records if "manifest" in r]
        assert manifests and manifests[-1]["kind"] == "cli:theory"
        metrics_path = os.path.join(
            str(tmp_path), telemetry.METRICS_FILENAME
        )
        with open(metrics_path, encoding="utf-8") as handle:
            json.load(handle)  # valid JSON registry export


# Modules an entry point must not load at import: scipy serves one NNLS
# call, subprocess comes with the run manifest, and the rest are engines
# or runners that only some commands use.
LOAD_ON_FIRST_USE = (
    "scipy",
    "subprocess",
    "repro.experiments.sweep",
    "repro.fluid.batch",
    "repro.emulator.core",
    "repro.telemetry.manifest",
)


@pytest.mark.parametrize(
    "entry",
    ["repro", "repro.cli", "repro.streaming.monitor",
     "repro.experiments.runner"],
)
def test_entry_point_import_budget(entry):
    """Package namespaces load on first use, so importing an entry
    point in a fresh interpreter loads only what it runs."""
    import json
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        f"import json, sys, {entry}; "
        "print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *LOAD_ON_FIRST_USE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == []


def _monitor_run(delay, onset=400):
    """A hand-built ``monitor_scenario`` result: window 0 is
    uninformative (an all-NaN score row), window 1 flags ``<l1>``,
    and ``<l1>``'s onset change point (when ``delay`` is set) lies
    ``delay`` intervals after ``onset``."""
    import types

    import numpy as np

    from repro.streaming.monitor import ChangePoint, MonitorReport

    change_points = ()
    if delay is not None:
        change_points = (
            ChangePoint(("l1",), "onset", 1, onset + delay, onset + delay),
        )
    report = MonitorReport(
        windows=(),
        change_points=change_points,
        sigmas=(("l1",), ("l2",)),
        window_ends=np.array([100, 200]),
        scores=np.array([[np.nan, np.nan], [0.5, 0.125]]),
        flagged=np.array([[False, False], [True, False]]),
        final=None,
        interval_seconds=0.1,
    )
    compiled = types.SimpleNamespace(ground_truth_links=frozenset({"l1"}))
    return report, compiled


class TestUndefinedValuesRenderAsDash:
    """Negative delays, uninformative windows and an undefined
    granularity never print as a negative count or ``nan``."""

    # The onset lies inside the stream: an onset outside it is
    # refused before monitor_scenario runs.
    MONITOR_ARGV = ["monitor", "--duration", "60", "--onset", "40"]

    @pytest.mark.parametrize(
        "delay, line",
        [
            (-375, "onset at interval 400: flagged 375 intervals before onset"),
            (0, "onset at interval 400 detected after 0 intervals"),
            (12, "onset at interval 400 detected after 12 intervals"),
            (None, "onset at interval 400 was NOT detected"),
        ],
    )
    def test_monitor_detection_line(self, capsys, monkeypatch, delay, line):
        monkeypatch.setattr(
            "repro.streaming.monitor.monitor_scenario",
            lambda scenario, **kwargs: _monitor_run(delay),
        )
        assert main(self.MONITOR_ARGV) == 0
        out = capsys.readouterr().out
        assert line in out
        assert "after -" not in out

    def test_monitor_delay_times_the_first_truth_onset(
        self, capsys, monkeypatch
    ):
        """The delay line times the earliest onset of a sequence
        through a ground-truth link; an earlier onset elsewhere and a
        later re-onset of the truth sequence do not count."""
        import dataclasses

        from repro.streaming.monitor import ChangePoint

        report, compiled = _monitor_run(50)
        report = dataclasses.replace(
            report,
            change_points=(
                ChangePoint(("l2",), "onset", 0, 420, 410),
                *report.change_points,
                ChangePoint(("l1",), "offset", 2, 500, 480),
                ChangePoint(("l1",), "onset", 3, 600, 580),
            ),
        )
        monkeypatch.setattr(
            "repro.streaming.monitor.monitor_scenario",
            lambda scenario, **kwargs: (report, compiled),
        )
        assert main(self.MONITOR_ARGV) == 0
        out = capsys.readouterr().out
        assert "onset at interval 400 detected after 50 intervals" in out

    def test_monitor_max_score_of_uninformative_window(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.streaming.monitor.monitor_scenario",
            lambda scenario, **kwargs: _monitor_run(-375),
        )
        assert main(self.MONITOR_ARGV) == 0
        out = capsys.readouterr().out
        rows = {
            line.split()[0]: line.split()
            for line in out.splitlines()
            if line[:1].isdigit()
        }
        assert rows["0"][2] == "-"  # all-NaN scores
        assert rows["1"][2] == "0.5000"
        assert "nan" not in out

    def test_fig8_granularity_without_identification(
        self, capsys, monkeypatch, outcome
    ):
        import dataclasses

        blank = dataclasses.replace(
            outcome,
            quality=dataclasses.replace(
                outcome.quality, granularity=float("nan")
            ),
        )
        monkeypatch.setattr(
            "repro.experiments.topology_a.run_topology_a",
            lambda *args, **kwargs: blank,
        )
        argv = ["fig8", "--set", "6", "--value", "30.0", "--duration", "30"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "granularity -" in out
        assert "nan" not in out

    def test_topo_b_granularity_without_identification(
        self, capsys, monkeypatch, outcome
    ):
        import dataclasses

        from repro.experiments.topology_b import TopologyBReport

        blank = dataclasses.replace(
            outcome,
            quality=dataclasses.replace(
                outcome.quality, granularity=float("nan")
            ),
        )
        report = TopologyBReport(
            outcome=blank, ground_truth={}, sequences=(), queue_traces_mb={}
        )
        monkeypatch.setattr(
            "repro.experiments.topology_b.run_topology_b",
            lambda *args, **kwargs: report,
        )
        assert main(["topo-b", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "granularity -" in out
        assert "nan" not in out

    def test_finite_granularity_keeps_two_decimals(self, outcome):
        import dataclasses

        from repro.experiments.reporting import render_quality

        quality = dataclasses.replace(outcome.quality, granularity=1.5)
        assert render_quality(quality).endswith("granularity 1.50")
