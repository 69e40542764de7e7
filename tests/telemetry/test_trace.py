"""Tracer core: enablement, span nesting, export, cross-process context."""

import json
import os
import pickle
import threading

import pytest

from repro import telemetry
from repro.telemetry.trace import _parse_env


class TestEnvParsing:
    @pytest.mark.parametrize("value", [None, "", "0"])
    def test_disabled_values(self, value):
        assert _parse_env(value) == (False, None)

    @pytest.mark.parametrize("value", ["1", "true", "YES", "on"])
    def test_truthy_values_enable_in_memory(self, value):
        assert _parse_env(value) == (True, None)

    def test_other_values_are_export_directories(self, tmp_path):
        on, path = _parse_env(str(tmp_path))
        assert on
        assert path == str(tmp_path / telemetry.TRACE_FILENAME)

    def test_configure_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(telemetry.ENV_VAR, str(tmp_path))
        tracer = telemetry.configure_from_env()
        assert tracer.enabled
        assert tracer.trace_path.startswith(str(tmp_path))
        assert telemetry.export_dir() == str(tmp_path)


class TestDisabledFastPath:
    def test_span_returns_shared_noop_singleton(self):
        assert not telemetry.enabled()
        span = telemetry.span("anything", key=1)
        assert span is telemetry.NOOP_SPAN
        assert telemetry.span("other") is span

    def test_noop_span_supports_the_span_protocol(self):
        with telemetry.NOOP_SPAN as span:
            assert span.set(a=1) is span

    def test_no_context_when_disabled(self):
        assert telemetry.current_context() is None

    def test_write_record_dropped_when_disabled(self):
        telemetry.get_tracer().write_record({"manifest": {}})
        assert telemetry.get_tracer().finished == []


class TestSpans:
    def test_nesting_parents_and_attrs(self):
        telemetry.configure(enabled=True)
        with telemetry.span("outer", a=1) as outer:
            with telemetry.span("inner") as inner:
                inner.set(found=3)
        records = telemetry.get_tracer().finished
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["attrs"] == {"a": 1}
        assert by_name["inner"]["attrs"] == {"found": 3}
        # Children close before parents, so inner is recorded first.
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert all(r["dur"] >= 0.0 for r in records)

    def test_name_may_appear_as_an_attribute(self):
        # The span's own name parameter is positional-only, so hot
        # paths can attach a `name=` attr (`monitor_scenario` does).
        telemetry.configure(enabled=True)
        with telemetry.span("monitor.task", name="probe-3"):
            pass
        (record,) = telemetry.get_tracer().finished
        assert record["name"] == "monitor.task"
        assert record["attrs"] == {"name": "probe-3"}

    def test_exception_annotates_and_propagates(self):
        telemetry.configure(enabled=True)
        with pytest.raises(ValueError):
            with telemetry.span("boom"):
                raise ValueError("no")
        (record,) = telemetry.get_tracer().finished
        assert record["attrs"]["error"] == "ValueError"

    def test_thread_local_stacks(self):
        telemetry.configure(enabled=True)
        seen = {}

        def worker():
            with telemetry.span("thread-root") as span:
                seen["parent"] = span.parent_id

        with telemetry.span("main-root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The other thread's stack is independent: no cross-parenting.
        assert seen["parent"] is None

    def test_drain_clears_the_buffer(self):
        telemetry.configure(enabled=True)
        with telemetry.span("one"):
            pass
        assert [r["name"] for r in telemetry.get_tracer().drain()] == [
            "one"
        ]
        assert telemetry.get_tracer().finished == []


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure(enabled=True, trace_path=path, run_id="r-t")
        with telemetry.span("outer", k="v"):
            with telemetry.span("inner"):
                pass
        records = telemetry.load_trace(path)
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert all(r["run"] == "r-t" for r in records)
        assert all(r["pid"] == os.getpid() for r in records)

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"name": "ok", "span": "1.1", "dur": 0.0})
            + "\nnot json\n\n"
        )
        assert [r["name"] for r in telemetry.load_trace(str(path))] == [
            "ok"
        ]

    def test_export_creates_directory(self, tmp_path):
        path = str(tmp_path / "nested" / "trace.jsonl")
        telemetry.configure(enabled=True, trace_path=path)
        with telemetry.span("s"):
            pass
        assert os.path.exists(path)


class TestSpanContext:
    def test_context_is_picklable(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure(enabled=True, trace_path=path, run_id="r-p")
        with telemetry.span("dispatch"):
            ctx = telemetry.current_context()
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        assert clone.run_id == "r-p"

    def test_activate_parents_worker_spans(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure(enabled=True, trace_path=path, run_id="r-a")
        with telemetry.span("dispatch") as dispatch:
            ctx = telemetry.current_context()
        with telemetry.activate(ctx):
            with telemetry.span("worker"):
                pass
        records = telemetry.load_trace(path)
        by_name = {r["name"]: r for r in records}
        assert by_name["worker"]["parent"] == dispatch.span_id
        # Outside activate, top-level spans are unparented again.
        with telemetry.span("after"):
            pass
        assert telemetry.get_tracer().finished[-1]["parent"] is None

    def test_activate_none_is_a_noop(self):
        with telemetry.activate(None):
            assert telemetry.span("x") is telemetry.NOOP_SPAN

    def test_activate_rebuilds_mismatched_tracer(self, tmp_path):
        # Spawn-safety: a worker whose default tracer is disabled
        # adopts the dispatcher's configuration from the context.
        path = str(tmp_path / "trace.jsonl")
        ctx = telemetry.SpanContext(
            run_id="r-spawn", span_id="abc.1", trace_path=path
        )
        assert not telemetry.enabled()
        with telemetry.activate(ctx):
            assert telemetry.enabled()
            with telemetry.span("adopted"):
                pass
        (record,) = telemetry.load_trace(path)
        assert record["run"] == "r-spawn"
        assert record["parent"] == "abc.1"
