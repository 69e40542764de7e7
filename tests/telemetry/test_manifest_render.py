"""RunManifest provenance and the trace/metrics text renderers."""

import json

import numpy as np

from repro import telemetry
from repro.telemetry.render import (
    build_span_tree,
    render_manifest,
    render_metrics_table,
    render_span_tree,
    split_records,
)
from repro.substrate.registry import substrate_cache_tag


class TestRunManifest:
    def test_collect_pins_the_environment(self):
        manifest = telemetry.RunManifest.collect(
            "test", seed=7, spec_digests=("d1", "d2"),
            substrates=("fluid",), extra={"note": "x"},
        )
        assert manifest.kind == "test"
        assert manifest.seed == 7
        assert manifest.spec_digests == ("d1", "d2")
        assert manifest.numpy == np.__version__
        assert manifest.substrates == (
            ("fluid", substrate_cache_tag("fluid")),
        )
        assert manifest.extra == (("note", "x"),)

    def test_run_id_adopted_from_active_tracer(self):
        telemetry.configure(enabled=True, run_id="r-m")
        manifest = telemetry.RunManifest.collect("test")
        assert manifest.run_id == "r-m"

    def test_run_id_none_when_disabled(self):
        assert telemetry.RunManifest.collect("test").run_id is None

    def test_as_dict_wraps_under_manifest_key(self):
        payload = telemetry.RunManifest.collect("test").as_dict()
        assert set(payload) == {"manifest"}
        inner = payload["manifest"]
        assert inner["kind"] == "test"
        assert isinstance(inner["substrates"], dict)
        # The record must survive JSON (it is a trace.jsonl line).
        assert json.loads(json.dumps(payload)) == payload

    def test_write_manifest_lands_in_the_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure(enabled=True, trace_path=path)
        telemetry.write_manifest(telemetry.RunManifest.collect("test"))
        manifests, spans = split_records(telemetry.load_trace(path))
        assert spans == []
        (manifest,) = manifests
        assert manifest["kind"] == "test"


def _span(name, span_id, parent=None, dur=0.0):
    return {"name": name, "span": span_id, "parent": parent, "dur": dur}


class TestSpanTree:
    def test_siblings_with_one_name_aggregate(self):
        spans = [
            _span("sweep.run", "1.1", dur=3.0),
            _span("sweep.point", "1.2", parent="1.1", dur=1.0),
            _span("sweep.point", "1.3", parent="1.1", dur=2.0),
        ]
        root = build_span_tree(spans)
        run = root.children["sweep.run"]
        point = run.children["sweep.point"]
        assert point.count == 2
        assert point.total == 3.0
        assert run.self_time == 0.0
        assert root.total == 3.0

    def test_orphans_graft_onto_the_root(self):
        spans = [_span("worker", "2.1", parent="not-in-file", dur=1.0)]
        root = build_span_tree(spans)
        assert root.children["worker"].count == 1
        assert root.total == 1.0

    def test_render_tree_and_min_seconds_filter(self):
        spans = [
            _span("outer", "1.1", dur=2.0),
            _span("fast", "1.2", parent="1.1", dur=0.001),
            _span("slow", "1.3", parent="1.1", dur=1.9),
        ]
        text = render_span_tree(spans)
        assert "outer" in text and "slow" in text and "fast" in text
        assert "100.0%" in text
        filtered = render_span_tree(spans, min_seconds=0.01)
        assert "fast" not in filtered
        assert "slow" in filtered

    def test_render_empty(self):
        assert render_span_tree([]) == "no spans recorded\n"


class TestRenderManifest:
    def test_fields_appear(self):
        payload = telemetry.RunManifest.collect(
            "cli:sweep", seed=3, substrates=("fluid",)
        ).as_dict()["manifest"]
        text = render_manifest(payload)
        assert text.startswith("manifest:")
        assert "kind: cli:sweep" in text
        assert "seed: 3" in text
        assert f"numpy: {np.__version__}" in text
        assert f"substrates: {substrate_cache_tag('fluid')}" in text


class TestRenderMetrics:
    def test_counter_and_histogram_rows(self):
        reg = telemetry.Registry()
        reg.counter("repro_sweep_executed_total", substrate="fluid").inc(4)
        h = reg.histogram("repro_sweep_point_seconds", buckets=(1.0,))
        h.observe(0.5)
        h.observe(0.25)
        text = render_metrics_table(reg.to_json())
        assert 'repro_sweep_executed_total{substrate=fluid}' in text
        assert "4" in text
        assert "2 obs" in text
        assert "sum=0.7500s mean=0.3750s" in text

    def test_render_empty(self):
        assert render_metrics_table({}) == "no metrics recorded\n"
