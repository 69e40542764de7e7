"""Registry instruments and their Prometheus/JSON exports."""

import math

import pytest

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    NOOP_INSTRUMENT,
    Registry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = Registry()
        c = reg.counter("hits_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Registry().counter("hits_total").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Registry().gauge("depth")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0

    def test_histogram_buckets_sum_count(self):
        h = Registry().histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            h.observe(value)
        assert h.counts == [1, 2, 1]  # (<=0.1, <=1.0, +Inf)
        assert h.count == 4
        assert h.total == pytest.approx(6.05)

    def test_histogram_default_buckets(self):
        h = Registry().histogram("lat")
        assert h.buckets == DEFAULT_BUCKETS


class TestRegistry:
    def test_same_name_and_labels_share_an_instrument(self):
        reg = Registry()
        a = reg.counter("hits_total", substrate="fluid")
        b = reg.counter("hits_total", substrate="fluid")
        c = reg.counter("hits_total", substrate="packet")
        assert a is b
        assert a is not c

    def test_label_order_is_irrelevant(self):
        reg = Registry()
        assert reg.counter("x", a="1", b="2") is reg.counter(
            "x", b="2", a="1"
        )

    def test_kind_mismatch_rejected(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_disabled_registry_hands_out_the_noop(self):
        reg = Registry(enabled=False)
        assert reg.counter("x") is NOOP_INSTRUMENT
        assert reg.gauge("y") is NOOP_INSTRUMENT
        assert reg.histogram("z") is NOOP_INSTRUMENT
        NOOP_INSTRUMENT.inc()
        NOOP_INSTRUMENT.dec()
        NOOP_INSTRUMENT.set(1.0)
        NOOP_INSTRUMENT.observe(1.0)

    def test_reset_clears_families(self):
        reg = Registry()
        reg.counter("x").inc()
        reg.reset()
        assert reg.to_json() == {}

    def test_module_registry_reset_helper(self):
        telemetry.get_registry().counter("tmp_total").inc()
        telemetry.reset_registry()
        assert telemetry.get_registry().to_json() == {}


class TestJsonExport:
    def test_round_trip_through_file(self, tmp_path):
        reg = Registry()
        reg.counter("hits_total", "hits", substrate="fluid").inc(3)
        reg.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
        path = str(tmp_path / "metrics.json")
        reg.write_json(path)
        data = telemetry.load_metrics(path)
        assert data == reg.to_json()
        hits = data["hits_total"]
        assert hits["kind"] == "counter"
        assert hits["help"] == "hits"
        assert hits["series"] == [
            {"labels": {"substrate": "fluid"}, "value": 3.0}
        ]
        (lat,) = data["lat_seconds"]["series"]
        assert lat == {
            "labels": {},
            "buckets": [1.0],
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }

    def test_empty_registry_round_trips(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        Registry().write_json(path)
        assert telemetry.load_metrics(path) == {}

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            "[]",
            '{"counters": 5}',
            '{"hits_total": {"kind": "counter"}}',
            '{"hits_total": {"series": {"value": 1}}}',
            '{"metrics": [1]}',
            '{"hits_total": {"series": [1]}}',
        ],
        ids=[
            "not-json",
            "not-object",
            "family-not-object",
            "series-missing",
            "series-not-list",
            "family-list",
            "series-entry-not-object",
        ],
    )
    def test_load_rejects_malformed_file(self, tmp_path, payload):
        path = tmp_path / "metrics.json"
        path.write_text(payload, encoding="utf-8")
        with pytest.raises(ConfigurationError):
            telemetry.load_metrics(str(path))


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        reg = Registry()
        reg.counter("hits_total", "total hits", substrate="fluid").inc(3)
        reg.gauge("depth").set(1.5)
        text = reg.to_prometheus()
        assert "# HELP hits_total total hits" in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{substrate="fluid"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert text.endswith("\n")

    def test_histogram_is_cumulative(self):
        reg = Registry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        lines = reg.to_prometheus().splitlines()
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert "lat_sum 5.55" in lines
        assert "lat_count 3" in lines

    def test_empty_registry_renders_empty(self):
        assert Registry().to_prometheus() == ""

    def test_inf_bound_formatting(self):
        reg = Registry()
        reg.histogram("lat", buckets=(math.inf,)).observe(1.0)
        assert 'lat_bucket{le="+Inf"} 1' in reg.to_prometheus()
