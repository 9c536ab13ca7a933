"""Round-trip tests for the JSONL / Prometheus / Table exporters."""

import json

import pytest

import repro.obs as obs
from repro.core.stats import AccessStats
from repro.obs.export import (
    parse_prometheus,
    registry_from_jsonl,
    registry_to_jsonl,
    registry_to_prometheus,
    registry_to_table,
    render_span_tree,
    timeseries_from_jsonl,
    timeseries_to_jsonl,
    timeseries_to_prometheus,
    trace_from_jsonl,
    trace_to_jsonl,
    trace_to_table,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRing
from repro.obs.tracing import Tracer


@pytest.fixture
def trace_roots():
    """A two-level recorded trace with stats deltas on the leaves."""
    t = Tracer()
    prior_t = obs.set_tracer(t)
    obs.enable()
    try:
        stats = AccessStats()
        with obs.span("run", dataset="demo"):
            with obs.span("insert_batch", stats=stats, batch=0):
                stats.workblock_fetches += 4
                stats.edges_inserted += 2
            with obs.span("insert_batch", stats=stats, batch=1):
                stats.workblock_fetches += 6
    finally:
        obs.disable()
        obs.set_tracer(prior_t)
    return t.roots


@pytest.fixture
def registry():
    r = MetricsRegistry()
    with obs.enabled_scope():
        r.counter("gt.rhh.swaps", "Robin Hood displacement swaps").inc(7)
        r.gauge("engine.predictor").set(0.015)
        h = r.quantile("gt.probe.distance", "FIND probe cost")
        for v in (1, 1, 3, 9):
            h.record(v)
        q = r.quantile("service.flush.ms", "micro-batch flush latency")
        q.observe_many([1.0, 2.0, 3.0, 4.0, 100.0])
    return r


class TestTraceJsonl:
    def test_every_line_is_json(self, trace_roots):
        text = trace_to_jsonl(trace_roots)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_round_trip_preserves_tree(self, trace_roots):
        back = trace_from_jsonl(trace_to_jsonl(trace_roots))
        assert len(back) == 1
        root = back[0]
        assert root.name == "run"
        assert root.attrs == {"dataset": "demo"}
        assert [c.name for c in root.children] == ["insert_batch", "insert_batch"]
        assert [c.attrs["batch"] for c in root.children] == [0, 1]

    def test_round_trip_preserves_stats_deltas(self, trace_roots):
        back = trace_from_jsonl(trace_to_jsonl(trace_roots))
        deltas = [c.stats_delta for c in back[0].children]
        assert deltas[0].workblock_fetches == 4
        assert deltas[0].edges_inserted == 2
        assert deltas[1].workblock_fetches == 6
        assert back[0].merged_delta().workblock_fetches == 10

    def test_round_trip_preserves_durations(self, trace_roots):
        back = trace_from_jsonl(trace_to_jsonl(trace_roots))
        originals = [s.duration for _, s in trace_roots[0].walk()]
        restored = [s.duration for _, s in back[0].walk()]
        assert restored == originals

    def test_empty_forest(self):
        assert trace_to_jsonl([]) == ""
        assert trace_from_jsonl("") == []


class TestTraceHuman:
    def test_tree_rendering_indents_children(self, trace_roots):
        text = render_span_tree(trace_roots)
        lines = text.splitlines()
        assert lines[0].startswith("run")
        assert lines[1].startswith("  insert_batch")
        assert "block accesses" in lines[0]

    def test_table_has_one_row_per_span(self, trace_roots):
        table = trace_to_table(trace_roots)
        assert len(table.rows) == 3
        assert "span" in table.columns


class TestPrometheus:
    def test_text_format_shape(self, registry):
        text = registry_to_prometheus(registry)
        assert "# TYPE gt_rhh_swaps counter" in text
        assert "# HELP gt_rhh_swaps Robin Hood displacement swaps" in text
        assert "gt_rhh_swaps 7" in text
        assert '# TYPE gt_probe_distance summary' in text
        assert 'gt_probe_distance{quantile="0.5"} 2' in text
        assert "gt_probe_distance_count 4" in text

    def test_round_trip(self, registry):
        parsed = parse_prometheus(registry_to_prometheus(registry))
        assert parsed["gt_rhh_swaps"] == {"type": "counter", "value": 7.0}
        assert parsed["engine_predictor"] == {"type": "gauge", "value": 0.015}
        dist = parsed["gt_probe_distance"]
        assert dist["type"] == "summary"
        assert dist["quantiles"]["0.5"] == 2.0
        assert dist["sum"] == 14.0
        assert dist["count"] == 4.0

    def test_empty_registry(self):
        assert registry_to_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus("") == {}


class TestRegistryJsonl:
    def test_round_trip(self, registry):
        back = registry_from_jsonl(registry_to_jsonl(registry))
        assert back.collect() == registry.collect()
        dist = back.get("gt.probe.distance")
        assert (dist.count, dist.total, dist.max_value) == (4, 14.0, 9)

    def test_unknown_instrument_kind_is_a_named_error(self):
        dump = json.dumps({"name": "gt.probe.distance", "kind": "histogram",
                           "buckets": [1, 2, 4], "bucket_counts": [2, 0, 1, 1],
                           "count": 4, "sum": 14.0, "max": 9.0})
        with pytest.raises(ValueError, match="gt.probe.distance.*histogram"):
            registry_from_jsonl(dump)

    def test_round_trip_survives_disabled_switch(self, registry):
        assert not obs.is_enabled()
        back = registry_from_jsonl(registry_to_jsonl(registry))
        assert back.get("gt.rhh.swaps").value == 7


class TestRegistryTable:
    def test_rows_and_histogram_detail(self, registry):
        table = registry_to_table(registry)
        rendered = table.render()
        assert "gt.rhh.swaps" in rendered
        assert "count=4" in rendered

    def test_quantile_detail_row(self, registry):
        rendered = registry_to_table(registry).render()
        assert "service.flush.ms" in rendered
        assert "p50=3" in rendered
        assert "p99=" in rendered


class TestSummaryFamily:
    def test_quantiles_render_as_summary(self, registry):
        text = registry_to_prometheus(registry)
        assert "# TYPE service_flush_ms summary" in text
        assert 'service_flush_ms{quantile="0.5"} 3' in text
        assert "service_flush_ms_sum 110" in text
        assert "service_flush_ms_count 5" in text

    def test_summary_round_trip(self, registry):
        parsed = parse_prometheus(registry_to_prometheus(registry))
        summary = parsed["service_flush_ms"]
        assert summary["type"] == "summary"
        sketch = registry.quantile("service.flush.ms")
        assert summary["quantiles"] == {
            "0.5": sketch.quantile(0.5),
            "0.9": sketch.quantile(0.9),
            "0.99": sketch.quantile(0.99),
        }
        assert summary["sum"] == sketch.total
        assert summary["count"] == 5.0

    def test_registry_jsonl_restores_sketch_state(self, registry):
        back = registry_from_jsonl(registry_to_jsonl(registry))
        original = registry.quantile("service.flush.ms")
        restored = back.quantile("service.flush.ms")
        assert restored.summary() == original.summary()
        assert restored.quantile(0.73) == original.quantile(0.73)


class TestPrometheusHardening:
    def test_name_sanitization_is_stable_and_legal(self):
        registry = MetricsRegistry()
        with obs.enabled_scope():
            registry.counter("weird metric-name!{}").inc()
            registry.counter("7starts.with.digit").inc(2)
        text = registry_to_prometheus(registry)
        assert "weird_metric_name___ 1" in text
        assert "_7starts_with_digit 2" in text
        # Legal exposition names only: every sample line parses back.
        parsed = parse_prometheus(text)
        assert parsed["weird_metric_name___"]["value"] == 1.0
        assert parsed["_7starts_with_digit"]["value"] == 2.0

    def test_label_value_escaping_round_trips(self):
        ring = TimeSeriesRing(capacity=4)
        nasty = 'queue "depth"\nwith\\slashes'
        ring.record(nasty, 7.0)
        text = timeseries_to_prometheus(ring)
        assert '\\"depth\\"' in text
        assert "\\n" in text
        assert "\\\\slashes" in text
        parsed = parse_prometheus(text)
        samples = parsed["repro_timeseries"]["samples"]
        assert samples == [{"labels": {"series": nasty}, "value": 7.0}]

    def test_timeseries_gauge_family_exposes_latest(self):
        ring = TimeSeriesRing(capacity=4)
        for v in (1.0, 2.0, 9.0):
            ring.record("ingest_edges_per_s", v)
        parsed = parse_prometheus(timeseries_to_prometheus(ring))
        samples = parsed["repro_timeseries"]["samples"]
        assert samples[0]["labels"] == {"series": "ingest_edges_per_s"}
        assert samples[0]["value"] == 9.0


class TestTimeSeriesJsonl:
    def test_round_trip_is_lossless(self):
        ring = TimeSeriesRing(capacity=8)
        for i in range(5):
            ring.record("a", float(i), ts=float(100 + i))
            ring.record("b", float(-i), ts=float(100 + i))
        back = timeseries_from_jsonl(timeseries_to_jsonl(ring))
        for name in ("a", "b"):
            ts0, v0 = ring.series(name)
            ts1, v1 = back.series(name)
            assert ts1.tolist() == ts0.tolist()
            assert v1.tolist() == v0.tolist()

    def test_round_trip_after_wraparound(self):
        ring = TimeSeriesRing(capacity=4)
        for i in range(11):
            ring.record("q", float(i), ts=float(i))
        back = timeseries_from_jsonl(timeseries_to_jsonl(ring))
        assert back.series("q")[1].tolist() == [7.0, 8.0, 9.0, 10.0]

    def test_empty_ring(self):
        assert timeseries_to_jsonl(TimeSeriesRing()) == ""
        back = timeseries_from_jsonl("")
        assert back.names() == []
