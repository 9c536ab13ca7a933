"""Observability layer: tracing, metrics, exporters, logging.

``repro.obs`` is the one place the reproduction looks when it needs to
*see* itself run: where a Robin-Hood displacement cascade burned its
block accesses, which hybrid-engine iterations went incremental, how a
batch's :class:`~repro.core.stats.AccessStats` delta decomposes.  The
layer is **off by default** and costs one flag check per batch while
down, so the cost-model numbers the benchmarks report are never
distorted (DESIGN.md §1).

Typical use::

    import repro.obs as obs

    obs.enable()
    with obs.span("load", stats=gt.stats, dataset="hollywood_like"):
        gt.insert_batch(edges)
    print(obs.render_span_tree(obs.get_tracer().roots))
    print(obs.registry_to_prometheus(obs.get_registry()))

See docs/observability.md for the span-tree model, the metric naming
convention, and the exporter formats.
"""

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
from repro.obs.hooks import (
    disable,
    enable,
    enabled_scope,
    is_enabled,
    publish_store_delta,
)
from repro.obs.log import configure_logging, get_logger, kv
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.quantiles import DEFAULT_QUANTILES, QuantileSketch, quantile_key
from repro.obs.recorder import (
    FlightRecorder,
    blackbox_path,
    get_recorder,
    list_blackboxes,
    load_blackbox,
    set_recorder,
)
from repro.obs.timeseries import MetricsSampler, TimeSeriesRing
from repro.obs.tracing import Span, Tracer, get_tracer, set_tracer, span

# The default flight recorder keeps summaries of root spans finished on
# the default tracer (resolved per call, so set_recorder swaps apply).
get_tracer().add_listener(lambda s: get_recorder().note_span(s))

__all__ = [
    "Counter",
    "DEFAULT_QUANTILES",
    "FlightRecorder",
    "Gauge",
    "MetricsRegistry",
    "MetricsSampler",
    "QuantileSketch",
    "Span",
    "TimeSeriesRing",
    "Tracer",
    "blackbox_path",
    "configure_logging",
    "disable",
    "enable",
    "enabled_scope",
    "get_logger",
    "get_recorder",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "kv",
    "list_blackboxes",
    "load_blackbox",
    "parse_prometheus",
    "publish_store_delta",
    "quantile_key",
    "registry_from_jsonl",
    "registry_to_jsonl",
    "registry_to_prometheus",
    "registry_to_table",
    "render_span_tree",
    "set_recorder",
    "set_registry",
    "set_tracer",
    "span",
    "timeseries_from_jsonl",
    "timeseries_to_jsonl",
    "timeseries_to_prometheus",
    "trace_from_jsonl",
    "trace_to_jsonl",
    "trace_to_table",
]
