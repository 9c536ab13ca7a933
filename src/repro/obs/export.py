"""Exporters: render trace trees and metric registries for consumption.

Three output shapes, matching the three consumers the ROADMAP cares
about:

* **JSONL** — one JSON object per span / per instrument, for offline
  analysis and for shipping to log pipelines.  Lossless: the
  corresponding ``*_from_jsonl`` parsers round-trip the data.
* **Prometheus text exposition** — ``# HELP`` / ``# TYPE`` + samples,
  quantile sketches as the ``summary`` family, so a scrape endpoint can
  serve the registry verbatim.
* **Human tables and trees** — reusing
  :class:`repro.bench.reporting.Table` so observability output matches
  the benchmark harness's greppable style.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Sequence

from repro.bench.reporting import Table
from repro.core.stats import AccessStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.quantiles import QuantileSketch, quantile_key
from repro.obs.timeseries import TimeSeriesRing
from repro.obs.tracing import Span


# --------------------------------------------------------------------- #
# trace tree → JSONL / table / tree text
# --------------------------------------------------------------------- #
def _span_record(span: Span, span_id: int, parent_id: int | None) -> dict:
    record: dict[str, object] = {
        "id": span_id,
        "parent": parent_id,
        "name": span.name,
        "start": span.start,
        "duration": span.duration,
        "attrs": span.attrs,
    }
    if span.stats_delta is not None:
        record["stats"] = {
            k: v for k, v in span.stats_delta.as_dict().items() if v
        }
    return record


def trace_to_jsonl(roots: Sequence[Span]) -> str:
    """Serialise a trace forest as JSONL (pre-order, parent ids)."""
    lines: list[str] = []
    next_id = 0

    def emit(span: Span, parent_id: int | None) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        lines.append(json.dumps(_span_record(span, span_id, parent_id),
                                sort_keys=True))
        for child in span.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str) -> list[Span]:
    """Rebuild the trace forest written by :func:`trace_to_jsonl`."""
    by_id: dict[int, Span] = {}
    roots: list[Span] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        stats = record.get("stats")
        span = Span(
            name=record["name"],
            attrs=dict(record.get("attrs", {})),
            start=float(record["start"]),
            duration=float(record["duration"]),
            stats_delta=AccessStats(**stats) if stats is not None else None,
        )
        by_id[int(record["id"])] = span
        parent = record.get("parent")
        if parent is None:
            roots.append(span)
        else:
            by_id[int(parent)].children.append(span)
    return roots


def trace_to_table(roots: Sequence[Span]) -> Table:
    """Flatten a trace forest into a fixed-width :class:`Table`."""
    table = Table(
        "trace spans",
        ["span", "wall_ms", "block_accesses", "edges_inserted", "attrs"],
    )
    for root in roots:
        for depth, span in root.walk():
            delta = span.merged_delta()
            attrs = ",".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            table.add_row([
                "  " * depth + span.name,
                span.duration * 1e3,
                delta.total_block_accesses,
                delta.edges_inserted,
                attrs or "-",
            ])
    return table


def render_span_tree(roots: Sequence[Span]) -> str:
    """Human tree view: nesting, wall time, block-access delta."""
    lines: list[str] = []
    for root in roots:
        for depth, span in root.walk():
            delta = span.merged_delta()
            attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            lines.append(
                f"{'  ' * depth}{span.name}"
                f"  [{span.duration * 1e3:.2f} ms,"
                f" {delta.total_block_accesses} block accesses]"
                + (f"  {attrs}" if attrs else "")
            )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# registry → Prometheus text / JSONL / table
# --------------------------------------------------------------------- #
_PROM_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Dotted metric name → Prometheus-legal name (stable sanitization).

    Dots and dashes become ``_`` (the historical mapping), every other
    illegal character collapses to ``_`` as well, and a leading digit
    gains a ``_`` prefix — so any registry name maps deterministically
    (and idempotently) onto ``[a-zA-Z_:][a-zA-Z0-9_:]*``.
    """
    name = _PROM_ILLEGAL.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name or "_"


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _parse_labels(text: str) -> dict[str, str]:
    """Parse a ``key="value",...`` label body (escapes honoured)."""
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        key = text[i:eq].strip().lstrip(",").strip()
        assert text[eq + 1] == '"', f"unquoted label value in {text!r}"
        j = eq + 2
        raw: list[str] = []
        while text[j] != '"':
            if text[j] == "\\":
                raw.append(text[j:j + 2])
                j += 2
            else:
                raw.append(text[j])
                j += 1
        labels[key] = _unescape_label_value("".join(raw))
        i = j + 1
    return labels


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def registry_to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format.

    Quantile sketches render as the ``summary`` family —
    ``name{quantile="0.5"} v`` rows plus ``_sum`` / ``_count`` — exactly
    as Prometheus client libraries expose pre-computed quantiles.
    """
    lines: list[str] = []
    for inst in registry.instruments():
        name = _prom_name(inst.name)
        if inst.help:
            lines.append(f"# HELP {name} {inst.help}")
        if isinstance(inst, QuantileSketch):
            lines.append(f"# TYPE {name} summary")
            for q in inst.quantiles:
                lines.append(
                    f'{name}{{quantile="{_prom_value(q)}"}} '
                    f"{_prom_value(inst.quantile(q))}"
                )
            lines.append(f"{name}_sum {_prom_value(inst.total)}")
            lines.append(f"{name}_count {inst.count}")
        else:
            lines.append(f"# TYPE {name} {inst.kind}")
            lines.append(f"{name} {_prom_value(inst.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def timeseries_to_prometheus(ring: TimeSeriesRing,
                             name: str = "repro_timeseries") -> str:
    """Render a ring's *latest* samples as one labelled gauge family.

    Each series becomes ``name{series="<series name>"} <latest value>``
    (label values escaped), which is how a scrape endpoint would expose
    the dashboard's instantaneous view; the full window travels via
    :func:`timeseries_to_jsonl`.
    """
    name = _prom_name(name)
    lines = [f"# TYPE {name} gauge"]
    for series in ring.names():
        latest = ring.latest(series)
        if latest is None:
            continue
        lines.append(
            f'{name}{{series="{_escape_label_value(series)}"}} '
            f"{_prom_value(latest[1])}"
        )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse :func:`registry_to_prometheus` output back into plain data.

    Returns ``{prom_name: entry}`` where the entry is
    ``{"type": ..., "value": ...}`` for scalars,
    ``{"type": "summary", "quantiles": {q: value}, "sum", "count"}``
    for quantile sketches, and any other labelled
    samples (e.g. the time-series gauge family) accumulate under
    ``"samples": [{"labels": {...}, "value": ...}]`` with label escapes
    undone — enough for round-trip tests and for scrapers that only need
    values.
    """
    out: dict[str, dict] = {}
    types: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            types[name] = kind
            entry: dict[str, object] = {"type": kind}
            if kind == "summary":
                entry["quantiles"] = {}
            out[name] = entry
            continue
        if line.startswith("#"):
            continue
        sample, value_text = line.rsplit(None, 1)
        value = float(value_text)
        if "{" in sample:
            base, label_part = sample.split("{", 1)
            labels = _parse_labels(label_part.rstrip().rstrip("}"))
            if "quantile" in labels and types.get(base) == "summary":
                out[base]["quantiles"][labels["quantile"]] = value
                continue
            out.setdefault(base, {"type": types.get(base, "untyped")})
            out[base].setdefault("samples", []).append(
                {"labels": labels, "value": value})
            continue
        for suffix in ("_sum", "_count"):
            base = sample[: -len(suffix)] if sample.endswith(suffix) else None
            if base is not None and types.get(base) == "summary":
                out[base][suffix[1:]] = value
                break
        else:
            out.setdefault(sample, {"type": types.get(sample, "untyped")})
            out[sample]["value"] = value
    return out


def registry_to_jsonl(registry: MetricsRegistry) -> str:
    """Serialise the registry as JSONL (one instrument per line)."""
    lines: list[str] = []
    for inst in registry.instruments():
        record: dict[str, object] = {
            "name": inst.name,
            "kind": inst.kind,
            "help": inst.help,
        }
        if isinstance(inst, QuantileSketch):
            record["state"] = inst.state()
            record["summary"] = inst.summary()
        else:
            record["value"] = inst.value
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def registry_from_jsonl(text: str) -> MetricsRegistry:
    """Rebuild a registry written by :func:`registry_to_jsonl`.

    Restores instrument state directly (bypassing the enabled-flag gate),
    so exported registries round-trip regardless of the master switch.
    """
    registry = MetricsRegistry()
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        name, help_ = record["name"], record.get("help", "")
        if record["kind"] == "counter":
            registry.counter(name, help_).value = float(record["value"])
        elif record["kind"] == "gauge":
            registry.gauge(name, help_).value = float(record["value"])
        elif record["kind"] == "quantile":
            state = record["state"]
            registry.quantile(
                name, help_, capacity=int(state["capacity"]),
                quantiles=tuple(state["quantiles"]),
            ).restore(state)
        else:
            # not a kind this registry has (e.g. "histogram")
            raise ValueError(
                f"metric {name!r}: unsupported instrument kind {record['kind']!r}"
            )
    return registry


def registry_to_table(registry: MetricsRegistry) -> Table:
    """Counters/gauges/quantile summaries as a fixed-width table."""
    table = Table("metrics", ["metric", "kind", "value", "detail"])
    for inst in registry.instruments():
        if isinstance(inst, QuantileSketch):
            detail = " ".join(
                [f"count={inst.count}", f"mean={inst.mean:.3f}"]
                + [f"{k}={v:g}" for k, v in inst.quantile_values().items()]
                + [f"max={inst.max_value:g}"]
            )
            table.add_row([inst.name, inst.kind, inst.total, detail])
        else:
            table.add_row([inst.name, inst.kind, inst.value, "-"])
    return table


# --------------------------------------------------------------------- #
# time-series ring → JSONL
# --------------------------------------------------------------------- #
def timeseries_to_jsonl(ring: TimeSeriesRing) -> str:
    """Serialise a ring's full window (one JSON object per series)."""
    lines: list[str] = []
    for name in ring.names():
        ts, values = ring.series(name)
        lines.append(json.dumps(
            {"series": name, "timestamps": ts.tolist(),
             "values": values.tolist()},
            sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def timeseries_from_jsonl(text: str, capacity: int | None = None,
                          ) -> TimeSeriesRing:
    """Rebuild a ring written by :func:`timeseries_to_jsonl`.

    ``capacity`` defaults to the longest serialised series, so a full
    round-trip is lossless.
    """
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if capacity is None:
        capacity = max((len(r["values"]) for r in records), default=1) or 1
    ring = TimeSeriesRing(capacity)
    for record in records:
        ring.ensure(record["series"])
        for ts, value in zip(record["timestamps"], record["values"]):
            ring.record(record["series"], value, ts=ts)
    return ring
