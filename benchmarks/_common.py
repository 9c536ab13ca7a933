"""Shared helpers for the per-figure benchmark files.

Every bench prints the same rows/series its paper counterpart reports.
Tables are written through :func:`emit`, which bypasses pytest's capture
so the rows appear in ``bench_output.txt`` even for passing benches.

Budgets: the paper loads full datasets (up to 182M edges) in 1M-edge
batches; pure-Python updates run at ~10^4-10^5 edges/s, so each bench
takes a *prefix* of the scaled dataset, split into the same number of
batches a figure needs to show its trend.  ``REPRO_BENCH_EDGES`` scales
all prefixes (default 48000 edges per run).
"""

from __future__ import annotations

import os
import sys

from repro.bench.reporting import Table
from repro.workloads import load_dataset
from repro.workloads.streams import EdgeStream


def edge_budget(default: int = 48_000) -> int:
    """Edges per experiment run (env ``REPRO_BENCH_EDGES``)."""
    raw = os.environ.get("REPRO_BENCH_EDGES", "")
    return int(raw) if raw else default


#: Rendered result tables, flushed to the terminal by the conftest's
#: ``pytest_terminal_summary`` hook (immune to pytest's output capture).
REPORTS: list[str] = []


def emit(table: Table) -> None:
    """Queue a result table for the end-of-run report (and echo live)."""
    text = table.render()
    REPORTS.append(text)
    print()
    print(text)
    sys.stdout.flush()


def emit_line(text: str) -> None:
    REPORTS.append(text)
    print(text)
    sys.stdout.flush()


def stream_for(dataset: str, n_edges: int | None = None, n_batches: int = 6) -> EdgeStream:
    """A batched stream over a prefix of a Table 1 dataset."""
    _, edges = load_dataset(dataset)
    budget = min(n_edges or edge_budget(), edges.shape[0])
    prefix = edges[:budget]
    batch = max(1, budget // n_batches)
    return EdgeStream(prefix, batch)

