"""Observability overhead bench — enabled vs disabled ingest wall-clock.

The telemetry layer's contract (docs/observability.md) has two halves:

* **disabled**: bit-identical behaviour — one flag check per batch, so
  the cost-model numbers cannot move.  (The differential tests pin
  that.)
* **enabled at default sampling**: close enough to free that leaving it
  on in a soak run is reasonable.  This bench pins that half: ingesting
  a 100k-edge RMAT stream with the full metric/sketch/recorder pipeline
  enabled must stay within ``OVERHEAD_MAX`` (10% by default; override
  with ``REPRO_OBS_OVERHEAD_MAX`` for noisy shared runners) of the
  disabled run.

Each mode is timed best-of-``N_ROUNDS`` to damp scheduler noise; both
modes ingest identical streams through identical fresh stores.
"""

import gc
import os
import time

import pytest

import repro.obs as obs
from repro.bench.reporting import Table
from repro.core.store import create_store
from repro.workloads import rmat_edges
from repro.workloads.streams import EdgeStream

from _common import emit

N_EDGES = int(os.environ.get("REPRO_OBS_BENCH_EDGES", "100000"))
SCALE = 16
N_BATCHES = 32
N_ROUNDS = 3
OVERHEAD_MAX = float(os.environ.get("REPRO_OBS_OVERHEAD_MAX", "0.10"))


def _ingest_once(enabled: bool) -> float:
    edges = rmat_edges(SCALE, N_EDGES, seed=7)
    stream = EdgeStream(edges, max(1, N_EDGES // N_BATCHES))
    store = create_store("graphtinker")
    gc.collect()
    gc.disable()
    try:
        with obs.enabled_scope(enabled):
            t0 = time.perf_counter()
            for batch in stream.insert_batches():
                store.insert_batch(batch)
            return time.perf_counter() - t0
    finally:
        gc.enable()


def run_all():
    # Warm the path (allocator pools, lazy obs imports) before timing.
    warm = create_store("graphtinker")
    with obs.enabled_scope(True):
        warm.insert_batch(rmat_edges(SCALE, 5_000, seed=3))
    obs.get_registry().reset()
    # Interleave the modes so drift (thermal, page cache) hits both.
    t_off = min(_ingest_once(False) for _ in range(N_ROUNDS))
    t_on = min(_ingest_once(True) for _ in range(N_ROUNDS))
    return {"t_off": t_off, "t_on": t_on}


@pytest.mark.benchmark(group="obs")
def test_obs_overhead_within_budget(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    overhead = results["t_on"] / results["t_off"] - 1.0

    table = Table(
        f"observability overhead ({N_EDGES} RMAT edges, {N_BATCHES} batches)",
        ["obs", "wall seconds", "edges/s", "overhead"],
    )
    table.add_row(["disabled", results["t_off"],
                   N_EDGES / results["t_off"], "-"])
    table.add_row(["enabled", results["t_on"],
                   N_EDGES / results["t_on"], f"{overhead:+.1%}"])
    emit(table)

    assert overhead <= OVERHEAD_MAX, (
        f"enabled-mode ingest overhead {overhead:+.1%} exceeds budget "
        f"{OVERHEAD_MAX:.0%}"
    )
