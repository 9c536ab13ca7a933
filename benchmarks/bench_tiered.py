"""Tiered-store ingest bench — every registered backend, two degree shapes.

The degree-tiered store's pitch is *shape robustness*: one layout per
degree class instead of one layout for all rows.  A power-law (Graph500
RMAT) stream concentrates edges on hubs — the large-tier workload; a
uniform stream (a=b=c=d=0.25) spreads degree thinly — the inline tier's
home turf.  This bench ingests the same two streams into **every**
backend registered in :mod:`repro.core.store` and pins the claim:

* **robustness**: on each shape, TieredStore's wall throughput must be
  no worse than ``TIERED_FLOOR`` x the *slowest* single-layout backend
  (default 0.7; override with ``REPRO_TIERED_FLOOR`` on noisy runners).
  The tiered store pays per-edge promotion checks, so it need not win —
  it must merely never be the outlier;
* **equivalence**: every backend finishes with the same edge count as
  the tiered store (same dedup semantics on the duplicate-heavy RMAT
  stream);
* **occupancy**: the tier report is emitted per shape, and the
  power-law run must actually populate the upper tiers (promotions > 0).
"""

import gc
import os
import time

import pytest

from repro.bench.reporting import Table
from repro.core.store import backend_names, create_store
from repro.workloads import rmat_edges

from _common import edge_budget, emit, emit_line

SCALE = 13
N_BATCHES = 4
TIERED_FLOOR = float(os.environ.get("REPRO_TIERED_FLOOR", "0.7"))

SHAPES = {
    "power_law": {},                                       # Graph500 a,b,c,d
    "uniform": dict(a=0.25, b=0.25, c=0.25, d=0.25, noise=0.0),
}


def _ingest(backend: str, edges) -> tuple[float, object]:
    store = create_store(backend)
    batch = max(1, edges.shape[0] // N_BATCHES)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for lo in range(0, edges.shape[0], batch):
            store.insert_batch(edges[lo:lo + batch])
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, store


def run_all():
    n_edges = edge_budget()
    backends = backend_names()
    results = {}
    for shape, kwargs in SHAPES.items():
        edges = rmat_edges(SCALE, n_edges, seed=11, **kwargs)
        # Warm each backend's code paths on a small prefix.
        for name in backends:
            create_store(name).insert_batch(edges[:2_000])
        per_backend = {}
        occupancy = None
        for name in backends:
            elapsed, store = _ingest(name, edges)
            per_backend[name] = {
                "wall_s": elapsed,
                "edges_per_s": n_edges / elapsed,
                "n_edges": store.n_edges,
            }
            if name == "tiered":
                occupancy = store.tier_occupancy()
        results[shape] = {"backends": per_backend, "occupancy": occupancy,
                          "n_edges_in": n_edges}
    return results


@pytest.mark.benchmark(group="tiered")
def test_tiered_ingest_robustness(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for shape, shape_res in results.items():
        per_backend = shape_res["backends"]
        table = Table(
            f"tiered ingest — {shape} RMAT "
            f"({shape_res['n_edges_in']} edges, scale {SCALE})",
            ["backend", "wall seconds", "edges/s", "final edges"],
        )
        for name, row in sorted(per_backend.items()):
            table.add_row([name, row["wall_s"], row["edges_per_s"],
                           row["n_edges"]])
        emit(table)
        occ = shape_res["occupancy"]
        emit_line(f"  tier occupancy [{shape}]: inline={occ['inline']} "
                  f"small={occ['small']} large={occ['large']} "
                  f"promotions={occ['promotions']} "
                  f"demotions={occ['demotions']}")

    for shape, shape_res in results.items():
        per_backend = shape_res["backends"]
        # Same dedup semantics everywhere: identical final edge counts.
        counts = {name: row["n_edges"] for name, row in per_backend.items()}
        assert len(set(counts.values())) == 1, counts
        # Robustness floor: tiered is never the outlier.
        tiered = per_backend["tiered"]["edges_per_s"]
        worst = min(row["edges_per_s"] for name, row in per_backend.items()
                    if name != "tiered")
        assert tiered >= worst * TIERED_FLOOR, (
            f"{shape}: tiered {tiered:.0f} edges/s fell below "
            f"{TIERED_FLOOR}x the slowest single-layout backend "
            f"({worst:.0f} edges/s)"
        )
    # The skewed stream must actually exercise the tiers.
    assert results["power_law"]["occupancy"]["promotions"] > 0
    assert results["power_law"]["occupancy"]["large"] > 0
