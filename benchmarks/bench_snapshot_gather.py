"""Snapshot bench — CSR frontier gathers vs per-vertex walks, wall-clock.

The analytics snapshot (``repro.engine.snapshot``) carries the same
license as the batch-ingest kernels: *behaviourally invisible* — with it
on or off the engine computes bit-identical vertex properties,
iteration traces, and modeled ``AccessStats``; its only permitted effect
is wall-clock speed.  This bench pins both halves of that contract on
the acceptance workload — incremental BFS over a 100k-edge RMAT graph,
recomputed after each of several churn batches (the steady-state shape
the snapshot is built for: dirty-row patching instead of full rebuilds):

* **equivalence**, on ``graphtinker`` and on ``stinger``: final values,
  per-iteration modes, and the merged stats dict must be equal — a
  fast-but-wrong gather must not pass;
* **speed**: on ``stinger``, where the snapshot replaces a per-vertex
  chain walk, snapshot-on must beat snapshot-off by at least
  ``SPEEDUP_FLOOR`` (3x by default; override with
  ``REPRO_SNAPSHOT_SPEEDUP_FLOOR`` for noisy shared runners; the edge
  count scales down via ``REPRO_SNAPSHOT_BENCH_EDGES`` for smoke runs).
  On ``graphtinker`` both sides are level-synchronous — snapshot-off
  gathers each frontier with ``EdgeblockArray.neighbors_rows``,
  snapshot-on re-measures a round's dirty rows with one such pass and
  then serves CSR slices — so there snapshot-on must merely not be
  slower (``GT_FLOOR``: 1x, relaxed by the override in the same
  proportion as the ``stinger`` floor).  Both ratios are reported.
"""

import gc
import os
import time

import numpy as np
import pytest

from repro.bench.reporting import Table
from repro.core.store import create_store
from repro.engine.algorithms import BFS
from repro.engine.hybrid import HybridEngine
from repro.workloads import rmat_edges
from repro.workloads.streams import highest_degree_roots

from _common import emit

N_EDGES = int(os.environ.get("REPRO_SNAPSHOT_BENCH_EDGES", "100000"))
SCALE = 16
N_CHURN_ROUNDS = 3
CHURN_EDGES = 1_000
N_ROOTS = 4  # one BFS sweep per root per round — the amortization knob
DEFAULT_FLOOR = 3.0
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SNAPSHOT_SPEEDUP_FLOOR", DEFAULT_FLOOR))
GT_FLOOR = min(1.0, SPEEDUP_FLOOR / DEFAULT_FLOOR)


def _frontier_sweep(system: str, snapshot: bool):
    """Load the graph, then run per-root incremental BFS sweeps after
    each churn round (churn batches dirty a slice of the rows; the
    snapshot must patch those and serve the rest from cache)."""
    edges = rmat_edges(SCALE, N_EDGES, seed=7)
    roots = [int(r) for r in highest_degree_roots(edges, N_ROOTS)]
    store = create_store(system, snapshot=snapshot)
    store.insert_batch(edges)
    churn = rmat_edges(SCALE, CHURN_EDGES * N_CHURN_ROUNDS, seed=11)

    values = []
    modes: list[str] = []
    before = store.stats.snapshot()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for r in range(N_CHURN_ROUNDS + 1):
            if r:
                batch = churn[(r - 1) * CHURN_EDGES : r * CHURN_EDGES]
                store.delete_batch(batch[: CHURN_EDGES // 2])
                store.insert_batch(batch)
            for root in roots:
                engine = HybridEngine(store, BFS(), policy="incremental")
                engine.reset(roots=[root])
                result = engine.compute()
                values.append(engine.values)
                modes.extend(result.modes_used())
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return {
        "seconds": elapsed,
        "values": values,
        "modes": modes,
        "stats": store.stats.delta(before).as_dict(),
        "snapshot": store.analytics_snapshot,
    }


def run_all():
    """``{system: (off, on)}`` for the two snapshot-capable stores."""
    out = {}
    for system in ("graphtinker", "stinger"):
        # Warm both paths (lazy imports, allocator pools) on a small prefix.
        for snapshot in (False, True):
            warm = create_store(system, snapshot=snapshot)
            warm.insert_batch(rmat_edges(SCALE, 2_000, seed=3))
            eng = HybridEngine(warm, BFS(), policy="incremental")
            eng.reset(roots=[0])
            eng.compute()
        out[system] = (_frontier_sweep(system, snapshot=False),
                       _frontier_sweep(system, snapshot=True))
    return out


@pytest.mark.benchmark(group="snapshot")
def test_snapshot_gather_speedup_and_equivalence(benchmark):
    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    speedup = {system: off["seconds"] / on["seconds"]
               for system, (off, on) in runs.items()}

    table = Table(
        f"incremental-BFS frontier gathers ({N_EDGES} RMAT edges, "
        f"{N_CHURN_ROUNDS} churn rounds x {N_ROOTS} roots)",
        ["system", "snapshot", "wall seconds", "speedup", "hits", "rebuilds",
         "patched rows"],
    )
    for system, (off, on) in runs.items():
        snap = on["snapshot"]
        table.add_row([system, "off", off["seconds"], 1.0, "-", "-", "-"])
        table.add_row([system, "on", on["seconds"], speedup[system], snap.hits,
                       snap.rebuilds, snap.patched_rows])
    emit(table)

    # Equivalence first: the snapshot must be behaviourally invisible.
    for system, (off, on) in runs.items():
        assert len(on["values"]) == len(off["values"]), system
        for got, want in zip(on["values"], off["values"]):
            assert np.array_equal(got, want, equal_nan=True), system
        assert on["modes"] == off["modes"], system
        assert on["stats"] == off["stats"], system
        # Steady-state churn must patch rows, not rebuild from scratch
        # every round (one full measure on first use, then touched rows).
        assert on["snapshot"].rebuilds <= 1 + N_CHURN_ROUNDS, system
    # Then the acceptance speedups on the interpreter clock: the
    # snapshot replaces a per-vertex walk on stinger, and must not cost
    # more than it saves on graphtinker.
    for system, floor in (("stinger", SPEEDUP_FLOOR), ("graphtinker", GT_FLOOR)):
        assert speedup[system] >= floor, (
            f"snapshot gather speedup on {system} {speedup[system]:.2f}x "
            f"below floor {floor}x"
        )
