#!/usr/bin/env python3
"""Multicore ingestion: interval-partitioned GraphTinker instances.

Reproduces Sec. III.D's parallelisation interactively: the update stream
is hash-partitioned by source vertex into independent GraphTinker
instances (no shared state), and per-batch makespans are reported for
1 / 2 / 4 / 8 modelled cores, alongside a real ``multiprocessing``
wall-clock demonstration.

Run:  python examples/parallel_updates.py
"""

import multiprocessing as mp
import time

import numpy as np

from repro import GraphTinker, GTConfig
from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.partitioned import PartitionedGraphTinker
from repro.workloads import rmat_edges
from repro.workloads.streams import EdgeStream


def _load_partition(edges: np.ndarray) -> int:
    """Worker: load one interval into a private instance (own process)."""
    gt = GraphTinker(GTConfig())
    gt.insert_batch(edges)
    return gt.n_edges


def main() -> None:
    edges = rmat_edges(14, 60_000, seed=3)
    edges = edges[edges[:, 0] != edges[:, 1]]
    stream = EdgeStream(edges, batch_size=15_000)

    # ---- modeled multicore scaling (the Fig. 10 mechanism) -----------
    print("modeled makespan scaling (max over partitions, per batch):")
    print(f"{'cores':>6} {'total makespan':>15} {'speedup':>8} {'edges':>8}")
    base = None
    for cores in (1, 2, 4, 8):
        store = PartitionedGraphTinker(cores)
        total = 0.0
        for batch in stream.insert_batches():
            deltas = store.insert_batch(batch)
            total += max(MODEL.cost(d) for d in deltas)
        base = base or total
        print(f"{cores:>6} {total:>15.0f} {base / total:>7.2f}x {store.n_edges:>8}")
        store.check_invariants()

    # ---- real processes: one interval per worker ----------------------
    print("\nwall-clock with real processes (one interval per worker):")
    for cores in (1, 4):
        splitter = PartitionedGraphTinker(cores)
        parts = splitter.partition_batch(edges)
        t0 = time.perf_counter()
        with mp.get_context("spawn").Pool(cores) as pool:
            counts = pool.map(_load_partition, parts)
        elapsed = time.perf_counter() - t0
        print(f"  {cores} workers: {elapsed:6.2f}s "
              f"({sum(counts)} edges across {cores} instances)")
    print("\nNote: process spawn + IPC overhead dominates at this scale; "
          "the modeled makespan is the controlled measurement (DESIGN.md §1).")


if __name__ == "__main__":
    main()
