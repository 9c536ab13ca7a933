"""Sharded-store ingest bench — measured wall-clock speedup at 4 shards.

The process-per-shard :class:`repro.core.sharded.ShardedStore` is the
repo's first *measured* multicore path (the ``PartitionedStore`` thread
path is GIL-serialized and deprecated).  This bench ingests one RMAT
stream through the plain backend, a 1-shard store, and a 4-shard store,
and reports:

* **measured** wall-clock throughput per configuration, and the 4-shard
  over 1-shard speedup (both pay the same pipe/IPC tax, so the ratio
  isolates the parallelism);
* **modeled** max-over-partitions makespan speedup from the same runs —
  the charging oracle (``last_batch_partitions``) that Fig. 10 uses,
  which is host-independent;
* **equivalence**: the 1-shard, 4-shard, and plain stores must finish
  with identical content digests (shard-count invariance).

The measured-speedup floor (``REPRO_SHARDED_FLOOR``, default 2.0) is
asserted **only when the host actually has >= 4 usable cores** — on a
smaller box a 4-shard run cannot physically beat 2x, and recording a
pass there would be fabrication.  The table header always prints the
host's core count so a reader can judge the measured numbers honestly.
"""

import gc
import os
import time

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.reporting import Table
from repro.core.config import ShardedConfig
from repro.core.sharded import ShardedStore
from repro.core.store import create_store, store_digest
from repro.workloads import rmat_edges

from _common import edge_budget, emit, emit_line

SCALE = 13
N_BATCHES = 4
SHARDS = 4
SHARDED_FLOOR = float(os.environ.get("REPRO_SHARDED_FLOOR", "2.0"))


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _ingest(store, edges) -> dict:
    batch = max(1, edges.shape[0] // N_BATCHES)
    makespans = []
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for lo in range(0, edges.shape[0], batch):
            store.insert_batch(edges[lo:lo + batch])
            if isinstance(store, ShardedStore):
                makespans.append(max(
                    (MODEL.cost(d) for d in store.last_batch_partitions),
                    default=0.0))
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    out = {
        "wall_s": elapsed,
        "edges_per_s": edges.shape[0] / elapsed,
        "n_edges": store.n_edges,
        "digest": store_digest(store),
        "modeled_makespan": sum(makespans) if makespans else None,
    }
    closer = getattr(store, "close", None)
    if closer is not None:
        closer()
    return out


def run_all():
    edges = rmat_edges(SCALE, edge_budget(), seed=11)
    # Warm the code paths (process spawn, kernels) outside the timers.
    warm = ShardedStore(ShardedConfig(n_shards=SHARDS))
    warm.insert_batch(edges[:2_000])
    warm.close()
    create_store("graphtinker").insert_batch(edges[:2_000])
    return {
        "plain": _ingest(create_store("graphtinker"), edges),
        "sharded1": _ingest(ShardedStore(ShardedConfig(n_shards=1)), edges),
        f"sharded{SHARDS}": _ingest(
            ShardedStore(ShardedConfig(n_shards=SHARDS)), edges),
        "n_edges_in": int(edges.shape[0]),
    }


@pytest.mark.benchmark(group="sharded")
def test_sharded_ingest_speedup(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    cores = _cores()
    one, many = results["sharded1"], results[f"sharded{SHARDS}"]

    table = Table(
        f"sharded ingest — RMAT scale {SCALE} "
        f"({results['n_edges_in']} edges, host cores: {cores})",
        ["configuration", "wall seconds", "edges/s", "final edges"],
    )
    for name in ("plain", "sharded1", f"sharded{SHARDS}"):
        row = results[name]
        table.add_row([name, row["wall_s"], row["edges_per_s"],
                       row["n_edges"]])
    emit(table)

    measured_speedup = many["edges_per_s"] / one["edges_per_s"]
    modeled_speedup = one["modeled_makespan"] / many["modeled_makespan"]
    emit_line(f"  measured {SHARDS}-shard/1-shard speedup: "
              f"{measured_speedup:.2f}x (wall; {cores} cores)")
    emit_line(f"  modeled makespan speedup: {modeled_speedup:.2f}x "
              f"(max-over-partitions oracle; host-independent)")

    # Shard-count invariance: identical content whatever the layout.
    assert one["digest"] == many["digest"] == results["plain"]["digest"]
    assert one["n_edges"] == many["n_edges"] == results["plain"]["n_edges"]
    # The modeled makespan must improve with shards on any host: that is
    # the paper's shared-nothing critical path, not a wall-clock claim.
    assert modeled_speedup > 1.0
    if cores >= SHARDS:
        assert measured_speedup >= SHARDED_FLOOR, (
            f"measured {SHARDS}-shard speedup {measured_speedup:.2f}x fell "
            f"below the {SHARDED_FLOOR}x floor on a {cores}-core host"
        )
    else:
        emit_line(f"  floor assertion skipped: host has {cores} core(s), "
                  f"needs >= {SHARDS} for a meaningful wall-clock claim")
