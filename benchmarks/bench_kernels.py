"""Kernel bench — vectorized vs scalar batch-update wall-clock.

The vector kernel (``repro.core.kernels``) must be *behaviourally
invisible*: bit-identical store state and bit-identical ``AccessStats``
versus the scalar reference for any input stream.  Its only licensed
effect is wall-clock speed.  This bench pins both halves of that
contract on the acceptance workload — a 100k-edge RMAT stream inserted
batch-by-batch, then deleted in seeded-shuffled batches of the same size
(the Figs. 8/14 protocol):

* **speed**: the vector kernel must beat the scalar kernel by at least
  ``SPEEDUP_FLOOR`` on the insert phase and on the delete phase, each on
  its own (3x by default; override with ``REPRO_KERNEL_SPEEDUP_FLOOR``
  for noisy shared runners);
* **equivalence**: the loaded edge sets, the full stats dict after each
  phase and the emptied stores must be equal — a slow correct kernel
  fails the first assert, a fast wrong one fails the second.
"""

import gc
import os
import time
from functools import partial

import pytest

from repro.bench.reporting import Table
from repro.core.store import create_store
from repro.workloads import rmat_edges
from repro.workloads.streams import EdgeStream

from _common import emit

N_EDGES = 100_000
SCALE = 16
N_BATCHES = 4
SPEEDUP_FLOOR = float(os.environ.get("REPRO_KERNEL_SPEEDUP_FLOOR", "3.0"))


def _timed(store_op, batches) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for batch in batches:
            store_op(batch)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _ingest_then_delete(kernel: str) -> dict:
    edges = rmat_edges(SCALE, N_EDGES, seed=7)
    stream = EdgeStream(edges, max(1, N_EDGES // N_BATCHES))
    store = create_store("graphtinker")
    t_insert = _timed(partial(store.insert_batch, kernel=kernel),
                      stream.insert_batches())
    loaded = {
        "edges": sorted(zip(*(a.tolist() for a in store.edge_arrays()))),
        "stats": store.stats.as_dict(),
    }
    t_delete = _timed(partial(store.delete_batch, kernel=kernel),
                      stream.delete_batches(seed=7))
    return {"t_insert": t_insert, "t_delete": t_delete, "loaded": loaded,
            "emptied_stats": store.stats.as_dict(), "n_left": store.n_edges}


def run_all():
    # Warm both code paths (allocator pools, lazy imports, branch caches)
    # on a small prefix so the timed runs compare kernels, not cold starts.
    prefix = rmat_edges(SCALE, 5_000, seed=3)
    for kernel in ("scalar", "vector"):
        warm = create_store("graphtinker")
        warm.insert_batch(prefix, kernel=kernel)
        warm.delete_batch(prefix, kernel=kernel)
    return {kernel: _ingest_then_delete(kernel) for kernel in ("scalar", "vector")}


@pytest.mark.benchmark(group="kernels")
def test_vector_kernel_speedup_and_equivalence(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    scalar, vector = results["scalar"], results["vector"]
    speedup = {phase: scalar[f"t_{phase}"] / vector[f"t_{phase}"]
               for phase in ("insert", "delete")}

    table = Table(
        f"batch-update kernels ({N_EDGES} RMAT edges, {N_BATCHES} batches a phase)",
        ["phase", "kernel", "wall seconds", "edges/s", "speedup"],
    )
    for phase in ("insert", "delete"):
        for kernel, res, ratio in (("scalar", scalar, 1.0),
                                   ("vector", vector, speedup[phase])):
            wall = res[f"t_{phase}"]
            table.add_row([phase, kernel, wall, N_EDGES / wall, ratio])
    emit(table)

    # Equivalence first: a fast-but-wrong kernel must not pass.
    assert vector["loaded"] == scalar["loaded"]
    assert vector["emptied_stats"] == scalar["emptied_stats"]
    assert vector["n_left"] == scalar["n_left"] == 0
    # Then the acceptance speedup on the interpreter clock, per phase.
    for phase, ratio in speedup.items():
        assert ratio >= SPEEDUP_FLOOR, (
            f"vector kernel {phase} speedup {ratio:.2f}x below floor {SPEEDUP_FLOOR}x"
        )
