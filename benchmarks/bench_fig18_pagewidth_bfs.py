"""E12 — Fig. 18: effect of PAGEWIDTH on analytics (BFS, IP mode).

Protocol: for each PAGEWIDTH, load the hollywood-like graph and run BFS
with the engine pinned to incremental processing — the mode that reads
the EdgeblockArray itself, whose layout PAGEWIDTH controls (full mode
reads the CAL and would mask the effect; the paper selects IP for the
same reason).

Expected shape: the ordering reverses relative to Fig. 17 — smaller
PAGEWIDTH gives a more compact EdgeblockArray and therefore *better*
analytics throughput.
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import analytics_once
from repro.bench.reporting import Table
from repro.core.config import GTConfig
from repro.core.store import create_store
from repro.engine.algorithms import BFS
from repro.workloads.streams import highest_degree_roots

from _common import emit, stream_for

PAGEWIDTHS = [16, 32, 64, 128, 256]


def run_all():
    out = {}
    stream = stream_for("hollywood_like", n_batches=1)
    root = int(highest_degree_roots(stream.edges, 1)[0])
    for pw in PAGEWIDTHS:
        store = create_store("graphtinker", GTConfig(pagewidth=pw))
        store.insert_batch(stream.edges)
        store.stats.reset()
        m = analytics_once(store, BFS, "incremental", roots=[root])
        out[pw] = m.modeled_throughput(MODEL)
    return out


@pytest.mark.benchmark(group="fig18")
def test_fig18_pagewidth_bfs_ip_throughput(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Fig. 18: BFS (IP mode) throughput vs PAGEWIDTH (hollywood_like)",
        ["PAGEWIDTH", "modeled throughput"],
    )
    for pw in PAGEWIDTHS:
        table.add_row([pw, results[pw]])
    emit(table)

    # Smaller PAGEWIDTH -> better IP analytics (denser EdgeblockArray).
    assert results[16] > results[256]
    assert results[32] > results[128]
