"""E9 — Fig. 15: BFS throughput as edges are deleted (rmat_2m_32m).

Protocol: load fully; delete in batches; after every deletion batch run
BFS (full-processing mode) on the surviving graph.  Compares the effect
of the two GraphTinker deletion mechanisms — and STINGER — on the
*analytics* side.

Expected shapes: delete-and-compact yields better analytics throughput
than delete-only, with the gap growing as more edges are deleted
(the paper: ~1.2x at half deleted, up to ~4x near empty); delete-only's
analytics throughput degrades because tombstoned cells still occupy the
retrieval path while the live edge count shrinks; both beat STINGER.
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

SYSTEMS = [
    ("delete-only", "graphtinker", GTConfig()),
    ("delete-and-compact", "graphtinker", GTConfig(compact_on_delete=True)),
    ("STINGER", "stinger", None),
]
N_BATCHES = 6


def run_all():
    out = {}
    for label, kind, cfg in SYSTEMS:
        stream = stream_for("rmat_2m_32m", n_batches=N_BATCHES)
        root = int(highest_degree_roots(stream.edges, 1)[0])
        store = create_store(kind, cfg)
        store.insert_batch(stream.edges)
        series = []
        for batch in stream.delete_batches(seed=3):
            store.delete_batch(batch)
            if store.n_edges == 0:
                break
            m = analytics_once(store, BFS, "full", roots=[root])
            series.append(m.modeled_throughput(MODEL))
        out[label] = series
    return out


@pytest.mark.benchmark(group="fig15")
def test_fig15_bfs_throughput_after_deletions(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    n = min(len(s) for s in results.values())
    table = Table(
        "Fig. 15: BFS (FP) throughput vs edges deleted (rmat_2m_32m)",
        ["mechanism"] + [f"after-del{i}" for i in range(n)],
    )
    for label, *_ in SYSTEMS:
        table.add_row([label] + results[label][:n])
    emit(table)

    do = results["delete-only"][:n]
    dc = results["delete-and-compact"][:n]
    st = results["STINGER"][:n]
    # compact beats delete-only for analytics, increasingly so.
    assert dc[-1] > do[-1]
    assert dc[-1] / do[-1] > dc[0] / do[0]
    # delete-only analytics degrade as deletions accumulate.
    assert do[-1] < do[0]
    # both GraphTinker mechanisms beat STINGER.
    assert all(a > c for a, c in zip(dc, st))
