"""E10 — Fig. 16: average BFS/SSSP/CC throughput under deletions.

Protocol: as Fig. 15 but for all three algorithms, reporting the
*average* analytics throughput across the deletion sequence for each
deletion mechanism.  Expected shape: delete-and-compact's average beats
delete-only's for every algorithm; both beat STINGER.
"""

import numpy as np
import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import analytics_once
from repro.bench.reporting import Table
from repro.core.config import GTConfig
from repro.core.store import create_store
from repro.engine.algorithms import BFS, SSSP, ConnectedComponents
from repro.workloads.streams import EdgeStream, highest_degree_roots, symmetrize

from _common import emit, stream_for

MECHANISMS = [
    ("delete-only", "graphtinker", GTConfig()),
    ("delete-and-compact", "graphtinker", GTConfig(compact_on_delete=True)),
    ("STINGER", "stinger", None),
]
ALGOS = [("BFS", BFS, False), ("SSSP", SSSP, False), ("CC", ConnectedComponents, True)]


def run_all():
    base = stream_for("rmat_2m_32m", n_batches=4)
    out = {}
    for algo_name, program, undirected in ALGOS:
        edges = symmetrize(base.edges) if undirected else base.edges
        stream = EdgeStream(edges, max(1, edges.shape[0] // 4))
        roots = None if undirected else [int(highest_degree_roots(edges, 1)[0])]
        weights = (
            np.random.default_rng(5).uniform(0.1, 2.0, edges.shape[0])
            if algo_name == "SSSP" else None
        )
        for label, kind, cfg in MECHANISMS:
            store = create_store(kind, cfg)
            store.insert_batch(stream.edges, weights)
            series = []
            for batch in stream.delete_batches(seed=3):
                store.delete_batch(batch)
                if store.n_edges == 0:
                    break
                m = analytics_once(store, program, "full", roots=roots)
                series.append(m.modeled_throughput(MODEL))
            out[(algo_name, label)] = float(np.mean(series))
    return out


@pytest.mark.benchmark(group="fig16")
def test_fig16_average_analytics_under_deletions(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Fig. 16: average analytics throughput under deletions (rmat_2m_32m)",
        ["algorithm"] + [label for label, *_ in MECHANISMS] + ["compact/delete-only"],
    )
    for algo_name, *_ in ALGOS:
        row = [results[(algo_name, label)] for label, *_ in MECHANISMS]
        table.add_row([algo_name] + row + [row[1] / row[0]])
    emit(table)

    for algo_name, *_ in ALGOS:
        do = results[(algo_name, "delete-only")]
        dc = results[(algo_name, "delete-and-compact")]
        st = results[(algo_name, "STINGER")]
        assert dc > do, algo_name     # compact wins on average
        assert do > st or dc > st, algo_name
