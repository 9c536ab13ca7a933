"""E3 — Fig. 9: insertion throughput across datasets.

Protocol: each Table 1 dataset is loaded in batches into GraphTinker and
STINGER; the figure reports overall insertion throughput per dataset.
Expected shape: GraphTinker wins on every dataset, and its advantage
grows with dataset size/density (STINGER's chain traversals grow with
degree; GraphTinker's descent is logarithmic).
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import insertion_run
from repro.bench.reporting import Table
from repro.core.stats import AccessStats
from repro.core.store import create_store
from repro.workloads.datasets import DATASET_ORDER

from _common import edge_budget, emit, stream_for


def run_all():
    out = {}
    for dataset in DATASET_ORDER:
        for kind in ("graphtinker", "stinger"):
            stream = stream_for(dataset, n_batches=4)
            store = create_store(kind)
            measurements = insertion_run(store, stream)
            merged = AccessStats()
            for m in measurements:
                merged.merge(m.stats_delta)
            out[(dataset, kind)] = (stream.n_edges, merged)
    return out


@pytest.mark.benchmark(group="fig09")
def test_fig09_insertion_throughput_across_datasets(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Fig. 9: insertion throughput per dataset (batched load)",
        ["dataset", "GraphTinker", "STINGER", "GT/STINGER"],
    )
    ratios = {}
    for dataset in DATASET_ORDER:
        n_gt, s_gt = results[(dataset, "graphtinker")]
        n_st, s_st = results[(dataset, "stinger")]
        tp_gt = MODEL.throughput(n_gt, s_gt)
        tp_st = MODEL.throughput(n_st, s_st)
        ratios[dataset] = tp_gt / tp_st
        table.add_row([dataset, tp_gt, tp_st, ratios[dataset]])
    emit(table)

    # Paper shape: GraphTinker wins on all datasets...
    assert all(r > 1.0 for r in ratios.values())
    # ...and the advantage is largest on the big dense (real-world-like)
    # graphs, exceeding the advantage on the smallest RMAT.
    dense_best = max(ratios["hollywood_like"], ratios["kron_like"])
    assert dense_best > ratios["rmat_500k_8m"]
