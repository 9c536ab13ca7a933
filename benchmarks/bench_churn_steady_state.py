"""Extension bench — deletion mechanisms under steady-state churn.

The paper's deletion experiment (Fig. 14) drains a fully loaded graph;
production dynamic graphs instead *churn*: a sliding window inserts new
edges while expiring old ones, holding the live size constant.  This
bench runs both GraphTinker deletion mechanisms and STINGER through a
sustained sliding-window stream and reports equilibrium throughput and
footprint.

Expected shapes:

* delete-and-compact reaches a bounded footprint (freed blocks are
  reused), while delete-only's overflow region and CAL fragmentation
  grow monotonically with churn — tombstones never come back;
* consequently compact's *analytics* at equilibrium beat delete-only's;
* both GraphTinker variants sustain higher churn throughput than STINGER.
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import analytics_once
from repro.bench.reporting import Table
from repro.core.config import GTConfig
from repro.core.stats import AccessStats
from repro.core.store import create_store
from repro.engine.algorithms import BFS
from repro.workloads.churn import sliding_window
from repro.workloads.streams import highest_degree_roots

from _common import emit, stream_for

MECHANISMS = [
    ("delete-only", "graphtinker", GTConfig()),
    ("delete-and-compact", "graphtinker", GTConfig(compact_on_delete=True)),
    ("STINGER", "stinger", None),
]


def run_mechanism(label, kind, cfg, edges, window, step):
    store = create_store(kind, cfg)
    churn_stats = AccessStats()
    ops = 0
    for churn_step in sliding_window(edges, window, step):
        before = store.stats.snapshot()
        if churn_step.n_inserts:
            store.insert_batch(churn_step.inserts)
        if churn_step.n_deletes:
            store.delete_batch(churn_step.deletes)
        churn_stats.merge(store.stats.delta(before))
        ops += churn_step.n_inserts + churn_step.n_deletes
    churn_tp = MODEL.throughput(ops, churn_stats)

    root = int(highest_degree_roots(edges, 1)[0])
    m = analytics_once(store, BFS, "full", roots=[root])
    analytics_tp = m.modeled_throughput(MODEL)

    if kind == "graphtinker":
        footprint = store.eba.main.n_used + store.eba.overflow.n_used + store.cal.n_blocks
    else:
        footprint = store.pool.n_used
    return churn_tp, analytics_tp, footprint, store.n_edges


def run_all():
    stream = stream_for("rmat_1m_10m", n_batches=1)
    edges = stream.edges
    window = max(1, edges.shape[0] // 4)
    step = max(1, window // 4)
    return {
        label: run_mechanism(label, kind, cfg, edges, window, step)
        for label, kind, cfg in MECHANISMS
    }


@pytest.mark.benchmark(group="churn")
def test_steady_state_churn(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Steady-state sliding-window churn (live size held constant)",
        ["mechanism", "churn throughput", "equilibrium analytics",
         "blocks in use", "live edges"],
    )
    for label, *_ in MECHANISMS:
        churn_tp, analytics_tp, footprint, live = results[label]
        table.add_row([label, churn_tp, analytics_tp, footprint, live])
    emit(table)

    do = results["delete-only"]
    dc = results["delete-and-compact"]
    st = results["STINGER"]
    # compact bounds the footprint; delete-only's keeps the high-water mark
    assert dc[2] < do[2]
    # equilibrium analytics favour the compacting mechanism
    assert dc[1] > do[1]
    # both GraphTinker variants out-churn STINGER
    assert do[0] > st[0] and dc[0] > st[0]
    # live edge counts agree across mechanisms (same logical stream)
    assert do[3] == dc[3] == st[3]
