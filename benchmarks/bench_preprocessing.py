"""Extension bench — the "no pre-processing needed" claim (abstract, Sec. III.B).

The paper positions the CAL against the store-and-static-compute recipe
of converting to a compact form (CSR) before analytics: "SGH and CAL
dramatically improve the efficiency of the data structure without the
need for any form of pre-processing (making a pass over the graph to
sort or compact the data structure)".

Protocol: analytics-after-every-batch (the dynamic-graph reality) over
three stores:

* GraphTinker+CAL — O(1) compaction maintenance per update, streamed
  analytics, zero preprocessing;
* CSR-rebuild — ideal streaming, but a full sort+compact pass after
  every batch (the preprocessing bill);
* STINGER — no preprocessing, but no compaction either.

Expected shape: per analytics *pass alone* CSR is unbeatable (dense
sorted arrays); once the per-batch rebuild is included, GraphTinker+CAL
wins the combined loop — the paper's argument for maintaining the
compact copy incrementally.
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import analytics_once
from repro.bench.reporting import Table
from repro.baselines import CSRRebuildStore
from repro.core.stats import AccessStats
from repro.core.store import create_store
from repro.engine.algorithms import BFS
from repro.workloads.streams import highest_degree_roots

from _common import emit, stream_for


def run_store(store, stream, root):
    """Analytics after every batch; returns (work, update+prep cost, analytics cost)."""
    update_stats = AccessStats()
    analytics_stats = AccessStats()
    work = 0
    for batch in stream.insert_batches():
        before = store.stats.snapshot()
        store.insert_batch(batch)
        if isinstance(store, CSRRebuildStore):
            store.rebuild()  # the preprocessing pass, charged to updates
        update_stats.merge(store.stats.delta(before))
        before = store.stats.snapshot()
        analytics_once(store, BFS, "full", roots=[root])
        analytics_stats.merge(store.stats.delta(before))
        work += store.n_edges
    return work, update_stats, analytics_stats


def run_all():
    out = {}
    for kind in ("graphtinker", "csr", "stinger"):
        stream = stream_for("rmat_1m_10m", n_batches=6)
        root = int(highest_degree_roots(stream.edges, 1)[0])
        store = CSRRebuildStore() if kind == "csr" else create_store(kind)
        out[kind] = run_store(store, stream, root)
    return out


@pytest.mark.benchmark(group="preprocessing")
def test_no_preprocessing_claim(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Preprocessing ablation: updates(+prep) vs analytics cost, and combined throughput",
        ["store", "update+prep cost", "analytics cost", "analytics tput",
         "combined tput"],
    )
    combined = {}
    analytics_tp = {}
    for kind in ("graphtinker", "csr", "stinger"):
        work, upd, ana = results[kind]
        cu, ca = MODEL.cost(upd), MODEL.cost(ana)
        analytics_tp[kind] = work / ca if ca else float("inf")
        combined[kind] = work / (cu + ca)
        table.add_row([kind, cu, ca, analytics_tp[kind], combined[kind]])
    emit(table)

    # CSR's per-pass analytics are the gold standard; GraphTinker+CAL
    # reaches CSR-class streaming (within 20%) with zero preprocessing,
    assert analytics_tp["graphtinker"] > 0.8 * analytics_tp["csr"]
    # and both compact representations crush STINGER's raw sweep.
    assert analytics_tp["graphtinker"] > 5 * analytics_tp["stinger"]
    # On the combined dynamic loop, maintaining compaction incrementally
    # matches-or-beats rebuilding it per batch (and does so without the
    # rebuild's latency spike or double-buffered memory) — the paper's
    # "no pre-processing needed" claim.
    assert combined["graphtinker"] >= 0.9 * combined["csr"]
    assert combined["graphtinker"] > 4 * combined["stinger"]