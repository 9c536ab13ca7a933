"""Extension bench — Inference-Box heuristics (Sec. IV.B future work).

The paper's future work: "factor in other heuristics such as number of
degrees of the active vertices ... in order to attain higher predictive
accuracy".  This bench compares the published ratio predictor (T = A/E)
against the degree predictor (T' = D/E, D = total out-degree of the
active set) on a hub-heavy graph, where a small-but-hub-laden frontier
makes the two disagree: the degree predictor sees the real incremental
work, the ratio predictor undercounts it.
"""

import numpy as np
import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.reporting import Table
from repro.core.config import EngineConfig
from repro.core.stats import AccessStats
from repro.core.store import create_store
from repro.engine import BFS, HybridEngine
from repro.workloads.streams import EdgeStream, highest_degree_roots

from _common import emit, emit_line, stream_for


def run_predictor(predictor: str):
    stream = stream_for("hollywood_like", n_batches=4)
    root = int(highest_degree_roots(stream.edges, 1)[0])
    avg_degree = stream.edges.shape[0] / np.unique(stream.edges[:, 0]).shape[0]
    threshold = (
        MODEL.hybrid_threshold()
        if predictor == "ratio"
        else MODEL.hybrid_threshold_degree(avg_degree)
    )
    cfg = EngineConfig(predictor=predictor, threshold=threshold)
    store = create_store("graphtinker")
    merged = AccessStats()
    work = 0
    flips = 0
    for batch in stream.insert_batches():
        store.insert_batch(batch)
        engine = HybridEngine(store, BFS(), config=cfg)
        engine.reset(roots=[root])
        engine.mark_inconsistent(batch)
        before = store.stats.snapshot()
        result = engine.compute()
        merged.merge(store.stats.delta(before))
        work += store.n_edges
        modes = result.modes_used()
        flips += sum(a != b for a, b in zip(modes, modes[1:]))
    return MODEL.throughput(work, merged), flips


@pytest.mark.benchmark(group="predictor-ablation")
def test_predictor_ablation(benchmark):
    def run_all():
        return {p: run_predictor(p) for p in ("ratio", "degree")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Inference-Box predictor ablation (BFS, hollywood_like)",
        ["predictor", "modeled throughput", "mode flips"],
    )
    for p in ("ratio", "degree"):
        tp, flips = results[p]
        table.add_row([p, tp, flips])
    emit(table)
    emit_line("   (ratio = published T=A/E; degree = future-work T'=D/E)")

    # Finding: with a cost-calibrated threshold the *published* ratio
    # predictor is already near the oracle (see bench_hybrid_accuracy),
    # leaving the degree heuristic little headroom — consistent with the
    # paper reporting 97% accuracy from the simple formula.  The degree
    # variant must stay in the same winning regime (well above either
    # fixed mode; see Figs. 11-13 where best-fixed trails hybrid by 25%+).
    ratio_tp, _ = results["ratio"]
    degree_tp, _ = results["degree"]
    assert degree_tp >= 0.75 * ratio_tp
    assert ratio_tp >= 0.75 * degree_tp
