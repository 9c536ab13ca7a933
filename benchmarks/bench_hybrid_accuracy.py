"""E15 — Sec. V.B hybrid-engine claims: speedups and prediction accuracy.

Three claims from the paper:
  (1) hybrid improves up to ~2x over incremental processing,
  (2) hybrid improves up to ~3x over full processing,
  (3) the inference box's per-iteration predictions are ~97% correct.

Protocol: the Figs. 11-13 loop (batched load, analytics after every
batch) in all three policies; prediction correctness is judged against
a cost-model oracle — for every hybrid iteration, both modes' costs on
that iteration's frontier are estimated and the chosen mode is correct
iff it matches the cheaper one.
"""

import numpy as np
import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.reporting import Table
from repro.core.config import EngineConfig
from repro.core.stats import AccessStats
from repro.core.store import create_store
from repro.engine import HybridEngine
from repro.engine.algorithms import BFS, ConnectedComponents
from repro.engine.modes import FULL, INCREMENTAL
from repro.workloads.streams import highest_degree_roots, symmetrize

from _common import emit, emit_line, stream_for


def estimate_costs(store, n_active: int, frontier_degree_sum: int,
                   n_edges: int) -> tuple[float, float]:
    """Cost-model estimates of one FP vs one IP iteration."""
    cfg = store.config
    cal_blocks = max(1, n_edges // cfg.cal_block_size)
    fp = MODEL.seq_block * cal_blocks + MODEL.cell_op * cal_blocks * cfg.cal_block_size
    blocks_per_vertex = 1.2
    ip = n_active * blocks_per_vertex * (
        MODEL.random_block + MODEL.cell_op * cfg.pagewidth
    )
    return fp, ip


def run_policy(policy: str, program_cls, undirected: bool):
    stream = stream_for("rmat_1m_10m", n_batches=4)
    edges = symmetrize(stream.edges) if undirected else stream.edges
    from repro.workloads.streams import EdgeStream

    stream = EdgeStream(edges, max(1, edges.shape[0] // 4))
    roots = None if undirected else [int(highest_degree_roots(edges, 1)[0])]
    store = create_store("graphtinker")
    cfg = EngineConfig(threshold=MODEL.hybrid_threshold())
    merged = AccessStats()
    work = 0
    correct = total = 0
    for batch in stream.insert_batches():
        store.insert_batch(batch)
        engine = HybridEngine(store, program_cls(), config=cfg, policy=policy)
        engine.reset(roots=np.asarray(roots or [], dtype=np.int64))
        engine.mark_inconsistent(batch)
        before = store.stats.snapshot()
        result = engine.compute()
        merged.merge(store.stats.delta(before))
        work += store.n_edges
        if policy == "hybrid":
            for rec in result.iterations:
                fp, ip = estimate_costs(store, rec.n_active, 0, store.n_edges)
                oracle = FULL if fp < ip else INCREMENTAL
                total += 1
                correct += rec.mode == oracle
    throughput = MODEL.throughput(work, merged)
    accuracy = correct / total if total else float("nan")
    return throughput, accuracy


@pytest.mark.benchmark(group="hybrid-accuracy")
def test_hybrid_speedups_and_prediction_accuracy(benchmark):
    def run_all():
        out = {}
        for algo_name, cls, undirected in (
            ("BFS", BFS, False), ("CC", ConnectedComponents, True)
        ):
            for policy in ("hybrid", "full", "incremental"):
                out[(algo_name, policy)] = run_policy(policy, cls, undirected)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Hybrid engine: speedups over fixed modes + prediction accuracy",
        ["algorithm", "hybrid", "FP", "IP", "hybrid/FP", "hybrid/IP", "pred-accuracy"],
    )
    for algo_name in ("BFS", "CC"):
        hy, acc = results[(algo_name, "hybrid")]
        fp, _ = results[(algo_name, "full")]
        ip, _ = results[(algo_name, "incremental")]
        table.add_row([algo_name, hy, fp, ip, hy / fp, hy / ip, acc])
    emit(table)
    emit_line("   (paper: up to 2x over IP, up to 3x over FP, ~97% correct predictions)")

    for algo_name in ("BFS", "CC"):
        hy, acc = results[(algo_name, "hybrid")]
        fp, _ = results[(algo_name, "full")]
        ip, _ = results[(algo_name, "incremental")]
        # hybrid is never materially worse than either fixed mode,
        assert hy >= 0.95 * fp, algo_name
        assert hy >= 0.95 * ip, algo_name
        # and beats at least one of them clearly.
        assert hy > 1.2 * min(fp, ip), algo_name
        # predictions track the cost-model oracle (paper: ~97%).
        assert acc > 0.85, (algo_name, acc)
