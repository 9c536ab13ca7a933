"""Shared driver for the Figs. 11-13 analytics benchmarks.

Protocol (paper Sec. V.B): edges are loaded in batches; after each batch
the engine runs the algorithm on the current graph.  Four configurations
per dataset: GraphTinker with the hybrid engine in FP / IP / hybrid
policies, and STINGER (FP, its natural mode).  The figure reports
processing throughput (edges processed per unit time) per dataset.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import analytics_after_each_batch
from repro.bench.reporting import Table
from repro.core.config import EngineConfig
from repro.core.stats import AccessStats
from repro.core.store import create_store
from repro.workloads.streams import highest_degree_roots, symmetrize

from _common import emit, stream_for

#: Datasets used by the analytics figures (a representative subset keeps
#: the bench under a minute; set REPRO_BENCH_EDGES higher for more).
ANALYTICS_DATASETS = ["rmat_1m_10m", "rmat_500k_8m", "hollywood_like"]

CONFIGS = [
    ("GT-hybrid", "graphtinker", "hybrid"),
    ("GT-FP", "graphtinker", "full"),
    ("GT-IP", "graphtinker", "incremental"),
    ("STINGER-FP", "stinger", "full"),
]


def run_figure(program_factory: Callable, needs_roots: bool, undirected: bool,
               weighted: bool = False):
    """Run the four configurations over the figure's datasets.

    Throughput is TEPS-style: the numerator aggregates the live graph
    size at each analytics pass (the paper's Medges/s y-axis), the
    denominator the modeled access cost — so redundant re-streaming by
    full mode shows up as cost, not as credit.

    Returns {(dataset, label): modeled_throughput}.
    """
    import numpy as np

    out = {}
    for dataset in ANALYTICS_DATASETS:
        base_stream = stream_for(dataset, n_batches=4)
        edges = base_stream.edges
        if undirected:
            edges = symmetrize(edges)
        weights = (
            np.random.default_rng(7).uniform(0.1, 2.0, edges.shape[0])
            if weighted else None
        )
        roots = (
            highest_degree_roots(edges, 1).tolist() if needs_roots else None
        )
        # Calibrate the hybrid threshold to the cost model's IP/FP
        # break-even (the paper calibrated its 0.02 with hardware
        # experiments; see CostModel.hybrid_threshold).
        engine_cfg = EngineConfig(threshold=MODEL.hybrid_threshold())
        for label, kind, policy in CONFIGS:
            from repro.workloads.streams import EdgeStream

            stream = EdgeStream(edges, max(1, edges.shape[0] // 4))
            store = create_store(kind)
            measurements = analytics_after_each_batch(
                store, stream, program_factory, policy, roots=roots,
                weights=weights, engine_kwargs={"config": engine_cfg},
            )
            merged = AccessStats()
            work = 0
            for m in measurements:
                merged.merge(m.stats_delta)
                work += m.graph_edges
            out[(dataset, label)] = MODEL.throughput(work, merged)
    return out


def report_and_check(results: dict, figure: str, algo: str) -> None:
    table = Table(
        f"{figure}: {algo} processing throughput per dataset",
        ["dataset"] + [label for label, *_ in CONFIGS] + ["GT-FP/STINGER", "hybrid/best-fixed"],
    )
    for dataset in ANALYTICS_DATASETS:
        row = [results[(dataset, label)] for label, *_ in CONFIGS]
        gt_fp = results[(dataset, "GT-FP")]
        stinger = results[(dataset, "STINGER-FP")]
        hybrid = results[(dataset, "GT-hybrid")]
        best_fixed = max(results[(dataset, "GT-FP")], results[(dataset, "GT-IP")])
        table.add_row([dataset] + row + [gt_fp / stinger, hybrid / best_fixed])
    emit(table)

    for dataset in ANALYTICS_DATASETS:
        gt_fp = results[(dataset, "GT-FP")]
        stinger = results[(dataset, "STINGER-FP")]
        hybrid = results[(dataset, "GT-hybrid")]
        gt_ip = results[(dataset, "GT-IP")]
        # Paper shape: GraphTinker's FP (CAL streaming) beats STINGER's
        # chain-sweep FP on every dataset.
        assert gt_fp > stinger, (dataset, gt_fp, stinger)
        # The hybrid engine is never (materially) worse than either fixed
        # mode; small tolerance covers its one-iteration misprediction tail.
        assert hybrid >= 0.9 * max(gt_fp, gt_ip), dataset
