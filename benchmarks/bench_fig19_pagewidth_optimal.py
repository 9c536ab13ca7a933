"""E13 — Fig. 19: choice of optimal PAGEWIDTH (update/analytics mix).

Protocol (paper Sec. V.B): for each dataset x PAGEWIDTH x
updates:analytics ratio, edges are inserted in batches; the insertion
process is intercepted `updates` times, each interception running
`analytics` BFS passes, each from a different one of the 20 pre-collected
highest-degree roots.  The figure reports total elapsed time averaged
across the ratios, per dataset and PAGEWIDTH.

The paper runs 360 experiments (6 datasets x 6 PAGEWIDTHs x 10 ratios);
this bench runs a reduced but structurally identical grid by default
(3 datasets x 4 PAGEWIDTHs x 3 ratios = 36 runs) — set
``REPRO_FIG19_FULL=1`` for the paper's full ratio spread.

Expected shape: mid PAGEWIDTH (64) has the lowest (best) average
combined time; the extremes lose — small PAGEWIDTH on update cost,
large PAGEWIDTH on analytics cost — most visibly on larger datasets.
"""

import os

import numpy as np
import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import analytics_once
from repro.bench.reporting import Table
from repro.core.config import GTConfig
from repro.core.store import create_store
from repro.workloads.streams import highest_degree_roots, interleaved_schedule
from repro.engine.algorithms import BFS

from _common import emit, stream_for

DATASETS = ["rmat_1m_10m", "rmat_2m_32m", "hollywood_like"]
PAGEWIDTHS = [8, 32, 64, 256]


def ratios():
    if os.environ.get("REPRO_FIG19_FULL"):
        return [(1, 10), (1, 7), (1, 4), (1, 1), (2, 2), (4, 7),
                (4, 1), (7, 1), (10, 1), (10, 10)]
    return [(1, 4), (2, 2), (4, 1)]


def run_experiment(dataset: str, pagewidth: int, updates: int, analytics: int) -> float:
    """Total modeled time of one update/analytics-mix experiment."""
    stream = stream_for(dataset, n_batches=6)
    roots = highest_degree_roots(stream.edges, 20)
    store = create_store("graphtinker", GTConfig(pagewidth=pagewidth))
    schedule = dict(interleaved_schedule(stream.n_batches, updates, analytics))
    total_cost = 0.0
    root_cycle = 0
    before = store.stats.snapshot()
    for i, batch in enumerate(stream.insert_batches()):
        store.insert_batch(batch)
        for _ in range(schedule.get(i, 0)):
            root = int(roots[root_cycle % len(roots)])
            root_cycle += 1
            analytics_once(store, BFS, "incremental", roots=[root])
    total_cost = MODEL.cost(store.stats.delta(before))
    return total_cost


def run_all():
    out = {}
    for dataset in DATASETS:
        for pw in PAGEWIDTHS:
            costs = [run_experiment(dataset, pw, u, a) for u, a in ratios()]
            out[(dataset, pw)] = float(np.mean(costs))
    return out


@pytest.mark.benchmark(group="fig19")
def test_fig19_optimal_pagewidth(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Fig. 19: avg combined update+analytics time vs PAGEWIDTH "
        "(lower is better; averaged over update:analytics ratios)",
        ["dataset"] + [f"PW={pw}" for pw in PAGEWIDTHS] + ["best PW"],
    )
    best = {}
    for dataset in DATASETS:
        row = [results[(dataset, pw)] for pw in PAGEWIDTHS]
        best[dataset] = PAGEWIDTHS[int(np.argmin(row))]
        table.add_row([dataset] + row + [best[dataset]])
    emit(table)

    # The paper's conclusion: PAGEWIDTH 64 is the best overall balance.
    # Per dataset, 64 must be within 15% of that dataset's optimum, and
    # the narrow extreme (8) must lose badly everywhere (its update cost
    # explodes — the paper: "very low edge-update performance").
    for dataset in DATASETS:
        row = {pw: results[(dataset, pw)] for pw in PAGEWIDTHS}
        optimum = min(row.values())
        assert row[64] <= 1.15 * optimum, (dataset, row)
        assert row[8] > 2 * row[64], (dataset, row)
    # Averaged across datasets, 64 is the single best choice.
    avg = {pw: np.mean([results[(d, pw)] for d in DATASETS]) for pw in PAGEWIDTHS}
    assert min(avg, key=avg.get) == 64, avg
