"""Extension bench — CAL group-width trade-off (Sec. III.B).

The Coarse Adjacency List partitions source vertices into groups of a
configurable width ("if every group consists of 1024 vertices, then
source vertex ids from 0 to 1023 all belong to group 0").  The knob's
trade-off:

* *narrow* groups approach a per-vertex adjacency list — many tails,
  many partially-filled blocks, worse streaming density;
* *wide* groups pack many sources per block (best density), at the cost
  of coarser locality if a consumer only wants some sources' edges.

This ablation sweeps the group width and reports streaming density and
full-load analytics throughput; the paper's insight — coarse grouping
compacts the stream — shows as monotone-improving density toward wide
groups, saturating once tails amortise.
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

WIDTHS = [1, 16, 256, 4096]


def run_all():
    out = {}
    stream = stream_for("rmat_1m_10m", n_batches=1)
    root = int(highest_degree_roots(stream.edges, 1)[0])
    for width in WIDTHS:
        store = create_store("graphtinker", GTConfig(cal_group_width=width))
        store.insert_batch(stream.edges)
        fill = store.cal.fill_fraction()
        blocks = store.cal.n_blocks
        store.stats.reset()
        m = analytics_once(store, BFS, "full", roots=[root])
        out[width] = (fill, blocks, m.modeled_throughput(MODEL))
    return out


@pytest.mark.benchmark(group="ablation-cal-groupwidth")
def test_ablation_cal_group_width(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "CAL group-width ablation (rmat_1m_10m, FP BFS)",
        ["group width", "fill fraction", "CAL blocks", "modeled throughput"],
    )
    for width in WIDTHS:
        fill, blocks, tp = results[width]
        table.add_row([width, fill, blocks, tp])
    emit(table)

    # Coarser grouping -> denser stream -> fewer blocks, better analytics.
    fills = [results[w][0] for w in WIDTHS]
    blocks = [results[w][1] for w in WIDTHS]
    tps = [results[w][2] for w in WIDTHS]
    assert fills[-1] > fills[0]
    assert blocks[-1] < blocks[0]
    assert tps[-1] > tps[0]
    # Width-1 groups are the degenerate per-vertex adjacency list the
    # paper improves on; the paper's default (1024-class widths) sits at
    # the saturated end.
    assert tps[-1] / tps[0] > 1.2
