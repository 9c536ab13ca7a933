"""Extension bench — Workblock-size trade-off (Sec. III.B).

The paper exposes the Workblock size as the user-tunable DRAM-retrieval
granularity: "having too large Workblock sizes would increase the
probability of a successful completion of the RHH process in that
retrieval, but at the same time would increase the number of edges
retrieved from DRAM".  This ablation sweeps the Workblock size at the
paper's PAGEWIDTH/Subblock geometry and reports both sides of the
trade-off: Workblock *fetch counts* fall as Workblocks widen, while
*cells transferred* rise.
"""

import pytest

from repro.bench.costmodel import CostModel
from repro.bench.harness import insertion_run
from repro.bench.reporting import Table
from repro.core.config import GTConfig
from repro.core.store import create_store

from _common import emit, stream_for

WORKBLOCKS = [1, 2, 4, 8]


def run_all():
    out = {}
    for wb in WORKBLOCKS:
        stream = stream_for("hollywood_like", n_batches=2)
        store = create_store("graphtinker", GTConfig(workblock=wb))
        measurements = insertion_run(store, stream)
        fetches = sum(m.stats_delta.workblock_fetches for m in measurements)
        # DRAM transfer: a Workblock fetch moves `wb` cells regardless of
        # how many the RHH process ends up inspecting.
        transferred = fetches * wb
        out[wb] = (stream.n_edges, fetches, transferred)
    return out


@pytest.mark.benchmark(group="ablation-workblock")
def test_ablation_workblock_size(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Workblock-size ablation: fetches vs data transferred (inserts)",
        ["workblock", "edges", "workblock fetches", "fetches/edge",
         "cells transferred", "cells/edge"],
    )
    for wb in WORKBLOCKS:
        n, fetches, transferred = results[wb]
        table.add_row([wb, n, fetches, fetches / n, transferred, transferred / n])
    emit(table)

    # The trade-off the paper describes: wider Workblocks need fewer
    # retrievals per update...
    f = {wb: results[wb][1] for wb in WORKBLOCKS}
    assert f[8] < f[1]
    assert all(f[b] >= f[c] for b, c in zip(WORKBLOCKS, WORKBLOCKS[1:]))
    # ...but transfer more data per update.
    t = {wb: results[wb][2] for wb in WORKBLOCKS}
    assert t[8] > t[1]
    # With per-cell transfer cost weighted up (the "more edges retrieved
    # from DRAM" side) the optimum is interior — the user-tunable
    # optimum point the paper describes.
    heavy_cells = CostModel(cell_op=0.2)
    costs = {
        wb: heavy_cells.workblock * results[wb][1]
        + heavy_cells.cell_op * results[wb][2]
        for wb in WORKBLOCKS
    }
    assert min(costs, key=costs.get) not in (WORKBLOCKS[0], WORKBLOCKS[-1])
