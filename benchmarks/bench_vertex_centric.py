"""Extension bench — edge-centric vs vertex-centric full processing.

The paper adopts the edge-centric (EC) GAS formulation and defers the
vertex-centric (VC) variant to future work (Sec. IV.A).  This bench runs
both full-processing load paths over the same GraphTinker instance and
compares modeled cost per BFS pass:

* EC streams the whole edge set from the CAL — dense sequential blocks;
* VC visits every vertex and gathers its out-edges from the
  EdgeblockArray — random PAGEWIDTH-wide block reads per vertex.

Expected shape: EC wins clearly, and its advantage grows with PAGEWIDTH
(wider blocks make per-vertex gathers pay for more empty cells) — i.e.
the data structure's own design pushes toward the edge-centric choice
the paper made.
"""

import numpy as np
import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.reporting import Table
from repro.core.config import GTConfig
from repro.core.stats import AccessStats
from repro.core.store import create_store
from repro.engine import modes

from _common import emit, stream_for


def measure_load(store, loader) -> float:
    before = store.stats.snapshot()
    src, _, _ = loader(store)
    delta = store.stats.delta(before)
    return MODEL.throughput(int(src.shape[0]), delta)


def run_all():
    out = {}
    for pw in (16, 64, 256):
        stream = stream_for("rmat_1m_10m", n_batches=1)
        store = create_store("graphtinker", GTConfig(pagewidth=pw))
        store.insert_batch(stream.edges)
        store.stats.reset()
        out[(pw, "EC")] = measure_load(store, modes.load_edges_full)
        out[(pw, "VC")] = measure_load(store, modes.load_edges_full_vertex_centric)
    return out


@pytest.mark.benchmark(group="vertex-centric")
def test_edge_centric_vs_vertex_centric(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "EC (CAL stream) vs VC (per-vertex EBA gather) full-load throughput",
        ["PAGEWIDTH", "EC", "VC", "EC/VC"],
    )
    ratios = {}
    for pw in (16, 64, 256):
        ec, vc = results[(pw, "EC")], results[(pw, "VC")]
        ratios[pw] = ec / vc
        table.add_row([pw, ec, vc, ratios[pw]])
    emit(table)

    # EC wins at every geometry, and more so at wider PAGEWIDTHs.
    assert all(r > 2.0 for r in ratios.values()), ratios
    assert ratios[256] > ratios[16]
