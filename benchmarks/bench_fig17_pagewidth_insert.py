"""E11 — Fig. 17: effect of PAGEWIDTH on insertion throughput.

Protocol: load the hollywood-like stream into GraphTinker configured
with PAGEWIDTH in {16, 32, 64, 128, 256} (Subblock/Workblock at the
paper's 8/4) and report the per-batch insertion throughput series.

Expected shapes: larger PAGEWIDTH -> higher insertion throughput (a
wider hash range reduces Robin-Hood collisions and branch-outs), and
larger PAGEWIDTH -> better throughput stability across batches, with
PW=256 the most stable.
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import insertion_run
from repro.bench.metrics import load_stability
from repro.bench.reporting import Table
from repro.core.config import GTConfig
from repro.core.store import create_store

from _common import emit, stream_for

PAGEWIDTHS = [16, 32, 64, 128, 256]


def run_all():
    out = {}
    for pw in PAGEWIDTHS:
        stream = stream_for("hollywood_like", n_batches=6)
        store = create_store("graphtinker", GTConfig(pagewidth=pw))
        ms = insertion_run(store, stream)
        out[pw] = [m.modeled_throughput(MODEL) for m in ms]
    return out


@pytest.mark.benchmark(group="fig17")
def test_fig17_pagewidth_insertion_throughput(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    n = len(results[PAGEWIDTHS[0]])
    table = Table(
        "Fig. 17: insertion throughput vs PAGEWIDTH (hollywood_like)",
        ["PAGEWIDTH"] + [f"batch{i}" for i in range(n)] + ["mean", "degradation"],
    )
    means = {}
    for pw in PAGEWIDTHS:
        series = results[pw]
        means[pw] = sum(series) / len(series)
        table.add_row([pw] + series + [means[pw], load_stability(series)])
    emit(table)

    # Larger PAGEWIDTH -> higher mean insertion throughput (monotone).
    ordered = [means[pw] for pw in PAGEWIDTHS]
    assert all(a < b for a, b in zip(ordered, ordered[1:])), ordered
    # PW=256 is the most load-stable; PW=16 the least.
    assert load_stability(results[256]) < load_stability(results[16])
