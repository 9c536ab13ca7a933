"""E2 + E16 — Fig. 8: insertion throughput vs input size (hollywood).

Protocol: single instance, hollywood-like dataset, batched inserts; three
systems — GraphTinker with CAL, GraphTinker without CAL, STINGER.  The
bench prints the per-batch modeled-throughput series (the figure's
curves) plus the load-stability summary the paper quotes in Sec. V.B
(GT ~34% degradation vs STINGER ~72%).

Expected shape: GT-noCAL > GT+CAL > STINGER everywhere, with the gap
widening as load grows; STINGER degrades far faster.
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import insertion_run
from repro.bench.metrics import load_stability
from repro.bench.reporting import Table
from repro.core.store import create_store

from _common import emit, emit_line, stream_for

SYSTEMS = ["graphtinker", "gt_nocal", "stinger"]
LABEL = {"graphtinker": "GT+CAL", "gt_nocal": "GT-noCAL", "stinger": "STINGER"}


def run_all():
    results = {}
    for kind in SYSTEMS:
        stream = stream_for("hollywood_like", n_batches=8)
        store = create_store(kind)
        results[kind] = insertion_run(store, stream)
    return results


@pytest.mark.benchmark(group="fig08")
def test_fig08_insertion_throughput_vs_load(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    n_batches = len(results["graphtinker"])
    table = Table(
        "Fig. 8: insertion throughput vs input size (hollywood_like, 1 thread)",
        ["system"] + [f"batch{i}" for i in range(n_batches)] + ["stability-degradation"],
    )
    series = {}
    for kind in SYSTEMS:
        tp = [m.modeled_throughput(MODEL) for m in results[kind]]
        series[kind] = tp
        table.add_row([LABEL[kind]] + tp + [load_stability(tp)])
    emit(table)
    emit_line(
        "   (modeled throughput = edges per access-cycle; paper reports Medges/s — "
        "ratios and shapes are the comparable quantities)"
    )

    gt, nocal, st = series["graphtinker"], series["gt_nocal"], series["stinger"]
    # Paper shapes: GT beats STINGER in every batch; no-CAL beats with-CAL
    # (CAL maintenance costs updates); gaps widen with load.
    assert all(a > b for a, b in zip(gt, st))
    assert all(a > b for a, b in zip(nocal, gt))
    assert nocal[-1] / st[-1] > nocal[0] / st[0]
    # Load stability: STINGER degrades much faster than GraphTinker.
    assert load_stability(st) > 1.5 * load_stability(gt)
