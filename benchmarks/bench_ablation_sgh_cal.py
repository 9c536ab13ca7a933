"""E14 — Sec. V.B ablation: contribution of SGH and CAL to analytics.

The paper: with CAL and SGH disabled, GraphTinker's full-processing
analytics drop to only ~1.5x STINGER; the two features together account
for >91% of GraphTinker's analytics advantage.

Protocol: load the same stream into four GraphTinker configurations
(full / no-CAL / no-SGH / neither) and STINGER; run BFS in FP mode on
each and compare modeled throughputs.  The no-SGH configurations are
meaningful because the RMAT vertex-id space is sparse: without the dense
renaming, the main region carries rows (and full-sweep costs) for every
id up to the maximum ever seen.

A cost-coefficient sensitivity row is printed as well: the conclusions
must not hinge on the default coefficients.
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.bench.harness import analytics_once
from repro.bench.reporting import Table
from repro.core.store import create_store
from repro.workloads.streams import highest_degree_roots
from repro.engine.algorithms import BFS

from _common import emit, emit_line, stream_for

CONFIGS = ["graphtinker", "gt_nocal", "gt_nosgh", "gt_plain", "stinger"]
LABEL = {
    "graphtinker": "GT (SGH+CAL)",
    "gt_nocal": "GT no-CAL",
    "gt_nosgh": "GT no-SGH",
    "gt_plain": "GT neither",
    "stinger": "STINGER",
}


def run_all(model: CostModel = DEFAULT_COST_MODEL):
    stream = stream_for("rmat_1m_10m", n_batches=1)
    root = int(highest_degree_roots(stream.edges, 1)[0])
    out = {}
    for kind in CONFIGS:
        store = create_store(kind)
        store.insert_batch(stream.edges)
        store.stats.reset()
        m = analytics_once(store, BFS, "full", roots=[root])
        out[kind] = model.throughput(m.graph_edges, m.stats_delta)
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_sgh_cal_contribution(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Ablation (Sec. V.B): SGH/CAL contribution to FP analytics",
        ["configuration", "modeled throughput", "vs STINGER"],
    )
    for kind in CONFIGS:
        table.add_row([LABEL[kind], results[kind], results[kind] / results["stinger"]])
    emit(table)

    full = results["graphtinker"]
    plain = results["gt_plain"]
    stinger = results["stinger"]
    # Paper: GT-with-neither-feature lands near STINGER (~1.5x)...
    assert plain / stinger < 3.0
    # ...while the full configuration is far ahead,
    assert full / stinger > 5.0
    # ...and SGH+CAL account for the overwhelming share (>91% in the
    # paper) of the advantage over the featureless configuration.
    contribution = (full - plain) / full
    emit_line(f"   combined SGH+CAL contribution: {contribution:.1%} (paper: >91%)")
    assert contribution > 0.5
    # Each feature alone helps.
    assert results["gt_nocal"] < full
    assert results["gt_nosgh"] < full

    # Sensitivity: the orderings survive coefficient perturbation.
    for rnd in (0.5, 2.0):
        alt = run_all(CostModel(random_block=rnd))
        assert alt["graphtinker"] > alt["gt_plain"]
        assert alt["graphtinker"] > alt["stinger"]
