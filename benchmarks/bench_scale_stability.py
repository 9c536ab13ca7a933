"""Methodology bench — conclusions are stable across dataset scales.

The reproduction runs every experiment on scaled-down datasets
(DESIGN.md §1).  For that to be valid, the headline orderings must not
be artefacts of one particular scale.  This bench repeats the Fig. 8
comparison at three scale factors and checks the invariants:

* GraphTinker beats STINGER at every scale,
* the advantage *grows* (or at least does not shrink) with scale — the
  paper's own observation that bigger graphs widen the gap — so the
  full-size ratios can only be better than what we report.
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import insertion_run
from repro.bench.reporting import Table
from repro.core.stats import AccessStats
from repro.core.store import create_store
from repro.workloads import load_dataset
from repro.workloads.streams import EdgeStream

from _common import emit

FACTORS = [0.002, 0.005, 0.01]


def run_factor(factor: float) -> dict[str, float]:
    _, edges = load_dataset("hollywood_like", factor=factor)
    stream = EdgeStream(edges, max(1, edges.shape[0] // 6))
    out = {}
    for kind in ("graphtinker", "stinger"):
        store = create_store(kind)
        measurements = insertion_run(store, EdgeStream(edges, stream.batch_size))
        merged = AccessStats()
        for m in measurements:
            merged.merge(m.stats_delta)
        out[kind] = MODEL.throughput(edges.shape[0], merged)
    return out


@pytest.mark.benchmark(group="scale-stability")
def test_conclusions_stable_across_scales(benchmark):
    results = benchmark.pedantic(
        lambda: {f: run_factor(f) for f in FACTORS}, rounds=1, iterations=1
    )

    table = Table(
        "Scale stability: GT vs STINGER insertion ratio per dataset scale",
        ["scale factor", "edges", "GraphTinker", "STINGER", "GT/STINGER"],
    )
    ratios = []
    for f in FACTORS:
        _, edges = load_dataset("hollywood_like", factor=f)
        r = results[f]
        ratio = r["graphtinker"] / r["stinger"]
        ratios.append(ratio)
        table.add_row([f, edges.shape[0], r["graphtinker"], r["stinger"], ratio])
    emit(table)

    assert all(r > 1.0 for r in ratios)
    # Monotone-or-flat growth with scale (tolerate 10% noise).
    assert ratios[-1] >= 0.9 * ratios[0]
