"""E8 — Fig. 14: edge-deletion throughput (rmat_2m_32m).

Protocol: load the graph fully, then delete in batches until empty.
Three mechanisms: GraphTinker delete-only (tombstones, RHH on),
GraphTinker delete-and-compact (tree shrinks, RHH off), STINGER.

Expected shapes (paper Sec. V.B): delete-only starts ~2x faster than
delete-and-compact and the gap narrows to ~1.2x by the last batch;
delete-only's throughput degrades across batches while
delete-and-compact stays stable (the structure shrinks under it); both
beat STINGER.
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import deletion_run
from repro.bench.reporting import Table
from repro.core.config import GTConfig
from repro.core.store import create_store

from _common import emit, stream_for

SYSTEMS = [
    ("delete-only", "graphtinker", GTConfig()),
    ("delete-and-compact", "graphtinker", GTConfig(compact_on_delete=True)),
    ("STINGER", "stinger", None),
]


def run_all():
    out = {}
    for label, kind, cfg in SYSTEMS:
        stream = stream_for("rmat_2m_32m", n_batches=8)
        store = create_store(kind, cfg)
        store.insert_batch(stream.edges)
        store.stats.reset()
        measurements = deletion_run(store, stream, seed=3)
        assert store.n_edges == 0
        out[label] = [m.modeled_throughput(MODEL) for m in measurements]
    return out


@pytest.mark.benchmark(group="fig14")
def test_fig14_deletion_throughput(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    n = len(results["STINGER"])
    table = Table(
        "Fig. 14: deletion throughput vs edges deleted (rmat_2m_32m)",
        ["mechanism"] + [f"batch{i}" for i in range(n)] + ["first/last"],
    )
    for label, *_ in SYSTEMS:
        series = results[label]
        table.add_row([label] + series + [series[0] / series[-1]])
    emit(table)

    do = results["delete-only"]
    dc = results["delete-and-compact"]
    st = results["STINGER"]
    # delete-only is faster early; the advantage shrinks as the database
    # empties (the paper: ~2x on the first batch, ~1.2x on the last).
    assert do[0] > dc[0]
    assert do[0] / dc[0] > do[-1] / dc[-1]
    # delete-and-compact's throughput trends *up* as the structure
    # shrinks while delete-only's does not (the structure it probes never
    # shrinks).  NB: the paper additionally sees delete-only *degrade* in
    # absolute terms — a cache-pollution effect of accumulated tombstones
    # that block-granularity access counting cannot express; the relative
    # trend (compact gains on delete-only) is the reproducible shape.
    assert dc[-1] / dc[0] > 1.2
    assert do[-1] / do[0] < dc[-1] / dc[0]
    # Both GraphTinker mechanisms beat STINGER throughout.
    assert all(a > c for a, c in zip(do, st))
    assert all(b > c for b, c in zip(dc, st))
