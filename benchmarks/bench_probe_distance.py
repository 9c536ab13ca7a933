"""Extension bench — the O(log n) vs O(n) probe-distance claim (Sec. III.B).

Not a numbered figure, but the paper's central structural argument: "the
average probe distance when following edges of a particular vertex v_i is
of the order O(log(n)) as compared to the adjacency list representation
which is O(n) where n is the degree".  This bench loads the same
hub-heavy stream into both structures and reports measured probe costs
bucketed by vertex degree.
"""

import numpy as np
import pytest

from repro.bench.reporting import Table
from repro.core.probes import (
    degree_vs_probe_curve,
    graphtinker_probe_summary,
    stinger_probe_summary,
)
from repro.core.store import create_store

from _common import emit, stream_for


def run_all():
    stream = stream_for("hollywood_like", n_batches=1)
    gt = create_store("graphtinker")
    st = create_store("stinger")
    gt.insert_batch(stream.edges)
    st.insert_batch(stream.edges)
    return {
        "gt": graphtinker_probe_summary(gt, sample_vertices=300),
        "stinger": stinger_probe_summary(st, sample_vertices=300),
        "curve": degree_vs_probe_curve(gt),
        "gt_store": gt,
        "st_store": st,
    }


@pytest.mark.benchmark(group="probe-distance")
def test_probe_distance_sublinearity(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Probe distance when following edges (hollywood_like)",
        ["structure", "samples", "mean", "p95", "max"],
    )
    for label, key in (("GraphTinker (workblocks+descents)", "gt"),
                       ("STINGER (chain hops)", "stinger")):
        s = results[key]
        table.add_row([label, s.count, s.mean, s.p95, s.max])
    emit(table)

    curve = Table(
        "GraphTinker mean probe vs vertex degree (log-like growth)",
        ["degree <=", "mean probe", "vertices"],
    )
    for upper, mean_probe, n in results["curve"]:
        curve.add_row([upper, mean_probe, n])
    emit(curve)

    gt, st = results["gt"], results["stinger"]
    # STINGER's worst case dwarfs GraphTinker's on a hub-heavy graph.
    assert gt.max < st.max
    assert gt.mean < st.mean
    # Sub-linear growth: across a >=16x degree spread, GT's mean probe
    # grows far slower than the degree does.
    finite = [(d, p) for d, p, _ in results["curve"] if np.isfinite(d)]
    if len(finite) >= 2:
        (d0, p0), (d1, p1) = finite[0], finite[-1]
        assert p1 / p0 < (d1 / d0) ** 0.75
