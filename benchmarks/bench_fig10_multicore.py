"""E4 — Fig. 10: multicore insertion throughput (1-8 cores).

Protocol: hollywood-like stream, interval-partitioned GraphTinker and
STINGER instances (Sec. III.D); per-batch parallel time is the makespan
(max over partitions) of the modeled per-partition cost — the critical
path of the paper's shared-nothing parallelisation.

Modeled vs. measured
--------------------
The table reports the two families of numbers in separate columns and
never mixes them:

* ``modeled-*`` — throughput under the memory-access cost model with the
  max-over-partitions makespan.  This is the paper's multicore claim and
  every assertion below is on these numbers only.
* ``wall-Medges/s`` — measured wall-clock throughput of the run that
  produced the deltas.  ``PartitionedStore`` applies partitions one
  after another, so this column does **not** grow with the core count; it is
  printed to keep the distinction honest, not to support a claim.  For
  measured process-parallel ingest speedup see
  ``benchmarks/bench_sharded_ingest.py`` (``ShardedStore``, which
  reproduces these same per-partition deltas bit-for-bit).

Expected shapes: modeled throughput rises with core count for both
systems; GraphTinker beats STINGER at every core count; STINGER's
per-run degradation (first batch -> last batch) stays far worse than
GraphTinker's at every core count (the paper's 3.4 -> 1 Medges/s
example at 8 cores).
"""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.harness import parallel_insertion_run
from repro.bench.reporting import Table
from repro.bench.partitioned import PartitionedGraphTinker, PartitionedStinger

from _common import emit, stream_for

CORES = [1, 2, 4, 8]


def run_all():
    out = {}
    for cores in CORES:
        for kind, cls in (("graphtinker", PartitionedGraphTinker),
                          ("stinger", PartitionedStinger)):
            stream = stream_for("hollywood_like", n_batches=6)
            store = cls(cores)
            ms = parallel_insertion_run(store, stream)
            out[(kind, cores)] = {
                "modeled": [m.modeled_throughput(MODEL) for m in ms],
                "wall": [m.wall_throughput for m in ms],
            }
    return out


@pytest.mark.benchmark(group="fig10")
def test_fig10_multicore_update_throughput(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Fig. 10: update throughput vs core count (hollywood_like) — "
        "modeled makespan vs measured (serial) wall-clock",
        ["system", "cores", "modeled-first", "modeled-last", "modeled-mean",
         "modeled-degradation", "wall-Medges/s"],
    )
    means = {}
    for kind in ("graphtinker", "stinger"):
        for cores in CORES:
            series = results[(kind, cores)]["modeled"]
            wall = results[(kind, cores)]["wall"]
            mean = sum(series) / len(series)
            means[(kind, cores)] = mean
            degradation = (series[0] - series[-1]) / series[0]
            wall_mean = sum(wall) / len(wall) / 1e6
            table.add_row([kind, cores, series[0], series[-1], mean,
                           degradation, wall_mean])
    emit(table)

    for cores in CORES:
        # GraphTinker wins at every core count (modeled).
        assert means[("graphtinker", cores)] > means[("stinger", cores)]
    for kind in ("graphtinker", "stinger"):
        # More cores -> more modeled throughput (monotone in this
        # shared-nothing model).  Wall-clock is deliberately NOT asserted
        # on: PartitionedStore executes partitions serially.
        assert means[(kind, 8)] > means[(kind, 1)]
    # STINGER deteriorates across batches much faster than GraphTinker at 8 cores.
    st8 = results[("stinger", 8)]["modeled"]
    gt8 = results[("graphtinker", 8)]["modeled"]
    st_deg = (st8[0] - st8[-1]) / st8[0]
    gt_deg = (gt8[0] - gt8[-1]) / gt8[0]
    assert st_deg > gt_deg
