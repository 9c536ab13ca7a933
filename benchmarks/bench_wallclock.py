"""Methodology bench — wall-clock vs modeled orderings (and their limits).

Measures real elapsed time for the Fig. 8 insertion comparison and a
Figs. 11-13-style analytics pass, alongside the modeled orderings.

Findings this bench pins down:

* **Analytics** wall-clock agrees with the model (GraphTinker's CAL
  streaming wins by a large factor even on the interpreter clock) —
  the vectorised load path dominates either way.
* **Insertion** wall-clock can *invert* in pure Python: STINGER scans a
  chain block with one vectorised NumPy op while GraphTinker's RHH probes
  cells in interpreted loops, so interpreter dispatch — not memory
  behaviour — decides the race.  This is exactly the known limitation of
  a pure-Python reproduction (DESIGN.md §1) and the reason every paper
  figure is reproduced from implementation-neutral access counters
  instead of the interpreter clock.  The bench asserts the *counter*
  ordering holds even when the wall-clock one doesn't.
"""

import time

import pytest

from repro.bench.harness import analytics_once
from repro.bench.reporting import Table
from repro.core.store import create_store
from repro.engine.algorithms import BFS
from repro.workloads.streams import highest_degree_roots

from _common import emit, stream_for


def run_all():
    from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL

    stream = stream_for("hollywood_like", n_batches=1)
    out = {}

    # --- insertion: wall-clock AND modeled -------------------------------
    for kind in ("graphtinker", "stinger"):
        store = create_store(kind)
        t0 = time.perf_counter()
        store.insert_batch(stream.edges)
        out[("insert-wall", kind)] = stream.n_edges / (time.perf_counter() - t0)
        out[("insert-model", kind)] = MODEL.throughput(stream.n_edges, store.stats)

    # --- FP analytics: wall-clock AND modeled ----------------------------
    root = int(highest_degree_roots(stream.edges, 1)[0])
    for kind in ("graphtinker", "stinger"):
        store = create_store(kind)
        store.insert_batch(stream.edges)
        store.stats.reset()
        t0 = time.perf_counter()
        m = analytics_once(store, BFS, "full", roots=[root])
        out[("bfs-wall", kind)] = store.n_edges / (time.perf_counter() - t0)
        out[("bfs-model", kind)] = m.modeled_throughput(MODEL)
    return out


@pytest.mark.benchmark(group="wallclock")
def test_wallclock_vs_modeled_orderings(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = Table(
        "Wall-clock vs modeled orderings (GT/STINGER ratios)",
        ["experiment", "GT wall", "STINGER wall", "wall ratio", "modeled ratio"],
    )
    for exp in ("insert", "bfs"):
        gt_w = results[(f"{exp}-wall", "graphtinker")]
        st_w = results[(f"{exp}-wall", "stinger")]
        model_ratio = (results[(f"{exp}-model", "graphtinker")]
                       / results[(f"{exp}-model", "stinger")])
        table.add_row([exp, gt_w, st_w, gt_w / st_w, model_ratio])
    emit(table)

    # The counter-based ordering always holds (the reproduction metric)...
    assert (results[("insert-model", "graphtinker")]
            > results[("insert-model", "stinger")])
    assert (results[("bfs-model", "graphtinker")]
            > results[("bfs-model", "stinger")])
    # ...and the vectorised analytics path wins on the interpreter clock
    # too.  (Insertion wall-clock is allowed to invert: interpreter
    # dispatch, not memory behaviour, decides it — see module docstring.)
    assert results[("bfs-wall", "graphtinker")] > results[("bfs-wall", "stinger")]
