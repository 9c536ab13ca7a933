"""``churn_uniform``: steady-state insert/delete with point reads beside.

A uniform-degree RMAT stream (a=b=c=d=0.25) slides a fixed window over a
default ``graphtinker`` store — every step one ``insert_batch`` and one
``delete_batch`` at constant live size — and after every step a block of
seeded point reads: ``has_edge`` (half present, half absent keys),
``degree`` and ``neighbors``.  Same ``core`` layer as ``ingest_powerlaw``
used differently: shallow rows (SGH/CAL bookkeeping dominates, no overflow
chains), tombstones and compaction beside inserts, reads beside writes.
``engine``, ``service`` and ``net`` are bypassed.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from harness import Ctx, Deadline, Slices
from repro.core.store import create_store, store_digest
from repro.workloads.churn import sliding_window
from spans import StoreProxy

NAME = "churn_uniform"
WHY = ("uniform RMAT sliding window on graphtinker with has_edge/degree/"
       "neighbors beside: shallow rows, deletes and reads next to inserts; "
       "engine/service/net idle")

#: Point reads per step: has_edge / degree / neighbors (50 / 30 / 20 %).
READS = (1000, 600, 400)


def sizes(quick: bool) -> dict:
    if quick:
        return {"scale": 11, "window": 5_000, "step": 250, "max_steps": 40,
                "reads": tuple(r // 20 for r in READS), "min_units": 4,
                "traced_units": 4}
    return {"scale": 15, "window": 100_000, "step": 5_000, "max_steps": 480,
            "reads": READS, "min_units": 40, "traced_units": 24}


def make_inputs(seed: int, sz: dict) -> dict:
    n = sz["window"] + sz["step"] * sz["max_steps"]
    edges = inputs.uniform_edges(seed, sz["scale"], n)
    rng = np.random.default_rng([seed, 3])
    n_has, n_deg, n_nbr = sz["reads"]
    steps = sz["max_steps"]
    return {
        "edges": edges,
        # has_edge probes: an offset back into the recent stream (mostly
        # present) or a random pair (mostly absent), half each
        "probe_back": rng.integers(0, sz["window"], (steps, n_has // 2)),
        "probe_miss": rng.integers(0, 1 << sz["scale"],
                                   (steps, n_has - n_has // 2, 2)),
        "degree_of": rng.integers(0, 1 << sz["scale"], (steps, n_deg)),
        "neighbors_back": rng.integers(0, sz["window"], (steps, n_nbr)),
    }


def setup(ctx: Ctx, sz: dict) -> dict:
    inp = make_inputs(ctx.seed, sz)
    raw = create_store("graphtinker")
    steps = sliding_window(inp["edges"], sz["window"], sz["step"])
    oracle = inputs.ReplayOracle()
    live: set[int] = set()
    # fill the window (untimed preload); deletes start with the next step
    for _ in range(sz["window"] // sz["step"]):
        step = next(steps)
        raw.insert_batch(step.inserts)
        oracle.insert(step.inserts)
        live.update(inputs.edge_keys(step.inserts).tolist())
    return {"inp": inp, "sz": sz, "store": raw, "steps": steps,
            "oracle": oracle, "live": live, "k": 0,
            "cursor": sz["window"]}


def teardown(state: dict) -> None:
    state.clear()


def run(ctx: Ctx, state: dict, deadline: Deadline,
        traced: bool = False) -> Slices:
    inp, sz = state["inp"], state["sz"]
    raw = state["store"]
    store = StoreProxy(raw, ctx.tracer) if traced else raw
    edges, live, oracle = inp["edges"], state["live"], state["oracle"]
    clock, checks = ctx.clock, ctx.checks
    has_edge, degree, neighbors = store.has_edge, store.degree, store.neighbors
    slices = Slices()
    done = 0
    clock.mark()
    while deadline.more(done) and state["k"] < sz["max_steps"]:
        k = state["k"]
        step = next(state["steps"])
        t0 = time.perf_counter()
        store.insert_batch(step.inserts)
        store.delete_batch(step.deletes)
        t2 = time.perf_counter()
        state["cursor"] += step.n_inserts
        cursor = state["cursor"]

        # oracle bookkeeping and probe selection, outside every timed span
        oracle.insert(step.inserts)
        oracle.delete(step.deletes)
        live.update(inputs.edge_keys(step.inserts).tolist())
        live.difference_update(inputs.edge_keys(step.deletes).tolist())
        probes = np.concatenate([edges[cursor - 1 - inp["probe_back"][k]],
                                 inp["probe_miss"][k]])
        expected = [key in live for key in inputs.edge_keys(probes).tolist()]
        probes = probes.tolist()
        degree_of = inp["degree_of"][k].tolist()
        neighbors_of = edges[cursor - 1 - inp["neighbors_back"][k], 0].tolist()

        t3 = time.perf_counter()
        answers = [has_edge(u, v) for u, v in probes]
        degrees = [degree(v) for v in degree_of]
        rows = [neighbors(v)[0].shape[0] for v in neighbors_of]
        t4 = time.perf_counter()
        n_reads = len(probes) + len(degree_of) + len(neighbors_of)

        factor = clock.factor()
        # one update slice per step: insert and delete calls differ, and the
        # median of a two-humped sample jumps between the humps
        slices.add("update", step.n_inserts + step.n_deletes, t2 - t0, factor)
        slices.add("query", n_reads, t4 - t3, factor)
        checks.ops(2 + n_reads)
        wrong = sum(a != e for a, e in zip(answers, expected))
        if wrong:
            checks.fail(f"step {k}: {wrong} has_edge answers differ from "
                        f"the set replay", wrong)
        if min(degrees) < 0:
            checks.fail(f"step {k}: negative degree")
        short = sum(n != raw.degree(v) for n, v in zip(rows, neighbors_of))
        if short:
            checks.fail(f"step {k}: {short} neighbors() rows disagree with "
                        f"degree()", short)
        state["k"] += 1
        done += 1
        ctx.notes["has_edge_hit_share"] = sum(expected) / len(expected)
    ctx.notes["steps"] = state["k"]
    return slices


def verify(ctx: Ctx, state: dict) -> None:
    want = state["oracle"].digest()
    got = store_digest(state["store"])
    ctx.checks.expect(got == want,
                      f"final store {got} differs from the dict replay {want}")
    ctx.checks.expect(state["store"].n_edges == len(state["live"]),
                      f"n_edges {state['store'].n_edges} differs from the "
                      f"set replay {len(state['live'])}")


def end_to_end(slices: Slices, raw: bool = False) -> dict:
    return {
        "update_edges_per_s": slices.rate("update", raw),
        # one update unit here is a step's insert_batch + delete_batch
        "update_p50_ms": slices.per_call_ms("update", raw=raw),
        "query_per_s": slices.rate("query", raw),
        # one query unit here is a single point read
        "query_p50_ms": slices.per_call_ms("query", per_unit=True, raw=raw),
    }


def unit_cost(slices: Slices) -> float:
    """Reference-seconds per traced-run pass (the passes do equal work)."""
    return slices.seconds()


def probe_stream(state: dict):
    return state["inp"]["edges"]
