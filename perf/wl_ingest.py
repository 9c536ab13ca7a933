"""``ingest_powerlaw``: load a skewed graph, stream it back, delete it all.

Graph500 RMAT into a fresh default ``graphtinker`` store through
``insert_batch``, one full ``neighbors_many`` sweep of the loaded graph (the
retrieval the paper's CAL exists for), then every edge deleted in a seeded
shuffle through ``delete_batch`` (the Figs. 8/14 protocol).  Hubs drive deep
overflow trees, Robin-Hood displacement and CAL group growth, so ``core``
does all the work; ``engine``, ``service`` and ``net`` are bypassed.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from harness import Ctx, Deadline, Slices
from repro.core.store import create_store, store_digest
from spans import StoreProxy

NAME = "ingest_powerlaw"
WHY = ("power-law RMAT load, full sweep, full delete on graphtinker: hubs "
       "stress core overflow trees, RHH and CAL; engine/service/net idle")

#: The full sweep is made twice per repeat, each in four quarter-range
#: calls: eight query slices a repeat instead of one long one, so the
#: per-position medians rest on more samples.
SWEEPS = 2
SWEEP_CHUNKS = 4


def sizes(quick: bool) -> dict:
    if quick:
        return {"scale": 11, "n_edges": 5_000, "batch": 1_000,
                "min_units": 2, "traced_units": 1}
    return {"scale": 15, "n_edges": 100_000, "batch": 20_000,
            "min_units": 3, "traced_units": 1}


def make_inputs(seed: int, sz: dict) -> dict:
    edges = inputs.powerlaw_edges(seed, sz["scale"], sz["n_edges"])
    order = np.random.default_rng([seed, 2]).permutation(edges.shape[0])
    return {"edges": edges, "delete_order": order}


def setup(ctx: Ctx, sz: dict) -> dict:
    inp = make_inputs(ctx.seed, sz)
    # warm the batch kernels' code paths on one batch
    warm = create_store("graphtinker")
    warm.insert_batch(inp["edges"][:sz["batch"]])
    warm.delete_batch(inp["edges"][:sz["batch"]])
    oracle = inputs.ReplayOracle()
    oracle.insert(inp["edges"])
    return {"inp": inp, "sz": sz, "loaded": oracle.digest(),
            "n_vertices": 1 << sz["scale"]}


def teardown(state: dict) -> None:
    state.clear()


def run(ctx: Ctx, state: dict, deadline: Deadline,
        traced: bool = False) -> Slices:
    edges = state["inp"]["edges"]
    doomed = edges[state["inp"]["delete_order"]]
    batch = state["sz"]["batch"]
    starts = range(0, edges.shape[0], batch)
    chunks = np.array_split(np.arange(state["n_vertices"], dtype=np.int64),
                            SWEEP_CHUNKS)
    clock, checks = ctx.clock, ctx.checks
    slices = Slices()
    repeat = 0
    while deadline.more(repeat):
        raw = create_store("graphtinker")
        store = StoreProxy(raw, ctx.tracer) if traced else raw
        clock.mark()
        for k, lo in enumerate(starts):
            rows = edges[lo:lo + batch]
            t0 = time.perf_counter()
            store.insert_batch(rows)
            wall = time.perf_counter() - t0
            slices.add("update", rows.shape[0], wall, clock.factor(),
                       pos=("ins", k))
        checks.ops(len(starts))
        loaded = store_digest(raw)
        checks.expect(loaded == state["loaded"],
                      f"repeat {repeat}: loaded store {loaded} differs from "
                      f"the dict replay {state['loaded']}")
        clock.mark()
        for _ in range(SWEEPS):
            seen = 0
            for k, chunk in enumerate(chunks):
                t0 = time.perf_counter()
                src, _, _ = store.neighbors_many(chunk)
                wall = time.perf_counter() - t0
                seen += src.shape[0]
                slices.add("query", src.shape[0], wall, clock.factor(),
                           pos=("sweep", k))
            checks.ops(len(chunks))
            checks.expect(seen == state["loaded"]["n_edges"],
                          f"repeat {repeat}: sweep returned {seen} edges, "
                          f"the store holds {state['loaded']['n_edges']}")
        for k, lo in enumerate(starts):
            rows = doomed[lo:lo + batch]
            t0 = time.perf_counter()
            store.delete_batch(rows)
            wall = time.perf_counter() - t0
            slices.add("update", rows.shape[0], wall, clock.factor(),
                       pos=("del", k))
        checks.ops(len(starts))
        checks.expect(raw.n_edges == 0,
                      f"repeat {repeat}: {raw.n_edges} edges left after "
                      f"deleting every edge")
        repeat += 1
    ctx.notes["repeats"] = repeat
    return slices


def verify(ctx: Ctx, state: dict) -> None:
    """Every repeat already compared the loaded store with the replay and
    asserted the emptied store; nothing is left to check at the end."""


def end_to_end(slices: Slices, raw: bool = False) -> dict:
    return {
        "update_edges_per_s": slices.rate("update", raw),
        "update_p50_ms": slices.per_call_ms("update", raw=raw),
        "query_per_s": slices.rate("query", raw),
        "query_p50_ms": slices.per_call_ms("query", raw=raw),
    }


def unit_cost(slices: Slices) -> float:
    """Reference-seconds per traced-run pass (the passes do equal work)."""
    return slices.seconds()


def probe_stream(state: dict):
    return state["inp"]["edges"]
