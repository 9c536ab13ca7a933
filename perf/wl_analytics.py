"""``analytics_stream``: analytics after every small update batch.

A symmetrized, weighted RMAT base graph is loaded (set-up, untimed) into a
``graphtinker`` store with its analytics snapshot attached; each round then
deletes 1 k and inserts 2 k edges and runs, from scratch with
``HybridEngine(policy="hybrid")``, BFS and SSSP from the four highest-degree
roots and one ConnectedComponents.  ``engine`` (hybrid / gas / snapshot)
does most of the work, ``core`` mutators little, ``service`` and ``net``
none.  The traversed-edges rate is the live edge count at each pass over
the pass's time.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from harness import Ctx, Deadline, Slices
from repro.core.store import create_store, store_digest
from repro.engine import BFS, SSSP, ConnectedComponents, HybridEngine
from repro.workloads.streams import highest_degree_roots
from spans import StoreProxy

NAME = "analytics_stream"
WHY = ("BFS/SSSP/CC with the hybrid engine after every 3k-edge churn batch "
       "on a snapshot-backed store: engine and snapshot gather dominate, "
       "core mutators do little, service/net idle")

N_ROOTS = 4


def sizes(quick: bool) -> dict:
    if quick:
        return {"scale": 11, "base": 6_000, "delete": 50, "insert": 100,
                "max_rounds": 12, "min_units": 2, "traced_units": 2}
    return {"scale": 15, "base": 100_000, "delete": 1_000, "insert": 2_000,
            "max_rounds": 60, "min_units": 6, "traced_units": 4}


def make_inputs(seed: int, sz: dict) -> dict:
    n_directed = sz["base"] + sz["insert"] * sz["max_rounds"]
    edges, weights = inputs.weighted_symmetric(seed, sz["scale"],
                                               n_directed // 2)
    return {"edges": edges, "weights": weights}


def _passes(roots):
    return ([("bfs", BFS, int(r)) for r in roots]
            + [("sssp", SSSP, int(r)) for r in roots]
            + [("cc", ConnectedComponents, None)])


def _run_pass(store, program, root):
    engine = HybridEngine(store, program(), policy="hybrid")
    engine.reset(roots=None if root is None else [root])
    result = engine.compute()
    return engine.values, result


def setup(ctx: Ctx, sz: dict) -> dict:
    inp = make_inputs(ctx.seed, sz)
    edges, weights = inp["edges"], inp["weights"]
    base = sz["base"]
    raw = create_store("graphtinker", snapshot=True)
    raw.insert_batch(edges[:base], weights[:base])
    oracle = inputs.ReplayOracle()
    oracle.insert(edges[:base], weights[:base])
    roots = highest_degree_roots(edges[:base], N_ROOTS)
    for _, program, root in _passes(roots[:1]):  # warm every program once
        _run_pass(raw, program, root)
    return {"inp": inp, "sz": sz, "store": raw, "oracle": oracle,
            "roots": roots, "round": 0, "last_values": None}


def teardown(state: dict) -> None:
    state.clear()


def run(ctx: Ctx, state: dict, deadline: Deadline,
        traced: bool = False) -> Slices:
    sz, raw = state["sz"], state["store"]
    edges, weights = state["inp"]["edges"], state["inp"]["weights"]
    store = StoreProxy(raw, ctx.tracer) if traced else raw
    tracer, clock, checks = ctx.tracer, ctx.clock, ctx.checks
    passes = _passes(state["roots"])
    slices = Slices()
    iterations = []
    done = 0
    clock.mark()
    while deadline.more(done) and state["round"] < sz["max_rounds"]:
        r = state["round"]
        doomed = edges[r * sz["delete"]:(r + 1) * sz["delete"]]
        lo = sz["base"] + r * sz["insert"]
        fresh, fresh_w = edges[lo:lo + sz["insert"]], weights[lo:lo + sz["insert"]]
        t0 = time.perf_counter()
        store.delete_batch(doomed)
        store.insert_batch(fresh, fresh_w)
        t2 = time.perf_counter()
        factor = clock.factor()
        # one update slice per round (see wl_churn: two-humped medians)
        slices.add("update", doomed.shape[0] + fresh.shape[0], t2 - t0, factor)
        state["oracle"].delete(doomed)
        state["oracle"].insert(fresh, fresh_w)
        values = []
        for name, program, root in passes:
            live = raw.n_edges
            t0 = time.perf_counter()
            with tracer.span(f"engine.pass.{name}"):
                vals, result = _run_pass(store, program, root)
            wall = time.perf_counter() - t0
            slices.add("query", live, wall, clock.factor())
            values.append(vals)
            iterations.append(result)
        checks.ops(2 + len(passes))
        state["last_values"] = values
        state["round"] += 1
        done += 1
    ctx.notes["rounds"] = state["round"]
    state["results"] = iterations
    return slices


def verify(ctx: Ctx, state: dict) -> None:
    """Final round: every pass recomputed with the snapshot detached must
    give bit-identical vertex values; the store must equal the replay."""
    raw, checks = state["store"], ctx.checks
    want = state["oracle"].digest()
    got = store_digest(raw)
    checks.expect(got == want,
                  f"final store {got} differs from the dict replay {want}")
    raw.disable_snapshot()
    for (name, program, root), with_snapshot in zip(
            _passes(state["roots"]), state["last_values"]):
        without, _ = _run_pass(raw, program, root)
        checks.expect(np.array_equal(with_snapshot, without),
                      f"{name} from root {root}: values differ between the "
                      f"snapshot-backed pass and the snapshot-off recompute")
    finite = int(np.isfinite(state["last_values"][0]).sum())
    checks.expect(finite > 1, "BFS from the top root reached no vertex")
    raw.enable_snapshot()


def end_to_end(slices: Slices, raw: bool = False) -> dict:
    return {
        "update_edges_per_s": slices.rate("update", raw),
        # one update unit here is a round's delete_batch + insert_batch
        "update_p50_ms": slices.per_call_ms("update", raw=raw),
        "query_per_s": slices.rate("query", raw),
        "query_p50_ms": slices.per_call_ms("query", raw=raw),
    }


def unit_cost(slices: Slices) -> float:
    """Reference-seconds per traced-run pass (the passes do equal work)."""
    return slices.seconds()


def probe_stream(state: dict):
    return state["inp"]["edges"]
