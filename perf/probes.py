"""Layer probes of the traced run: each layer's public API driven alone.

The traced pass of a workload gives the share-of-wall table; these probes
give the rest of the per-layer metrics by replaying a fixed-size prefix of
the *same workload's* edge stream straight into one layer at a time — the
store backends, the sharded store, the engine, an in-process
``GraphService``, and a ``serve-net`` subprocess.  Fixed work, so every
count (modeled cost, work ratios, iteration shares) repeats exactly for a
seed.  Times are reference-seconds (see ``clock.py``).
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import repro.obs as obs
import wl_serve
from clock import percentile
from harness import Ctx, quiet_gc
from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.core.config import ShardedConfig
from repro.core.store import create_store
from repro.engine import BFS, SSSP, ConnectedComponents, HybridEngine
from repro.engine.modes import FULL
from repro.errors import ReproError
from repro.net.client import GraphClient
from repro.net.frames import FrameDecoder, encode_frame
from repro.net.readpath import capture_view
from repro.net.replication import ReplicaServer
from repro.service import (GraphService, WriteAheadLog, list_segments,
                           recover)
from repro.workloads.rmat import rmat_edges
from repro.workloads.streams import highest_degree_roots, symmetrize
from spans import StoreProxy, WalProxy

BACKENDS = ("graphtinker", "gt_plain", "stinger", "tiered")
#: Bytes of one edge-cell / one CAL slot (three 8-byte fields), the unit
#: ``memory_blocks()`` counts blocks of.
CELL_BYTES = 24
ACK_EDGES = 16
BULK_EDGES = 2048
#: ``serve-net``'s default ``--flush-interval``, so the in-process service
#: probe batches exactly as the served one does.
FLUSH_INTERVAL = 0.002


def sizes(quick: bool) -> dict:
    if quick:
        return {"edges": 1_000, "batches": 4, "point_ops": 100,
                "acks": 20, "net_ops": 20, "rmat": 10_000, "churn": 3}
    return {"edges": 20_000, "batches": 4, "point_ops": 1_500,
            "acks": 150, "net_ops": 150, "rmat": 200_000, "churn": 5}


def _batches(edges: np.ndarray, n: int) -> list[np.ndarray]:
    return [b for b in np.array_split(edges, n) if b.shape[0]]


def _timed_batches(ctx: Ctx, call, batches) -> tuple[float, float]:
    """Σ reference-seconds and Σ raw wall of ``call(batch)`` per batch."""
    ref_s = wall_s = 0.0
    ctx.clock.mark()
    for batch in batches:
        t0 = time.perf_counter()
        call(batch)
        wall = time.perf_counter() - t0
        ref_s += wall / ctx.clock.factor()
        wall_s += wall
    return ref_s, wall_s


def _op_times(ctx: Ctx, call, args_list, scale: float = 1e6) -> list[float]:
    """Per-call durations (µs by default) of ``call(*args)``."""
    ctx.clock.mark()
    raw = []
    for args in args_list:
        t0 = time.perf_counter_ns()
        call(*args)
        raw.append(time.perf_counter_ns() - t0)
    factor = ctx.clock.factor()
    return [ns / 1e9 * scale / factor for ns in raw]


def _p50(values) -> float:
    return statistics.median(values)


# --------------------------------------------------------------------- #
# core
# --------------------------------------------------------------------- #
def probe_core(ctx: Ctx, edges: np.ndarray, sz: dict) -> dict:
    out: dict[str, float] = {}
    n = edges.shape[0]
    batches = _batches(edges, sz["batches"])
    doomed = _batches(edges[np.random.default_rng(7).permutation(n)],
                      sz["batches"])
    rng = np.random.default_rng(8)
    for backend in BACKENDS:
        create_store(backend).insert_batch(edges[:256])  # warm code paths
        store = create_store(backend)
        before = store.stats.snapshot()
        new = []
        ref_s, wall_s = _timed_batches(
            ctx, lambda b: new.append(store.insert_batch(b)), batches)
        delta = store.stats.delta(before)
        out[f"core.insert_eps.{backend}"] = n / ref_s
        out[f"core.modeled_cost_per_edge.{backend}"] = MODEL.cost(delta) / n
        out[f"core.wall_ns_per_access.{backend}"] = \
            wall_s * 1e9 / max(1, delta.total_block_accesses)
        if backend == "graphtinker":
            for field in ("workblock_fetches", "branch_descents",
                          "rhh_swaps", "hash_lookups", "cal_updates"):
                out[f"core.{field}_per_edge"] = getattr(delta, field) / n
            out["core.duplicate_share"] = 1.0 - sum(new) / n
            cfg, blocks = store.config, store.memory_blocks()
            cells = (blocks["main_edgeblocks"]
                     + blocks["overflow_edgeblocks"]) * cfg.pagewidth \
                + blocks.get("cal_blocks", 0) * cfg.cal_block_size
            out["core.bytes_per_live_edge"] = \
                cells * CELL_BYTES / store.n_edges
            _probe_point_reads(ctx, store, edges, rng, sz, out)
        ref_s, _ = _timed_batches(ctx, store.delete_batch, doomed)
        out[f"core.delete_eps.{backend}"] = n / ref_s
        ctx.checks.expect(store.n_edges == 0,
                          f"probe: {backend} not empty after full delete")
    quarter = edges[:max(1, n // 4)]
    for kernel in ("scalar", "vector"):
        store = create_store("graphtinker")
        _, ref_s = ctx.clock.timed(store.insert_batch, quarter, None, kernel)
        out[f"core.kernel_{kernel}_eps"] = quarter.shape[0] / ref_s
    store = create_store("graphtinker")
    out["core.insert_edge_us_p50"] = _p50(_op_times(
        ctx, store.insert_edge, edges[:sz["point_ops"]].tolist()))
    return out


def _probe_point_reads(ctx, store, edges, rng, sz, out) -> None:
    k = sz["point_ops"]
    present = edges[rng.integers(0, edges.shape[0], k // 2)]
    absent = rng.integers(0, int(edges.max()) + 1, (k - k // 2, 2))
    pairs = np.concatenate([present, absent]).tolist()
    sources = edges[rng.integers(0, edges.shape[0], k), 0].tolist()
    out["core.has_edge_us_p50"] = _p50(_op_times(ctx, store.has_edge, pairs))
    out["core.degree_us_p50"] = _p50(
        _op_times(ctx, store.degree, [(v,) for v in sources]))
    out["core.neighbors_us_p50"] = _p50(
        _op_times(ctx, store.neighbors, [(v,) for v in sources]))
    everyone = np.arange(int(edges.max()) + 1, dtype=np.int64)
    (src, _, _), ref_s = ctx.clock.timed(store.neighbors_many, everyone)
    out["core.neighbors_many_eps"] = src.shape[0] / ref_s


# --------------------------------------------------------------------- #
# core.sharded
# --------------------------------------------------------------------- #
def probe_sharded(ctx: Ctx, edges: np.ndarray, sz: dict,
                  inprocess_eps: float) -> dict:
    n = edges.shape[0]
    batches = _batches(edges, sz["batches"])
    n_shards = min(2, len(ctx.cpus))
    eps, makespan = {}, {}
    gather_eps = 0.0
    for shards in (1, n_shards):
        store = create_store("sharded", ShardedConfig(n_shards=shards))
        try:
            store.insert_batch(edges[:64])  # worker spawn + first dispatch
            store.delete_batch(edges[:64])
            spans = []

            def insert(batch, store=store, spans=spans):
                store.insert_batch(batch)
                spans.append(max(MODEL.cost(d)
                                 for d in store.last_batch_partitions))
            ref_s, _ = _timed_batches(ctx, insert, batches)
            eps[shards], makespan[shards] = n / ref_s, sum(spans)
            if shards == n_shards:
                everyone = np.arange(int(edges.max()) + 1, dtype=np.int64)
                (src, _, _), ref_s = ctx.clock.timed(store.neighbors_many,
                                                     everyone)
                gather_eps = src.shape[0] / ref_s
        finally:
            store.close()
    return {
        "core.sharded.insert_eps.s1": eps[1],
        "core.sharded.insert_eps.s2": eps[n_shards],
        "core.sharded.dispatch_tax": eps[1] / inprocess_eps,
        "core.sharded.measured_speedup": eps[n_shards] / eps[1],
        "core.sharded.modeled_makespan_speedup":
            makespan[1] / makespan[n_shards],
        "core.sharded.neighbors_many_eps": gather_eps,
    }


# --------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------- #
def probe_engine(ctx: Ctx, edges: np.ndarray, sz: dict) -> dict:
    half = edges[:edges.shape[0] // 2]
    graph = symmetrize(half)
    weights = np.repeat(
        np.random.default_rng(9).integers(1, 16, half.shape[0]), 2
    ).astype(np.float64)
    # a multiple of 4, so half a churn batch is still whole (u,v),(v,u) pairs
    churn_n = max(4, graph.shape[0] // 100) & ~3
    base = graph.shape[0] - sz["churn"] * churn_n
    on = create_store("graphtinker", snapshot=True)
    off = create_store("graphtinker", snapshot=False)
    on.insert_batch(graph[:base], weights[:base])
    off.insert_batch(graph[:base], weights[:base])
    roots = [int(r) for r in highest_degree_roots(graph[:base], 4)]
    everyone = np.arange(int(graph.max()) + 1, dtype=np.int64)

    def run_pass(program, root, policy="hybrid"):
        engine = HybridEngine(on, program(), policy=policy)
        engine.reset(roots=None if root is None else [root])
        return engine.compute()

    out: dict[str, float] = {}
    results = []
    for name, program, seeds in (("bfs", BFS, roots), ("sssp", SSSP, roots),
                                 ("cc", ConnectedComponents, [None])):
        run_pass(program, seeds[0])  # warm
        times = []
        for root in seeds:
            result, ref_s = ctx.clock.timed(run_pass, program, root)
            times.append(ref_s * 1e3)
            results.append((result, on.n_edges))
        out[f"engine.{name}_pass_ms_p50"] = _p50(times)
    for policy in ("full", "incremental"):
        times = [ctx.clock.timed(run_pass, BFS, root, policy)[1] * 1e3
                 for root in roots]
        out[f"engine.bfs_pass_ms_p50.{policy}"] = _p50(times)

    iterations = [it for result, _ in results for it in result.iterations]
    out["engine.fp_iteration_share"] = \
        sum(it.mode == FULL for it in iterations) / len(iterations)
    out["engine.iterations_per_pass"] = len(iterations) / len(results)
    graph_edges = sum(n for _, n in results)
    out["engine.edges_processed_per_graph_edge"] = \
        sum(r.edges_processed for r, _ in results) / graph_edges
    cost = sum(MODEL.cost(r.merged_stats()) for r, _ in results)
    out["engine.modeled_teps"] = graph_edges / cost

    on.neighbors_many(everyone)  # sync the snapshot before timing gathers
    (src, _, _), ref_s = ctx.clock.timed(on.neighbors_many, everyone)
    out["engine.gather_eps.snapshot_on"] = src.shape[0] / ref_s
    (src, _, _), ref_s = ctx.clock.timed(off.neighbors_many, everyone)
    out["engine.gather_eps.snapshot_off"] = src.shape[0] / ref_s

    patch_ms, update_s, round_s = [], 0.0, 0.0
    for r in range(sz["churn"]):
        lo = base + r * churn_n
        t0 = time.perf_counter()
        on.delete_batch(graph[r * churn_n // 2:(r + 1) * churn_n // 2])
        on.insert_batch(graph[lo:lo + churn_n], weights[lo:lo + churn_n])
        update = time.perf_counter() - t0
        _, first = ctx.clock.timed(on.neighbors_many, everyone)
        _, again = ctx.clock.timed(on.neighbors_many, everyone)
        patch_ms.append(max(0.0, first - again) * 1e3)
        t0 = time.perf_counter()
        for program in (BFS, SSSP):
            run_pass(program, roots[0])
        run_pass(ConnectedComponents, None)
        update_s += update
        round_s += update + time.perf_counter() - t0
    out["engine.snapshot_patch_ms_p50"] = _p50(patch_ms)
    out["engine.update_share"] = update_s / round_s
    return out


# --------------------------------------------------------------------- #
# service
# --------------------------------------------------------------------- #
def _dir_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def probe_service(ctx: Ctx, edges: np.ndarray, sz: dict) -> dict:
    tracer = ctx.tracer
    out: dict[str, float] = {}
    directory = ctx.tmp / "probe-service"
    n_acks = sz["acks"]
    acks = edges[:n_acks * ACK_EDGES].reshape(n_acks, ACK_EDGES, 2)
    bulk = _batches(edges, max(1, edges.shape[0] // BULK_EDGES))
    store = StoreProxy(create_store("graphtinker"), tracer)
    wal = WalProxy(WriteAheadLog(directory, sync="batch"), tracer)
    service = GraphService(directory, store=store, wal=wal,
                           flush_interval=FLUSH_INTERVAL)
    try:
        service.submit_insert(acks[0]).wait()  # warm flusher + WAL segment
        first = len(tracer.spans)
        flushes0 = service.n_flushes
        ctx.clock.mark()
        t0 = time.perf_counter()
        for batch in acks:
            sid = tracer.open("service.ack")
            tracer.ambient = sid
            service.submit_insert(batch).wait()
            tracer.ambient = None
            tracer.close(sid)
        wall = time.perf_counter() - t0
        factor = ctx.clock.factor()
        flushes = service.n_flushes - flushes0

        ack, wal_ms, apply_ms, n_syncs = {}, {}, {}, 0
        for sid, name, _, _, parent, start, end in tracer.spans[first:]:
            ms = (end - start) / 1e6 / factor
            if name == "service.ack":
                ack[sid] = ms
            elif name.startswith("service.wal."):
                wal_ms[parent] = wal_ms.get(parent, 0.0) + ms
                n_syncs += name == "service.wal.sync"
            elif name == "core.insert_batch":
                apply_ms[parent] = apply_ms.get(parent, 0.0) + ms
        out["service.ack_ms_p50"] = _p50(ack.values())
        out["service.ack_ms_p99"] = percentile(list(ack.values()), 0.99)
        out["service.wal.append_sync_ms_p50"] = _p50(
            wal_ms.get(sid, 0.0) for sid in ack)
        out["service.store_apply_ms_p50"] = _p50(
            apply_ms.get(sid, 0.0) for sid in ack)
        # what the ack waited for that is neither log nor store: queue
        # wait for the flush trigger, coalescing, thread hand-off
        out["service.unattributed_ms_p50"] = _p50(
            ack[sid] - wal_ms.get(sid, 0.0) - apply_ms.get(sid, 0.0)
            for sid in ack)
        out["service.wal.syncs_per_ack"] = n_syncs / n_acks
        out["service.requests_per_flush"] = n_acks / flushes
        out["service.flushes_per_s"] = flushes * factor / wall

        ref_s, _ = _timed_batches(
            ctx, lambda b: service.submit_insert(b).wait(), bulk)
        out["service.bulk_ingest_eps"] = edges.shape[0] / ref_s
        logged = service.cum_input_edges
        out["service.wal.bytes_per_edge"] = \
            _dir_bytes(list_segments(directory)) / logged
        n_records = service.applied_seq
    finally:
        service.close()

    # recovery: replay the whole log (no checkpoint has been taken yet)
    copies = []
    for i in range(3):
        copies.append(ctx.tmp / f"probe-recover-{i}")
        shutil.copytree(directory, copies[-1])
    result, ref_s = ctx.clock.timed(recover, copies[0])
    ctx.checks.expect(result.replayed_records == n_records,
                      f"probe: recovery replayed {result.replayed_records} "
                      f"of {n_records} records")
    out["service.recover_records_per_s"] = n_records / ref_s
    opens = []
    for copy in copies[1:]:
        (reopened, _), ref_s = ctx.clock.timed(GraphService.open, copy)
        reopened.close()
        opens.append(ref_s)
    out["service.recovery_s"] = _p50(opens)

    reopened, _ = GraphService.open(copies[0])
    try:
        path, ref_s = ctx.clock.timed(reopened.checkpoint)
        out["service.checkpoint_s"] = ref_s
        out["service.checkpoint_bytes_per_edge"] = \
            path.stat().st_size / reopened.n_edges
    finally:
        reopened.close()
    return out


# --------------------------------------------------------------------- #
# net
# --------------------------------------------------------------------- #
def probe_net(ctx: Ctx, edges: np.ndarray, sz: dict,
              service_ack_ms: float) -> dict:
    tracer = ctx.tracer
    out: dict[str, float] = {}
    n = sz["net_ops"]
    rng = np.random.default_rng(10)
    sources = edges[rng.integers(0, edges.shape[0], n), 0].tolist()
    writes = edges[:n * ACK_EDGES].reshape(n, ACK_EDGES, 2)
    proc, port = wl_serve.start_server(ctx.tmp / "probe-net", ctx.cpus)
    errors = regressions = retries = 0
    try:
        conn = GraphClient("127.0.0.1", port).connect()
        for batch in _batches(edges, max(1, edges.shape[0] // BULK_EDGES)):
            conn.insert_edges(batch.tolist())
        conn.refresh()
        responses = []

        def timed(op, args_list, call):
            nonlocal errors, regressions
            call(*args_list[0])  # warm the op's path
            ms, last = [], -1
            ctx.clock.mark()
            for args in args_list:
                t0 = time.perf_counter_ns()
                try:
                    with tracer.span(f"net.{op}"):
                        result = call(*args)
                except ReproError:
                    errors += 1
                    continue
                ms.append((time.perf_counter_ns() - t0) / 1e6)
                if conn.last_generation is not None:
                    regressions += conn.last_generation < last
                    last = conn.last_generation
                responses.append(result)
            factor = ctx.clock.factor()
            return [m / factor for m in ms]

        ping = timed("ping", [()] * n, conn.ping)
        degree = timed("degree", [(v,) for v in sources], conn.degree)
        neighbors = timed("neighbors", [(v,) for v in sources],
                          conn.neighbors)
        khop = timed("khop", [(v,) for v in sources[:max(2, n // 2)]],
                     lambda v: conn.khop(v, 2, limit=wl_serve.KHOP_LIMIT))
        payloads = [batch.tolist() for batch in writes]
        insert = timed("insert_edges", [(p,) for p in payloads],
                       conn.insert_edges)
        out["net.ping_rtt_ms_p50"] = _p50(ping)
        out["net.degree_ms_p50"] = _p50(degree)
        out["net.neighbors_ms_p50"] = _p50(neighbors)
        out["net.khop_ms_p50"] = _p50(khop)
        out["net.insert_ack_ms_p50"] = _p50(insert)
        out["net.wire_overhead_ms_p50"] = _p50(insert) - service_ack_ms
        out["net.read_ms_p99"] = percentile(degree + neighbors + khop, 0.99)
        out["net.write_ms_p99"] = percentile(insert, 0.99)

        # codec alone, on the request/response mix just exchanged
        requests = (
            [{"id": i, "op": "degree", "args": {"src": v}}
             for i, v in enumerate(sources)]
            + [{"id": i, "op": "neighbors", "args": {"src": v}}
               for i, v in enumerate(sources)]
            + [{"id": i, "op": "insert_edges",
                "args": {"edges": p, "wait": True}}
               for i, p in enumerate(payloads)])
        replies = [{"id": i, "ok": True, "result": r}
                   for i, r in enumerate(responses)
                   if isinstance(r, dict)]
        frames = [encode_frame(obj) for obj in requests + replies]
        out["net.frame_encode_us_p50"] = _p50(
            _op_times(ctx, encode_frame, [(o,) for o in requests + replies]))

        def decode(frame):
            decoder = FrameDecoder()
            decoder.feed(frame)
            return list(decoder.frames())
        out["net.frame_decode_us_p50"] = _p50(
            _op_times(ctx, decode, [(f,) for f in frames]))
        out["net.request_bytes_p50"] = _p50(
            len(f) for f in frames[:len(requests)])
        out["net.response_bytes_p50"] = _p50(
            len(f) for f in frames[len(requests):])

        more = edges[-n * ACK_EDGES:].reshape(n, ACK_EDGES, 2)
        _, ref_s = ctx.clock.timed(conn.submit_edges_pipelined,
                                   [b.tolist() for b in more])
        out["net.pipelined_write_eps"] = more.shape[0] * ACK_EDGES / ref_s
        retries = conn.n_retries

        # a replica pulling the finished writer's log from record 0
        target = int(conn.health()["applied_seq"])
        replica = ReplicaServer(ctx.tmp / "probe-replica", "127.0.0.1", port)
        ctx.clock.mark()
        t0 = time.perf_counter()
        replica.start()
        try:
            caught_up = replica.wait_caught_up(target, timeout=60.0)
            ref_s = (time.perf_counter() - t0) / ctx.clock.factor()
        finally:
            replica.stop(checkpoint=False)
        ctx.checks.expect(caught_up, "probe: replica never caught up")
        out["net.replication.catchup_records_per_s"] = target / ref_s
        conn.close()
    finally:
        wl_serve.kill_server(proc)

    # the read path without the wire: capture_view + ReadView direct
    service, _ = GraphService.open(ctx.tmp / "probe-net" / "data")
    try:
        captures = []
        for batch in writes[:10]:
            service.submit_insert(batch).wait()
            view, ref_s = ctx.clock.timed(capture_view, service)
            captures.append(ref_s * 1e3)
        out["net.view_capture_ms_p50"] = _p50(captures)
        out["net.readview_degree_us_p50"] = _p50(
            _op_times(ctx, view.degree, [(v,) for v in sources]))
        out["net.readview_neighbors_us_p50"] = _p50(
            _op_times(ctx, view.neighbors, [(v,) for v in sources]))
        out["net.readview_khop_us_p50"] = _p50(_op_times(
            ctx, lambda v: view.khop(v, 2, limit=wl_serve.KHOP_LIMIT),
            [(v,) for v in sources]))
    finally:
        service.close()

    served = ctx.notes  # the serve_mixed pass's own counts, when it ran
    shed = served.get("errors", {}).get("SHED", 0)
    out["net.retries"] = retries + served.get("retries", 0)
    out["net.shed"] = shed
    out["net.typed_errors"] = errors + sum(served.get("errors", {}).values())
    out["net.generation_regressions"] = \
        regressions + served.get("generation_regressions", 0)
    if errors or regressions:
        ctx.checks.fail(f"probe: {errors} failed requests, {regressions} "
                        f"generation regressions", errors + regressions)
    return out


# --------------------------------------------------------------------- #
# guards
# --------------------------------------------------------------------- #
def probe_guards(ctx: Ctx, edges: np.ndarray, sz: dict) -> dict:
    batches = _batches(edges, sz["batches"])

    def load() -> float:
        store = create_store("graphtinker")
        return _timed_batches(ctx, store.insert_batch, batches)[0]
    off = min(load(), load())
    obs.enable()
    try:
        on = min(load(), load())
    finally:
        obs.disable()
    made, ref_s = ctx.clock.timed(rmat_edges, 14, sz["rmat"], seed=ctx.seed)
    return {
        "obs.enabled_overhead_share": (on - off) / off,
        "workloads.rmat_eps": made.shape[0] / ref_s,
    }


def run_all(ctx: Ctx, stream: np.ndarray) -> dict:
    """Every probe on the first ``sizes()['edges']`` rows of ``stream``."""
    sz = sizes(ctx.quick)
    edges = np.ascontiguousarray(stream[:sz["edges"]])
    out: dict[str, float] = {}
    with quiet_gc():
        out.update(probe_core(ctx, edges, sz))
        out.update(probe_sharded(ctx, edges, sz,
                                 out["core.insert_eps.graphtinker"]))
        out.update(probe_engine(ctx, edges, sz))
    ctx.tracer.enabled = True
    try:
        out.update(probe_service(ctx, edges, sz))
        out.update(probe_net(ctx, edges, sz, out["service.ack_ms_p50"]))
    finally:
        ctx.tracer.enabled = False
    with quiet_gc():
        out.update(probe_guards(ctx, edges, sz))
    return out
