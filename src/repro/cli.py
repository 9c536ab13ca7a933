"""Command-line interface: ``python -m repro <command>``.

Gives shell access to the library's main workflows without writing code:

* ``datasets`` — print the Table 1 registry at the active scale.
* ``generate`` — write a scaled dataset (or raw RMAT) to an edge-list file.
* ``load`` — batch-insert a dataset into GraphTinker and/or STINGER and
  report per-batch modeled throughput (a Fig. 8-style run).
* ``analytics`` — load a dataset and run BFS/SSSP/CC/PageRank through the
  hybrid engine under a chosen policy.
* ``probe`` — print the probe-distance comparison (the O(log n) claim).
* ``trace`` — run a small traced load+BFS with :mod:`repro.obs` enabled
  and dump the span tree / metric exports.
* ``serve`` — drive an RMAT stream through the durable
  :class:`~repro.service.GraphService` (WAL + checkpoints), optionally
  killing the writer mid-stream (``--kill-at``) and resuming a crashed
  run (``--resume``).
* ``recover`` — rebuild a service directory's store from its latest
  checkpoint plus the WAL tail; report what was replayed.
* ``fsck`` — recover a service directory and audit the rebuilt store's
  structural invariants (:mod:`repro.core.verify`); ``--repair``
  self-heals, ``--corrupt N`` injects damage first (chaos testing).
* ``top`` — live in-terminal service dashboard: drives an RMAT stream
  through a temporary GraphService with the metrics sampler on and
  renders the time-series ring as sparklines (``--once`` prints a single
  frame for CI).
* ``serve-net`` — host a service directory over TCP: the asyncio
  :class:`~repro.net.server.GraphServer` speaking the length-prefixed
  frame protocol (docs/network.md), mutations ticketed through the WAL,
  reads served lock-free from the CSR snapshot.
* ``serve-replica`` — host a WAL-shipping read replica of a running
  ``serve-net``: pulls the writer's WAL over the wire, applies it to a
  local durable copy, and serves the read ops with staleness metadata.
* ``loadgen`` — drive a running ``serve-net`` with closed-loop client
  workers at a 90:10 read:write mix and print the sustained op rates;
  ``--replicas`` routes reads over replicas with automatic failover.
* ``blackbox`` — read a flight-recorder post-mortem dump (or list the
  dumps in a service directory).

Every command accepts ``--edges`` to bound run time and ``--log-level``
to control :mod:`repro.obs.log` verbosity.

Exit codes are uniform across subcommands: **0** success, **1** any
repro-domain failure (:class:`~repro.errors.ReproError`, including a
simulated ``serve --kill-at`` crash), **2** usage errors (argparse).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.errors import ReproError, WorkloadError
from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.bench.metrics import run_batched
from repro.bench.reporting import Table
from repro.core.config import ShardedConfig
from repro.core.probes import graphtinker_probe_summary, stinger_probe_summary
from repro.core.store import backend_names, create_store, store_digest
from repro.engine import HybridEngine
from repro.engine.algorithms import BFS, SSSP, ConnectedComponents, PageRank
from repro.obs.log import LEVELS, configure_logging, get_logger, kv
from repro.workloads import load_dataset, rmat_edges
from repro.workloads.datasets import DATASET_ORDER, dataset_properties
from repro.workloads.io import write_edge_list
from repro.workloads.streams import highest_degree_roots, symmetrize

log = get_logger("cli")

#: Rows of a long listing printed before "... and N more" (``fsck``
#: violations, ``blackbox`` events and spans).
_SHOWN_ROWS = 20
#: ``top``'s sampling / redraw interval in seconds.
_TOP_INTERVAL_S = 0.25

_ALGORITHMS = {
    "bfs": (BFS, False, True),
    "sssp": (SSSP, False, True),
    "cc": (ConnectedComponents, True, False),
    "pagerank": (PageRank, False, False),
}


def _batch_edges(args) -> int:
    """``--batch-size``, else :class:`~repro.service.GraphService`'s own
    ``batch_edges`` default: serve, serve-net and top share that one."""
    from repro.service import GraphService

    if args.batch_size is not None:
        return args.batch_size
    return inspect.signature(GraphService).parameters["batch_edges"].default


def _edges_for(args) -> np.ndarray:
    _, edges = load_dataset(args.dataset)
    if args.edges:
        edges = edges[: args.edges]
    return edges


def cmd_datasets(args) -> int:
    table = Table(
        "Table 1 datasets (scaled)",
        ["name", "type", "paper |V|", "paper |E|", "scaled |V|", "scaled |E|", "avg deg"],
    )
    for name in DATASET_ORDER:
        row = dataset_properties(name)
        table.add_row([row["name"], row["type"], row["paper_vertices"],
                       row["paper_edges"], row["scaled_vertices"],
                       row["scaled_edges"], row["avg_out_degree"]])
    table.print()
    return 0


def cmd_generate(args) -> int:
    if args.dataset:
        edges = _edges_for(args)
    else:
        edges = rmat_edges(args.scale, args.edges or 10_000, seed=args.seed)
    write_edge_list(args.output, edges)
    print(f"wrote {edges.shape[0]} edges to {args.output}")
    return 0


def _batches(edges: np.ndarray, n_batches: int) -> list[np.ndarray]:
    """``n_batches`` batches (fewer only if there are fewer edges), sizes as ``np.array_split``."""
    return np.array_split(edges, max(1, min(n_batches, edges.shape[0])))


def _write(path: str, text: str, what: str = "JSON report") -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)
    print(f"wrote {what} to {path}")


def cmd_load(args) -> int:
    edges = _edges_for(args)
    batches = _batches(edges, args.batches)
    table = Table(
        f"insertion throughput: {args.dataset} ({edges.shape[0]} edges, "
        f"{len(batches)} batches)",
        ["system"] + [f"batch{i}" for i in range(len(batches))],
    )
    report: dict = {
        "dataset": args.dataset,
        "edges": int(edges.shape[0]),
        "batches": len(batches),
        "systems": [],
    }
    for kind in args.systems:
        store = create_store(kind, ShardedConfig(n_shards=max(1, args.shards))
                             if kind == "sharded" else None)
        ms = run_batched(batches, store.insert_batch, store.stats, "insert_batch")
        log.info(kv("insertion run finished", system=kind,
                    edges=store.n_edges,
                    block_accesses=store.stats.total_block_accesses))
        table.add_row([kind] + [m.modeled_throughput(MODEL) for m in ms])
        report["systems"].append({
            "system": kind,
            "shards": args.shards if kind == "sharded" else None,
            "modeled_throughput": [m.modeled_throughput(MODEL) for m in ms],
            "wall_seconds": [m.wall_seconds for m in ms],
            "final_edges": int(store.n_edges),
            "block_accesses": int(store.stats.total_block_accesses),
            # Canonical content digest: every backend loading the same
            # stream must agree here (CI diffs tiered against graphtinker,
            # and a 4-shard load against a 1-shard one).
            "digest": store_digest(store),
        })
        closer = getattr(store, "close", None)
        if closer is not None:
            closer()
    table.print()
    if args.json:
        _write(args.json, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_analytics(args) -> int:
    program_cls, undirected, needs_root = _ALGORITHMS[args.algorithm]
    edges = _edges_for(args)
    if undirected:
        edges = symmetrize(edges)
    store = create_store(args.system, snapshot=args.snapshot)
    store.insert_batch(edges)
    engine = HybridEngine(store, program_cls(), policy=args.policy)
    root = None
    if needs_root:
        root = int(highest_degree_roots(edges, 1)[0])
        engine.reset(roots=[root])
        print(f"root vertex: {root}")
    else:
        engine.reset()
        engine.mark_inconsistent(edges)
        if args.algorithm == "pagerank":
            engine._active = np.arange(engine.values.shape[0])
    before = store.stats.snapshot()
    result = engine.compute()
    delta = store.stats.delta(before)
    log.info(kv("analytics finished", algorithm=args.algorithm,
                iterations=result.n_iterations))
    print(f"{args.algorithm} on {args.dataset} via {args.system} [{args.policy}]"
          f"{' +snapshot' if args.snapshot else ''}:")
    print(f"  iterations: {result.n_iterations}  modes: {result.modes_used()}")
    print(f"  modeled throughput: {MODEL.throughput(store.n_edges, delta):.3f} "
          f"edges/access-cycle")
    finite = np.isfinite(engine.values)
    print(f"  vertices with a result: {int(finite.sum())}")
    if args.json:
        # Everything a snapshot-on/off equivalence check needs: the
        # modeled access deltas, the per-iteration trace, and a digest of
        # the full property vector.  Only the "snapshot" key may differ
        # between a --snapshot and a plain run (CI diffs the rest).
        report = {
            "dataset": args.dataset,
            "algorithm": args.algorithm,
            "system": args.system,
            "policy": args.policy,
            "snapshot": bool(args.snapshot),
            "root": root,
            "iterations": result.n_iterations,
            "modes": result.modes_used(),
            "edges_processed": result.edges_processed,
            "trace": [
                {"mode": r.mode, "n_active": r.n_active,
                 "edges_processed": r.edges_processed,
                 "n_changed": r.n_changed,
                 "stats": r.stats_delta.as_dict()}
                for r in result.iterations
            ],
            "stats": delta.as_dict(),
            "finite_vertices": int(finite.sum()),
            "values_sha256": hashlib.sha256(
                np.ascontiguousarray(engine.values).tobytes()).hexdigest(),
        }
        _write(args.json, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_figures(args) -> int:
    from repro.bench.export import export_insertion_figure

    path = export_insertion_figure(args.output_dir, dataset=args.dataset,
                                   n_batches=args.batches)
    print(f"wrote {path}")
    print("(run `pytest benchmarks/ --benchmark-only` for every table/figure)")
    return 0


def cmd_trace(args) -> int:
    """Traced load + BFS: the observability subsystem's show-and-tell.

    Enables :mod:`repro.obs`, batch-inserts a slice of the dataset (one
    ``insert_batch`` span per batch), runs BFS through the hybrid engine
    (one ``engine.<mode>`` span per iteration), then prints the span
    tree, the metrics table, and a cross-check that the per-span
    ``AccessStats`` deltas sum to the store's own totals.
    """
    edges = _edges_for(args)
    batches = _batches(edges, args.batches)
    store = create_store(args.system)
    tracer = obs.get_tracer()
    tracer.reset()
    obs.get_registry().reset()
    obs.enable()
    try:
        with obs.span("trace", stats=store.stats, dataset=args.dataset,
                      system=args.system):
            log.info(kv("traced load starting", dataset=args.dataset,
                        edges=edges.shape[0], batches=len(batches)))
            run_batched(batches, store.insert_batch, store.stats, "insert_batch")
            engine = HybridEngine(store, BFS(), policy="hybrid")
            root = int(highest_degree_roots(edges, 1)[0])
            engine.reset(roots=[root])
            log.info(kv("traced BFS starting", root=root))
            engine.compute()
    finally:
        obs.disable()

    roots = tracer.roots
    print(obs.render_span_tree(roots))
    obs.registry_to_table(obs.get_registry()).print()

    child_sum = sum((span.merged_delta() for span in roots[0].children),
                    start=type(store.stats)())
    total = roots[0].stats_delta
    line = (f"span-delta cross-check: children sum "
            f"{child_sum.total_block_accesses} block accesses, "
            f"store total {total.total_block_accesses}")
    print(line)
    if child_sum.as_dict() != total.as_dict():
        print("WARNING: span deltas do not sum to store totals")
        return 1

    for path, render, what in (
        (args.jsonl, lambda: obs.trace_to_jsonl(roots), "trace JSONL"),
        (args.prometheus,
         lambda: obs.registry_to_prometheus(obs.get_registry()),
         "Prometheus metrics"),
    ):
        if path:
            _write(path, render(), what)
    return 0


def cmd_serve(args) -> int:
    """Durable-service driver: RMAT stream -> GraphService (WAL-backed).

    The input stream is fully determined by ``--scale/--edges/--seed``,
    and every WAL record carries the cumulative input-row count, so a
    killed run (real or ``--kill-at``-simulated) resumes exactly where
    its durable prefix ended: ``--resume`` recovers, skips the consumed
    prefix, and feeds the rest.
    """
    # The service layer is imported lazily: plain bench/trace invocations
    # never load it (ROADMAP: nothing new on the hot path).
    from repro.service import (
        FaultInjector,
        GraphService,
        SimulatedCrash,
        TransientFaultInjector,
    )

    data_dir = Path(args.data_dir)
    has_state = data_dir.is_dir() and any(data_dir.iterdir())
    if has_state and not args.resume:
        raise WorkloadError(
            f"{data_dir} already holds service state; pass --resume to "
            f"continue it (or point --data-dir at a fresh directory)"
        )
    if args.resume and not has_state:
        raise WorkloadError(f"{data_dir}: nothing to resume")

    edges = rmat_edges(args.scale, args.edges, seed=args.seed)
    batch = _batch_edges(args)
    if args.obs:
        # Full telemetry: metrics/sketches/flight recorder, so a crash or
        # breaker trip leaves a blackbox-*.json post-mortem in --data-dir.
        obs.enable()
    injector = None
    if args.kill_at is not None and args.fail_every:
        raise WorkloadError("--kill-at and --fail-every are mutually exclusive")
    if args.kill_at is not None:
        injector = FaultInjector(args.kill_at)
    elif args.fail_every:
        injector = TransientFaultInjector(
            fail_every=args.fail_every, fail_times=args.fail_times,
            hard=args.hard_faults)
    config = None
    if args.shards > 1 or args.system == "sharded":
        inner = (args.system if args.system not in (None, "sharded")
                 else "graphtinker")
        config = ShardedConfig(n_shards=max(1, args.shards), backend=inner)
    elif args.system is not None:
        config = create_store(args.system).config  # the backend's default
    service, rec = GraphService.open(
        data_dir,
        config=config,
        batch_edges=batch,
        checkpoint_every=args.checkpoint_every,
        injector=injector,
        max_retries=args.max_retries,
        breaker_threshold=args.breaker_threshold,
    )
    offset = rec.cum_edges
    if args.resume:
        print(f"resumed at input offset {offset}: {rec.store.n_edges} edges "
              f"recovered (checkpoint seq {rec.checkpoint_seq}, "
              f"replayed {rec.replayed_records} WAL records)")
    log.info(kv("serve starting", edges=edges.shape[0], offset=offset,
                batch_size=batch))
    try:
        for start in range(offset, edges.shape[0], batch):
            service.submit_insert(edges[start:start + batch])
        service.flush_now()
    except ReproError as exc:
        health = service.health()
        if health["breaker"]["state"] == "open":
            print(f"circuit breaker open: {exc}", file=sys.stderr)
            print(f"durable input rows: {service.cum_input_edges} of "
                  f"{edges.shape[0]}", file=sys.stderr)
            service.close()
            return 1
        if not isinstance(service.fatal_error, SimulatedCrash):
            raise
    if service.fatal_error is not None:
        print(f"writer crashed: {service.fatal_error}", file=sys.stderr)
        print(f"durable input rows: {service.cum_input_edges} of "
              f"{edges.shape[0]}", file=sys.stderr)
        service.close()  # joins the flusher, so its dump is on disk
        if args.obs:
            from repro.obs.recorder import list_blackboxes

            for dump in list_blackboxes(data_dir)[:1]:
                print(f"post-mortem: python -m repro blackbox {dump}",
                      file=sys.stderr)
        return 1
    service.close(checkpoint=args.final_checkpoint)
    print(f"final edges: {service.n_edges}")
    print(f"last seq: {service.applied_seq}  "
          f"input consumed: {service.cum_input_edges}  "
          f"flushes: {service.n_flushes}")
    if injector is not None and hasattr(injector, "injected"):
        print(f"injected transient faults: {injector.injected}")
    return 0


def cmd_serve_net(args) -> int:
    """Network front-end: host a GraphService directory over TCP.

    Binds (``--port 0`` = ephemeral), optionally writes the bound port
    to ``--port-file`` (how scripted callers discover it), then serves
    until the duration elapses or the process is interrupted.  The
    service directory is created fresh or recovered, same contract as
    ``serve``.
    """
    import tempfile
    import time as _time

    from repro.net import ServerThread

    # Every write ack is two GIL hand-offs (event loop -> flusher ->
    # event loop) and a view re-capture on the pool can be running
    # beside them; at the default 5ms switch interval whichever thread
    # is waiting convoys behind the one that holds the GIL.  A 1ms
    # interval keeps the hand-offs tight.
    sys.setswitchinterval(0.001)
    from repro.service import GraphService

    if args.obs:
        obs.enable()
    if args.data_dir is None:
        data_dir = Path(tempfile.mkdtemp(prefix="repro-serve-net-"))
        print(f"serving ephemeral state in {data_dir}")
    else:
        data_dir = Path(args.data_dir)
    config = ShardedConfig(n_shards=args.shards) if args.shards > 1 else None
    service, rec = GraphService.open(
        data_dir,
        config=config,
        batch_edges=_batch_edges(args),
        checkpoint_every=args.checkpoint_every,
        breaker_threshold=args.breaker_threshold,
    )
    if rec.replayed_records or rec.checkpoint_seq:
        print(f"recovered {rec.store.n_edges} edges "
              f"(checkpoint seq {rec.checkpoint_seq}, "
              f"replayed {rec.replayed_records} WAL records)")
    thread = ServerThread(service, args.host, args.port)
    try:
        thread.start()
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        service.close()
        return 1
    if args.port_file:
        Path(args.port_file).write_text(f"{thread.port}\n")
    print(f"listening on {args.host}:{thread.port} "
          f"(protocol v1, data dir {data_dir})", flush=True)
    deadline = (_time.monotonic() + args.duration) if args.duration else None
    try:
        while deadline is None or _time.monotonic() < deadline:
            _time.sleep(0.2)
            if service.fatal_error is not None:
                print(f"service failed: {service.fatal_error}",
                      file=sys.stderr)
                return 1
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        thread.stop()
        service.close(checkpoint=args.final_checkpoint)
    print(f"served {thread.server.n_connections} connections; "
          f"final edges: {service.n_edges}  last seq: {service.applied_seq}")
    return 0


def cmd_serve_replica(args) -> int:
    """Host a WAL-shipping read replica of a running ``serve-net``.

    The replica owns its own service directory (WAL + checkpoints), so
    ``kill -9`` + restart recovers locally and resumes the stream from
    its last applied cursor.  Reads are served with honest staleness
    metadata; mutations are refused with ``NOT_WRITER``.
    """
    import tempfile
    import time as _time

    from repro.net.replication import ReplicaServer

    sys.setswitchinterval(0.001)  # same GIL-convoy mitigation as serve-net
    if args.obs:
        obs.enable()
    if not args.upstream_port and not args.upstream_port_file:
        raise WorkloadError("need --upstream-port or --upstream-port-file")
    if args.data_dir is None:
        data_dir = Path(tempfile.mkdtemp(prefix="repro-replica-"))
        print(f"replica state in ephemeral {data_dir}")
    else:
        data_dir = Path(args.data_dir)
    rep = ReplicaServer(
        data_dir, args.upstream_host, args.upstream_port,
        upstream_port_file=args.upstream_port_file,
        host=args.host, port=args.port,
        replica_id=args.replica_id,
        max_lag_seq=args.max_lag_seq,
        checkpoint_every=args.checkpoint_every,
    )
    try:
        rep.start()
    except OSError as exc:
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        rep.service.close(checkpoint=False)
        return 1
    if args.port_file:
        Path(args.port_file).write_text(f"{rep.port}\n")
    print(f"replica {rep.link.replica_id} listening on "
          f"{args.host}:{rep.port} (data dir {data_dir}, "
          f"applied seq {rep.service.applied_seq})", flush=True)
    deadline = (_time.monotonic() + args.duration) if args.duration else None
    try:
        while deadline is None or _time.monotonic() < deadline:
            _time.sleep(0.2)
            if rep.service.fatal_error is not None:
                print(f"replica failed: {rep.service.fatal_error}",
                      file=sys.stderr)
                return 1
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        rep.stop()
    repl = rep.service.health()["replication"]
    print(f"replica stopped at seq {rep.service.applied_seq} "
          f"(lag {repl['lag_seq']}, resyncs {repl['n_resyncs']}, "
          f"resubscribes {repl['n_resubscribes']})")
    return 0


def _parse_endpoints(specs: list[str]) -> list[tuple[str, int]]:
    """``host:port`` strings -> ``(host, port)`` pairs."""
    out = []
    for spec in specs:
        host, sep, port = spec.rpartition(":")
        if not sep or not port.isdigit():
            raise WorkloadError(f"bad endpoint {spec!r} (expected host:port)")
        out.append((host or "127.0.0.1", int(port)))
    return out


def cmd_loadgen(args) -> int:
    """Closed-loop load generator against a running ``serve-net``."""
    from repro.net.loadgen import run_loadgen

    # Same GIL-convoy mitigation as serve-net: the measured client-side
    # latencies include time a worker thread spends waiting for the GIL
    # behind its siblings.
    sys.setswitchinterval(0.001)

    port = args.port
    if args.port_file:
        port = int(Path(args.port_file).read_text().strip())
    if not port:
        raise WorkloadError("need --port or --port-file")
    replicas = _parse_endpoints(args.replicas) if args.replicas else None
    stats = run_loadgen(
        args.host, port,
        clients=args.clients,
        duration=args.duration,
        scale=args.scale,
        seed=args.seed,
        port_file=args.port_file,
        replicas=replicas,
    )
    summary = stats.summary()
    table = Table("loadgen", ["metric", "value"])
    table.add_row(["wall_s", f"{summary['wall_s']:.2f}"])
    table.add_row(["read ops/s", f"{summary['read_ops_per_s']:.0f}"])
    table.add_row(["write ops/s", f"{summary['write_ops_per_s']:.0f}"])
    table.add_row(["read p50/p99 ms",
                   f"{summary['read_p50_ms']:.2f} / "
                   f"{summary['read_p99_ms']:.2f}"])
    table.add_row(["write p50/p99 ms",
                   f"{summary['write_p50_ms']:.2f} / "
                   f"{summary['write_p99_ms']:.2f}"])
    table.add_row(["edges written", str(summary['n_edges_written'])])
    table.add_row(["transient retries", str(summary['n_retries'])])
    if replicas:
        table.add_row(["staleness p50/p99 lag",
                       f"{summary['staleness_p50_lag']:.0f} / "
                       f"{summary['staleness_p99_lag']:.0f} seqs"])
        table.add_row(["failovers", str(summary['n_failovers'])])
        table.add_row(["stale rejects", str(summary['n_stale_rejects'])])
    table.add_row(["typed errors", str(summary['errors'] or "none")])
    table.add_row(["generation regressions",
                   str(summary['generation_regressions'])])
    print(table.render())
    if summary["generation_regressions"]:
        print("error: read generation went backwards", file=sys.stderr)
        return 1
    if stats.total_ops == 0:
        print("error: no operation completed", file=sys.stderr)
        return 1
    return 0


def cmd_recover(args) -> int:
    """Recover a service directory; print (and optionally checkpoint) it."""
    from repro.service import CheckpointManager, recover

    result = recover(Path(args.data_dir))
    print(f"recovered edges: {result.store.n_edges}")
    print(f"checkpoint seq: {result.checkpoint_seq}  "
          f"last seq: {result.last_seq}  "
          f"replayed records: {result.replayed_records}  "
          f"replayed edges: {result.replayed_edges}  "
          f"input consumed: {result.cum_edges}")
    if result.torn_offset is not None:
        print(f"truncated torn WAL tail at byte {result.torn_offset}")
    if args.checkpoint:
        path = CheckpointManager(args.data_dir).write(
            result.store, result.last_seq, result.cum_edges)
        print(f"wrote checkpoint {path}")
    return 0


def cmd_fsck(args) -> int:
    """Recover a service directory and audit its structural invariants.

    Exit 0 when the store is clean (or ``--repair`` healed it back to
    clean); exit 1 when violations remain.  ``--corrupt N`` injects N
    random store corruptions after recovery — the chaos-testing loop:
    corrupt -> fsck must flag it -> ``--repair`` must heal it.
    """
    from repro.service import CheckpointManager, StoreCorruptor, recover

    result = recover(Path(args.data_dir), verify=None)
    store = result.store
    print(f"recovered {store.n_edges} edges "
          f"(checkpoint seq {result.checkpoint_seq}, "
          f"replayed {result.replayed_records} WAL records)")
    if args.corrupt:
        corruptor = StoreCorruptor(store)
        for injected in corruptor.corrupt_random(args.corrupt):
            print(f"injected {injected.kind}: {injected.detail}")

    def show(report, prefix: str = "") -> None:
        print(prefix + report.summary())
        shown = report.violations[:_SHOWN_ROWS]
        for violation in shown:
            print(f"  [{violation.kind}] vertex={violation.vertex} "
                  f"{violation.where}: {violation.detail}")
        if len(report.violations) > len(shown):
            print(f"  ... and {len(report.violations) - len(shown)} more")

    report = store.fsck()
    show(report)
    if report.ok:
        return 0
    if not args.repair:
        return 1

    repair = store.fsck(repair=True)
    print(f"repair: {len(repair.rebuilt_vertices)} vertices rebuilt, "
          f"{len(repair.recounted_vertices)} recounted, "
          f"{repair.freed_blocks} blocks freed, "
          f"{repair.sgh_fixes} SGH fixes")
    show(repair.final, "post-repair: ")
    if not repair.ok:
        return 1
    if args.checkpoint:
        path = CheckpointManager(args.data_dir).write(
            store, result.last_seq, result.cum_edges)
        print(f"wrote repaired checkpoint {path}")
    return 0


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(values, width: int = 48) -> str:
    """Render the last ``width`` samples as a unicode sparkline."""
    arr = np.asarray(values, dtype=np.float64)[-width:]
    if arr.size == 0:
        return ""
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return _SPARK_CHARS[0] * arr.size
    idx = ((arr - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1)).astype(int)
    return "".join(_SPARK_CHARS[i] for i in idx)


def _render_top_frame(service, ring) -> str:
    """One dashboard frame: health header + per-series sparklines."""
    health = service.health()
    breaker = health["breaker"]["state"]
    lines = [
        f"repro top — {service.directory}  "
        f"(uptime {health['uptime_s']:.1f}s)",
        f"queue {health['queue_depth']}/{health['queue_limit']}  "
        f"pending {health['pending_edges']} edges  "
        f"applied seq {health['applied_seq']}  "
        f"flushes {health['n_flushes']}  breaker {breaker}  "
        f"{'OK' if health['ok'] else 'NOT OK'}",
    ]
    repl = health.get("replication")
    if repl is not None:
        if repl.get("role") == "replica":
            lines.append(
                f"replication replica  lag {repl['lag_seq']} seqs / "
                f"{repl['lag_edges']} edges  "
                f"upstream {'up' if repl.get('connected') else 'DOWN'}  "
                f"resyncs {repl['n_resyncs']}  "
                f"resubscribes {repl['n_resubscribes']}")
        else:
            lines.append(
                f"replication writer  seq {repl['writer_seq']}  "
                f"replicas {repl['n_replicas']}")
    lines.append("")
    for name in ring.names():
        _, values = ring.series(name)
        if values.size == 0:
            continue
        lines.append(f"  {name:<20} {values[-1]:>12.2f}  "
                     f"{_sparkline(values)}")
    last = health.get("last_event")
    if last is not None:
        detail = " ".join(f"{k}={v}" for k, v in last["detail"].items())
        lines.append("")
        lines.append(f"last event: {last['kind']} {detail}".rstrip())
    return "\n".join(lines)


def cmd_top(args) -> int:
    """Self-driving dashboard: RMAT stream -> temp service, live render.

    There is no IPC to attach to a foreign process, so ``top`` owns its
    workload: it opens a GraphService in a temporary directory with the
    time-series sampler running, feeds it the deterministic RMAT stream,
    and redraws the ring as sparklines until the stream is done.
    ``--once`` ingests everything, takes one sample, prints one frame,
    and exits — the CI smoke mode.
    """
    import tempfile
    import time as time_mod

    from repro.service import GraphService

    edges = rmat_edges(args.scale, args.edges, seed=args.seed)
    batch = _batch_edges(args)
    obs.enable()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-top-") as tmp:
            service = GraphService(
                Path(tmp), batch_edges=batch,
                sample_interval=_TOP_INTERVAL_S)
            try:
                sampler = service._sampler
                if args.once:
                    for start in range(0, edges.shape[0], batch):
                        service.submit_insert(edges[start:start + batch])
                    service.flush_now()
                    sampler.sample_once()
                    print(_render_top_frame(service, sampler.ring))
                    return 0
                deadline = time_mod.monotonic() + args.duration
                start = 0
                while time_mod.monotonic() < deadline:
                    if start < edges.shape[0]:
                        service.submit_insert(
                            edges[start:start + batch])
                        start += batch
                    else:
                        start = 0  # loop the stream: top is a demo load
                    time_mod.sleep(_TOP_INTERVAL_S / 4)
                    print("\x1b[2J\x1b[H"
                          + _render_top_frame(service, sampler.ring),
                          flush=True)
                service.flush_now()
                print()
                return 0
            finally:
                service.close()
    finally:
        obs.disable()


def cmd_blackbox(args) -> int:
    """Read flight-recorder dumps: list a directory or print one file."""
    from repro.obs.recorder import list_blackboxes, load_blackbox

    path = Path(args.path)
    if path.is_dir():
        dumps = list_blackboxes(path)
        if not dumps:
            print(f"no black-box dumps in {path}", file=sys.stderr)
            return 1
        if args.list:
            for dump in dumps:
                print(dump)
            return 0
        path = dumps[0]  # newest
    try:
        record = load_blackbox(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"black box: {path}")
    print(f"reason: {record['reason']}")
    for key, value in sorted(record.get("context", {}).items()):
        print(f"  {key}: {value}")
    events = record.get("events", [])
    print(f"events ({len(events)} recorded, "
          f"{record.get('n_events_total', len(events))} total):")
    for event in events[-_SHOWN_ROWS:]:
        detail = " ".join(f"{k}={v}" for k, v in event["detail"].items())
        print(f"  {event['kind']:<20} {detail}".rstrip())
    spans = record.get("spans", [])
    if spans:
        print(f"recent spans ({len(spans)}):")
        for span in spans[-_SHOWN_ROWS:]:
            print(f"  {span['name']:<20} {span['duration_ms']:.2f} ms  "
                  f"({span['n_descendants']} descendants)")
    metrics = record.get("metrics", {})
    print(f"metrics captured: {len(metrics)}")
    return 0


def cmd_probe(args) -> int:
    edges = _edges_for(args)
    gt = create_store("graphtinker")
    st = create_store("stinger")
    gt.insert_batch(edges)
    st.insert_batch(edges)
    table = Table(
        f"probe distance on {args.dataset}",
        ["structure", "samples", "mean", "p95", "max"],
    )
    for label, summary in (
        ("GraphTinker", graphtinker_probe_summary(gt)),
        ("STINGER", stinger_probe_summary(st)),
    ):
        table.add_row([label, summary.count, summary.mean, summary.p95, summary.max])
    table.print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphTinker reproduction command-line interface",
    )
    # Every subcommand inherits --log-level (repro.obs.log verbosity).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", default="warning", choices=LEVELS,
                        help="repro logger verbosity (default: warning)")
    # serve, serve-net and top share one micro-batch flag (_batch_edges).
    batching = argparse.ArgumentParser(add_help=False)
    batching.add_argument("--batch-size", type=int, default=None,
                          help="service micro-batch size in edges; serve "
                               "and top also submit the stream in batches "
                               "of this many rows (default: the service's)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", parents=[common],
                       help="print the Table 1 dataset registry")
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("generate", parents=[common],
                       help="write a dataset / RMAT stream to a file")
    p.add_argument("output")
    p.add_argument("--dataset", choices=DATASET_ORDER)
    p.add_argument("--scale", type=int, default=14, help="RMAT scale (no --dataset)")
    p.add_argument("--edges", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("load", parents=[common],
                       help="batch-insert a dataset; report throughput")
    p.add_argument("--dataset", default="hollywood_like", choices=DATASET_ORDER)
    p.add_argument("--edges", type=int, default=48_000)
    p.add_argument("--batches", type=int, default=6)
    p.add_argument("--systems", nargs="+", default=["graphtinker", "stinger"],
                   choices=backend_names())
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="worker processes for the 'sharded' system "
                        "(digest is shard-count invariant)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write per-system throughput (modeled + wall) "
                        "as JSON")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("analytics", parents=[common],
                       help="run a graph algorithm via the hybrid engine")
    p.add_argument("--dataset", default="rmat_1m_10m", choices=DATASET_ORDER)
    p.add_argument("--edges", type=int, default=48_000)
    p.add_argument("--algorithm", default="bfs", choices=sorted(_ALGORITHMS))
    p.add_argument("--policy", default="hybrid",
                   choices=["hybrid", "full", "incremental", "full_vc"])
    p.add_argument("--system", default="graphtinker",
                   choices=["graphtinker", "stinger", "tiered", "sharded"])
    p.add_argument("--snapshot", action="store_true",
                   help="attach the CSR analytics snapshot (bit-identical "
                        "results and modeled costs; wall-clock only)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the result (trace, stats, value digest) as "
                        "JSON — only the 'snapshot' key differs between a "
                        "--snapshot and a plain run")
    p.set_defaults(func=cmd_analytics)

    p = sub.add_parser("probe", parents=[common],
                       help="probe-distance comparison GT vs STINGER")
    p.add_argument("--dataset", default="hollywood_like", choices=DATASET_ORDER)
    p.add_argument("--edges", type=int, default=48_000)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("trace", parents=[common],
                       help="traced load+BFS; dump span tree and metrics")
    p.add_argument("dataset", nargs="?", default="hollywood_like",
                   choices=DATASET_ORDER)
    p.add_argument("--edges", type=int, default=12_000)
    p.add_argument("--batches", type=int, default=4)
    p.add_argument("--system", default="graphtinker",
                   choices=["graphtinker", "stinger", "tiered"])
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="also write the span tree as JSONL")
    p.add_argument("--prometheus", default=None, metavar="PATH",
                   help="also write the metrics as Prometheus text")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve", parents=[common, batching],
                       help="drive an RMAT stream through the durable "
                            "WAL-backed graph service")
    p.add_argument("--data-dir", required=True,
                   help="service directory (WAL segments + checkpoints)")
    p.add_argument("--system", default=None,
                   choices=["graphtinker", "stinger", "tiered", "sharded"],
                   help="backing store (default: the checkpoint's writer "
                        "backend on --resume, else graphtinker)")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="shard worker processes; N > 1 serves through the "
                        "sharded store (--system then selects the per-shard "
                        "backend); left at 1 with no --system, --resume "
                        "keeps the checkpointed store, shard count included")
    p.add_argument("--scale", type=int, default=10, help="RMAT scale")
    p.add_argument("--edges", type=int, default=20_000,
                   help="total input rows in the stream")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="auto-checkpoint every N applied WAL records")
    p.add_argument("--final-checkpoint", action="store_true",
                   help="checkpoint the end state on clean shutdown")
    p.add_argument("--kill-at", type=int, default=None, metavar="BYTES",
                   help="simulate a writer kill at this WAL byte offset")
    p.add_argument("--resume", action="store_true",
                   help="recover the directory and continue its stream")
    p.add_argument("--max-retries", type=int, default=0, metavar="N",
                   help="retries (exp backoff + jitter) per WAL op on "
                        "transient I/O errors")
    p.add_argument("--breaker-threshold", type=int, default=0, metavar="N",
                   help="open the circuit breaker after N consecutive "
                        "flush failures (0 = fail-stop)")
    p.add_argument("--fail-every", type=int, default=0, metavar="N",
                   help="inject a transient WAL fault on every Nth record")
    p.add_argument("--fail-times", type=int, default=1, metavar="K",
                   help="consecutive failures per faulty record before it "
                        "clears (with --fail-every)")
    p.add_argument("--hard-faults", action="store_true",
                   help="faulty records never clear (drives the breaker "
                        "open; with --fail-every)")
    p.add_argument("--obs", action="store_true",
                   help="enable full telemetry (metrics, sketches, flight "
                        "recorder); crashes leave a blackbox-*.json dump")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("serve-net", parents=[common, batching],
                       help="host a service directory over TCP (frame "
                            "protocol, docs/network.md)")
    p.add_argument("--data-dir", default=None,
                   help="service directory (default: fresh temp dir)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port here once listening")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="N > 1 serves through the process-per-shard store; "
                        "at 1 a recovered directory keeps its checkpointed "
                        "store, shard count included; the WAL is one log")
    p.add_argument("--duration", type=float, default=0.0,
                   help="serve for this many seconds (0 = forever)")
    # Accepted, not read: perf/wl_serve.py still passes --sync batch.
    p.add_argument("--sync", default="batch", choices=["batch"],
                   help="WAL fsync policy; the one policy is batch: one "
                        "fsync per flush, and a flush is one record")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N")
    p.add_argument("--final-checkpoint", action="store_true")
    p.add_argument("--breaker-threshold", type=int, default=0, metavar="N",
                   help="open the circuit breaker after N consecutive "
                        "flush failures (0 = fail-stop)")
    p.add_argument("--obs", action="store_true",
                   help="enable telemetry (net.* metrics, health detail)")
    p.set_defaults(func=cmd_serve_net)

    p = sub.add_parser("serve-replica", parents=[common],
                       help="host a WAL-shipping read replica of a running "
                            "serve-net (docs/network.md)")
    p.add_argument("--data-dir", default=None,
                   help="replica directory (default: fresh temp dir)")
    p.add_argument("--upstream-host", default="127.0.0.1")
    p.add_argument("--upstream-port", type=int, default=0,
                   help="writer port (or use --upstream-port-file)")
    p.add_argument("--upstream-port-file", default=None, metavar="PATH",
                   help="read the writer port from this file (re-read on "
                        "every reconnect, so a restarted writer is found)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="replica TCP port (0 = ephemeral)")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="write the bound port here once listening")
    p.add_argument("--duration", type=float, default=0.0,
                   help="serve for this many seconds (0 = forever)")
    p.add_argument("--replica-id", default=None,
                   help="identity in the writer's peer table (default: "
                        "replica-<data-dir name>, stable across restarts)")
    p.add_argument("--max-lag-seq", type=int, default=0, metavar="N",
                   help="shed reads with STALE when the replica is more "
                        "than N WAL records behind (0 = never shed)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="local checkpoint every N applied records")
    p.add_argument("--obs", action="store_true",
                   help="enable telemetry (repl.* metrics, health detail)")
    p.set_defaults(func=cmd_serve_replica)

    p = sub.add_parser("loadgen", parents=[common],
                       help="drive a running serve-net with closed-loop "
                            "client workers")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="read the target port from this file")
    p.add_argument("--clients", type=int, default=4,
                   help="closed-loop worker count")
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds to generate load")
    p.add_argument("--scale", type=int, default=14,
                   help="RMAT scale of the mutation stream / read keys")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", action="append", default=None,
                   metavar="HOST:PORT",
                   help="route reads over these replicas with failover "
                        "(repeatable); writes still go to --host/--port")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("recover", parents=[common],
                       help="recover a service directory (checkpoint + WAL)")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", action="store_true",
                   help="write a fresh checkpoint of the recovered state")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("fsck", parents=[common],
                       help="audit a service directory's store integrity "
                            "(optionally self-heal)")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--repair", action="store_true",
                   help="self-heal detected violations")
    p.add_argument("--corrupt", type=int, default=0, metavar="N",
                   help="inject N random corruptions first (chaos testing)")
    p.add_argument("--checkpoint", action="store_true",
                   help="checkpoint the repaired store on success")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("figures", parents=[common],
                       help="export plot-ready CSV figure data")
    p.add_argument("output_dir")
    p.add_argument("--dataset", default="hollywood_like", choices=DATASET_ORDER)
    p.add_argument("--batches", type=int, default=8)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("top", parents=[common, batching],
                       help="live service dashboard (self-driving demo load)")
    p.add_argument("--scale", type=int, default=12, help="RMAT scale")
    p.add_argument("--edges", type=int, default=20_000,
                   help="input rows in the demo stream")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=10.0,
                   help="seconds to run the live view")
    p.add_argument("--once", action="store_true",
                   help="ingest, take one sample, print one frame (CI)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("blackbox", parents=[common],
                       help="read a flight-recorder post-mortem dump")
    p.add_argument("path",
                   help="a blackbox-*.json file, or a service directory "
                        "(newest dump is shown)")
    p.add_argument("--list", action="store_true",
                   help="list the dumps in a directory instead")
    p.set_defaults(func=cmd_blackbox)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Exit codes: 0 success, 1 repro-domain error (:class:`ReproError`),
    2 usage error (argparse raises ``SystemExit(2)`` itself).
    """
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "warning"))
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
