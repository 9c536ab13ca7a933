"""``serve_mixed``: two closed-loop clients against ``serve-net``.

``python -m repro serve-net --data-dir <tmp> --sync batch`` runs in a
subprocess (real fsync, every other flag at its default) and is preloaded
through the client (set-up).  Two ``GraphClient`` connections, one thread
each, then issue 90 % reads (``degree`` .55 / ``neighbors`` .35 /
``khop(2, limit=128)`` .10) and 10 % ticketed 16-edge ``insert_edges``.  The
loop is closed — each caller waits for its reply before sending again — so
a slower server receives less load; client count = 2.  ``net`` (frame codec,
dispatch, ``ReadView``) dominates reads, the ``service`` queue and WAL fsync
dominate writes, ``core`` applies 16 edges at a time.  Afterwards the server
is SIGKILLed and the directory recovered with ``GraphService.open``: every
acknowledged batch must be there.  (SIGKILL leaves the OS page cache intact,
so this is process-crash durability, not power-loss durability.)
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
from clock import PairedClock, RefClock
from harness import Ctx, Deadline, Slices
from repro.core.store import store_digest
from repro.errors import ReproError
from repro.net.client import GraphClient
from repro.service import GraphService

NAME = "serve_mixed"
WHY = ("2 closed-loop clients, 90% degree/neighbors/khop reads and 10% "
       "durable 16-edge inserts against serve-net: net and service+WAL "
       "fsync dominate, core applies tiny batches; only path with recovery")

N_CLIENTS = 2
READ_FRACTION = 0.9
#: The read mix: op and its share of the reads.
READ_MIX = (("degree", 0.55), ("neighbors", 0.35), ("khop", 0.10))
WRITE = "insert_edges"
BATCH_EDGES = 16
KHOP_LIMIT = 128
PRELOAD_BATCH = 2048
SERVE_FLAGS = ("--sync", "batch")

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def sizes(quick: bool) -> dict:
    if quick:
        return {"scale": 10, "preload": 2_500, "write_batches": 400,
                "slice_s": 0.25, "warmup_s": 0.2, "min_units": 2,
                "traced_units": 2}
    return {"scale": 14, "preload": 50_000, "write_batches": 8_000,
            "slice_s": 1.0, "warmup_s": 1.0, "min_units": 4,
            "traced_units": 3}


def make_inputs(seed: int, sz: dict) -> dict:
    n_write = N_CLIENTS * sz["write_batches"] * BATCH_EDGES
    edges = inputs.powerlaw_edges(seed, sz["scale"], sz["preload"] + n_write)
    return {
        "preload": edges[:sz["preload"]],
        "writes": edges[sz["preload"]:].reshape(
            N_CLIENTS, sz["write_batches"], BATCH_EDGES, 2),
    }


# --------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------- #
def make_clock(cpus: tuple[int, ...]) -> RefClock:
    """Clients and server get a CPU each when there are two (see
    :func:`setup`), so the clock watches both."""
    return PairedClock(cpus[-1]) if len(cpus) > 1 else RefClock()


def start_server(directory: Path,
                 cpus: tuple[int, ...]) -> tuple[subprocess.Popen, int]:
    """Spawn ``serve-net`` on the last of ``cpus`` (when there are two)."""
    directory.mkdir(parents=True)
    port_file = directory / "port"
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    before = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})  # inherited by the child
    try:
        with open(directory / "server.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve-net",
                 "--data-dir", str(directory / "data"),
                 "--port-file", str(port_file), *SERVE_FLAGS],
                env=env, stdout=log, stderr=subprocess.STDOUT)
    finally:
        os.sched_setaffinity(0, before)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"serve-net exited with {proc.returncode}: "
                               + (directory / "server.log").read_text())
        text = port_file.read_text().strip() if port_file.exists() else ""
        if text:
            return proc, int(text)
        time.sleep(0.01)
    kill_server(proc)
    raise RuntimeError("serve-net did not publish its port within 30 s")


def kill_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait()


def server_peak_rss_mb(proc: subprocess.Popen) -> float:
    for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line for the server process")


# --------------------------------------------------------------------- #
class _Client:
    """One closed-loop connection and the seeded op stream it draws."""

    def __init__(self, index: int, port: int, seed: int, sz: dict,
                 batches: np.ndarray):
        self.conn = GraphClient("127.0.0.1", port).connect()
        self.rng = np.random.default_rng([seed, 4, index])
        self.n_vertices = 1 << sz["scale"]
        self.batches = batches
        self.cursor = 0
        self.acked: list[np.ndarray] = []
        self.last_generation = -1
        self.generation_regressions = 0
        self.errors: dict[str, int] = {}

    def _read(self, op: str, src: int) -> None:
        if op == "degree":
            self.conn.degree(src)
        elif op == "neighbors":
            self.conn.neighbors(src)
        else:
            self.conn.khop(src, 2, limit=KHOP_LIMIT)

    def loop(self, stop_at: float, tracer, out: list) -> None:
        """Issue ops until ``stop_at``; append ``(op, seconds)``, seconds
        ``None`` for a request that failed."""
        conn, rng = self.conn, self.rng
        degree_share = READ_MIX[0][1]
        point_share = degree_share + READ_MIX[1][1]
        while time.monotonic() < stop_at:
            if float(rng.random()) >= READ_FRACTION \
                    and self.cursor < self.batches.shape[0]:
                op = WRITE
                batch = self.batches[self.cursor]
                payload = batch.tolist()
            else:
                draw = float(rng.random())
                op = READ_MIX[0 if draw < degree_share
                              else 1 if draw < point_share else 2][0]
                src = int(rng.integers(0, self.n_vertices))
            try:
                t0 = time.perf_counter()
                with tracer.span(f"net.{op}"):
                    if op == WRITE:
                        conn.insert_edges(payload)
                    else:
                        self._read(op, src)
                out.append((op, time.perf_counter() - t0))
            except ReproError as exc:
                # a refused or failed request is a failed operation
                code = getattr(exc, "code", None) or type(exc).__name__
                self.errors[code] = self.errors.get(code, 0) + 1
                out.append((op, None))
                continue
            if op == WRITE:
                self.cursor += 1
                self.acked.append(batch)
            elif conn.last_generation is not None:
                if conn.last_generation < self.last_generation:
                    self.generation_regressions += 1
                self.last_generation = conn.last_generation


def setup(ctx: Ctx, sz: dict) -> dict:
    inp = make_inputs(ctx.seed, sz)
    sys.setswitchinterval(0.001)  # as `repro loadgen` does: tight GIL handoff
    if len(ctx.cpus) > 1:
        # the server gets the last CPU, the client threads the rest: left
        # to the scheduler, the two sometimes share a CPU for a whole run
        # and read latency doubles
        os.sched_setaffinity(0, set(ctx.cpus[:-1]))
    directory = ctx.tmp / f"serve-{time.monotonic_ns()}"
    proc, port = start_server(directory, ctx.cpus)
    state = {"inp": inp, "sz": sz, "proc": proc, "port": port,
             "dir": directory, "clients": [], "cpus": ctx.cpus}
    try:
        with GraphClient("127.0.0.1", port) as loader:
            for lo in range(0, sz["preload"], PRELOAD_BATCH):
                loader.insert_edges(
                    inp["preload"][lo:lo + PRELOAD_BATCH].tolist())
            loader.refresh()
        state["clients"] = [
            _Client(i, port, ctx.seed, sz, inp["writes"][i])
            for i in range(N_CLIENTS)]
        _slice(ctx, state, sz["warmup_s"])  # warm-up, discarded
        state["rss_mb"] = server_peak_rss_mb(proc)
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: dict) -> None:
    for client in state.get("clients", []):
        client.conn.close()
    if "proc" in state:
        kill_server(state["proc"])
        shutil.rmtree(state["dir"], ignore_errors=True)
    sys.setswitchinterval(0.005)
    if "cpus" in state:
        os.sched_setaffinity(0, set(state["cpus"]))
    state.clear()


def _slice(ctx: Ctx, state: dict, seconds: float):
    outs = [[] for _ in state["clients"]]
    tracer = ctx.tracer
    stop_at = time.monotonic() + seconds
    threads = [threading.Thread(target=c.loop, args=(stop_at, tracer, out))
               for c, out in zip(state["clients"], outs)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return wall, [op for out in outs for op in out]


def run(ctx: Ctx, state: dict, deadline: Deadline,
        traced: bool = False) -> Slices:
    """``traced`` changes nothing here: the client loop's ``net.*`` spans
    record whenever the tracer is enabled."""
    sz, clock, checks = state["sz"], ctx.clock, ctx.checks
    slices = Slices()
    done = 0
    client_wall = 0.0
    clock.mark()
    while deadline.more(done):
        wall, ops = _slice(ctx, state, sz["slice_s"])
        factor = clock.factor()
        completed = [(op, s) for op, s in ops if s is not None]
        n_writes = sum(1 for op, _ in completed if op == WRITE)
        slices.add("reads_window", len(completed) - n_writes, wall, factor)
        slices.add("writes_window", n_writes * BATCH_EDGES, wall, factor)
        for op, seconds in completed:
            slices.add(op, 1, seconds, factor)
        checks.ops(len(ops))
        client_wall += wall * N_CLIENTS
        done += 1
    # share-of-wall base for the layer table: time the clients spent
    slices.wall_s = client_wall
    errors: dict[str, int] = {}
    for client in state["clients"]:
        for code, n in client.errors.items():
            errors[code] = errors.get(code, 0) + n
    for code, n in errors.items():
        checks.fail(f"{n} requests failed with {code}", n)
    regressions = sum(c.generation_regressions for c in state["clients"])
    if regressions:
        checks.fail(f"{regressions} reads saw the view generation go "
                    f"backwards on one connection", regressions)
    ctx.notes.update(
        clients=N_CLIENTS, loop="closed", serve_net_flags=list(SERVE_FLAGS),
        slices=done, errors=errors,
        retries=sum(c.conn.n_retries for c in state["clients"]),
        generation_regressions=regressions)
    return slices


def peak_rss_mb(state: dict) -> float:
    """Server ``VmHWM`` when set-up ends (preload + warm-up).  The measured
    window is left out: how many writes a run completes decides whether a
    pool's capacity doubles inside it, which made the end-of-run figure
    two-humped (85 vs 111 MiB across ten runs)."""
    return state["rss_mb"]


def crash_and_copy(state: dict, copies: int) -> list[Path]:
    """SIGKILL the server and return ``copies`` copies of its directory."""
    for client in state["clients"]:
        client.conn.close()
    kill_server(state["proc"])
    data = state["dir"] / "data"
    out = []
    for i in range(copies):
        out.append(state["dir"] / f"crashed-{i}")
        shutil.copytree(data, out[-1])
    return out


def expected_digest(state: dict) -> dict:
    oracle = inputs.ReplayOracle()
    oracle.insert(state["inp"]["preload"])
    for client in state["clients"]:
        for batch in client.acked:
            oracle.insert(batch)
    return oracle.digest()


def verify(ctx: Ctx, state: dict) -> None:
    """Kill -9, reopen: the recovered store must hold exactly the preload
    plus every acknowledged batch.  No request is in flight at the kill
    (both loops have returned), so the set of permitted extras is empty."""
    want = expected_digest(state)
    (crashed,) = crash_and_copy(state, 1)
    service, recovery = GraphService.open(crashed)
    try:
        got = store_digest(recovery.store)
    finally:
        service.close()
    ctx.checks.expect(got == want,
                      f"recovered store {got} differs from preload + acked "
                      f"batches {want}")
    clean = recovery.fsck is None or not recovery.fsck.violations
    ctx.checks.expect(clean, "post-recovery fsck reported violations")
    ctx.notes["recovered_records"] = recovery.replayed_records


def end_to_end(slices: Slices, raw: bool = False) -> dict:
    # The median of the pooled reads sits in the tail of the `degree`
    # latencies (55 % of reads are the fastest op), which made it the
    # noisiest number here; the mix-weighted sum of each op's own median
    # moves with every op and rests on three well-behaved medians.
    reads = {op: slices.per_call_ms(op, raw=raw) for op, _ in READ_MIX}
    read_ms = {key: sum(share * reads[op][key] for op, share in READ_MIX)
               for key in ("median", "q1", "q3")}
    read_ms["n"] = sum(r["n"] for r in reads.values())
    return {
        "update_edges_per_s": slices.rate("writes_window", raw),
        "update_p50_ms": slices.per_call_ms(WRITE, raw=raw),
        "query_per_s": slices.rate("reads_window", raw),
        "query_p50_ms": read_ms,
    }


def unit_cost(slices: Slices) -> float:
    """Reference-seconds of window per completed op (windows are fixed
    time, so tracing shows as fewer ops, not as a longer pass)."""
    return slices.seconds("reads_window") / slices.count(
        WRITE, *(op for op, _ in READ_MIX))


def probe_stream(state: dict):
    return state["inp"]["preload"]
