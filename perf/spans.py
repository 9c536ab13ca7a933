"""In-memory spans around layer calls, recorded from ``perf/`` only.

Nothing here patches ``repro``: a :class:`StoreProxy` / :class:`WalProxy`
is handed to the program through its public constructor arguments
(``HybridEngine(store)``, ``GraphService(store=..., wal=...)``) and records
one span per call that crosses it; drivers wrap their own calls into the
engine, the service and the client with :meth:`Tracer.span`.

A span is ``{id, name, workload, op_id, parent, start_ns, end_ns}``.  Its
layer is the longest entry of :data:`LAYERS` that prefixes its name.  A
layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Layer names, as the modules under ``src/repro`` are called.
LAYERS = ("core.sharded", "core", "engine", "service", "net")


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span name {name!r} belongs to no layer in {LAYERS}")


class Tracer:
    """Collects spans; off by default so the untraced run pays one branch."""

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Parent for spans opened on a thread with no open span of its own
        #: (the service's flusher thread working for a waiting caller).
        self.ambient: int | None = None
        self._ops = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span under the thread's innermost open one; a span with
        no parent starts a new operation, the others share their root's
        ``op_id``."""
        stack = self._stack()
        parent = stack[-1] if stack else self.ambient
        with self._lock:
            if parent is None:
                self._ops += 1
                op_id = self._ops
            else:
                op_id = self.spans[parent][3]
            sid = len(self.spans)
            self.spans.append([sid, name, self.workload, op_id, parent,
                               0, 0])
        stack.append(sid)
        self.spans[sid][5] = time.perf_counter_ns()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][6] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    # ------------------------------------------------------------------ #
    def layer_table(self, wall_ns: int) -> dict:
        """Per-layer ``{calls, busy_s, self_s, share}``; ``share`` is self
        time over ``wall_ns``, the wall time of the workload's timed
        calls."""
        child_ns: dict[int, int] = {}
        for _, _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        table = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                 for layer in LAYERS}
        for sid, name, _, _, parent, start, end in self.spans:
            layer = layer_of(name)
            row = table[layer]
            row["calls"] += 1
            # busy counts a layer's outermost spans only, so nested calls
            # inside one layer are not double-counted
            if parent is None or layer_of(self.spans[parent][1]) != layer:
                row["busy_s"] += (end - start) / 1e9
            row["self_s"] += max(0, end - start - child_ns.get(sid, 0)) / 1e9
        for row in table.values():
            row["share"] = row["self_s"] * 1e9 / wall_ns
        return table

    def write(self, path: Path) -> None:
        keys = ("id", "name", "workload", "op_id", "parent",
                "start_ns", "end_ns")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


def format_table(table: dict, title: str, wall_s: float) -> str:
    lines = [f"  {title}",
             f"    {'layer':<13}{'calls':>9}{'busy s':>11}{'busy':>8}"
             f"{'self s':>11}{'share':>8}"]
    for layer, row in table.items():
        if row["calls"]:
            lines.append(
                f"    {layer:<13}{row['calls']:>9}{row['busy_s']:>11.4f}"
                f"{row['busy_s'] / wall_s:>8.1%}{row['self_s']:>11.4f}"
                f"{row['share']:>8.1%}")
    attributed = sum(r["share"] for r in table.values())
    lines.append(f"    {'(outside spans)':<52}{1 - attributed:>8.1%}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# proxies
# --------------------------------------------------------------------- #
#: Store-protocol methods that get a span.  Everything else (sizes, stats,
#: config, snapshot hooks) is forwarded untouched.
_STORE_CALLS = ("insert_batch", "delete_batch", "insert_edge", "delete_edge",
                "has_edge", "degree", "neighbors", "analytics_edges",
                "edge_arrays", "row_neighbors")


def _spanned(tracer: Tracer, name: str, fn):
    def call(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)
    return call


class StoreProxy:
    """A ``Store`` that records a ``core.*`` span per protocol call.

    ``neighbors_many`` is the one call whose serving module varies: with an
    analytics snapshot attached the frontier gather runs in
    ``repro.engine.snapshot`` (CSR patch + fancy-index gather), without one
    it is the store's native per-vertex walk — so the span is named
    ``engine.snapshot.neighbors_many`` or ``core.neighbors_many`` after the
    module that does the work.
    """

    def __init__(self, store, tracer: Tracer):
        self.__dict__["_store"] = store
        for method in _STORE_CALLS:
            self.__dict__[method] = _spanned(
                tracer, f"core.{method}", getattr(store, method))
        gather = store.neighbors_many
        native = _spanned(tracer, "core.neighbors_many", gather)
        via_snapshot = _spanned(tracer, "engine.snapshot.neighbors_many",
                                gather)

        def neighbors_many(active):
            if store.analytics_snapshot is not None:
                return via_snapshot(active)
            return native(active)
        self.__dict__["neighbors_many"] = neighbors_many

    def __getattr__(self, name):
        return getattr(self._store, name)

    def __setattr__(self, name, value):
        setattr(self._store, name, value)


class WalProxy:
    """A write-ahead log that records ``service.wal.*`` spans."""

    def __init__(self, wal, tracer: Tracer):
        self._wal = wal
        self.append = _spanned(tracer, "service.wal.append", wal.append)
        self.sync = _spanned(tracer, "service.wal.sync", wal.sync)

    def __getattr__(self, name):
        return getattr(self._wal, name)
