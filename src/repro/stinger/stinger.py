"""A faithful STINGER-style baseline (paper Sec. II.A and [6]).

STINGER keeps a *Logical Vertex Array* (one entry per source vertex) whose
entries point into an *Edge Block Array*: fixed-size edgeblocks chained
per vertex.  Edges inside a block are unsorted and not hashed, so an
insert must traverse the vertex's entire chain to rule out a duplicate,
and a delete must traverse until the edge is found — the long probe
distances GraphTinker attacks.  Deleted slots are flagged and reused.

The block pool is one flat structured NumPy array (same idiom as
GraphTinker's pools) so the two systems differ only in *algorithm*, not in
implementation technology; the instrumentation counts the same events so
the cost model compares like with like:

* every edgeblock visited during update traversal is one
  ``random_block_reads`` (chained blocks are non-contiguous in memory);
* analytics retrieval charges one random block read per chain hop.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.config import StingerConfig
from repro.core.pool import STINGER_CELL_DTYPE, BlockPool
from repro.core.stats import AccessStats
from repro.core.store import RowStoreDefaults
from repro.obs import hooks as obs_hooks
from repro.errors import VertexNotFoundError

#: Slot-state sentinels in the ``dst`` field.
_EMPTY = np.int64(-1)
_DELETED = np.int64(-2)


def _blank_stinger_cells(shape: tuple[int, ...] | int) -> np.ndarray:
    arr = np.zeros(shape, dtype=STINGER_CELL_DTYPE)
    arr["dst"] = _EMPTY
    return arr


class Stinger(RowStoreDefaults):
    """Shared-memory adjacency-list dynamic graph store.

    The public API mirrors :class:`~repro.core.graphtinker.GraphTinker`
    so benchmarks and the engine can drive either store interchangeably.

    Examples
    --------
    >>> st = Stinger()
    >>> st.insert_edge(1, 2)
    True
    >>> st.insert_edge(1, 2)   # duplicate: weight update, not a new edge
    False
    """

    def __init__(self, config: StingerConfig | None = None):
        self.config = config if config is not None else StingerConfig()
        self.stats = AccessStats()
        self.pool = BlockPool(
            self.config.edgeblock_size,
            STINGER_CELL_DTYPE,
            _blank_stinger_cells,
            4,
        )
        # Logical Vertex Array: head block per vertex, grown on demand.
        self._head = np.full(self.config.initial_vertices, -1, dtype=np.int64)
        self._degree = np.zeros(self.config.initial_vertices, dtype=np.int64)
        self._next = np.full(8, -1, dtype=np.int64)  # per-block chain link
        self._n_vertices = 0
        self._n_edges = 0
        self._analytics_snapshot = None
        if self.config.snapshot:
            self.enable_snapshot()

    # ------------------------------------------------------------------ #
    # analytics snapshot (engine acceleration; see repro.engine.snapshot)
    # ------------------------------------------------------------------ #
    def enable_snapshot(self):
        """Attach (and return) the incrementally-maintained CSR view.

        Same charge-mirror contract as on GraphTinker: bit-identical
        results and modeled AccessStats, wall-clock only.
        """
        if self._analytics_snapshot is None:
            from repro.engine.snapshot import AnalyticsSnapshot

            self._analytics_snapshot = AnalyticsSnapshot(self)
        return self._analytics_snapshot

    def disable_snapshot(self) -> None:
        """Detach the CSR view (subsequent loads use the chain walks)."""
        self._analytics_snapshot = None

    @property
    def analytics_snapshot(self):
        """The attached :class:`AnalyticsSnapshot`, or ``None``."""
        return self._analytics_snapshot

    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Vertices with an allocated Logical Vertex Array entry."""
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def _ensure_vertex(self, src: int) -> None:
        if src < self._n_vertices:
            return
        cap = self._head.shape[0]
        if src >= cap:
            new_cap = cap
            while new_cap <= src:
                new_cap *= 2
            head = np.full(new_cap, -1, dtype=np.int64)
            degree = np.zeros(new_cap, dtype=np.int64)
            head[:cap] = self._head
            degree[:cap] = self._degree
            self._head, self._degree = head, degree
        self._n_vertices = src + 1

    def _ensure_next(self, block: int) -> None:
        cap = self._next.shape[0]
        if block < cap:
            return
        new_cap = cap
        while new_cap <= block:
            new_cap *= 2
        nxt = np.full(new_cap, -1, dtype=np.int64)
        nxt[:cap] = self._next
        self._next = nxt

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> bool:
        """Insert ``(src, dst)``; returns ``True`` if the edge is new.

        Traverses the whole chain (checking for a duplicate) and remembers
        the first reusable slot; allocates a new edgeblock at the tail
        only when the chain is full.
        """
        src, dst = int(src), int(dst)
        if src < 0 or dst < 0:
            # Negative ids collide with the -1/-2 slot-state sentinels.
            raise ValueError(f"vertex ids must be non-negative, got ({src}, {dst})")
        self._ensure_vertex(src)
        block = int(self._head[src])
        free_block, free_slot = -1, -1
        last_block = -1
        while block >= 0:
            self.stats.random_block_reads += 1
            row = self.pool.row(block)
            dsts = row["dst"]
            self.stats.cells_scanned += dsts.shape[0]
            hit = np.flatnonzero(dsts == dst)
            if hit.size:
                row["weight"][hit[0]] = weight
                if self._analytics_snapshot is not None:
                    self._analytics_snapshot.mark_dirty(src)
                return False
            if free_block < 0:
                vacant = np.flatnonzero(dsts < 0)
                if vacant.size:
                    free_block, free_slot = block, int(vacant[0])
            last_block = block
            block = int(self._next[block])
        if free_block < 0:
            free_block = self.pool.allocate()
            self._ensure_next(free_block)
            self._next[free_block] = -1
            free_slot = 0
            if last_block >= 0:
                self._next[last_block] = free_block
            else:
                self._head[src] = free_block
        row = self.pool.row(free_block)
        row["dst"][free_slot] = dst
        row["weight"][free_slot] = weight
        if self._analytics_snapshot is not None:
            self._analytics_snapshot.mark_dirty(src)
        self.stats.workblock_writebacks += 1
        self._degree[src] += 1
        self._n_edges += 1
        self.stats.edges_inserted += 1
        return True

    def insert_batch(self, edges: np.ndarray, weights: np.ndarray | None = None) -> int:
        """Insert an ``(n, 2)`` edge batch; returns the number of new edges."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (n, 2)")
        if edges.size and edges.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.float64)
        before = self.stats.snapshot() if obs_hooks.enabled else None
        new = 0
        for s, d, w in zip(edges[:, 0].tolist(), edges[:, 1].tolist(),
                           np.asarray(weights, dtype=np.float64).tolist()):
            if self.insert_edge(s, d, w):
                new += 1
        if before is not None:
            obs_hooks.publish_store_delta("stinger", self.stats.delta(before))
        return new

    def delete_edge(self, src: int, dst: int) -> bool:
        """Delete ``(src, dst)``; flags the slot for reuse."""
        src, dst = int(src), int(dst)
        if src < 0 or src >= self._n_vertices or dst < 0:
            return False  # negative dst would match the EMPTY/DELETED flags
        block = int(self._head[src])
        while block >= 0:
            self.stats.random_block_reads += 1
            row = self.pool.row(block)
            dsts = row["dst"]
            self.stats.cells_scanned += dsts.shape[0]
            hit = np.flatnonzero(dsts == dst)
            if hit.size:
                row["dst"][hit[0]] = _DELETED
                if self._analytics_snapshot is not None:
                    self._analytics_snapshot.mark_dirty(src)
                self.stats.workblock_writebacks += 1
                self.stats.tombstones_set += 1
                self._degree[src] -= 1
                self._n_edges -= 1
                self.stats.edges_deleted += 1
                return True
            block = int(self._next[block])
        return False

    def delete_batch(self, edges: np.ndarray) -> int:
        """Delete a batch of edges; returns how many existed."""
        edges = np.asarray(edges, dtype=np.int64)
        before = self.stats.snapshot() if obs_hooks.enabled else None
        deleted = 0
        for s, d in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
            if self.delete_edge(s, d):
                deleted += 1
        if before is not None:
            obs_hooks.publish_store_delta("stinger", self.stats.delta(before))
        return deleted

    def delete_vertex(self, src: int) -> int:
        """Delete every out-edge of ``src``; return how many existed.

        Flags every live slot along the vertex's chain in one sweep —
        cheaper than per-edge deletes, since no per-edge chain traversal
        is needed.
        """
        src = int(src)
        if src >= self._n_vertices:
            return 0
        deleted = 0
        block = int(self._head[src])
        while block >= 0:
            self.stats.random_block_reads += 1
            row = self.pool.row(block)
            live = row["dst"] >= 0
            n = int(live.sum())
            if n:
                row["dst"][live] = _DELETED
                self.stats.workblock_writebacks += 1
                self.stats.tombstones_set += n
                deleted += n
            block = int(self._next[block])
        if deleted and self._analytics_snapshot is not None:
            self._analytics_snapshot.mark_dirty(src)
        self._degree[src] -= deleted
        self._n_edges -= deleted
        self.stats.edges_deleted += deleted
        return deleted

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def has_edge(self, src: int, dst: int) -> bool:
        return self.edge_weight(src, dst) is not None

    def edge_weight(self, src: int, dst: int) -> float | None:
        src, dst = int(src), int(dst)
        if src < 0 or src >= self._n_vertices or dst < 0:
            return None  # negative dst would match the EMPTY/DELETED flags
        block = int(self._head[src])
        while block >= 0:
            self.stats.random_block_reads += 1
            row = self.pool.row(block)
            hit = np.flatnonzero(row["dst"] == dst)
            self.stats.cells_scanned += row["dst"].shape[0]
            if hit.size:
                self.stats.edges_found += 1
                return float(row["weight"][hit[0]])
            block = int(self._next[block])
        return None

    def degree(self, src: int) -> int:
        return int(self._degree[src]) if 0 <= src < self._n_vertices else 0

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours of ``src`` as ``(dst, weight)`` arrays."""
        src = int(src)
        if src < 0 or src >= self._n_vertices:
            raise VertexNotFoundError(src)
        dsts: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        block = int(self._head[src])
        while block >= 0:
            self.stats.random_block_reads += 1
            self.stats.cells_scanned += self.config.edgeblock_size
            row = self.pool.row(block)
            mask = row["dst"] >= 0
            if mask.any():
                dsts.append(row["dst"][mask].copy())
                weights.append(row["weight"][mask].copy())
            block = int(self._next[block])
        if not dsts:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        return np.concatenate(dsts), np.concatenate(weights)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every live edge as ``(src, dst, weight)``."""
        for src in range(self._n_vertices):
            if self._degree[src] == 0 and self._head[src] < 0:
                continue
            dsts, weights = self.neighbors(src)
            for d, w in zip(dsts.tolist(), weights.tolist()):
                yield src, int(d), float(w)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live edges as arrays — STINGER's analytics load path.

        Unlike GraphTinker's CAL streaming, this sweeps every vertex's
        chain (random block reads), including vertices that turn out to
        be empty; that access pattern is the 10x analytics gap of
        Figs. 11-13.
        """
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for src in range(self._n_vertices):
            block = int(self._head[src])
            while block >= 0:
                self.stats.random_block_reads += 1
                self.stats.cells_scanned += self.config.edgeblock_size
                row = self.pool.row(block)
                mask = row["dst"] >= 0
                if mask.any():
                    n = int(mask.sum())
                    srcs.append(np.full(n, src, dtype=np.int64))
                    dsts.append(row["dst"][mask].copy())
                    weights.append(row["weight"][mask].copy())
                block = int(self._next[block])
        if not srcs:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
        return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(weights)

    def analytics_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Engine load path; STINGER ids are already original ids."""
        return self.edge_arrays()

    # ------------------------------------------------------------------ #
    # snapshot row surface (the rest is RowStoreDefaults: raw ids)
    # ------------------------------------------------------------------ #
    @property
    def full_load_is_row_sweep(self) -> bool:
        """STINGER's full load *is* the per-vertex chain sweep."""
        return True

    def fsck(self, level: str = "full", repair: bool = False):
        """Audit the chains against the degree counters.

        Delegates to the generic protocol audit
        (:func:`repro.core.store.verify_store_generic`): per-row degree
        agreement, duplicate-freedom, and the global edge count.
        ``repair`` recounts the degree array and edge total from the
        live chains (the only shadow state STINGER keeps) and returns a
        :class:`~repro.core.verify.RepairReport`.
        """
        from repro.core.store import verify_store_generic
        from repro.core.verify import RepairReport

        report = verify_store_generic(self, level=level)
        if not repair:
            return report
        backup = self.stats.snapshot()
        recounted: list[int] = []
        total = 0
        for src in range(self._n_vertices):
            dsts, _ = self.neighbors(src)
            deg = int(dsts.shape[0])
            if deg != int(self._degree[src]):
                recounted.append(src)
                self._degree[src] = deg
            total += deg
        self._n_edges = total
        self.stats.reset()
        self.stats.merge(backup)
        if self._analytics_snapshot is not None:
            self._analytics_snapshot.invalidate()
        final = verify_store_generic(self, level=level)
        return RepairReport(initial=report, final=final,
                            recounted_vertices=recounted)

    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Audit degrees and duplicate-freedom (test-suite hook)."""
        backup = self.stats.snapshot()
        total = 0
        for src in range(self._n_vertices):
            dsts, _ = self.neighbors(src)
            if dsts.shape[0] != self.degree(src):
                raise AssertionError(f"degree mismatch for vertex {src}")
            if np.unique(dsts).shape[0] != dsts.shape[0]:
                raise AssertionError(f"duplicate edges for vertex {src}")
            total += dsts.shape[0]
        if total != self._n_edges:
            raise AssertionError("edge-count mismatch")
        self.stats.reset()
        self.stats.merge(backup)
