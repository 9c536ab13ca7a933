"""A faithful STINGER-style baseline (paper Sec. II.A and [6]).

STINGER keeps a *Logical Vertex Array* (one entry per source vertex) whose
entries point into an *Edge Block Array*: fixed-size edgeblocks chained
per vertex.  Edges inside a block are unsorted and not hashed, so an
insert must traverse the vertex's entire chain to rule out a duplicate,
and a delete must traverse until the edge is found — the long probe
distances GraphTinker attacks.  Deleted slots are flagged and reused.

The block pool keeps one flat NumPy array per slot field (same idiom as
GraphTinker's pools) so the two systems differ only in *algorithm*, not in
implementation technology; the instrumentation counts the same events so
the cost model compares like with like:

* every edgeblock visited during update traversal is one
  ``random_block_reads`` (chained blocks are non-contiguous in memory);
* analytics retrieval charges one random block read per chain hop.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import StingerConfig
from repro.core.pool import STINGER_CELL_DTYPE, BlockPool, grow
from repro.core.stats import AccessStats
from repro.core.store import RowStoreDefaults
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
    The batch mutators and the full load are :class:`RowStoreDefaults`'s.
    Unlike GraphTinker's CAL streaming, the full load *is* the
    per-vertex chain sweep (random block reads), including vertices
    that turn out to be empty; that access pattern is the 10x analytics
    gap of Figs. 11-13.

    Examples
    --------
    >>> st = Stinger()
    >>> st.insert_edge(1, 2)
    True
    >>> st.insert_edge(1, 2)   # duplicate: weight update, not a new edge
    False
    """

    obs_name = "stinger"

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
        if self.config.snapshot:
            self.enable_snapshot()

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
        self._head = grow(self._head, src + 1, -1)
        self._degree = grow(self._degree, src + 1)
        self._n_vertices = src + 1

    def _ensure_next(self, block: int) -> None:
        self._next = grow(self._next, block + 1, -1)

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
            dsts = self.pool.fields["dst"][block]
            self.stats.cells_scanned += dsts.shape[0]
            hit = np.flatnonzero(dsts == dst)
            if hit.size:
                self.pool.fields["weight"][block, hit[0]] = weight
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
        cells = self.pool.fields
        cells["dst"][free_block, free_slot] = dst
        cells["weight"][free_block, free_slot] = weight
        if self._analytics_snapshot is not None:
            self._analytics_snapshot.mark_dirty(src)
        self.stats.workblock_writebacks += 1
        self._degree[src] += 1
        self._n_edges += 1
        self.stats.edges_inserted += 1
        return True

    def delete_edge(self, src: int, dst: int) -> bool:
        """Delete ``(src, dst)``; flags the slot for reuse."""
        src, dst = int(src), int(dst)
        if src < 0 or src >= self._n_vertices or dst < 0:
            return False  # negative dst would match the EMPTY/DELETED flags
        block = int(self._head[src])
        while block >= 0:
            self.stats.random_block_reads += 1
            dsts = self.pool.fields["dst"][block]
            self.stats.cells_scanned += dsts.shape[0]
            hit = np.flatnonzero(dsts == dst)
            if hit.size:
                dsts[hit[0]] = _DELETED
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
            dsts = self.pool.fields["dst"][block]
            live = dsts >= 0
            n = int(live.sum())
            if n:
                dsts[live] = _DELETED
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
    def edge_weight(self, src: int, dst: int) -> float | None:
        src, dst = int(src), int(dst)
        if src < 0 or src >= self._n_vertices or dst < 0:
            return None  # negative dst would match the EMPTY/DELETED flags
        block = int(self._head[src])
        while block >= 0:
            self.stats.random_block_reads += 1
            dsts = self.pool.fields["dst"][block]
            hit = np.flatnonzero(dsts == dst)
            self.stats.cells_scanned += dsts.shape[0]
            if hit.size:
                self.stats.edges_found += 1
                return float(self.pool.fields["weight"][block, hit[0]])
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
            row = self.pool.fields["dst"][block]
            mask = row >= 0
            if mask.any():
                dsts.append(row[mask])
                weights.append(self.pool.fields["weight"][block][mask])
            block = int(self._next[block])
        if not dsts:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        return np.concatenate(dsts), np.concatenate(weights)

    # ------------------------------------------------------------------ #
    # snapshot row surface (the rest is RowStoreDefaults: raw ids)
    # ------------------------------------------------------------------ #
    @property
    def full_load_is_row_sweep(self) -> bool:
        """STINGER's full load *is* the per-vertex chain sweep."""
        return True

    def _fsck_repair(self, out) -> None:
        """Recount the degree array and edge total from the live chains
        (the only shadow state STINGER keeps)."""
        total = 0
        for src in range(self._n_vertices):
            dsts, _ = self.neighbors(src)
            deg = int(dsts.shape[0])
            if deg != int(self._degree[src]):
                out.recounted_vertices.append(src)
                self._degree[src] = deg
            total += deg
        self._n_edges = total
