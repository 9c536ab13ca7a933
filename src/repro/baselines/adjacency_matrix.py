"""The adjacency-matrix baseline (paper Sec. II.A).

A 2-D matrix holding edge (u_i, v_j) at position a_ij: O(1) edge
insertion and deletion, but O(n^2) memory and an O(n^2) scan to retrieve
the edge set — "unsuitable for dynamic graph processing" at real graph
sizes, which is exactly what the preprocessing bench demonstrates.

Only sensible for small vertex-id spaces; the constructor takes a hard
capacity and refuses ids beyond it rather than growing quadratically.
"""

from __future__ import annotations

import numpy as np

from repro.core.stats import AccessStats
from repro.core.store import RowStoreDefaults
from repro.errors import CapacityError, VertexNotFoundError

#: Cells per "block" when charging matrix scans (matches the other
#: stores' 64-slot streaming granularity).
_SCAN_BLOCK = 64


class AdjacencyMatrixStore(RowStoreDefaults):
    """Dense adjacency-matrix dynamic graph store (small graphs only)."""

    obs_name = "adjacency_matrix"

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.stats = AccessStats()
        self._weight = np.zeros((capacity, capacity), dtype=np.float64)
        self._present = np.zeros((capacity, capacity), dtype=bool)
        self._n_edges = 0
        self._max_vertex = -1

    # ------------------------------------------------------------------ #
    def _check(self, src: int, dst: int) -> tuple[int, int]:
        src, dst = int(src), int(dst)
        if src < 0 or dst < 0:
            raise ValueError(f"vertex ids must be non-negative, got ({src}, {dst})")
        if src >= self.capacity or dst >= self.capacity:
            raise CapacityError(
                f"vertex id beyond matrix capacity {self.capacity}; "
                "an adjacency matrix cannot grow cheaply — the paper's point"
            )
        return src, dst

    def _cell(self, src: int, dst: int) -> tuple[int, int] | None:
        """Matrix index of ``(src, dst)``, or ``None`` for an id outside
        ``[0, capacity)``: a read's or a delete's uncharged miss."""
        src, dst = int(src), int(dst)
        return (src, dst) if 0 <= min(src, dst) and max(src, dst) < self.capacity else None

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def n_vertices(self) -> int:
        return self._max_vertex + 1

    # ------------------------------------------------------------------ #
    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> bool:
        """O(1): one random write into the matrix."""
        src, dst = self._check(src, dst)
        self.stats.random_block_reads += 1  # the a_ij cache line
        is_new = not self._present[src, dst]
        self._present[src, dst] = True
        self._weight[src, dst] = weight
        if is_new:
            self._n_edges += 1
            self.stats.edges_inserted += 1
        self._max_vertex = max(self._max_vertex, src, dst)
        return is_new

    def delete_edge(self, src: int, dst: int) -> bool:
        """O(1): one random write."""
        cell = self._cell(src, dst)
        if cell is None:
            return False
        self.stats.random_block_reads += 1
        if not self._present[cell]:
            return False
        self._present[cell] = False
        self._n_edges -= 1
        self.stats.edges_deleted += 1
        return True

    # ------------------------------------------------------------------ #
    def edge_weight(self, src: int, dst: int) -> float | None:
        cell = self._cell(src, dst)
        if cell is None:
            return None
        self.stats.random_block_reads += 1
        return float(self._weight[cell]) if self._present[cell] else None

    def degree(self, src: int) -> int:
        src = int(src)
        if not 0 <= src <= self._max_vertex:
            return 0
        n = self.n_vertices
        self.stats.cells_scanned += n  # scan the row
        self.stats.seq_block_reads += -(-n // _SCAN_BLOCK)
        return int(self._present[src, : n].sum())

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        src = int(src)
        if not 0 <= src <= self._max_vertex:
            raise VertexNotFoundError(src)
        n = self.n_vertices
        self.stats.cells_scanned += n
        self.stats.seq_block_reads += -(-n // _SCAN_BLOCK)
        dst = np.flatnonzero(self._present[src, : n]).astype(np.int64)
        return dst, self._weight[src, dst]

    def analytics_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Retrieval scans the whole (n x n) used sub-matrix — sparse or
        not, every cell is inspected: the O(n^2) cost of Sec. II.A."""
        n = self.n_vertices
        self.stats.cells_scanned += n * n
        self.stats.seq_block_reads += -(-(n * n) // _SCAN_BLOCK)
        src, dst = np.nonzero(self._present[:n, :n])
        return (src.astype(np.int64), dst.astype(np.int64),
                self._weight[src, dst])

    # ------------------------------------------------------------------ #
    # engine surface (repro.core.store protocol subset; no CSR snapshot)
    # ------------------------------------------------------------------ #
    @property
    def analytics_snapshot(self):
        return None

    @property
    def full_load_is_row_sweep(self) -> bool:
        # The full load is an n*n matrix scan, not the per-row sweep.
        return False

    def check_invariants(self) -> None:
        assert int(self._present.sum()) == self._n_edges
