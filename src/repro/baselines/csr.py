"""The store-and-static-compute baseline with CSR preprocessing (Sec. II.B).

The traditional dynamic-graph recipe: accumulate updates in a cheap log,
and before every analytics pass *preprocess* — compact the current edge
set into CSR (compressed sparse row), then stream it contiguously.  CSR
retrieval is the gold standard for contiguity, but the rebuild pass
touches every edge after every batch, which is the redundant work the
paper's CAL eliminates ("without the need for any form of
pre-processing").

Accounting:

* updates: O(1) hash-log operations.  Each log probe is charged as one
  *random block access*: the log is edge-scale, so its buckets are not
  cache-resident (unlike the SGH table, which is vertex-scale) — the
  same dedup bill every other store pays via its own probe mechanism;
* rebuild: reads the whole log and writes the whole CSR — charged as a
  sequential pass over both plus an O(E log E) sort's worth of cell
  touches;
* analytics: perfect sequential streaming of the CSR arrays.

The preprocessing bench (`benchmarks/bench_preprocessing.py`) compares
this against GraphTinker+CAL under the analytics-after-every-batch
protocol.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.core.stats import AccessStats
from repro.core.store import RowStoreDefaults
from repro.errors import VertexNotFoundError

#: Slots per block when charging sequential passes (matches the other
#: stores' streaming granularity).
_SCAN_BLOCK = 64


class CSRRebuildStore(RowStoreDefaults):
    """Edge log + rebuild-to-CSR-before-analytics dynamic store."""

    def __init__(self) -> None:
        self.stats = AccessStats()
        self._log: dict[tuple[int, int], float] = {}
        self._dirty = True
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        self._srcs = np.empty(0, dtype=np.int64)
        self._n_vertices = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------ #
    # O(1) log updates
    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        return len(self._log)

    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> bool:
        src, dst = int(src), int(dst)
        if src < 0 or dst < 0:
            raise ValueError(f"vertex ids must be non-negative, got ({src}, {dst})")
        self.stats.hash_lookups += 1
        self.stats.random_block_reads += 1  # edge-scale log bucket access
        key = (src, dst)
        is_new = key not in self._log
        self._log[key] = float(weight)
        self._dirty = True
        if is_new:
            self.stats.edges_inserted += 1
        self._n_vertices = max(self._n_vertices, src + 1, dst + 1)
        return is_new

    def insert_batch(self, edges: np.ndarray, weights: np.ndarray | None = None) -> int:
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (n, 2)")
        if edges.size and edges.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.float64)
        new = 0
        for (s, d), w in zip(edges.tolist(), np.asarray(weights, float).tolist()):
            if self.insert_edge(s, d, w):
                new += 1
        return new

    def delete_edge(self, src: int, dst: int) -> bool:
        self.stats.hash_lookups += 1
        self.stats.random_block_reads += 1  # edge-scale log bucket access
        if self._log.pop((int(src), int(dst)), None) is None:
            return False
        self._dirty = True
        self.stats.edges_deleted += 1
        return True

    def delete_batch(self, edges: np.ndarray) -> int:
        edges = np.asarray(edges, dtype=np.int64)
        return sum(self.delete_edge(s, d) for s, d in edges.tolist())

    def has_edge(self, src: int, dst: int) -> bool:
        self.stats.hash_lookups += 1
        self.stats.random_block_reads += 1
        return (int(src), int(dst)) in self._log

    def edge_weight(self, src: int, dst: int) -> float | None:
        self.stats.hash_lookups += 1
        return self._log.get((int(src), int(dst)))

    # ------------------------------------------------------------------ #
    # the preprocessing pass
    # ------------------------------------------------------------------ #
    def rebuild(self) -> None:
        """Compact the log into CSR (the store-and-static-compute cost).

        Charged as: one sequential read pass over the log, one sequential
        write pass of the CSR arrays, plus ``E log2 E`` cell touches for
        the sort — the canonical preprocessing bill the paper's CAL
        avoids paying per batch.
        """
        e = len(self._log)
        blocks = -(-max(e, 1) // _SCAN_BLOCK)
        self.stats.seq_block_reads += 2 * blocks
        sort_touches = int(e * max(1.0, math.log2(max(e, 2))))
        self.stats.cells_scanned += e * 2 + sort_touches

        if e == 0:
            self._indptr = np.zeros(max(self._n_vertices, 0) + 1, dtype=np.int64)
            self._indices = np.empty(0, dtype=np.int64)
            self._weights = np.empty(0, dtype=np.float64)
            self._srcs = np.empty(0, dtype=np.int64)
        else:
            keys = np.asarray(list(self._log.keys()), dtype=np.int64)
            vals = np.asarray(list(self._log.values()), dtype=np.float64)
            order = np.lexsort((keys[:, 1], keys[:, 0]))
            keys, vals = keys[order], vals[order]
            self._srcs = keys[:, 0]
            self._indices = keys[:, 1]
            self._weights = vals
            counts = np.bincount(self._srcs, minlength=self._n_vertices)
            self._indptr = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
            )
        self._dirty = False
        self.rebuilds += 1

    def _fresh(self) -> None:
        if self._dirty:
            self.rebuild()

    # ------------------------------------------------------------------ #
    # analytics retrieval (ideal contiguity)
    # ------------------------------------------------------------------ #
    def analytics_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._fresh()
        e = self._indices.shape[0]
        self.stats.seq_block_reads += -(-max(e, 1) // _SCAN_BLOCK)
        self.stats.cells_scanned += e
        return self._srcs, self._indices, self._weights

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        src = int(src)
        if src >= self._n_vertices:
            raise VertexNotFoundError(src)
        self._fresh()
        lo, hi = int(self._indptr[src]), int(self._indptr[src + 1])
        self.stats.random_block_reads += 1
        self.stats.cells_scanned += hi - lo
        return self._indices[lo:hi], self._weights[lo:hi]

    def degree(self, src: int) -> int:
        src = int(src)
        if src >= self._n_vertices:
            return 0
        self._fresh()
        return int(self._indptr[src + 1] - self._indptr[src])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        src, dst, w = self.analytics_edges()
        for s, d, x in zip(src.tolist(), dst.tolist(), w.tolist()):
            yield s, d, x

    # ------------------------------------------------------------------ #
    # engine surface (repro.core.store protocol subset; no CSR snapshot)
    # ------------------------------------------------------------------ #
    @property
    def analytics_snapshot(self):
        return None

    @property
    def full_load_is_row_sweep(self) -> bool:
        # The full load streams the rebuilt CSR sequentially; the per-row
        # sweep pays random reads instead — different charge shapes.
        return False

    def check_invariants(self) -> None:
        self._fresh()
        assert self._indices.shape[0] == len(self._log)
        assert int(self._indptr[-1]) == len(self._log)
        # per-row slices sorted and consistent with the log
        for s in range(min(self._n_vertices, 64)):
            lo, hi = int(self._indptr[s]), int(self._indptr[s + 1])
            for d in self._indices[lo:hi].tolist():
                assert (s, d) in self._log
