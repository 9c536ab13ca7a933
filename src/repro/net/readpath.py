"""The snapshot-serving read path: immutable CSR views + graph queries.

The serving tier's reads must never block behind ingest.  This module
makes that structural: a :class:`ReadView` is a *capture* of the CSR
analytics snapshot (:mod:`repro.engine.snapshot`) — the flat
``indptr/dst/weight`` arrays, the original↔dense translation tables, and
the generation that produced them.  The snapshot replaces those arrays
wholesale on rebuild (it never mutates them in place), so a view
captured under the store lock stays internally consistent forever; the
server keeps serving the captured generation while the flusher applies
new batches, and re-captures only when the applied sequence moves.

Every query here is a pure function over the captured arrays — no store
access, no lock, no modeled-cost charges (serving-tier reads live
outside the paper's cost-model world; the charge-mirror contract of the
engine path is untouched).  Staleness is explicit: each response carries
``view.generation``, monotonic per service, so a client can detect — and
bound — how far behind its reads run.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque

import numpy as np

from repro.errors import WorkloadError

#: Default cap on vertices returned by a k-hop expansion.
DEFAULT_KHOP_LIMIT = 10_000
#: Default cap on vertices settled by a shortest-path search.
DEFAULT_PATH_LIMIT = 100_000


class ReadView:
    """One immutable capture of a store's CSR snapshot (plus translation).

    Build through :func:`capture_view`; all arrays are read-only by
    convention (the snapshot will never write into them again).
    """

    __slots__ = ("generation", "applied_seq", "indptr", "dst", "weight",
                 "overlay", "flat_rows", "xlat_orig", "xlat_dense",
                 "xlat_list", "n_rows", "pending")

    def __init__(self, *, generation: int, applied_seq: int,
                 indptr: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                 overlay: dict[int, tuple[np.ndarray, np.ndarray]],
                 n_rows: int,
                 xlat_orig: np.ndarray | None,
                 xlat_dense: np.ndarray | None,
                 pending: int = 0):
        self.generation = generation
        self.applied_seq = applied_seq
        #: dirty rows the capture's sync budget left unmeasured; nonzero
        #: means this view lags `applied_seq` for those rows and the
        #: server should keep re-capturing until the backlog drains
        self.pending = pending
        self.indptr = indptr
        self.dst = dst
        self.weight = weight
        #: rows patched since the flat arrays were last rebuilt; an entry
        #: here shadows that row's flat-CSR slice
        self.overlay = overlay
        self.flat_rows = indptr.shape[0] - 1
        self.n_rows = n_rows
        #: sorted original ids / their dense rows (None = identity ids)
        self.xlat_orig = xlat_orig
        self.xlat_dense = xlat_dense
        #: plain-list twin of ``xlat_orig`` for point lookups: a scalar
        #: ``np.searchsorted`` costs ~17µs in call overhead alone, while
        #: ``bisect`` over a list is ~1µs — and point reads (degree /
        #: neighbors) do exactly one lookup each, so the serving tier's
        #: hottest ops ride on this.  Built once per capture.
        self.xlat_list = xlat_orig.tolist() if xlat_orig is not None else None

    # ------------------------------------------------------------------ #
    # id translation
    # ------------------------------------------------------------------ #
    def row_of(self, src: int) -> int | None:
        """Dense CSR row of original id ``src`` (None if unknown/empty)."""
        if src < 0:
            return None
        if self.xlat_orig is None:
            return int(src) if src < self.n_rows else None
        table = self.xlat_list
        pos = bisect.bisect_left(table, src)
        if pos >= len(table) or table[pos] != src:
            return None
        row = int(self.xlat_dense[pos])
        return row if row < self.n_rows else None

    def rows_of(self, originals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`row_of` for a *sorted unique* id array.

        Returns ``(found_mask, rows_of_found)``.
        """
        if self.xlat_orig is None:
            found = originals < self.n_rows
            return found, originals[found]
        table = self.xlat_orig
        if table.size == 0:
            return np.zeros(originals.shape[0], dtype=bool), \
                np.empty(0, dtype=np.int64)
        pos = np.searchsorted(table, originals)
        pos_c = np.minimum(pos, table.shape[0] - 1)
        found = table[pos_c] == originals
        rows = self.xlat_dense[pos_c[found]]
        in_range = rows < self.n_rows
        if not in_range.all():
            keep = np.flatnonzero(found)[in_range]
            found = np.zeros(originals.shape[0], dtype=bool)
            found[keep] = True
            rows = rows[in_range]
        return found, rows

    # ------------------------------------------------------------------ #
    # point queries
    # ------------------------------------------------------------------ #
    def _row_slice(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dst, weight)`` of one dense row, overlay first, then flat."""
        hit = self.overlay.get(row)
        if hit is not None:
            return hit
        if row < self.flat_rows:
            lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
            return self.dst[lo:hi], self.weight[lo:hi]
        # Allocated after the last flat rebuild and never patched since:
        # the row has no edges in this view's generation.
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)

    def degree(self, src: int) -> int:
        row = self.row_of(src)
        if row is None:
            return 0
        return int(self._row_slice(row)[0].shape[0])

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dst, weight)`` of ``src`` — dst in original-id space."""
        row = self.row_of(src)
        if row is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return self._row_slice(row)

    def _dsts_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Concatenated destination ids of several dense rows."""
        parts: list[np.ndarray] = []
        if self.overlay:
            keep = np.ones(rows.shape[0], dtype=bool)
            for i, row in enumerate(rows.tolist()):
                hit = self.overlay.get(row)
                if hit is not None:
                    keep[i] = False
                    if hit[0].shape[0]:
                        parts.append(hit[0])
            rows = rows[keep]
        rows = rows[rows < self.flat_rows]
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        total = int(counts.sum())
        if total:
            ends = np.cumsum(counts)
            base = np.repeat(starts - (ends - counts), counts)
            idx = base + np.arange(total, dtype=np.int64)
            parts.append(self.dst[idx])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # ------------------------------------------------------------------ #
    # traversals
    # ------------------------------------------------------------------ #
    def khop(self, src: int, k: int,
             limit: int = DEFAULT_KHOP_LIMIT) -> tuple[list[int], bool]:
        """Vertices within ``k`` hops of ``src`` (``src`` included).

        Returns ``(sorted original ids, truncated)``; ``truncated`` is
        True when the ``limit`` cap cut the expansion short.  Unknown
        roots yield an empty set.
        """
        if k < 0:
            raise WorkloadError(f"khop depth must be >= 0, got {k}")
        if limit < 1:
            raise WorkloadError(f"khop limit must be >= 1, got {limit}")
        if src < 0:
            raise WorkloadError(f"khop root must be >= 0, got {src}")
        # A root with no out-edges (including one the store has never
        # seen) expands to just itself: the 0-hop set.  Frontier sizes
        # here are small (a few hundred at the default limits), where a
        # dict-backed set probe beats ``np.isin``'s per-call overhead.
        seen: set[int] = {int(src)}
        frontier = np.array([src], dtype=np.int64)
        truncated = False
        for _ in range(k):
            if frontier.size == 0 or truncated:
                break
            _, rows = self.rows_of(np.unique(frontier))
            dsts = np.unique(self._dsts_of_rows(rows))
            fresh = [d for d in dsts.tolist() if d not in seen]
            if not fresh:
                break
            room = limit - len(seen)
            if len(fresh) > room:
                fresh = fresh[:room]
                truncated = True
            seen.update(fresh)
            frontier = np.asarray(fresh, dtype=np.int64)
        return sorted(seen), truncated

    def shortest_path(self, src: int, dst: int, *, weighted: bool = True,
                      limit: int = DEFAULT_PATH_LIMIT) -> dict:
        """One optimal ``src -> dst`` path over the captured view.

        Dijkstra over edge weights (``weighted=True``; negative weights
        rejected) or plain BFS hop counts.  Returns a dict with
        ``found``, ``distance``, ``path`` (original ids, empty when not
        found) and ``truncated`` (search hit the ``limit`` settled cap).
        """
        src, dst = int(src), int(dst)
        if src == dst:
            return {"found": True, "distance": 0.0, "path": [src],
                    "truncated": False}
        if weighted:
            return self._dijkstra(src, dst, limit)
        return self._bfs_path(src, dst, limit)

    def _neighbors_fast(self, vertex: int):
        row = self.row_of(vertex)
        if row is None:
            return None
        return self._row_slice(row)

    def _bfs_path(self, src: int, dst: int, limit: int) -> dict:
        parent: dict[int, int] = {src: src}
        queue: deque[tuple[int, int]] = deque([(src, 0)])
        settled = 0
        while queue:
            vertex, depth = queue.popleft()
            settled += 1
            if settled > limit:
                return {"found": False, "distance": None, "path": [],
                        "truncated": True}
            hop = self._neighbors_fast(vertex)
            if hop is None:
                continue
            for nxt in hop[0].tolist():
                if nxt in parent:
                    continue
                parent[nxt] = vertex
                if nxt == dst:
                    return self._unwind(parent, src, dst, float(depth + 1))
                queue.append((nxt, depth + 1))
        return {"found": False, "distance": None, "path": [],
                "truncated": False}

    def _dijkstra(self, src: int, dst: int, limit: int) -> dict:
        dist: dict[int, float] = {src: 0.0}
        parent: dict[int, int] = {src: src}
        done: set[int] = set()
        heap: list[tuple[float, int]] = [(0.0, src)]
        while heap:
            d, vertex = heapq.heappop(heap)
            if vertex in done:
                continue
            done.add(vertex)
            if vertex == dst:
                return self._unwind(parent, src, dst, d)
            if len(done) > limit:
                return {"found": False, "distance": None, "path": [],
                        "truncated": True}
            hop = self._neighbors_fast(vertex)
            if hop is None:
                continue
            dsts, weights = hop
            for nxt, w in zip(dsts.tolist(), weights.tolist()):
                if w < 0:
                    raise WorkloadError(
                        f"shortest_path requires non-negative weights; "
                        f"edge ({vertex}, {nxt}) has weight {w}")
                nd = d + w
                if nxt not in dist or nd < dist[nxt]:
                    dist[nxt] = nd
                    parent[nxt] = vertex
                    heapq.heappush(heap, (nd, nxt))
        return {"found": False, "distance": None, "path": [],
                "truncated": False}

    @staticmethod
    def _unwind(parent: dict[int, int], src: int, dst: int,
                distance: float) -> dict:
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return {"found": True, "distance": distance, "path": path,
                "truncated": False}


def capture_view(service, *, max_patch_rows: int | None = None) -> ReadView:
    """Capture a fresh :class:`ReadView` from a service's store.

    Must run while mutations are quiescent for the captured arrays to
    represent one applied sequence — the caller side (the server) runs
    it under the service's store lock via :func:`capture_view_locked`.

    ``max_patch_rows`` bounds the capture's sync work (how many dirty
    rows it re-measures while holding that lock); rows past the budget
    stay pending and are reported in ``view.pending`` so the server
    knows to capture again.
    """
    store = service._store
    snap = store.analytics_snapshot
    if snap is None:
        snap = store.enable_snapshot()
    generation = snap.sync(max_rows=max_patch_rows)
    indptr, dst, weight = snap.view_arrays()
    overlay = snap.overlay_rows()
    if store.id_translator is not None:
        xlat_orig, xlat_dense = snap.translation()
    else:
        xlat_orig = xlat_dense = None
    return ReadView(generation=generation, applied_seq=service.applied_seq,
                    indptr=indptr, dst=dst, weight=weight,
                    overlay=overlay, n_rows=snap.n_rows,
                    xlat_orig=xlat_orig, xlat_dense=xlat_dense,
                    pending=snap.pending_rows)


def capture_view_locked(service, *, max_patch_rows: int | None = None) -> ReadView:
    """:func:`capture_view` under the service's store lock."""
    with service._store_lock:
        return capture_view(service, max_patch_rows=max_patch_rows)
