"""The GraphTinker facade — the paper's public data-structure API.

Ties together the Scatter-Gather Hashing unit, the EdgeblockArray (Robin
Hood + Tree-Based Hashing), the VertexPropertyArray and the Coarse
Adjacency List into the dynamic-graph store evaluated in the paper:

* :meth:`GraphTinker.insert_edge` / :meth:`insert_batch` — FIND-then-INSERT
  semantics; duplicate inserts update the weight in place (and the CAL
  copy through the edge's CAL-pointer).
* :meth:`delete_edge` / :meth:`delete_batch` — delete-only (tombstones) or
  delete-and-compact, per configuration.
* :meth:`neighbors`, :meth:`edges` — retrieval for analytics, from the
  EdgeblockArray (incremental path) or the CAL (streaming path).

All public methods speak *original* vertex ids; the SGH unit translates to
the dense internal id space (unless ``enable_sgh`` is off, in which case
original ids index the main region directly, reproducing the sparse-layout
behaviour the ablation of Sec. V.B measures).
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator

import numpy as np

from repro.core import kernels
from repro.core.cal import CoarseAdjacencyList
from repro.core.config import GTConfig
from repro.core.edgeblock_array import EdgeblockArray
from repro.core.sgh import ScatterGatherHash
from repro.core.stats import STAT_FIELDS, AccessStats
from repro.core.store import StoreBase, check_edge_batch
from repro.core.vertex_array import VertexPropertyArray
from repro.errors import VertexNotFoundError
from repro.obs import hooks as obs_hooks


class GraphTinker(StoreBase):
    """A single-instance GraphTinker dynamic graph store.

    Parameters
    ----------
    config:
        Geometry and feature toggles; defaults follow the paper
        (PAGEWIDTH 64 / Subblock 8 / Workblock 4, SGH+CAL+RHH on).

    Examples
    --------
    >>> gt = GraphTinker()
    >>> gt.insert_edge(34, 22789, weight=2.5)
    True
    >>> gt.has_edge(34, 22789)
    True
    >>> gt.n_edges
    1
    """

    def __init__(self, config: GTConfig | None = None):
        self.config = config if config is not None else GTConfig()
        self.stats = AccessStats()
        self.sgh = ScatterGatherHash(self.stats) if self.config.enable_sgh else None
        self.eba = EdgeblockArray(self.config, self.stats)
        self.cal = CoarseAdjacencyList(self.config, self.stats) if self.config.enable_cal else None
        self.vpa = VertexPropertyArray(self.config.initial_vertices)
        if self.config.snapshot:
            self.enable_snapshot()

    # ------------------------------------------------------------------ #
    # id translation
    # ------------------------------------------------------------------ #
    def _dense(self, src: int, create: bool) -> int | None:
        """Translate an original source id to the internal dense id."""
        if self.sgh is None:
            src = int(src)
            if src < 0 and not create:
                return None  # negative ids are always a lookup miss
            return src
        if create:
            return self.sgh.hash_id(src)
        return self.sgh.try_lookup(src)

    def dense_id(self, src: int) -> int:
        """Public translation original -> dense (raises if unknown)."""
        if self.sgh is None:
            return int(src)
        return self.sgh.lookup(src)

    def original_id(self, dense: int) -> int:
        """Public translation dense -> original."""
        if self.sgh is None:
            return int(dense)
        return self.sgh.original_id(dense)

    def original_ids(self, dense: np.ndarray) -> np.ndarray:
        """Vectorised dense -> original translation."""
        if self.sgh is None:
            return np.asarray(dense, dtype=np.int64)
        return self.sgh.original_ids(np.asarray(dense))

    # ------------------------------------------------------------------ #
    # snapshot row surface (repro.core.store protocol)
    # ------------------------------------------------------------------ #
    def dense_row_count(self) -> int:
        """Allocated dense EdgeblockArray rows (snapshot row space)."""
        return self.eba.n_vertices

    def row_neighbors(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Charged native walk of dense row ``row`` (the EBA tree walk)."""
        return self.eba.neighbors(row)

    def measure_rows(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk :meth:`row_neighbors`, uncharged, each row's charge beside
        its data (:meth:`RowStoreDefaults.measure_rows` is the per-row
        specification): one level-synchronous pass, and per edgeblock
        visited the random block read and ``pagewidth`` scanned cells
        :meth:`_walk_rows` charges."""
        counts, n_blocks, dst, weight = self.eba.neighbors_rows(rows)
        charges = np.zeros((n_blocks.shape[0], len(STAT_FIELDS)), dtype=np.int64)
        charges[:, STAT_FIELDS.index("random_block_reads")] = n_blocks
        charges[:, STAT_FIELDS.index("cells_scanned")] = n_blocks * self.config.pagewidth
        return counts, dst, weight, charges

    @property
    def id_translator(self):
        """The SGH densifier (``None`` with ``enable_sgh=False``)."""
        return self.sgh

    @property
    def full_load_is_row_sweep(self) -> bool:
        """Without a CAL the FP load *is* the per-row EBA sweep; with one
        it streams from the CAL in insertion order instead."""
        return self.cal is None

    # ------------------------------------------------------------------ #
    # size properties
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Non-empty source vertices (vertices owning at least one row)."""
        return self.eba.n_vertices

    @property
    def n_edges(self) -> int:
        """Live directed edges currently stored."""
        return self.eba.n_edges

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_ids(src: int, dst: int) -> None:
        # Negative ids are reserved: the edge-cell encoding uses -1/-2 as
        # EMPTY/TOMBSTONE sentinels, so letting one in would corrupt the
        # structure silently.
        if src < 0 or dst < 0:
            raise ValueError(f"vertex ids must be non-negative, got ({src}, {dst})")

    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> bool:
        """Insert edge ``(src, dst)``; update its weight if present.

        Returns ``True`` when the edge is new, ``False`` on an in-place
        update (the FIND stage succeeded).
        """
        self._validate_ids(src, dst)
        dense_src = self._dense(src, create=True)
        try:
            is_new, location = self.eba.insert(dense_src, dst, weight)
        finally:
            if self._analytics_snapshot is not None:
                # Weight updates change row data too, and a cascade that
                # raised has moved cells already: mark unconditionally.
                self._analytics_snapshot.mark_dirty(dense_src)
        if is_new:
            self.vpa.add_degree(dense_src, 1)
            if self.cal is not None:
                self.eba.set_cal_pointer(location, self.cal.append(dense_src, dst, weight))
        else:
            if self.cal is not None:
                cal_ptr = self.eba.get_cal_pointer(location)
                if cal_ptr >= 0:
                    self.cal.update_weight(cal_ptr, weight)
        return is_new

    def _resolve_kernel(self, kernel: str | None) -> str:
        kern = self.config.kernel if kernel is None else kernel
        if kern not in ("scalar", "vector"):
            raise ValueError(f"unknown kernel {kern!r} (expected 'scalar' or 'vector')")
        return kern

    def insert_batch(
        self,
        edges: np.ndarray,
        weights: np.ndarray | None = None,
        kernel: str | None = None,
    ) -> int:
        """Insert an ``(n, 2)`` batch of edges; return the number of new ones.

        This is the paper's batch-update entry point (1M-edge batches in
        the evaluation).  Weights default to 1.0.  ``kernel`` overrides
        the configured batch implementation for this call; both kernels
        are event-identical (see :mod:`repro.core.kernels`), so the choice
        only affects wall-clock time.
        """
        edges, _ = check_edge_batch(edges)
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
        kern = self._resolve_kernel(kernel)
        before = self.stats.snapshot() if obs_hooks.enabled else None
        t0 = time.perf_counter() if before is not None else 0.0
        # The scalar loop zips edges with weights, so a short weights array
        # silently truncates the batch; the vector path mirrors that.
        m = min(edges.shape[0], weights.shape[0])
        # Both paths mark the analytics snapshot's dirty rows themselves:
        # the per-edge one (also a batch too small to start a round) inside
        # insert_edge, the vector kernel per chunk from its dense ids.
        if kern == "vector" and m >= kernels.MIN_ROUND_GROUPS:
            new = kernels.insert_batch_vector(self, edges[:m], weights[:m])
        else:
            new = self._insert_batch_scalar(edges, weights)
        if before is not None:
            obs_hooks.publish_store_delta("gt", self.stats.delta(before))
            obs_hooks.publish_ingest("insert", kern, int(edges.shape[0]),
                                     time.perf_counter() - t0)
        return new

    def _insert_batch_scalar(self, edges: np.ndarray, weights: np.ndarray) -> int:
        """Per-edge reference implementation of :meth:`insert_batch`."""
        new = 0
        srcs = edges[:, 0].tolist()
        dsts = edges[:, 1].tolist()
        wts = weights.tolist()
        for s, d, w in zip(srcs, dsts, wts):
            if self.insert_edge(s, d, w):
                new += 1
        return new

    def delete_edge(self, src: int, dst: int) -> bool:
        """Delete edge ``(src, dst)``; return whether it existed."""
        if int(dst) < 0:
            return False  # would collide with the EMPTY/TOMBSTONE cells
        dense_src = self._dense(src, create=False)
        if dense_src is None or dense_src >= self.eba.n_vertices:
            return False
        cal_ptr = self.eba.delete(dense_src, dst)
        if cal_ptr is None:
            return False
        if self._analytics_snapshot is not None:
            self._analytics_snapshot.mark_dirty(dense_src)
        self.vpa.add_degree(dense_src, -1)
        if self.cal is not None and cal_ptr >= 0:
            if self.config.compact_on_delete:
                moved = self.cal.compact_delete(cal_ptr)
                if moved is not None:
                    # The group's tail copy filled the hole; re-point the
                    # owning EdgeblockArray cell at the copy's new home.
                    m_src, m_dst, _ = moved
                    loc = self.eba.find(m_src, m_dst)
                    assert loc is not None, "CAL copy without an owner"
                    self.eba.set_cal_pointer(loc, cal_ptr)
            else:
                self.cal.invalidate(cal_ptr)
        return True

    def delete_batch(self, edges: np.ndarray, kernel: str | None = None) -> int:
        """Delete a batch of edges; return how many actually existed."""
        edges, _ = check_edge_batch(edges, negative_ok=True)
        kern = self._resolve_kernel(kernel)
        before = self.stats.snapshot() if obs_hooks.enabled else None
        t0 = time.perf_counter() if before is not None else 0.0
        # The vector delete kernel covers the delete-only (tombstoning)
        # mechanism; delete-and-compact couples sources through shared CAL
        # group tails, and an SGH-less store hands negative ids straight to
        # the block pool (which raises) — both take the scalar path so the
        # event stream stays identical by construction.
        use_vector = (
            kern == "vector"
            and not self.config.compact_on_delete
            and edges.shape[0] > 0
            and not (self.sgh is None and bool(edges[:, 0].min() < 0))
        )
        if use_vector:
            deleted = kernels.delete_batch_vector(self, edges)
        else:
            deleted = 0
            for s, d in zip(edges[:, 0].tolist(), edges[:, 1].tolist()):
                if self.delete_edge(s, d):
                    deleted += 1
        if before is not None:
            obs_hooks.publish_store_delta("gt", self.stats.delta(before))
            obs_hooks.publish_ingest("delete", kern, int(edges.shape[0]),
                                     time.perf_counter() - t0)
        return deleted

    def delete_vertex(self, src: int) -> int:
        """Delete every out-edge of ``src``; return how many existed.

        The vertex's SGH mapping and (now-empty) top-parent edgeblock
        persist — the dense id space never shrinks, so a reappearing
        source reuses its old row.  In-edges of ``src`` held by other
        vertices are untouched (this store indexes edges by source; use
        a symmetrised stream where undirected semantics are wanted).
        """
        dense_src = self._dense(src, create=False)
        if dense_src is None or dense_src >= self.eba.n_vertices:
            return 0
        dsts, _ = self.eba.neighbors(dense_src)
        deleted = 0
        for d in dsts.tolist():
            if self.delete_edge(src, int(d)):
                deleted += 1
        return deleted

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _find(self, src: int, dst: int) -> tuple[int, int, int] | None:
        """Charged FIND of original ``(src, dst)``: ``(region, block, cell)``
        or ``None``, charged as :meth:`EdgeblockArray.find` charges but
        without building an :class:`EdgeLocation`."""
        if int(dst) < 0:
            return None  # would collide with the EMPTY/TOMBSTONE cells
        dense_src = self._dense(src, create=False)
        if dense_src is None:
            return None
        hit = self.eba._locate(dense_src, dst)
        if hit is not None:
            self.stats.edges_found += 1
        return hit

    def has_edge(self, src: int, dst: int) -> bool:
        """FIND-mode lookup of a single edge."""
        return self._find(src, dst) is not None

    def edge_weight(self, src: int, dst: int) -> float | None:
        """Weight of edge ``(src, dst)`` or ``None`` if absent."""
        hit = self._find(src, dst)
        return None if hit is None else self.eba.get_weight(hit)

    def degree(self, src: int) -> int:
        """Live out-degree of an original source id (0 if never seen)."""
        dense_src = self._dense(src, create=False)
        if dense_src is None:
            return 0
        return self.eba.degree(dense_src)

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours of ``src`` as ``(dst, weight)`` arrays.

        Retrieval walks the vertex's edgeblock tree in the EdgeblockArray
        (the incremental-processing load path).
        """
        dense_src = self._dense(src, create=False)
        if dense_src is None:
            raise VertexNotFoundError(src)
        return self.eba.neighbors(dense_src)

    def neighbors_many(
        self, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched frontier gather: ``(src, dst, weight)`` for many sources.

        ``active`` is sanitized first (sorted unique, negatives dropped),
        so duplicate frontier ids never double-gather.  With the
        analytics snapshot attached this is one vectorized CSR gather;
        without one it is one level-synchronous pass over the frontier's
        edgeblock trees (:meth:`EdgeblockArray.neighbors_rows`).  Data,
        order and modeled AccessStats are those of the per-vertex loop
        (:func:`repro.engine.snapshot.gather_active_scalar`) either way:
        one SGH probe per active id (the degree check) plus, per vertex
        with out-edges, one more probe and its edgeblock-tree walk.
        """
        from repro.engine.snapshot import sanitize_active

        if self._analytics_snapshot is not None:
            return self._analytics_snapshot.gather_active(active)
        active = sanitize_active(active)
        dense = active if self.sgh is None else self.sgh.try_lookup_array(active)
        known = np.flatnonzero((dense >= 0) & (dense < self.eba.n_vertices))
        known = known[self.eba.degrees_view()[dense[known]] > 0]
        if self.sgh is not None:
            self.stats.hash_lookups += known.shape[0]
        counts, dst, weight = self._walk_rows(dense[known])
        return np.repeat(active[known], counts), dst, weight

    def _walk_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Charged bulk tree walk of dense ``rows``: ``(counts, dst, weight)``.

        Charges what one :meth:`EdgeblockArray.neighbors` call per row
        charges — a random block read and ``pagewidth`` scanned cells per
        edgeblock visited, empty rows included.
        """
        counts, n_blocks, dst, weight = self.eba.neighbors_rows(rows)
        visited = int(n_blocks.sum())
        self.stats.random_block_reads += visited
        self.stats.cells_scanned += visited * self.config.pagewidth
        return counts, dst, weight

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every live edge as ``(src, dst, weight)`` (original ids)."""
        for dense_src, dsts, weights in self.eba.iter_all_edges():
            src = self.original_id(dense_src)
            for d, w in zip(dsts.tolist(), weights.tolist()):
                yield src, int(d), float(w)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live edges as ``(src, dst, weight)`` arrays, dense src ids.

        Uses the CAL streaming path when CAL is enabled (contiguous block
        reads), otherwise sweeps every EdgeblockArray row, empty ones
        included, in dense order (random block reads; one
        level-synchronous pass, charged as one walk per row) — the exact
        dichotomy the engine's mode choice is about.
        """
        if self.cal is not None:
            return self.cal.stream_edges()
        rows = np.arange(self.eba.n_vertices, dtype=np.int64)
        counts, dst, weight = self._walk_rows(rows)
        return np.repeat(rows, counts), dst, weight

    def analytics_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`edge_arrays` but with *original* source ids.

        This is the engine's full-processing load path: one contiguous
        CAL stream plus one vectorised dense->original gather.
        """
        src, dst, weight = self.edge_arrays()
        return self.original_ids(src), dst, weight

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def memory_blocks(self) -> dict[str, int]:
        """Block occupancy per structure (for compaction diagnostics)."""
        out = {
            "main_edgeblocks": self.eba.main.n_used,
            "overflow_edgeblocks": self.eba.overflow.n_used,
        }
        if self.cal is not None:
            out["cal_blocks"] = self.cal.n_blocks
        return out

    def fsck(self, level: str = "full", repair: bool = False):
        """Audit (and optionally self-heal) this store's invariants.

        Thin convenience over :func:`repro.core.verify.verify_graph` /
        :func:`repro.core.verify.repair_graph`; imported lazily so the
        hot path never pays for the verifier module.
        """
        from repro.core import verify as _verify

        if repair:
            return _verify.repair_graph(self)
        return _verify.verify_graph(self, level=level)
