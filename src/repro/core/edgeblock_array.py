"""The EdgeblockArray: main + overflow regions with Tree-Based Hashing.

This is GraphTinker's primary store (paper Sec. III.B).  The *main region*
has one top-parent edgeblock per (SGH-densified) source vertex.  Each
edgeblock is split into Subblocks; a congested Subblock "branches out" into
a child edgeblock living in the *overflow region*, whose Subblocks can
branch out in turn.  Descending the branch chain re-hashes the destination
id with a generation-dependent hash so edges fan out, which is what gives
the O(log n) expected probe behaviour versus an adjacency list's O(n).

Both regions are flat :class:`~repro.core.pool.BlockPool`s (one structured
NumPy array each); Subblock->child links are flat ``int32`` matrices grown
in lockstep with the pools.  Nothing here allocates per-edge Python
objects.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core import robin_hood as rhh
from repro.core.config import GTConfig
from repro.core.hashing import initial_bucket, subblock_index
from repro.core.pool import EMPTY, TOMBSTONE, EDGE_CELL_DTYPE, BlockPool, blank_edge_cells
from repro.core.stats import AccessStats
from repro.errors import CapacityError

#: Region tags inside an :class:`EdgeLocation`.
MAIN = 0
OVERFLOW = 1

#: Rows per pass of :meth:`EdgeblockArray.neighbors_rows`.  Bounds the
#: ``(blocks x pagewidth)`` temporaries of one pass however many rows are
#: asked for — a constant like the kernels' ``CHUNK_EDGES``, not an option.
GATHER_SLAB_ROWS = 1024


class EdgeLocation(tuple):
    """Physical address of an edge-cell: ``(region, block, slot)``."""

    __slots__ = ()

    def __new__(cls, region: int, block: int, slot: int):
        return super().__new__(cls, (region, block, slot))

    @property
    def region(self) -> int:
        return self[0]

    @property
    def block(self) -> int:
        return self[1]

    @property
    def slot(self) -> int:
        return self[2]


class _ChildMatrix:
    """Growable ``int32`` matrix of Subblock->child-edgeblock pointers."""

    __slots__ = ("_data", "n_subblocks")

    def __init__(self, n_subblocks: int, initial_rows: int = 4):
        self.n_subblocks = n_subblocks
        self._data = np.full((initial_rows, n_subblocks), -1, dtype=np.int32)

    def ensure(self, rows: int) -> None:
        cap = self._data.shape[0]
        if rows <= cap:
            return
        new_cap = cap
        while new_cap < rows:
            new_cap *= 2
        grown = np.full((new_cap, self.n_subblocks), -1, dtype=np.int32)
        grown[:cap] = self._data
        self._data = grown

    def get(self, block: int, sb: int) -> int:
        return int(self._data[block, sb])

    def set(self, block: int, sb: int, child: int) -> None:
        self.ensure(block + 1)
        self._data[block, sb] = child

    def clear_row(self, block: int) -> None:
        self._data[block, :] = -1

    def row(self, block: int) -> np.ndarray:
        return self._data[block]


class EdgeblockArray:
    """Hierarchical edge store for one GraphTinker instance.

    All ``src`` arguments here are *dense* (SGH-hashed) source ids; the
    original<->dense translation happens one layer up in the facade.
    """

    def __init__(self, config: GTConfig, stats: AccessStats | None = None):
        self.config = config
        self.stats = stats if stats is not None else AccessStats()
        self._rhh_on = config.enable_rhh and not config.compact_on_delete
        pw = config.pagewidth
        self.main = BlockPool(pw, EDGE_CELL_DTYPE, blank_edge_cells, config.initial_vertices)
        self.overflow = BlockPool(pw, EDGE_CELL_DTYPE, blank_edge_cells, 4)
        nsb = config.subblocks_per_block
        self._main_children = _ChildMatrix(nsb, config.initial_vertices)
        self._overflow_children = _ChildMatrix(nsb, 4)
        self._n_vertices = 0
        #: live (non-tombstone) edges per dense source id, grown on demand.
        self._degrees = np.zeros(config.initial_vertices, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # vertex rows
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Dense source vertices with an allocated top-parent edgeblock."""
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        """Total live edges across all vertices."""
        return int(self._degrees[: self._n_vertices].sum())

    def degree(self, src: int) -> int:
        """Live out-degree of dense source ``src`` (0 if row not allocated)."""
        if src >= self._n_vertices:
            return 0
        return int(self._degrees[src])

    def degrees_view(self) -> np.ndarray:
        """Degrees of all dense vertices (read-only view)."""
        view = self._degrees[: self._n_vertices]
        view.flags.writeable = False
        return view

    def ensure_vertex(self, src: int) -> None:
        """Allocate main-region rows up to and including dense id ``src``.

        SGH hands out dense ids in order, so the per-op path allocates at
        most one new row per call; a batch (or an SGH-disabled setup,
        where raw ids index the main region directly) gets all its rows
        in one bulk allocation.
        """
        n = self._n_vertices
        if src < n:
            return
        rows = self.main.allocate_many(src + 1 - n)
        assert (rows[0], rows[-1]) == (n, src), "main region rows must stay dense"
        self._main_children.ensure(src + 1)
        cap = self._degrees.shape[0]
        if src >= cap:
            grown = np.zeros(max(src + 1, 2 * cap), dtype=np.int64)
            grown[:cap] = self._degrees
            self._degrees = grown
        self._n_vertices = src + 1

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _children(self, region: int) -> _ChildMatrix:
        return self._main_children if region == MAIN else self._overflow_children

    def _pool(self, region: int) -> BlockPool:
        return self.main if region == MAIN else self.overflow

    def _subblock_cells(self, region: int, block: int, sb: int) -> np.ndarray:
        size = self.config.subblock
        return self._pool(region).view(block, sb * size, (sb + 1) * size)

    def _probe(self, region: int, block: int, sb: int, dst: int,
               gen: int) -> tuple[np.ndarray, int]:
        """Charged FIND of ``dst`` in one Subblock: ``(cells, slot or -1)``."""
        cfg = self.config
        cells = self._subblock_cells(region, block, sb)
        ib = initial_bucket(dst, gen, cfg.subblock, cfg.seed)
        slot, scanned = rhh.rhh_find(cells["dst"].tolist(), dst, ib, self._rhh_on)
        rhh._charge_scan(self.stats, ib, (scanned,), cfg.workblock, cfg.subblock)
        return cells, slot

    def _descend(self, region: int, block: int, sb: int, allocate: bool) -> tuple[int, int] | None:
        """Follow (or create) the child pointer of a Subblock."""
        children = self._children(region)
        child = children.get(block, sb)
        if child < 0:
            if not allocate:
                return None
            child = self.overflow.allocate()
            self._overflow_children.ensure(child + 1)
            self._overflow_children.clear_row(child)
            children.set(block, sb, child)
            self.stats.branch_allocations += 1
        self.stats.branch_descents += 1
        return OVERFLOW, child

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def insert(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        cal_block: int = -1,
        cal_slot: int = -1,
    ) -> tuple[bool, EdgeLocation]:
        """Insert or update edge ``(src, dst)``.

        Returns ``(is_new, location)`` where ``location`` addresses the
        cell now holding the *argument* edge.  Robin Hood displacement may
        push some other resident edge down into a child edgeblock; that
        cascade is resolved here and is invisible to the caller.

        Per the paper's two-mode design, the FIND stage runs over the
        *entire* descent chain first (the existing copy of a duplicate
        may live at any generation); only when it fails does the INSERT
        stage place a new edge.  Interleaving the stages per Subblock
        would let a duplicate be placed at a shallower generation than
        its existing copy.
        """
        cfg = self.config
        self.ensure_vertex(src)

        # --- FIND stage across all generations. --------------------------
        existing = self.find(src, dst)
        if existing is not None:
            row = self._pool(existing.region).row(existing.block)
            row["weight"][existing.slot] = float(weight)
            self.stats.workblock_writebacks += 1
            return False, existing

        # --- INSERT stage: descend, placing via RHH / Tree-Based Hashing.
        region, block = MAIN, src
        nsb = cfg.subblocks_per_block
        f_dst, f_weight = int(dst), float(weight)
        f_cal_block, f_cal_slot = cal_block, cal_slot
        arg_location: EdgeLocation | None = None
        for gen in range(cfg.max_generations):
            sb = subblock_index(f_dst, gen, nsb, cfg.seed)
            cells = self._subblock_cells(region, block, sb)
            ib = initial_bucket(f_dst, gen, cfg.subblock, cfg.seed)
            # The batch kernel's per-op step with a cache lifetime of one
            # op: fields out to lists, one core call, charges applied,
            # fields stored back when the core wrote.
            fields = [cells[name].tolist() for name in rhh.CELL_FIELDS]
            status, slot, lengths, wrote, swaps, o_dst, o_weight, o_cal_block, o_cal_slot = (
                rhh.rhh_insert(*fields, f_dst, f_weight, ib, self._rhh_on,
                               f_cal_block, f_cal_slot)
            )
            assert status != rhh.UPDATED, "FIND stage already ruled out duplicates"
            rhh._charge_scan(self.stats, ib, lengths, cfg.workblock, cfg.subblock)
            self.stats.rhh_swaps += swaps
            if wrote:
                for name, values in zip(rhh.CELL_FIELDS, fields):
                    cells[name][:] = values
                self.stats.workblock_writebacks += 1
            # On CONGESTED the argument edge may still have been placed
            # (via a swap); `slot` reports it either way.
            if arg_location is None and slot >= 0:
                arg_location = EdgeLocation(region, block, sb * cfg.subblock + slot)
            if status == rhh.INSERTED:
                self._degrees[src] += 1
                self.stats.edges_inserted += 1
                return True, arg_location
            region, block = self._descend(region, block, sb, allocate=True)
            f_dst, f_weight = o_dst, o_weight
            f_cal_block, f_cal_slot = o_cal_block, o_cal_slot
        raise CapacityError(
            f"edge ({src}, {dst}) exceeded max_generations={cfg.max_generations}"
        )

    def find(self, src: int, dst: int) -> EdgeLocation | None:
        """Locate edge ``(src, dst)``; ``None`` if absent."""
        cfg = self.config
        if src >= self._n_vertices:
            return None
        region, block = MAIN, src
        nsb = cfg.subblocks_per_block
        dst = int(dst)
        for gen in range(cfg.max_generations):
            sb = subblock_index(dst, gen, nsb, cfg.seed)
            _, slot = self._probe(region, block, sb, dst, gen)
            if slot >= 0:
                self.stats.edges_found += 1
                return EdgeLocation(region, block, sb * cfg.subblock + slot)
            nxt = self._descend(region, block, sb, allocate=False)
            if nxt is None:
                return None
            region, block = nxt
        return None

    def get_weight(self, location: EdgeLocation) -> float:
        """Weight stored at a cell previously returned by :meth:`find`."""
        return float(self._pool(location.region).row(location.block)["weight"][location.slot])

    def set_cal_pointer(self, location: EdgeLocation, cal_block: int, cal_slot: int) -> None:
        """Write an edge's CAL-pointer after its CAL copy was appended."""
        row = self._pool(location.region).row(location.block)
        row["cal_block"][location.slot] = cal_block
        row["cal_slot"][location.slot] = cal_slot

    def get_cal_pointer(self, location: EdgeLocation) -> tuple[int, int]:
        """Read an edge's CAL-pointer ``(block, slot)``."""
        row = self._pool(location.region).row(location.block)
        return int(row["cal_block"][location.slot]), int(row["cal_slot"][location.slot])

    def delete(self, src: int, dst: int) -> tuple[int, int] | None:
        """Delete edge ``(src, dst)``.

        Returns the edge's CAL-pointer (so the facade can invalidate the
        CAL copy) or ``None`` if the edge was absent.  With
        ``compact_on_delete`` the hole is refilled by pulling an edge up
        from the deepest descendant edgeblock, shrinking the tree.
        """
        cfg = self.config
        if src >= self._n_vertices:
            return None
        region, block = MAIN, src
        nsb = cfg.subblocks_per_block
        dst = int(dst)
        for gen in range(cfg.max_generations):
            sb = subblock_index(dst, gen, nsb, cfg.seed)
            cells, slot = self._probe(region, block, sb, dst, gen)
            if slot >= 0:
                cal_ptr = (int(cells["cal_block"][slot]), int(cells["cal_slot"][slot]))
                cells["dst"][slot] = TOMBSTONE
                cells["cal_block"][slot] = -1
                cells["cal_slot"][slot] = -1
                self.stats.workblock_writebacks += 1
                self.stats.tombstones_set += 1
                self._degrees[src] -= 1
                self.stats.edges_deleted += 1
                if cfg.compact_on_delete:
                    self._compact_hole(region, block, sb, sb * cfg.subblock + slot)
                return cal_ptr
            nxt = self._descend(region, block, sb, allocate=False)
            if nxt is None:
                return None
            region, block = nxt
        return None

    def _compact_hole(self, region: int, block: int, sb: int, cell_index: int) -> None:
        """Delete-and-compact: refill a hole from the child chain.

        Any edge in the child edgeblock of Subblock ``sb`` hashes to ``sb``
        at this generation (that is how it descended), so it may legally
        move up into the hole.  The move leaves a hole in the child, which
        is refilled recursively; emptied childless edgeblocks are freed
        back to the pool so the structure shrinks as the paper describes.
        """
        children = self._children(region)
        child = children.get(block, sb)
        row = self._pool(region).row(block)
        if child < 0:
            # No descendants: leave the cell truly empty so it is reusable.
            row["dst"][cell_index] = EMPTY
            return
        victim = self._last_occupied_cell(child)
        if victim < 0:
            # Child holds no live edges; prune it if it is a leaf.
            row["dst"][cell_index] = EMPTY
            self._try_free_leaf(region, block, sb, child)
            return
        child_row = self.overflow.row(child)
        row["dst"][cell_index] = child_row["dst"][victim]
        row["weight"][cell_index] = child_row["weight"][victim]
        row["probe"][cell_index] = 0
        row["cal_block"][cell_index] = child_row["cal_block"][victim]
        row["cal_slot"][cell_index] = child_row["cal_slot"][victim]
        child_row["dst"][victim] = TOMBSTONE
        child_row["cal_block"][victim] = -1
        child_row["cal_slot"][victim] = -1
        self.stats.compaction_moves += 1
        self.stats.random_block_reads += 1
        self.stats.workblock_writebacks += 2
        victim_sb = victim // self.config.subblock
        self._compact_hole(OVERFLOW, child, victim_sb, victim)
        self._try_free_leaf(region, block, sb, child)

    def _last_occupied_cell(self, overflow_block: int) -> int:
        """Index of the last live cell in an overflow block, or -1."""
        dsts = self.overflow.row(overflow_block)["dst"]
        occupied = np.flatnonzero(dsts >= 0)
        self.stats.random_block_reads += 1
        return int(occupied[-1]) if occupied.size else -1

    def _try_free_leaf(self, region: int, block: int, sb: int, child: int) -> None:
        """Free ``child`` if it has no live edges and no children."""
        dsts = self.overflow.row(child)["dst"]
        if (dsts >= 0).any():
            return
        if (self._overflow_children.row(child) >= 0).any():
            return
        self._children(region).set(block, sb, -1)
        self._overflow_children.clear_row(child)
        self.overflow.free(child)

    # ------------------------------------------------------------------ #
    # retrieval
    # ------------------------------------------------------------------ #
    def vertex_blocks(self, src: int) -> Iterator[np.ndarray]:
        """Yield every edgeblock row of ``src``'s branch tree (views).

        Each yielded row is charged as one random block read: incremental-
        mode analytics pays non-contiguous DRAM accesses per edgeblock,
        which is precisely the cost the hybrid engine trades off against
        CAL streaming.
        """
        if src >= self._n_vertices:
            return
        stack: list[tuple[int, int]] = [(MAIN, src)]
        while stack:
            region, block = stack.pop()
            self.stats.random_block_reads += 1
            # Inspecting a block touches every cell slot, occupied or not
            # — the DRAM-traffic reason wide PAGEWIDTHs hurt analytics.
            self.stats.cells_scanned += self.config.pagewidth
            yield self._pool(region).row(block)
            kids = self._children(region).row(block)
            for child in kids[kids >= 0]:
                stack.append((OVERFLOW, int(child)))

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(dst, weight)`` arrays of all live out-edges of ``src``.

        Blocks in :meth:`vertex_blocks` order, cells in slot order: the
        specification :meth:`neighbors_rows` reproduces for many rows.
        """
        dsts: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for row in self.vertex_blocks(src):
            mask = row["dst"] >= 0
            if mask.any():
                dsts.append(row["dst"][mask].copy())
                weights.append(row["weight"][mask].copy())
        if not dsts:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        return np.concatenate(dsts), np.concatenate(weights)

    def neighbors_rows(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk :meth:`neighbors`: ``(counts, n_blocks, dst, weight)``.

        For allocated dense ``rows`` (each ``< n_vertices``; repeats
        allowed), in the order given: ``dst`` / ``weight`` hold every
        row's live cells back to back in exactly the order
        ``neighbors(row)`` yields them, ``counts[i]`` says how many belong
        to ``rows[i]`` and ``n_blocks[i]`` how many edgeblocks
        ``vertex_blocks(rows[i])`` visits.  Nothing is charged: a caller
        on a cost-accounted path charges one random block read and
        ``pagewidth`` scanned cells per block, as the per-row walk does.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and not (0 <= rows.min() and rows.max() < self._n_vertices):
            raise IndexError("neighbors_rows takes allocated dense rows only")
        # At least one (possibly empty) slab, so the result is always typed.
        slabs = [self._gather_slab(rows[lo:lo + GATHER_SLAB_ROWS])
                 for lo in range(0, max(rows.shape[0], 1), GATHER_SLAB_ROWS)]
        counts, n_blocks, dst, weight = (np.concatenate(part) for part in zip(*slabs))
        return counts, n_blocks, dst, weight

    def _gather_slab(self, rows: np.ndarray):
        """One level-synchronous pass of :meth:`neighbors_rows`.

        Every array below has one entry per edgeblock of one tree level;
        a level costs a fixed number of NumPy calls however many rows or
        blocks it holds, and no step is per vertex.
        """
        # (1) Discovery, top-down.  `nonzero` is row-major, so a level's
        # blocks come grouped by parent, ascending Subblock inside a group.
        blocks = [rows]
        parents: list[np.ndarray] = []
        kids = self._main_children._data[rows]
        while True:
            parent, sb = np.nonzero(kids >= 0)
            if parent.size == 0:
                break
            parents.append(parent)
            blocks.append(kids[parent, sb])
            kids = self._overflow_children._data[blocks[-1]]
        # (2) Subtree sizes (in blocks), bottom-up.
        sizes = [np.ones(level.shape[0], dtype=np.int64) for level in blocks]
        for depth in range(len(parents), 0, -1):
            np.add.at(sizes[depth - 1], parents[depth - 1], sizes[depth])
        # (3) Pre-order positions, top-down.  `vertex_blocks` pops a LIFO
        # stack, so siblings are visited in *descending* Subblock order:
        # a child sits one past its parent plus the subtrees of the
        # siblings listed after it.  A block's children weigh `size - 1`
        # in all, so `cumsum(size - 1)` is the running child weight at the
        # end of each parent's group.
        positions = [np.cumsum(sizes[0]) - sizes[0]]
        for parent, size, child_size in zip(parents, sizes, sizes[1:]):
            group_end = positions[-1] + 1 + np.cumsum(size - 1)
            positions.append(group_end[parent] - np.cumsum(child_size))
        # (4) One gather per pool per field into pre-order, one compress.
        pw = self.config.pagewidth
        total = int(sizes[0].sum())
        dst = np.empty((total, pw), dtype=np.int64)
        weight = np.empty((total, pw), dtype=np.float64)
        main, overflow = self.main._data, self.overflow._data
        dst[positions[0]] = main["dst"][rows]
        weight[positions[0]] = main["weight"][rows]
        if parents:
            deep, at = np.concatenate(blocks[1:]), np.concatenate(positions[1:])
            dst[at] = overflow["dst"][deep]
            weight[at] = overflow["weight"][deep]
        live = dst >= 0
        counts = np.add.reduceat(live.sum(axis=1), positions[0])
        return counts, sizes[0], dst[live], weight[live]

    def iter_all_edges(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(src, dst_array, weight_array)`` over all dense vertices.

        The per-row walk behind :meth:`GraphTinker.edges`; every
        edgeblock visit is a random block read.
        """
        for src in range(self._n_vertices):
            dst, weight = self.neighbors(src)
            if dst.size:
                yield src, dst, weight

    def overflow_blocks_in_use(self) -> int:
        """Number of live overflow edgeblocks (shrinks under compaction)."""
        return self.overflow.n_used
