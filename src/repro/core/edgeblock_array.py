"""The EdgeblockArray: main + overflow regions with Tree-Based Hashing.

This is GraphTinker's primary store (paper Sec. III.B).  The *main region*
has one top-parent edgeblock per (SGH-densified) source vertex.  Each
edgeblock is split into Subblocks; a congested Subblock "branches out" into
a child edgeblock living in the *overflow region*, whose Subblocks can
branch out in turn.  Descending the branch chain re-hashes the destination
id with a generation-dependent hash so edges fan out, which is what gives
the O(log n) expected probe behaviour versus an adjacency list's O(n).

Both regions are flat :class:`~repro.core.pool.BlockPool`s (one
``(blocks, pagewidth)`` NumPy array per cell field each); Subblock->child
links are flat ``int32`` matrices grown in lockstep with the pools.
Nothing here allocates per-edge Python objects.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core import robin_hood as rhh
from repro.core.config import GTConfig
from repro.core.hashing import initial_bucket, subblock_index
from repro.core.pool import EMPTY, TOMBSTONE, EDGE_CELL_DTYPE, BlockPool, blank_edge_cells, grow
from repro.core.stats import AccessStats
from repro.errors import CapacityError

#: Region tags inside an :class:`EdgeLocation`.
MAIN = 0
OVERFLOW = 1

#: Rows per pass of :meth:`EdgeblockArray.neighbors_rows`.  Bounds the
#: ``(blocks x pagewidth)`` temporaries of one pass however many rows are
#: asked for — a constant like the kernels' ``CHUNK_EDGES``, not an option.
GATHER_SLAB_ROWS = 1024

#: Bound of an :class:`EdgeblockArray`'s tree-hash memo, which clears at
#: this size: full, it holds ~4.5 MiB (a dict slot and an int key an entry).
TREE_HASH_MEMO_ENTRIES = 1 << 16


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

    __slots__ = ("_data",)

    def __init__(self, n_subblocks: int, initial_rows: int = 4):
        self._data = np.full((initial_rows, n_subblocks), -1, dtype=np.int32)

    def ensure(self, rows: int) -> None:
        if rows > self._data.shape[0]:
            self._data = grow(self._data, rows, -1)

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
        self._fetches = rhh.subblock_tables(config.subblock, config.workblock)[2]
        pw = config.pagewidth
        self.main = BlockPool(pw, EDGE_CELL_DTYPE, blank_edge_cells, config.initial_vertices)
        self.overflow = BlockPool(pw, EDGE_CELL_DTYPE, blank_edge_cells, 4)
        self._nsb = nsb = config.subblocks_per_block
        self._main_children = _ChildMatrix(nsb, config.initial_vertices)
        self._overflow_children = _ChildMatrix(nsb, 4)
        self._n_vertices = 0
        #: live (non-tombstone) edges per dense source id, grown on demand.
        self._degrees = np.zeros(config.initial_vertices, dtype=np.int64)
        self._memo: dict[int, tuple[int, int]] = {}
        self._pairs = [(sb, ib) for sb in range(nsb) for ib in range(config.subblock)]

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
        if src >= self._degrees.shape[0]:
            self._degrees = grow(self._degrees, src + 1)
        self._n_vertices = src + 1

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _children(self, region: int) -> _ChildMatrix:
        return self._main_children if region == MAIN else self._overflow_children

    def _pool(self, region: int) -> BlockPool:
        return self.main if region == MAIN else self.overflow

    def _tree_hash(self, dst: int, gen: int) -> tuple[int, int]:
        """``(sb, ib)`` of ``dst`` at generation ``gen``: every per-op
        path's tree hashes.  They depend on nothing else in one store, so
        they are memoised, keyed ``dst * max_generations + gen``, in a
        memo that is never persisted nor charged (``hash_lookups`` counts
        SGH probes); its values share the ``_pairs`` tuples."""
        key = dst * self.config.max_generations + gen
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) >= TREE_HASH_MEMO_ENTRIES:
                self._memo.clear()
            size, seed = self.config.subblock, self.config.seed
            hit = self._memo[key] = self._pairs[subblock_index(dst, gen, self._nsb, seed) * size
                                                + initial_bucket(dst, gen, size, seed)]
        return hit

    def _locate(self, src: int, dst: int, lists: dict | None = None,
                trail: list | None = None, hashes=()) -> tuple[int, int, int] | None:
        """The charged FIND: ``(region, block, cell)`` of ``(src, dst)`` or ``None``.

        The paper's FIND mode and the only FIND loop here: per generation,
        hash ``dst`` to its Subblock and initial bucket (``hashes`` for
        the levels it holds, else :meth:`_tree_hash`), scan the Subblock
        from the bucket (:func:`~repro.core.robin_hood.rhh_find`), stop on
        a match, else descend into the Subblock's child if it has one.
        Charges the Workblocks fetched, the cells scanned and every
        descent; ``edges_found`` is the caller's to charge.

        A point read passes neither ``lists`` nor ``trail`` and reads each
        ``dst`` list from the pool.  :meth:`insert` passes both: the
        Subblocks are read through ``lists`` (see :meth:`_subblock`) and
        each level's ``(lists entry, sb, ib, scanned)`` is appended to
        ``trail``; ``hashes`` is :meth:`insert`'s.
        """
        if not 0 <= src < self._n_vertices:
            return None
        cfg, stats, rhh_on, fetches = self.config, self.stats, self._rhh_on, self._fetches
        size, region, block = cfg.subblock, MAIN, src
        cells, kids = self.main.fields["dst"], self._main_children._data
        dst = int(dst)
        for gen in range(cfg.max_generations):
            sb, ib = hashes[gen] if gen < len(hashes) else self._tree_hash(dst, gen)
            lo = sb * size
            if lists is None:  # a point read: nothing kept
                dsts = cells[block, lo:lo + size].tolist()
            else:
                sub = self._subblock(lists, region, block, sb)
                dsts = sub[0]
            slot, scanned = rhh.rhh_find(dsts, dst, ib, rhh_on)
            if trail is not None:
                trail.append((sub, sb, ib, scanned))
            stats.workblock_fetches += fetches[ib][scanned]
            stats.cells_scanned += scanned
            if slot >= 0:
                return region, block, lo + slot
            block = int(kids[block, sb])
            if block < 0:
                return None
            stats.branch_descents += 1
            if region == MAIN:
                region = OVERFLOW
                cells, kids = self.overflow.fields["dst"], self._overflow_children._data
        return None

    def _subblock(self, lists: dict, region: int, block: int, sb: int) -> list:
        """The ``lists`` entry of Subblock ``sb`` of ``block`` in ``region``.

        An entry is ``[dst, weight, probe, cal, dirty, region, block,
        lo]``: the Subblock's cell fields as Python lists, read from the
        pool on first use — ``dst`` at once, the other three only when an
        INSERT enters the Subblock (:meth:`_load`) — a bitmask of the
        cells written since, which :meth:`write_back` stores, and where
        the Subblock starts.  Keyed by Subblock row ``block * nsb + sb``,
        bit-inverted in the overflow region.  Until then the entry, not
        the pool, holds the Subblock's cells.
        """
        key = block * self._nsb + sb
        if region != MAIN:
            key = ~key
        sub = lists.get(key)
        if sub is None:
            size = self.config.subblock
            lo = sb * size
            dsts = self._pool(region).fields["dst"][block, lo:lo + size].tolist()
            sub = lists[key] = [dsts, None, None, None, 0, region, block, lo]
        return sub

    def _load(self, sub: list) -> None:
        """Read the ``weight`` / ``probe`` / ``cal`` lists of a ``lists``
        entry whose Subblock an INSERT enters."""
        region, block, lo = sub[5], sub[6], sub[7]
        hi, fields = lo + self.config.subblock, self._pool(region).fields
        sub[1] = fields["weight"][block, lo:hi].tolist()
        sub[2] = fields["probe"][block, lo:hi].tolist()
        sub[3] = fields["cal"][block, lo:hi].tolist()

    def write_back(self, lists: dict, stored: tuple[list, list] | None = None) -> None:
        """Store the written cells of every ``lists`` entry in its pool
        and empty ``lists``; with ``stored``, append each stored cell's
        flat index (``block * pagewidth + cell``) to ``stored[region]``.

        Reads each pool's field arrays afresh: an allocation may have
        regrown the overflow pool since the lists were read."""
        for sub in lists.values():
            dirty, slots = sub[4], []
            while dirty:
                low = dirty & -dirty
                slots.append(low.bit_length() - 1)
                dirty ^= low
            if slots:
                fields, block, lo = self._pool(sub[5]).fields, sub[6], sub[7]
                for name, values in zip(rhh.CELL_FIELDS, sub):
                    arr = fields[name]
                    for s in slots:
                        arr[block, lo + s] = values[s]
                if stored is not None:
                    base = block * self.config.pagewidth + lo
                    stored[sub[5]].extend([base + s for s in slots])
        lists.clear()

    def _descend(self, region: int, block: int, sb: int) -> tuple[int, int]:
        """Follow (or create) the child pointer of a Subblock."""
        children = self._children(region)
        child = children.get(block, sb)
        if child < 0:
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
        cal: int = -1,
        lists: dict | None = None,
        hashes=(),
    ) -> tuple[bool, EdgeLocation]:
        """Insert or update edge ``(src, dst)``; a new edge's cell gets
        CAL-pointer ``cal``.

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

        Each Subblock is read from its pool once.  FIND reads every
        level's ``dst`` list and hashes into a ``lists`` entry
        (:meth:`_subblock`); INSERT reuses them down the argument edge's
        own chain, up to the level where a swap places it, and reads
        ``weight`` / ``probe`` / ``cal`` only for the Subblocks it enters
        (in Robin-Hood mode FIND's scan length serves too, unrepeated).
        Below that the floating edge is another edge (:meth:`_tree_hash`).  Only
        the cells :func:`~repro.core.robin_hood.rhh_insert` wrote are
        stored back, once the op is over — an op that raises included, so
        the levels it wrote land (docs/robustness.md).  Charges are those
        of the two full passes.

        ``lists`` lets a caller pass one set of entries through many ops
        and store it with :meth:`write_back` itself: the batch kernel's
        residue does so per independent group.  Until then the pools
        are stale for those Subblocks; read a cell's CAL pointer with
        :meth:`get_cal_pointer` and the same ``lists``.  ``hashes``, if
        given, holds ``dst``'s ``(sb, ib)`` for the first levels (the
        kernel computes them for all its residue ops at once).
        """
        self.ensure_vertex(src)
        dst, weight = int(dst), float(weight)
        own = lists is None
        if own:
            lists = {}
        try:
            cfg, stats = self.config, self.stats
            size, rhh_on = cfg.subblock, self._rhh_on

            # --- FIND stage across all generations. ----------------------
            trail: list = []
            hit = self._locate(src, dst, lists, trail, hashes)
            if hit is not None:
                region, block, cell = hit
                sub = trail[-1][0]  # the hit's level: keep its lists current
                if sub[1] is not None:
                    sub[1][cell - sub[7]] = weight
                self._pool(region).fields["weight"][block, cell] = weight
                stats.edges_found += 1
                stats.workblock_writebacks += 1
                return False, EdgeLocation(region, block, cell)

            # --- INSERT stage: descend, placing via RHH / Tree-Based Hashing.
            region, block = MAIN, src
            f_dst, f_weight, f_cal = dst, weight, cal
            arg_location: EdgeLocation | None = None
            for gen in range(cfg.max_generations):
                if arg_location is None and gen < len(trail):
                    sub, sb, ib, scanned = trail[gen]  # the argument edge's FIND level
                else:
                    sb, ib = self._tree_hash(f_dst, gen)
                    sub = self._subblock(lists, region, block, sb)
                    scanned = 0
                if sub[1] is None:
                    self._load(sub)
                status, slot, lengths, wrote, swaps, o_dst, o_weight, o_cal = rhh.rhh_insert(
                    sub[0], sub[1], sub[2], sub[3], f_dst, f_weight, ib, rhh_on, f_cal,
                    scanned)
                assert status != rhh.UPDATED, "FIND stage already ruled out duplicates"
                rhh._charge_scan(stats, self._fetches, ib, lengths)
                stats.rhh_swaps += swaps
                if wrote:
                    # The core wrote from `slot`, the first cell it stored
                    # into, to the last cell of its pass: the walk's end
                    # (Robin Hood) or `slot` alone (a plain probe).
                    span = lengths[1] - (slot - ib) % size if len(lengths) > 1 else 1
                    dirty = ((1 << span) - 1) << slot
                    sub[4] |= (dirty | dirty >> size) & ((1 << size) - 1)
                    stats.workblock_writebacks += 1
                # On CONGESTED the argument edge may still have been placed
                # (via a swap); `slot` reports it either way.
                if arg_location is None and slot >= 0:
                    arg_location = EdgeLocation(region, block, sb * size + slot)
                if status == rhh.INSERTED:
                    self._degrees[src] += 1
                    stats.edges_inserted += 1
                    return True, arg_location
                region, block = self._descend(region, block, sb)
                f_dst, f_weight, f_cal = o_dst, o_weight, o_cal
            raise CapacityError(
                f"edge ({src}, {dst}) exceeded max_generations={cfg.max_generations}"
            )
        finally:
            if own:
                self.write_back(lists)

    def find(self, src: int, dst: int) -> EdgeLocation | None:
        """Locate edge ``(src, dst)``; ``None`` if absent."""
        hit = self._locate(src, dst)
        if hit is None:
            return None
        self.stats.edges_found += 1
        return EdgeLocation(*hit)

    def get_weight(self, location: tuple[int, int, int]) -> float:
        """Weight stored at a cell :meth:`find` (or :meth:`_locate`) returned."""
        region, block, slot = location
        return float(self._pool(region).fields["weight"][block, slot])

    def set_cal_pointer(self, location: EdgeLocation, cal: int) -> None:
        """Write an edge's CAL-pointer after its CAL copy was appended."""
        region, block, slot = location
        self._pool(region).fields["cal"][block, slot] = cal

    def get_cal_pointer(self, location: EdgeLocation, lists: dict | None = None) -> int:
        """Read an edge's CAL-pointer (a CAL address, -1 for none), from
        the ``lists`` entry of its Subblock if :meth:`insert` read one."""
        region, block, slot = location
        if lists:
            sb, at = divmod(slot, self.config.subblock)
            cals = self._subblock(lists, region, block, sb)[3]
            if cals is not None:
                return cals[at]
        return int(self._pool(region).fields["cal"][block, slot])

    def delete(self, src: int, dst: int) -> int | None:
        """Delete edge ``(src, dst)``.

        Returns the edge's CAL-pointer (so the facade can invalidate the
        CAL copy) or ``None`` if the edge was absent.  With
        ``compact_on_delete`` the hole is refilled by pulling an edge up
        from the deepest descendant edgeblock, shrinking the tree.
        """
        hit = self._locate(src, dst)
        if hit is None:
            return None
        region, block, cell = hit
        fields = self._pool(region).fields
        cal_ptr = int(fields["cal"][block, cell])
        fields["dst"][block, cell] = TOMBSTONE
        fields["cal"][block, cell] = -1
        self.stats.workblock_writebacks += 1
        self.stats.tombstones_set += 1
        self._degrees[src] -= 1
        self.stats.edges_deleted += 1
        if self.config.compact_on_delete:
            self._compact_hole(region, block, cell // self.config.subblock, cell)
        return cal_ptr

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
        fields = self._pool(region).fields
        if child < 0:
            # No descendants: leave the cell truly empty so it is reusable.
            fields["dst"][block, cell_index] = EMPTY
            return
        victim = self._last_occupied_cell(child)
        if victim < 0:
            # Child holds no live edges; prune it if it is a leaf.
            fields["dst"][block, cell_index] = EMPTY
            self._try_free_leaf(region, block, sb, child)
            return
        below = self.overflow.fields
        for name, arr in fields.items():
            arr[block, cell_index] = below[name][child, victim]
        fields["probe"][block, cell_index] = 0
        below["dst"][child, victim] = TOMBSTONE
        below["cal"][child, victim] = -1
        self.stats.compaction_moves += 1
        self.stats.random_block_reads += 1
        self.stats.workblock_writebacks += 2
        victim_sb = victim // self.config.subblock
        self._compact_hole(OVERFLOW, child, victim_sb, victim)
        self._try_free_leaf(region, block, sb, child)

    def _last_occupied_cell(self, overflow_block: int) -> int:
        """Index of the last live cell in an overflow block, or -1."""
        dsts = self.overflow.fields["dst"][overflow_block]
        occupied = np.flatnonzero(dsts >= 0)
        self.stats.random_block_reads += 1
        return int(occupied[-1]) if occupied.size else -1

    def _try_free_leaf(self, region: int, block: int, sb: int, child: int) -> None:
        """Free ``child`` if it has no live edges and no children."""
        if (self.overflow.fields["dst"][child] >= 0).any():
            return
        if (self._overflow_children.row(child) >= 0).any():
            return
        self._children(region).set(block, sb, -1)
        self._overflow_children.clear_row(child)
        self.overflow.free(child)

    # ------------------------------------------------------------------ #
    # retrieval
    # ------------------------------------------------------------------ #
    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(dst, weight)`` arrays of all live out-edges of ``src``.

        The one per-row walk, and the specification :meth:`neighbors_rows`
        reproduces for many rows: edgeblocks in pre-order off a LIFO stack
        (a block's children in *descending* Subblock order), cells in slot
        order.  A childless row, most rows, is one masked read.  Each
        edgeblock visited is charged as one random block read and
        ``pagewidth`` scanned cells: incremental-mode analytics pays a
        non-contiguous DRAM access per edgeblock, touching every cell slot
        occupied or not (the cost the hybrid engine trades off against CAL
        streaming, and the reason wide PAGEWIDTHs hurt analytics).
        """
        if not 0 <= src < self._n_vertices:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        dst = self.main.fields["dst"][src:src + 1]
        weight = self.main.fields["weight"][src:src + 1]
        stack = [c for c in self._main_children._data[src].tolist() if c >= 0]
        if stack:
            kids, deep = self._overflow_children._data, []
            while stack:
                block = stack.pop()
                deep.append(block)
                stack.extend(c for c in kids[block].tolist() if c >= 0)
            dst = np.concatenate((dst, self.overflow.fields["dst"][deep]))
            weight = np.concatenate((weight, self.overflow.fields["weight"][deep]))
        self.stats.random_block_reads += dst.shape[0]
        self.stats.cells_scanned += dst.shape[0] * self.config.pagewidth
        live = dst >= 0
        return dst[live], weight[live]

    def neighbors_rows(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bulk :meth:`neighbors`: ``(counts, n_blocks, dst, weight)``.

        For allocated dense ``rows`` (each ``< n_vertices``; repeats
        allowed), in the order given: ``dst`` / ``weight`` hold every
        row's live cells back to back in exactly the order
        ``neighbors(row)`` yields them, ``counts[i]`` says how many belong
        to ``rows[i]`` and ``n_blocks[i]`` how many edgeblocks
        ``neighbors(rows[i])`` visits.  Nothing is charged: a caller
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
        # Only `dst` is gathered whole; the live cells are found once and
        # `weight` is read at those alone, one flat take per pool.  A
        # childless slab is in pre-order as gathered.
        pw = self.config.pagewidth
        mdst, mweight = self.main.fields["dst"], self.main.fields["weight"].reshape(-1)
        if not parents:
            dst = mdst[rows].reshape(-1)
            live = np.flatnonzero(dst >= 0)
            at = live // pw
            return (np.bincount(at, minlength=rows.shape[0]),
                    np.ones(rows.shape[0], dtype=np.int64),
                    dst[live], mweight.take(live + (rows[at] - at) * pw))
        # (2) Subtree sizes (in blocks), bottom-up.
        sizes = [np.ones(level.shape[0], dtype=np.int64) for level in blocks]
        for depth in range(len(parents), 0, -1):
            np.add.at(sizes[depth - 1], parents[depth - 1], sizes[depth])
        # (3) Pre-order positions, top-down.  `neighbors` pops a LIFO
        # stack, so siblings are visited in *descending* Subblock order:
        # a child sits one past its parent plus the subtrees of the
        # siblings listed after it.  A block's children weigh `size - 1`
        # in all, so `cumsum(size - 1)` is the running child weight at the
        # end of each parent's group.
        positions = [np.cumsum(sizes[0]) - sizes[0]]
        for parent, size, child_size in zip(parents, sizes, sizes[1:]):
            group_end = positions[-1] + 1 + np.cumsum(size - 1)
            positions.append(group_end[parent] - np.cumsum(child_size))
        # (4) One `dst` gather per pool into pre-order and the live cells;
        # a live cell's pool index is its index in `dst` shifted by its
        # block's move from pool row to pre-order position.
        total, top = int(sizes[0].sum()), positions[0]
        deep, deep_at = np.concatenate(blocks[1:]), np.concatenate(positions[1:])
        dst = np.empty((total, pw), dtype=np.int64)
        dst[top], dst[deep_at] = mdst[rows], self.overflow.fields["dst"][deep]
        dst = dst.reshape(-1)
        live = np.flatnonzero(dst >= 0)
        at = live // pw
        shift = np.empty(total, dtype=np.int64)
        shift[top], shift[deep_at] = rows, deep
        cell = live + ((shift - np.arange(total)) * pw)[at]
        in_main = np.zeros(total, dtype=bool)
        in_main[top] = True
        main = in_main[at]
        weight = np.empty(live.shape[0], dtype=np.float64)
        weight[main] = mweight.take(cell[main])
        weight[~main] = self.overflow.fields["weight"].reshape(-1).take(cell[~main])
        counts = np.add.reduceat(np.bincount(at, minlength=total), top)
        return counts, sizes[0], dst[live], weight

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
