"""The Coarse Adjacency List (CAL) EdgeblockArray (paper Sec. III.B).

GraphTinker's second compaction level: a separate, always-current copy of
every live edge, stored STINGER-style in chained blocks — but *coarse*,
i.e. one chain per **group** of source vertices rather than per vertex, so
each slot also records its source id.  Because groups pack many vertices'
edges into densely filled, sequentially readable blocks, full-processing
analytics can stream the entire edge set with near-contiguous DRAM
accesses and no pre-processing pass.

Updates are O(1): inserts append at the tail of the group's chain; updates
and deletes go straight to the copy through the owning edge-cell's
CAL-pointer, never traversing edges — which is why the paper calls CAL's
maintenance overhead minimal.

Grouping uses the *dense* (SGH-hashed) source ids, so group occupancy
tracks the set of non-empty vertices at every stage of the graph's life.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import GTConfig
from repro.core.pool import CAL_CELL_DTYPE, BlockPool
from repro.core.stats import AccessStats

#: ``src`` value marking a vacant / invalidated CAL slot.
CAL_INVALID = np.int64(-1)


def _blank_cal_cells(shape: tuple[int, ...] | int) -> np.ndarray:
    arr = np.zeros(shape, dtype=CAL_CELL_DTYPE)
    arr["src"] = CAL_INVALID
    return arr


class _GrowIntArray:
    """Minimal growable 1-D ``int64`` array with a fill value."""

    __slots__ = ("_data", "_fill")

    def __init__(self, fill: int, initial: int = 8):
        self._fill = fill
        self._data = np.full(initial, fill, dtype=np.int64)

    def ensure(self, n: int) -> None:
        cap = self._data.shape[0]
        if n <= cap:
            return
        new_cap = cap
        while new_cap < n:
            new_cap *= 2
        grown = np.full(new_cap, self._fill, dtype=np.int64)
        grown[:cap] = self._data
        self._data = grown

    def __getitem__(self, i: int) -> int:
        return int(self._data[i])

    def __setitem__(self, i: int, v: int) -> None:
        self._data[i] = v


class CoarseAdjacencyList:
    """Grouped, chained, compact copy of the live edge set."""

    def __init__(self, config: GTConfig, stats: AccessStats | None = None):
        self.config = config
        self.stats = stats if stats is not None else AccessStats()
        self.pool = BlockPool(config.cal_block_size, CAL_CELL_DTYPE, _blank_cal_cells, 4)
        self._n_groups = 0
        self._group_head = _GrowIntArray(-1)
        self._group_tail = _GrowIntArray(-1)
        self._tail_fill = _GrowIntArray(0)
        # Per-pool-block chain links and live-slot counts.
        self._next = _GrowIntArray(-1, 8)
        self._prev = _GrowIntArray(-1, 8)
        self._valid_count = _GrowIntArray(0, 8)
        self._n_valid = 0

    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Live (valid) edge copies currently stored."""
        return self._n_valid

    @property
    def n_groups(self) -> int:
        return self._n_groups

    @property
    def n_blocks(self) -> int:
        return self.pool.n_used

    def group_of(self, src: int) -> int:
        """Group id of dense source ``src`` (a contiguous id range)."""
        return src // self.config.cal_group_width

    def _ensure_group(self, group: int) -> None:
        if group < self._n_groups:
            return
        self._group_head.ensure(group + 1)
        self._group_tail.ensure(group + 1)
        self._tail_fill.ensure(group + 1)
        self._n_groups = group + 1

    def _new_block(self, group: int) -> int:
        block = self.pool.allocate()
        self._next.ensure(block + 1)
        self._prev.ensure(block + 1)
        self._valid_count.ensure(block + 1)
        self._next[block] = -1
        self._valid_count[block] = 0
        tail = self._group_tail[group]
        self._prev[block] = tail
        if tail >= 0:
            self._next[tail] = block
        else:
            self._group_head[group] = block
        self._group_tail[group] = block
        self._tail_fill[group] = 0
        return block

    # ------------------------------------------------------------------ #
    # O(1) maintenance (called from the GraphTinker facade)
    # ------------------------------------------------------------------ #
    def append(self, src: int, dst: int, weight: float) -> tuple[int, int]:
        """Copy a newly inserted edge; return its ``(block, slot)`` address.

        The Logical Vertex Array lookup of the paper — find the group's
        last assigned edgeblock and its next free slot — is O(1) here via
        the tail/fill tables.
        """
        group = self.group_of(src)
        self._ensure_group(group)
        block = self._group_tail[group]
        if block < 0 or self._tail_fill[group] >= self.config.cal_block_size:
            block = self._new_block(group)
        slot = self._tail_fill[group]
        row = self.pool.row(block)
        row["src"][slot] = src
        row["dst"][slot] = dst
        row["weight"][slot] = weight
        self._tail_fill[group] = slot + 1
        self._valid_count[block] = self._valid_count[block] + 1
        self._n_valid += 1
        self.stats.cal_updates += 1
        return block, slot

    def append_many(self, srcs: np.ndarray, dsts: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append many copies in order; return ``(blocks, slots)`` arrays.

        State-identical to calling :meth:`append` once per element: the
        same slot layout, tail/fill evolution, chain links, block
        *allocation order* (and therefore the same pool row ids, free-list
        included) and the same ``cal_updates`` total.  The batch is
        grouped stably (stream order within a group is the only order the
        layout depends on) and laid out arithmetically: an append's
        *virtual slot* ``q`` counts from the start of its group's current
        tail block, so it lands in slot ``q % bs`` and opens a fresh block
        exactly when that is 0 past the tail.  Fresh blocks are allocated
        in original stream order; links, cells and counts are array
        stores.  This is the vector batch kernel's CAL replay primitive.
        """
        n = srcs.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        bs = self.config.cal_block_size
        groups = srcs // self.config.cal_group_width
        order = np.argsort(groups, kind="stable")
        uniq, starts, counts = np.unique(groups[order], return_index=True, return_counts=True)
        self._ensure_group(int(uniq[-1]))
        tail = self._group_tail._data[uniq]
        # A group with a tail continues it (its fill is >= 1 outside
        # compact_delete); one without starts a block at q == 0.
        base = np.where(tail >= 0, self._tail_fill._data[uniq], 0)
        q = np.repeat(base - starts, counts) + np.arange(n)
        fresh = np.flatnonzero((q % bs == 0) & (q >= np.repeat(np.where(tail >= 0, bs, 0), counts)))
        new = np.empty(fresh.shape[0], dtype=np.int64)
        new[np.argsort(order[fresh])] = self.pool.allocate_many(fresh.shape[0])
        if new.shape[0]:  # existing tails were covered when they were linked
            for table in (self._next, self._prev, self._valid_count):
                table.ensure(int(new.max()) + 1)

        # Block of every append: its group's tail or the last fresh block
        # at or before it (a tail-less group's first append is fresh).
        block = np.full(n, -1, dtype=np.int64)
        block[starts] = tail
        block[fresh] = new
        block = block[np.maximum.accumulate(np.where(block >= 0, np.arange(n), 0))]
        slot = q % bs

        # Mirror of _new_block per fresh block, in chain order: the block
        # before it is the previous append's, or the old tail (maybe none).
        group_of = np.searchsorted(starts, fresh, side="right") - 1
        prev = np.where(fresh == starts[group_of], tail[group_of], block[fresh - 1])
        linked = prev >= 0
        self._next._data[new] = -1
        self._valid_count._data[new] = 0
        self._prev._data[new] = prev
        self._next._data[prev[linked]] = new[linked]
        self._group_head._data[uniq[group_of[~linked]]] = new[~linked]
        last = starts + counts - 1
        self._group_tail._data[uniq] = block[last]
        self._tail_fill._data[uniq] = slot[last] + 1

        np.add.at(self._valid_count._data, block, 1)
        blocks_out = np.empty(n, dtype=np.int64)
        slots_out = np.empty(n, dtype=np.int64)
        blocks_out[order] = block
        slots_out[order] = slot
        cells = self.pool._data
        cells["src"][blocks_out, slots_out] = srcs
        cells["dst"][blocks_out, slots_out] = dsts
        cells["weight"][blocks_out, slots_out] = weights
        self._n_valid += n
        self.stats.cal_updates += n
        return blocks_out, slots_out

    def update_weight(self, block: int, slot: int, weight: float) -> None:
        """Overwrite the weight of an existing copy via its CAL-pointer."""
        self.pool.row(block)["weight"][slot] = weight
        self.stats.cal_updates += 1

    def invalidate(self, block: int, slot: int) -> None:
        """Flag a copy as deleted via its CAL-pointer (no traversal)."""
        row = self.pool.row(block)
        if row["src"][slot] == CAL_INVALID:
            return
        row["src"][slot] = CAL_INVALID
        self._valid_count[block] = self._valid_count[block] - 1
        self._n_valid -= 1
        self.stats.cal_updates += 1

    def invalidate_many(self, blocks: np.ndarray, slots: np.ndarray) -> None:
        """Flag many copies as deleted; state-identical to a loop of
        :meth:`invalidate` (an already-invalid or repeated address is a
        no-op), except that a never-allocated block raises before any
        copy is touched.  The vector delete kernel's CAL scatter.
        """
        if blocks.shape[0] == 0:
            return
        bs = self.config.cal_block_size
        if blocks.min() < 0 or blocks.max() >= self.pool.high_water:
            raise IndexError("CAL block was never allocated")
        if slots.min() < 0 or slots.max() >= bs:
            raise IndexError("CAL slot out of range")
        src = self.pool._data["src"]
        addr = np.sort(blocks.astype(np.int64) * bs + slots)
        blocks, slots = np.divmod(addr, bs)
        live = src[blocks, slots] != CAL_INVALID
        live[1:] &= addr[1:] != addr[:-1]  # a repeated address counts once
        blocks = blocks[live]
        src[blocks, slots[live]] = CAL_INVALID
        np.subtract.at(self._valid_count._data, blocks, 1)
        self._n_valid -= blocks.shape[0]
        self.stats.cal_updates += blocks.shape[0]

    def read_slot(self, block: int, slot: int) -> tuple[int, int, float]:
        """Return ``(src, dst, weight)`` stored at a CAL address."""
        row = self.pool.row(block)
        return int(row["src"][slot]), int(row["dst"][slot]), float(row["weight"][slot])

    def compact_delete(self, block: int, slot: int):
        """Delete a copy *and keep the group's chain dense*.

        Used by the delete-and-compact mechanism: the hole left at
        ``(block, slot)`` is refilled with the group's **last** live copy
        (the tail slot), the tail shrinks, and a fully emptied tail block
        is unlinked and returned to the pool — so full-processing
        streaming never pays for fragmentation, which is exactly the
        analytics advantage Fig. 15 measures.

        Requires that the group's chain is dense, which holds when every
        delete in this structure's lifetime went through this method
        (enforced by the facade's ``compact_on_delete`` configuration).

        Returns ``None`` when the deleted slot was itself the tail, or
        ``(src, dst, old_block, old_slot)`` describing the copy that
        moved into ``(block, slot)`` so the caller can re-point the
        owning EdgeblockArray cell.
        """
        row = self.pool.row(block)
        if row["src"][slot] == CAL_INVALID:
            return None
        group = self.group_of(int(row["src"][slot]))
        tail_block = self._group_tail[group]
        tail_slot = self._tail_fill[group] - 1
        assert tail_block >= 0 and tail_slot >= 0, "dense-chain invariant broken"

        moved = None
        if (tail_block, tail_slot) != (block, slot):
            tail_row = self.pool.row(tail_block)
            src = int(tail_row["src"][tail_slot])
            dst = int(tail_row["dst"][tail_slot])
            row["src"][slot] = src
            row["dst"][slot] = dst
            row["weight"][slot] = tail_row["weight"][tail_slot]
            tail_row["src"][tail_slot] = CAL_INVALID
            # The deleted copy leaves `block`, the moved copy enters it:
            # net zero there; the tail block loses one.
            self._valid_count[tail_block] = self._valid_count[tail_block] - 1
            self.stats.cal_updates += 2
            moved = (src, dst, tail_block, tail_slot)
        else:
            row["src"][slot] = CAL_INVALID
            self._valid_count[block] = self._valid_count[block] - 1
            self.stats.cal_updates += 1
        self._n_valid -= 1

        # Shrink the tail; unlink and free an emptied tail block.
        self._tail_fill[group] = tail_slot
        if tail_slot == 0:
            prev = self._prev[tail_block]
            self._group_tail[group] = prev
            if prev >= 0:
                self._next[prev] = -1
                self._tail_fill[group] = self.config.cal_block_size
            else:
                self._group_head[group] = -1
                self._tail_fill[group] = 0
            self._prev[tail_block] = -1
            self.pool.free(tail_block)
        return moved

    # ------------------------------------------------------------------ #
    # streaming retrieval (the full-processing load path)
    # ------------------------------------------------------------------ #
    def stream_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise all live edges: ``(src, dst, weight)`` arrays.

        Order is group-by-group, chain order within a group, slot order
        within a block: the sequential access pattern the paper exploits.
        Every block on a chain is charged as one *sequential* block read
        of ``cal_block_size`` cells — blocks with no live slot included,
        as a real streamer must fetch a block to discover it is empty.
        The chains are walked once over the link tables; the cells then
        come out of the pool in one gather.
        """
        heads = self._group_head._data[: self._n_groups].tolist()
        nxt = self._next._data.tolist()
        order: list[int] = []
        for block in heads:
            while block >= 0:
                order.append(block)
                block = nxt[block]
        self.stats.seq_block_reads += len(order)
        self.stats.cells_scanned += len(order) * self.config.cal_block_size
        cells = self.pool.raw()[np.array(order, dtype=np.intp)].reshape(-1)
        live = cells["src"] != CAL_INVALID
        return cells["src"][live], cells["dst"][live], cells["weight"][live]

    def fill_fraction(self) -> float:
        """Live slots / allocated slots — the compaction diagnostic."""
        total = self.pool.n_used * self.config.cal_block_size
        return self._n_valid / total if total else 1.0
