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

A CAL-pointer is one int, the slot's *address* ``block * cal_block_size +
slot`` (its index in the raveled pool); every method here takes and
returns addresses, and this module is the only one that builds or splits
one (:meth:`CoarseAdjacencyList.split`).

Grouping uses the *dense* (SGH-hashed) source ids, so group occupancy
tracks the set of non-empty vertices at every stage of the graph's life.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import GTConfig
from repro.core.kernels import _stream_order
from repro.core.pool import CAL_CELL_DTYPE, BlockPool, grow
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
        self._data = grow(self._data, n, self._fill)

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

    def split(self, addr: int) -> tuple[int, int]:
        """The ``(block, slot)`` of CAL address ``addr``."""
        return divmod(addr, self.config.cal_block_size)

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
    def append(self, src: int, dst: int, weight: float) -> int:
        """Copy a newly inserted edge; return its address.

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
        cells = self.pool.fields
        cells["src"][block, slot] = src
        cells["dst"][block, slot] = dst
        cells["weight"][block, slot] = weight
        self._tail_fill[group] = slot + 1
        self._valid_count[block] = self._valid_count[block] + 1
        self._n_valid += 1
        self.stats.cal_updates += 1
        return block * self.config.cal_block_size + slot

    def append_many(self, srcs: np.ndarray, dsts: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Append many copies in order; return their addresses.

        State-identical to calling :meth:`append` once per element: the
        same slot layout, tail/fill evolution, chain links, block
        *allocation order* (and therefore the same pool row ids, free-list
        included) and the same ``cal_updates`` total.  The batch is
        grouped by one stable sort of its group ids (``_stream_order``:
        a radix sort while every group id fits in 16 bits, else one sort
        of ``group * n + index``, whose key stays below 2**63 for dense
        ids below 2**48 at ``n <= CHUNK_EDGES``; stream order within a
        group is the only order the layout depends on) and laid out
        arithmetically: an append's *virtual slot* ``q``
        counts from the start of its group's current tail block, so it
        lands in slot ``q % bs`` and opens a fresh block exactly when
        that is 0 past the tail.  Fresh blocks are allocated
        in original stream order; links, cells and counts are array
        stores.  This is the vector batch kernel's CAL replay primitive.
        """
        n = srcs.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        bs = self.config.cal_block_size
        groups = srcs // self.config.cal_group_width
        order = _stream_order(groups)
        sorted_groups = groups[order]
        starts = np.flatnonzero(np.diff(sorted_groups, prepend=-1))
        uniq = sorted_groups[starts]
        counts = np.diff(starts, append=n)
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
        addr = np.empty(n, dtype=np.int64)
        addr[order] = block * bs + slot
        for name, values in (("src", srcs), ("dst", dsts), ("weight", weights)):
            self.pool.fields[name].reshape(-1)[addr] = values
        self._n_valid += n
        self.stats.cal_updates += n
        return addr

    def update_weight(self, addr: int, weight: float) -> None:
        """Overwrite the weight of an existing copy via its CAL-pointer."""
        self.pool.fields["weight"][self.split(addr)] = weight
        self.stats.cal_updates += 1

    def invalidate(self, addr: int) -> None:
        """Flag a copy as deleted via its CAL-pointer (no traversal)."""
        block, slot = self.split(addr)
        src = self.pool.fields["src"]
        if src[block, slot] == CAL_INVALID:
            return
        src[block, slot] = CAL_INVALID
        self._valid_count[block] = self._valid_count[block] - 1
        self._n_valid -= 1
        self.stats.cal_updates += 1

    def invalidate_many(self, addrs: np.ndarray) -> None:
        """Flag many copies as deleted; state-identical to a loop of
        :meth:`invalidate` (an already-invalid or repeated address is a
        no-op), except that an address outside every allocated block
        raises before any copy is touched.  The vector delete kernel's
        CAL scatter.
        """
        if addrs.shape[0] == 0:
            return
        bs = self.config.cal_block_size
        if addrs.min() < 0 or addrs.max() >= self.pool.high_water * bs:
            raise IndexError("CAL block was never allocated")
        src = self.pool.fields["src"].reshape(-1)
        addr = np.sort(addrs)
        live = src[addr] != CAL_INVALID
        live[1:] &= addr[1:] != addr[:-1]  # a repeated address counts once
        addr = addr[live]
        src[addr] = CAL_INVALID
        np.subtract.at(self._valid_count._data, addr // bs, 1)
        self._n_valid -= addr.shape[0]
        self.stats.cal_updates += addr.shape[0]

    def live_addresses(self) -> np.ndarray:
        """Addresses of every live copy, ascending: the valid slots of the
        blocks currently handed out."""
        hw = self.pool.high_water
        used = np.ones(hw, dtype=bool)
        used[self.pool._free] = False
        return np.flatnonzero((self.pool.fields["src"][:hw] != CAL_INVALID) & used[:, None])

    def read_slot(self, addr: int) -> tuple[int, int, float]:
        """Return ``(src, dst, weight)`` stored at a CAL address."""
        cells, at = self.pool.fields, self.split(addr)
        return int(cells["src"][at]), int(cells["dst"][at]), float(cells["weight"][at])

    def compact_delete(self, addr: int):
        """Delete a copy *and keep the group's chain dense*.

        Used by the delete-and-compact mechanism: the hole left at
        ``addr`` is refilled with the group's **last** live copy
        (the tail slot), the tail shrinks, and a fully emptied tail block
        is unlinked and returned to the pool — so full-processing
        streaming never pays for fragmentation, which is exactly the
        analytics advantage Fig. 15 measures.

        Requires that the group's chain is dense, which holds when every
        delete in this structure's lifetime went through this method
        (enforced by the facade's ``compact_on_delete`` configuration).

        Returns ``None`` when the deleted slot was itself the tail, or
        ``(src, dst, old_addr)`` describing the copy that moved into
        ``addr`` so the caller can re-point the owning EdgeblockArray
        cell.
        """
        cells = self.pool.fields
        block, slot = self.split(addr)
        if cells["src"][block, slot] == CAL_INVALID:
            return None
        group = self.group_of(int(cells["src"][block, slot]))
        tail_block = self._group_tail[group]
        tail_slot = self._tail_fill[group] - 1
        assert tail_block >= 0 and tail_slot >= 0, "dense-chain invariant broken"

        moved = None
        if (tail_block, tail_slot) != (block, slot):
            for arr in cells.values():
                arr[block, slot] = arr[tail_block, tail_slot]
            src = int(cells["src"][block, slot])
            dst = int(cells["dst"][block, slot])
            cells["src"][tail_block, tail_slot] = CAL_INVALID
            # The deleted copy leaves `block`, the moved copy enters it:
            # net zero there; the tail block loses one.
            self._valid_count[tail_block] = self._valid_count[tail_block] - 1
            self.stats.cal_updates += 2
            moved = (src, dst, tail_block * self.config.cal_block_size + tail_slot)
        else:
            cells["src"][block, slot] = CAL_INVALID
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
        The chains are walked once over the link tables; then one gather
        per field, ``weight`` and ``dst`` at the live slots only.
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
        cells, chain = self.pool.fields, np.array(order, dtype=np.intp)
        src = cells["src"][chain]
        live = np.flatnonzero(src != CAL_INVALID)
        at, slot = np.divmod(live, self.config.cal_block_size)
        block = chain[at]
        return src.ravel()[live], cells["dst"][block, slot], cells["weight"][block, slot]

    def fill_fraction(self) -> float:
        """Live slots / allocated slots — the compaction diagnostic."""
        total = self.pool.n_used * self.config.cal_block_size
        return self._n_valid / total if total else 1.0
