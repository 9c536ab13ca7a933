"""Growable flat NumPy pools backing every block-structured store.

The HPC-Python idiom applied throughout this repo (see DESIGN.md §2) is to
keep *all* edge data in a small number of large, contiguous structured
arrays and grow them geometrically — never one Python object per edge or per
block.  :class:`BlockPool` owns one 2-D structured array whose rows are
blocks (edgeblocks, CAL blocks, STINGER blocks) and whose columns are the
per-block cells, plus a free-list so blocks released by delete-and-compact
can be reused.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Sentinel destination values inside edge-cells.
EMPTY = np.int64(-1)
TOMBSTONE = np.int64(-2)

#: Edge-cell record: destination vertex, weight, Robin-Hood probe distance,
#: and the CAL-pointer (block index + slot) to the edge's compacted copy.
EDGE_CELL_DTYPE = np.dtype(
    [
        ("dst", np.int64),
        ("weight", np.float64),
        ("probe", np.int16),
        ("cal_block", np.int32),
        ("cal_slot", np.int32),
    ]
)

#: CAL slot record: each compacted edge also carries its source vertex,
#: because in the Coarse Adjacency List several sources share a block.
CAL_CELL_DTYPE = np.dtype(
    [
        ("src", np.int64),
        ("dst", np.int64),
        ("weight", np.float64),
    ]
)

#: STINGER edge slot: destination + weight; -1 dst means empty, -2 deleted.
STINGER_CELL_DTYPE = np.dtype(
    [
        ("dst", np.int64),
        ("weight", np.float64),
    ]
)


def blank_edge_cells(shape: tuple[int, ...] | int) -> np.ndarray:
    """Return an EDGE_CELL array initialised to the empty state."""
    arr = np.zeros(shape, dtype=EDGE_CELL_DTYPE)
    arr["dst"] = EMPTY
    arr["cal_block"] = -1
    arr["cal_slot"] = -1
    return arr


class BlockPool:
    """A growable pool of fixed-width blocks in one structured array.

    Parameters
    ----------
    block_width:
        Number of cells per block (row length).
    dtype:
        Structured cell dtype.
    blank:
        Callable producing a blank cell array of a given shape.  Called
        once, for the one blank row every hand-out copies from — as raw
        bytes: NumPy assigns a packed record field by field, a ``uint8``
        view of the same memory in one copy (so does growth).
    initial_blocks:
        Rows reserved at construction.

    Capacity is reserved *zeroed*: a row holds the blank state only once
    it is handed out, so growth never touches (and the OS never backs) rows
    nobody asked for.  Nothing may read a row at or past :attr:`high_water`.
    """

    __slots__ = ("block_width", "dtype", "_blank_row", "_data", "_used", "_free")

    def __init__(self, block_width, dtype, blank, initial_blocks=4):
        if block_width <= 0:
            raise ValueError("block_width must be positive")
        if initial_blocks <= 0:
            raise ValueError("initial_blocks must be positive")
        self.block_width = int(block_width)
        self.dtype = dtype
        self._blank_row = blank(self.block_width).view(np.uint8)
        self._data = np.zeros((initial_blocks, self.block_width), dtype=dtype)
        self._used = 0
        self._free: list[int] = []

    # ------------------------------------------------------------------ #
    # capacity management
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """Rows currently allocated (used + never-used + freed)."""
        return self._data.shape[0]

    @property
    def n_used(self) -> int:
        """Rows handed out and not freed."""
        return self._used - len(self._free)

    @property
    def high_water(self) -> int:
        """Rows ever handed out (freed rows included)."""
        return self._used

    def _grow_to(self, min_rows: int) -> None:
        cap = self.capacity
        if min_rows <= cap:
            return
        # The reserve is untouched zero pages (address space, not memory);
        # what growth costs is the copy, which holds the old and the new
        # used rows resident at once.  Quadrupling halves the number of
        # copies and cuts the bytes copied over a pool's life to a third.
        new_cap = cap
        while new_cap < min_rows:
            new_cap *= 4
        fresh = np.zeros((new_cap, self.block_width), dtype=self.dtype)
        fresh.view(np.uint8)[: self._used] = self._data.view(np.uint8)[: self._used]
        self._data = fresh

    def allocate(self) -> int:
        """Hand out a blank block row and return its index."""
        if self._free:
            idx = self._free.pop()
        else:
            idx = self._used
            self._grow_to(idx + 1)
            self._used += 1
        self._data.view(np.uint8)[idx] = self._blank_row
        return idx

    def allocate_many(self, count: int) -> list[int]:
        """Allocate ``count`` blank blocks (free-list first, then fresh rows).

        Same ids in the same order as ``count`` calls of :meth:`allocate`,
        with one growth and one bulk blanking of the rows handed out.
        """
        ids = [self._free.pop() for _ in range(min(count, len(self._free)))]
        n_fresh = count - len(ids)
        self._grow_to(self._used + n_fresh)
        cells = self._data.view(np.uint8)
        if ids:
            cells[ids] = self._blank_row
        if n_fresh > 0:
            cells[self._used : self._used + n_fresh] = self._blank_row
            ids.extend(range(self._used, self._used + n_fresh))
            self._used += n_fresh
        return ids

    def free(self, index: int) -> None:
        """Return a block to the pool for reuse.

        The row contents are *not* scrubbed here; every row is blanked
        when it is handed out, so freeing is O(1).
        """
        if not (0 <= index < self._used):
            raise IndexError(f"block {index} was never allocated")
        self._free.append(index)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def row(self, index: int) -> np.ndarray:
        """Return the block row as a *view* (mutations hit the pool)."""
        if not (0 <= index < self._used):
            raise IndexError(f"block {index} was never allocated")
        return self._data[index]

    def view(self, index: int, start: int, stop: int) -> np.ndarray:
        """Return cells ``[start, stop)`` of a block as a view."""
        return self.row(index)[start:stop]

    def raw(self) -> np.ndarray:
        """The full backing array (used rows first); for vectorised scans."""
        return self._data[: self._used]

    def iter_used(self) -> Iterator[int]:
        """Yield indices of blocks currently handed out, in row order."""
        freed = set(self._free)
        for i in range(self._used):
            if i not in freed:
                yield i

    def __len__(self) -> int:
        return self.n_used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockPool(width={self.block_width}, used={self.n_used}, "
            f"capacity={self.capacity}, freed={len(self._free)})"
        )
