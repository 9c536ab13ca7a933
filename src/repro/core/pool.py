"""Growable flat NumPy pools backing every block-structured store.

The HPC-Python idiom applied throughout this repo (see DESIGN.md §2) is to
keep *all* edge data in a small number of large, contiguous arrays and grow
them geometrically — never one Python object per edge or per block.  A
:class:`BlockPool` holds blocks (edgeblocks, CAL blocks, STINGER blocks) of
``block_width`` cells, laid out one array per cell field: ``fields[name]``
is a C-contiguous ``(capacity, block_width)`` array, row ``b`` of it is
field ``name`` of every cell of block ``b``.  All field arrays are
field-major views into the one byte buffer the pool owns, so a gather of
``dst`` streams ``dst`` bytes only and never strides over the cells' other
fields.  A free-list lets blocks released by delete-and-compact be reused.
"""

from __future__ import annotations

import mmap
from typing import Iterator

import numpy as np

#: Sentinel destination values inside edge-cells.
EMPTY = np.int64(-1)
TOMBSTONE = np.int64(-2)

#: Edge-cell fields: destination vertex, weight, Robin-Hood probe
#: distance, and the CAL-pointer to the edge's compacted copy: one CAL
#: address, the copy's index in the raveled CAL pool (-1 for none; built
#: and split only by :mod:`repro.core.cal`).
EDGE_CELL_DTYPE = np.dtype(
    [
        ("dst", np.int64),
        ("weight", np.float64),
        ("probe", np.int16),
        ("cal", np.int64),
    ]
)

#: CAL slot fields: each compacted edge also carries its source vertex,
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


def grow(arr: np.ndarray, n: int, fill=0) -> np.ndarray:
    """``arr`` if it has ``n`` rows, else a copy whose row capacity is
    doubled until it does, the new rows set to ``fill``."""
    cap = new_cap = arr.shape[0]
    if n <= cap:
        return arr
    while new_cap < n:
        new_cap *= 2
    out = np.full((new_cap, *arr.shape[1:]), fill, dtype=arr.dtype)
    out[:cap] = arr
    return out


def blank_edge_cells(shape: tuple[int, ...] | int) -> np.ndarray:
    """Return an EDGE_CELL array initialised to the empty state."""
    arr = np.zeros(shape, dtype=EDGE_CELL_DTYPE)
    arr["dst"] = EMPTY
    arr["cal"] = -1
    return arr


class BlockPool:
    """A growable pool of fixed-width blocks, one array per cell field.

    Parameters
    ----------
    block_width:
        Number of cells per block (row length).
    dtype:
        Structured cell dtype naming the fields and their types; the pool
        keeps one plain ``(capacity, block_width)`` array per field.
    blank:
        Callable producing a blank cell array of a given shape.  Called
        once, for the blank row of each field every hand-out copies.
    initial_blocks:
        Rows reserved at construction.

    Capacity is reserved *zeroed*: a row holds the blank state only once
    it is handed out, so growth never touches (and the OS never backs) rows
    nobody asked for.  Nothing may read a row at or past :attr:`high_water`.
    """

    __slots__ = ("block_width", "dtype", "capacity", "fields", "_blank", "_buffer",
                 "_used", "_free")

    def __init__(self, block_width, dtype, blank, initial_blocks=4):
        if block_width <= 0:
            raise ValueError("block_width must be positive")
        if initial_blocks <= 0:
            raise ValueError("initial_blocks must be positive")
        self.block_width = int(block_width)
        self.dtype = dtype
        row = blank(self.block_width)
        self._blank = tuple(row[name].copy() for name in dtype.names)
        self._used = 0
        self._free: list[int] = []
        self._reserve(initial_blocks)

    def _reserve(self, capacity: int) -> None:
        """Point :attr:`fields` at a fresh zeroed buffer of ``capacity`` rows.

        Field ``i`` owns one contiguous section of the buffer, rounded up
        to a 64-byte boundary so every field array starts aligned.  The
        buffer is an anonymous mapping, not ``np.zeros``: NumPy asks for
        transparent huge pages on large arrays, and then the partly used
        head of every section would hold a whole 2 MiB page resident.
        """
        #: Rows currently allocated (used + never-used + freed).
        self.capacity = capacity
        cells = capacity * self.block_width
        spans = [-(-cells * self.dtype[name].itemsize // 64) * 64 for name in self.dtype.names]
        self._buffer = np.frombuffer(mmap.mmap(-1, sum(spans)), dtype=np.uint8)
        self.fields: dict[str, np.ndarray] = {}
        offset = 0
        for name, span in zip(self.dtype.names, spans):
            section = self._buffer[offset:offset + cells * self.dtype[name].itemsize]
            self.fields[name] = section.view(self.dtype[name]).reshape(capacity, self.block_width)
            offset += span

    # ------------------------------------------------------------------ #
    # capacity management
    # ------------------------------------------------------------------ #
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
        old = self.fields
        self._reserve(new_cap)
        for name, arr in self.fields.items():
            arr[: self._used] = old[name][: self._used]

    def blank(self, rows) -> None:
        """Reset block ``rows`` (an index, slice or index list) to the blank state."""
        for arr, blank in zip(self.fields.values(), self._blank):
            arr[rows] = blank

    def allocate(self) -> int:
        """Hand out a blank block row and return its index."""
        if self._free:
            idx = self._free.pop()
        else:
            idx = self._used
            self._grow_to(idx + 1)
            self._used += 1
        self.blank(idx)
        return idx

    def allocate_many(self, count: int) -> list[int]:
        """Allocate ``count`` blank blocks (free-list first, then fresh rows).

        Same ids in the same order as ``count`` calls of :meth:`allocate`,
        with one growth and one bulk blanking per field of the rows handed
        out.
        """
        if count == 1:  # the per-op path: one row blanks cheaper by index than by slice
            return [self.allocate()]
        ids = [self._free.pop() for _ in range(min(count, len(self._free)))]
        n_fresh = count - len(ids)
        self._grow_to(self._used + n_fresh)
        if ids:
            self.blank(ids)
        if n_fresh > 0:
            self.blank(slice(self._used, self._used + n_fresh))
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
