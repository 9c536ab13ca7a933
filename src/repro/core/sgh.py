"""Scatter-Gather Hashing (SGH) unit — dense renaming of source vertices.

Edges stream into a dynamic graph with arbitrary, sparse source vertex ids
(the paper's example: sources 34 and 22789 would sit 22755 top-edgeblock
rows apart).  SGH assigns each *new* source the next unused EdgeblockArray
index starting from zero, so the main region only ever contains non-empty
vertices and full scans never visit empty rows.  The bidirectional mapping
original-id <-> hashed-id is maintained here (paper Sec. III.B).
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.core.hashing import mix64_array
from repro.core.pool import grow
from repro.core.stats import AccessStats
from repro.errors import VertexNotFoundError


class ScatterGatherHash:
    """Bidirectional dense renaming table for (non-negative) source ids.

    The forward direction (original -> hashed) is a Python dict, the
    closest pure-Python analogue of the paper's hash table and the
    authority every scalar call reads.  Batch calls read a NumPy index
    over it (:meth:`peek_array`): open addressing in two int64 columns
    ``_keys`` / ``_vals``, linear probing from ``mix64(id) & mask`` at load
    <= 1/8, one gather-and-compare per probe round for a whole array.  A
    free slot holds -1 in both columns, so a probe for -1 or any unknown
    id ends on -1.  It covers dense ids ``[0, _covered)``: ids
    :meth:`hash_id` assigned are absorbed from the dict's tail on the next
    batch call, and growth rebuilds it from the dict.  The reverse
    direction (hashed -> original) is a growable int64 array, so analytics
    kernels translate whole blocks back with one fancy-indexing gather.
    """

    __slots__ = ("_forward", "_reverse", "_count", "_keys", "_vals", "_covered", "stats")

    def __init__(self, stats: AccessStats | None = None, initial_capacity: int = 16):
        self._forward: dict[int, int] = {}
        self._reverse = np.full(max(1, initial_capacity), -1, dtype=np.int64)
        self._count = 0
        self.stats = stats if stats is not None else AccessStats()
        self._reindex()

    def __len__(self) -> int:
        """Number of distinct source vertices hashed so far."""
        return self._count

    def __contains__(self, original: int) -> bool:
        return int(original) in self._forward

    def hash_id(self, original: int) -> int:
        """Return the dense id for ``original``, assigning one if new."""
        original = int(original)
        self.stats.hash_lookups += 1
        hashed = self._forward.get(original)
        if hashed is not None:
            return hashed
        hashed = self._count
        self._forward[original] = hashed
        if hashed >= self._reverse.shape[0]:
            self._reverse = grow(self._reverse, hashed + 1, -1)
        self._reverse[hashed] = original
        self._count += 1
        return hashed

    def hash_new_ids(self, originals: np.ndarray) -> np.ndarray:
        """Bulk :meth:`hash_id` over *distinct, never-seen* ids, in order:
        the same dense ids, reverse-table growth and one charge per id."""
        self._cover()
        start, stop = self._count, self._count + len(originals)
        self.stats.hash_lookups += len(originals)
        self._forward.update(zip(originals.tolist(), range(start, stop)))
        self._reverse = grow(self._reverse, stop, -1)
        self._reverse[start:stop] = originals
        self._count = stop
        self._place(np.asarray(originals, dtype=np.int64), np.arange(start, stop))
        return np.arange(start, stop)

    def lookup(self, original: int) -> int:
        """The dense id for ``original`` without assigning
        (:class:`VertexNotFoundError` if it was never hashed)."""
        self.stats.hash_lookups += 1
        try:
            return self._forward[int(original)]
        except KeyError:
            raise VertexNotFoundError(original) from None

    def try_lookup(self, original: int) -> int | None:
        """Like :meth:`lookup` but returns ``None`` when absent."""
        self.stats.hash_lookups += 1
        return self._forward.get(int(original))

    def try_lookup_array(self, originals: np.ndarray) -> np.ndarray:
        """Bulk :meth:`try_lookup` (-1 where unknown), one charge per id."""
        self.stats.hash_lookups += len(originals)
        return self.peek_array(originals)

    def peek_array(self, originals: np.ndarray) -> np.ndarray:
        """Uncharged bulk original->dense lookup (-1 where unknown), for
        bookkeeping that must not perturb the modeled AccessStats (the
        batch kernels, the snapshot's dirty tracking); a cost-accounted
        path uses :meth:`try_lookup_array`.  Each round of the index probe
        stops the ids whose slot holds their key or is free."""
        ids = np.asarray(originals, dtype=np.int64)
        self._cover()
        keys, vals = self._keys, self._vals
        out = np.empty(ids.shape[0], dtype=np.int64)
        todo = np.arange(ids.shape[0])
        slot = self._home(ids)
        while todo.shape[0]:
            k = keys[slot]
            stop = (k == ids) | (k == -1)
            out[todo[stop]] = vals[slot[stop]]
            go = ~stop
            todo, ids, slot = todo[go], ids[go], (slot[go] + 1) & (keys.shape[0] - 1)
        return out

    def _home(self, ids: np.ndarray) -> np.ndarray:
        return (mix64_array(ids) & np.uint64(self._keys.shape[0] - 1)).astype(np.int64)

    def _place(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Index ``keys`` (distinct, not indexed yet) -> ``vals``.  Past
        load 1/8 the table doubles (at least) and is rebuilt from the dict."""
        self._covered += keys.shape[0]
        need = 8 * self._covered  # slots for load <= 1/8
        if need > self._keys.shape[0]:
            self._keys = np.full(1 << (need - 1).bit_length(), -1, dtype=np.int64)
            self._vals = self._keys.copy()
            keys = np.fromiter(self._forward, np.int64, self._covered)
            vals = np.fromiter(self._forward.values(), np.int64, self._covered)
        table = self._keys
        slot = self._home(keys)
        while keys.shape[0]:
            free = table[slot] == -1
            table[slot[free]] = keys[free]  # of keys sharing a free slot, one lands
            won = free & (table[slot] == keys)
            self._vals[slot[won]] = vals[won]
            lost = ~won
            keys, vals, slot = keys[lost], vals[lost], (slot[lost] + 1) & (table.shape[0] - 1)

    def _cover(self) -> None:
        """Absorb the ids :meth:`hash_id` assigned since the index last
        caught up, from the dict's tail (the authority, not ``_reverse``)."""
        k = self._count - self._covered
        if k:
            self._place(np.fromiter(islice(reversed(self._forward), k), np.int64, k),
                        np.fromiter(islice(reversed(self._forward.values()), k), np.int64, k))

    def _reindex(self) -> None:
        """Rebuild the index from the dict (fsck repair uses this)."""
        self._keys = np.full(1, -1, dtype=np.int64)
        self._vals = self._keys.copy()
        self._covered = 0
        self._cover()

    def original_id(self, hashed: int) -> int:
        """Inverse mapping: dense id back to the original vertex id."""
        if not (0 <= hashed < self._count):
            raise VertexNotFoundError(hashed)
        return int(self._reverse[hashed])

    def original_ids(self, hashed: np.ndarray) -> np.ndarray:
        """Vectorised inverse mapping over an array of dense ids."""
        return self._reverse[hashed]

    def reverse_view(self) -> np.ndarray:
        """Read-only view of the dense->original table (length = count)."""
        view = self._reverse[: self._count]
        view.flags.writeable = False
        return view
