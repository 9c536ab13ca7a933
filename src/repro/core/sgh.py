"""Scatter-Gather Hashing (SGH) unit — dense renaming of source vertices.

Edges stream into a dynamic graph with arbitrary, sparse source vertex ids
(the paper's example: sources 34 and 22789 would sit 22755 top-edgeblock
rows apart).  SGH assigns each *new* source the next unused EdgeblockArray
index starting from zero, so the main region only ever contains non-empty
vertices and full scans never visit empty rows.  The bidirectional mapping
original-id <-> hashed-id is maintained here (paper Sec. III.B).
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.core.stats import AccessStats
from repro.errors import VertexNotFoundError


class ScatterGatherHash:
    """Bidirectional dense renaming table for source vertex ids.

    The forward direction (original -> hashed) is a Python dict — the
    closest pure-Python analogue of the paper's hash table, with O(1)
    probes.  The reverse direction (hashed -> original) is a growable
    int64 NumPy array, because analytics kernels translate whole blocks
    of hashed ids back to original ids with one fancy-indexing gather.
    """

    __slots__ = ("_forward", "_reverse", "_count", "stats")

    def __init__(self, stats: AccessStats | None = None, initial_capacity: int = 16):
        self._forward: dict[int, int] = {}
        self._reverse = np.full(max(1, initial_capacity), -1, dtype=np.int64)
        self._count = 0
        self.stats = stats if stats is not None else AccessStats()

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
            grown = np.full(self._reverse.shape[0] * 2, -1, dtype=np.int64)
            grown[: self._reverse.shape[0]] = self._reverse
            self._reverse = grown
        self._reverse[hashed] = original
        self._count += 1
        return hashed

    def hash_new_ids(self, originals: np.ndarray) -> np.ndarray:
        """Bulk :meth:`hash_id` over *distinct, never-seen* ids, in order:
        the same dense ids, reverse-table growth and one charge per id."""
        start, stop = self._count, self._count + len(originals)
        self.stats.hash_lookups += len(originals)
        self._forward.update(zip(originals.tolist(), range(start, stop)))
        cap = self._reverse.shape[0]
        if stop > cap:
            while cap < stop:
                cap *= 2
            grown = np.full(cap, -1, dtype=np.int64)
            grown[:start] = self._reverse[:start]
            self._reverse = grown
        self._reverse[start:stop] = originals
        self._count = stop
        return np.arange(start, stop)

    def lookup(self, original: int) -> int:
        """Return the dense id for ``original`` without assigning.

        Raises
        ------
        VertexNotFoundError
            If the source vertex has never been hashed.
        """
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
        """Uncharged bulk original->dense lookup (-1 where unknown).

        Bookkeeping only — no ``hash_lookups`` charge — so the analytics
        snapshot's dirty tracking can resolve a batch's touched rows
        without perturbing the modeled AccessStats.  Never use this on a
        cost-accounted retrieval path; that is :meth:`try_lookup_array`.
        """
        ids = np.asarray(originals, dtype=np.int64).tolist()
        return np.fromiter(map(self._forward.get, ids, repeat(-1)),
                           dtype=np.int64, count=len(ids))

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
