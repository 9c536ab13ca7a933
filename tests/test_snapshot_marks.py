"""Dirty marks of the analytics snapshot: which rows a mutation leaves
pending, and how the per-row mask is drained.

A vector batch marks its rows from inside the kernel, once per chunk,
from the dense ids the chunk already holds: an insert chunk its sources,
a delete chunk only the rows that lost an edge — the rows the per-edge
path marks.  The mask itself holds one flag per row of the snapshot's
table; a row past the table is new and is measured anyway.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import GTConfig
from repro.core.graphtinker import GraphTinker


def _loaded(**cfg) -> GraphTinker:
    """A snapshot-backed store of 40 sources with synced rows."""
    store = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2,
                                 snapshot=True, **cfg))
    rng = np.random.default_rng(5)
    edges = np.column_stack([np.repeat(np.arange(40), 6), rng.integers(0, 500, 240)])
    store.insert_batch(edges, kernel="scalar")
    store.neighbors_many(np.arange(40))
    assert store.analytics_snapshot.pending_rows == 0
    return store


#: Delete batches of at least ``MIN_ROUND_GROUPS`` rows: one that misses
#: entirely, one that repeats a present pair, one with unknown sources.
_DELETES = {
    "all miss": np.array([[s, 10_000 + s] for s in range(40)]),
    "repeated pair": np.array([[0, 10_000]] * 20 + [[7, 10_001]] * 12),
    "unknown sources": np.array([[1_000 + s, s] for s in range(30)] + [[3, 10_002]] * 5),
}


@pytest.mark.parametrize("case", sorted(_DELETES))
def test_vector_delete_leaves_the_scalar_pending_rows(case):
    """A vector ``delete_batch`` marks exactly the rows the per-edge loop
    marks: those that lost an edge, none for a miss or an unknown source."""
    scalar, vector = _loaded(), _loaded()
    batch = _DELETES[case]
    if case != "all miss":
        # present pairs, each twice over: one copy hits, the other misses
        src, dst, _ = scalar.neighbors_many(np.arange(40))
        pairs = np.column_stack([src, dst])[::17]
        batch = np.vstack([batch, pairs, pairs])
    deleted = scalar.delete_batch(batch, kernel="scalar")
    assert vector.delete_batch(batch, kernel="vector") == deleted
    want = scalar.analytics_snapshot.pending_rows
    assert vector.analytics_snapshot.pending_rows == want
    assert np.array_equal(vector.analytics_snapshot._dirty, scalar.analytics_snapshot._dirty)
    if case == "all miss":
        assert deleted == want == 0
    else:
        assert deleted == pairs.shape[0] and want == np.unique(pairs[:, 0]).shape[0]


def test_one_peek_and_one_mark_per_vector_chunk(monkeypatch):
    """A snapshot-backed vector batch renames its sources once a chunk —
    the kernel's own ``peek_array`` — and marks the snapshot once a chunk
    from those ids, inserts and deletes alike."""
    store = _loaded()
    monkeypatch.setattr(kernels, "CHUNK_EDGES", 40)
    calls = {"peek": 0, "mark": 0}
    for name, owner, method in (("peek", type(store.sgh), "peek_array"),
                                ("mark", type(store.analytics_snapshot), "mark_dirty_many")):
        def spy(self, ids, name=name, native=getattr(owner, method)):
            calls[name] += 1
            return native(self, ids)
        monkeypatch.setattr(owner, method, spy)
    rng = np.random.default_rng(11)
    batch = np.column_stack([rng.integers(0, 60, 100), rng.integers(0, 900, 100)])
    store.insert_batch(batch, kernel="vector")
    assert calls == {"peek": 3, "mark": 3}
    store.delete_batch(batch, kernel="vector")
    assert calls == {"peek": 6, "mark": 6}
    # all its rows are pending: the delete's rows lost an edge each, and
    # the insert's new sources (40..59) are rows the table grows by
    assert store.analytics_snapshot.pending_rows == np.unique(batch[:, 0]).shape[0]


class TestMask:
    def test_mark_past_the_table_is_a_no_op(self):
        store = _loaded()
        snap = store.analytics_snapshot
        n = snap.n_rows
        load = snap.load_full()
        snap.mark_dirty(n + 5)
        assert snap.full_horizon is None  # the capture's epoch ended all the same
        snap.mark_dirty_many(np.array([n, n + 1, 2, 2]))
        assert snap.n_rows == n and snap.pending_rows == 1
        assert np.flatnonzero(snap._dirty).tolist() == [2]
        snap.sync()
        assert snap.pending_rows == 0
        assert snap.load_full()[0] is not load[0]

    def test_invalidate_marks_every_row_and_the_rows_grown_since(self):
        store = _loaded()
        snap = store.analytics_snapshot
        snap.invalidate()
        store.insert_edge(900, 1)  # a new row behind the table
        assert snap.pending_rows == snap.n_rows + 1 == 41
        measured = snap.patched_rows
        snap.sync()
        assert snap.patched_rows - measured == 41 and snap.pending_rows == 0
        assert not snap._dirty.any() and snap._dirty.shape == (41,)

    def test_budgeted_sync_keeps_the_round_robin_order(self, monkeypatch):
        """``sync(max_rows)`` resumes at the first dirty row at or past the
        cursor, wraps around, and measures each batch ascending."""
        store = _loaded(enable_sgh=False)
        snap = store.analytics_snapshot
        measured = []
        native = store.measure_rows
        monkeypatch.setattr(store, "measure_rows",
                            lambda rows: measured.append(rows.tolist()) or native(rows))
        for row in (1, 3, 5, 8, 9, 12):
            snap.mark_dirty(row)
        snap.sync(max_rows=3)                   # [1, 3, 5], cursor 6
        snap.mark_dirty(0)
        snap.sync(max_rows=3)                   # from 6: [8, 9, 12], cursor 13
        snap.mark_dirty_many(np.array([2, 4, 6]))
        snap.sync(max_rows=3)                   # from 13, wrapped: [0, 2, 4]
        assert snap.pending_rows == 1
        snap.sync(max_rows=3)                   # the rest: [6]
        assert measured == [[1, 3, 5], [8, 9, 12], [0, 2, 4], [6]]
        assert snap.pending_rows == 0
