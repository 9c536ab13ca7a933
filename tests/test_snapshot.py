"""Unit tests for the CSR analytics snapshot (repro.engine.snapshot).

The engine-level on/off equivalence lives in the differential oracle
(``tests/test_differential.py::test_analytics_lockstep``); this module
tests the layer itself: sanitization, the charge-mirror contract at the
gather level, dirty-row patching granularity, invalidation (including
the fsck-repair hook), the bulk re-measure against its per-row
reference, the full-load capture against a snapshot-less twin, and the
observability counters.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import GTConfig, StingerConfig
from repro.core.graphtinker import GraphTinker
from repro.core.store import RowStoreDefaults
from repro.engine.algorithms import BFS
from repro.engine.hybrid import HybridEngine
from repro.engine.modes import load_edges_full
from repro.engine.snapshot import (
    AnalyticsSnapshot,
    gather_active_scalar,
    sanitize_active,
)
from repro.errors import CapacityError
from repro.stinger import Stinger
from repro.workloads import rmat_edges


def _native(store, active):
    """The store's scalar gather with the snapshot detached: the truth.

    Returns ``(triple, charge_dict)`` and leaves the store's stats and
    snapshot attachment exactly as found.
    """
    snap = store.analytics_snapshot
    store.disable_snapshot()
    backup = store.stats.snapshot()
    triple = gather_active_scalar(store, sanitize_active(active))
    delta = store.stats.delta(backup)
    store.stats.reset()
    store.stats.merge(backup)
    store._analytics_snapshot = snap
    return triple, delta.as_dict()


def _snapshot_gather(store, active):
    backup = store.stats.snapshot()
    triple = store.analytics_snapshot.gather_active(active)
    delta = store.stats.delta(backup)
    store.stats.reset()
    store.stats.merge(backup)
    return triple, delta.as_dict()


def _assert_same(store, active, ctx=""):
    want, want_charge = _native(store, active)
    got, got_charge = _snapshot_gather(store, active)
    for i, name in enumerate(("src", "dst", "weight")):
        assert np.array_equal(got[i], want[i]), f"{ctx}: {name} differs"
    assert got_charge == want_charge, f"{ctx}: charges differ"


STORE_MAKERS = {
    "gt": lambda: GraphTinker(GTConfig(pagewidth=16, subblock=4,
                                       workblock=2, snapshot=True)),
    "gt-nosgh": lambda: GraphTinker(GTConfig(pagewidth=16, subblock=4,
                                             workblock=2, enable_sgh=False,
                                             snapshot=True)),
    "gt-nocal": lambda: GraphTinker(GTConfig(pagewidth=16, subblock=4,
                                             workblock=2, enable_cal=False,
                                             snapshot=True)),
    "stinger": lambda: Stinger(StingerConfig(edgeblock_size=4,
                                             snapshot=True)),
}


class TestSanitizeActive:
    def test_dedupes_and_sorts(self):
        out = sanitize_active(np.array([9, 3, 3, 9, 1]))
        assert out.tolist() == [1, 3, 9]

    def test_drops_negatives(self):
        out = sanitize_active(np.array([-5, -1, 0, 4]))
        assert out.tolist() == [0, 4]

    def test_empty_and_all_negative(self):
        assert sanitize_active(np.empty(0, dtype=np.int64)).size == 0
        assert sanitize_active(np.array([-3, -1])).size == 0

    def test_already_clean_is_identity(self):
        clean = np.array([0, 2, 7], dtype=np.int64)
        assert sanitize_active(clean).tolist() == clean.tolist()

    @pytest.mark.parametrize("ids", [
        [-4, -2, 0, 5], [-3, -1], [5], [], [0, 1, 1, 2], [3, 2], [[4, 1], [1, 0]],
    ])
    def test_increasing_input_skips_the_sort_with_the_same_result(self, ids):
        raw = np.array(ids, dtype=np.int64)
        want = np.unique(raw)
        got = sanitize_active(raw)
        assert got.dtype == np.int64 and got.ndim == 1
        assert got.tolist() == want[want >= 0].tolist()


@pytest.mark.parametrize("store_name", sorted(STORE_MAKERS))
class TestChargeMirror:
    def test_gather_matches_native_after_inserts(self, store_name, rng):
        store = STORE_MAKERS[store_name]()
        edges = np.column_stack([rng.integers(0, 30, 400),
                                 rng.integers(0, 50, 400)])
        store.insert_batch(edges)
        for active in (np.arange(30), np.array([0, 7, 29]),
                       np.array([100, 200]), np.arange(60)):
            _assert_same(store, active, f"{store_name} active={active[:4]}")

    def test_gather_matches_native_under_churn(self, store_name, rng):
        store = STORE_MAKERS[store_name]()
        for _ in range(3):
            edges = np.column_stack([rng.integers(0, 25, 150),
                                     rng.integers(0, 40, 150)])
            store.insert_batch(edges)
            store.delete_batch(edges[rng.integers(0, 150, 40)])
            store.insert_edge(3, 999, 7.5)     # single-edge mutator marks
            store.delete_edge(3, 999)
            _assert_same(store, np.arange(25), f"{store_name} churn")

    def test_weight_update_refreshes_row(self, store_name, rng):
        store = STORE_MAKERS[store_name]()
        store.insert_batch(np.array([[1, 2], [1, 3]]))
        store.analytics_snapshot.gather_active(np.array([1]))  # build
        store.insert_edge(1, 2, 42.0)  # duplicate: weight update only
        (_, _, w), _ = _snapshot_gather(store, np.array([1]))
        assert 42.0 in w.tolist()


class TestDirtyTracking:
    def test_steady_state_patches_only_touched_rows(self, rng):
        store = STORE_MAKERS["gt"]()
        edges = np.column_stack([rng.integers(0, 50, 500),
                                 rng.integers(0, 50, 500)])
        store.insert_batch(edges)
        snap = store.analytics_snapshot
        snap.gather_active(np.arange(50))  # first build: everything
        patched_after_build = snap.patched_rows
        store.insert_batch(np.array([[2, 97], [2, 98], [7, 99]]))
        snap.gather_active(np.arange(50))
        # only sources 2 and 7 were touched (dst ids are fresh vertices
        # on the GT side only as destinations — no new rows).
        assert snap.patched_rows == patched_after_build + 2

    def test_rebuild_counter_increments_once_per_change(self):
        store = STORE_MAKERS["stinger"]()
        store.insert_batch(np.array([[0, 1], [2, 3]]))
        snap = store.analytics_snapshot
        snap.gather_active(np.array([0]))
        builds = snap.rebuilds
        snap.gather_active(np.array([2]))  # clean: no rebuild
        assert snap.rebuilds == builds
        store.insert_edge(0, 9)
        snap.gather_active(np.array([0]))
        assert snap.rebuilds == builds + 1

    def test_new_vertices_extend_rows(self):
        store = STORE_MAKERS["gt"]()
        store.insert_batch(np.array([[0, 1]]))
        snap = store.analytics_snapshot
        snap.gather_active(np.array([0]))
        n = snap.n_rows
        store.insert_batch(np.array([[500, 1], [501, 2]]))
        _assert_same(store, np.array([0, 500, 501]), "grown rows")
        assert snap.n_rows == n + 2

    def test_batch_kernel_that_raises_still_marks_its_rows(self, monkeypatch):
        """A vector batch that raises has applied part of itself; the
        rows it touched must be dirty all the same (the scalar path marks
        per edge, so it never had the gap)."""
        store = GraphTinker(GTConfig(pagewidth=8, subblock=8, workblock=4,
                                     max_generations=2, kernel="vector"))
        store.insert_batch(np.array([[0, 1000], [5, 7]]))
        store.enable_snapshot()
        assert store.neighbors_many([0, 5])[0].shape[0] == 2
        with pytest.raises(CapacityError):
            store.insert_batch(np.array([[5, 8], [5, 9]] + [[0, d] for d in range(30)]))
        live = store.degree(0) + store.degree(5)
        assert live > 2
        assert store.neighbors_many([0, 5])[0].shape[0] == live

        def broken(blocks, slots):
            raise RuntimeError("CAL scatter failed")
        monkeypatch.setattr(store.cal, "invalidate_many", broken)
        with pytest.raises(RuntimeError):
            store.delete_batch(np.array([[5, 7], [5, 8]]))
        assert store.degree(5) == 1
        assert store.neighbors_many([5])[1].tolist() == [9]

    def test_pending_rows_after_invalidate_counts_rows_grown_since(self):
        store = STORE_MAKERS["gt"]()
        store.insert_batch(np.array([[0, 1], [2, 3]]))
        snap = store.analytics_snapshot
        snap.gather_active(np.array([0]))
        store.insert_batch(np.array([[500, 1], [501, 2]]))  # two new rows
        snap.invalidate()
        pending, patched = snap.pending_rows, snap.patched_rows
        snap.gather_active(np.array([0]))
        assert snap.patched_rows - patched == pending == 4

    def test_invalidate_forces_full_remeasure(self, rng):
        store = STORE_MAKERS["gt"]()
        edges = np.column_stack([rng.integers(0, 20, 200),
                                 rng.integers(0, 20, 200)])
        store.insert_batch(edges)
        snap = store.analytics_snapshot
        snap.gather_active(np.arange(20))
        patched = snap.patched_rows
        snap.invalidate()
        _assert_same(store, np.arange(20), "post-invalidate")
        assert snap.patched_rows == patched + snap.n_rows


class TestFsckRepairInvalidates:
    def test_repair_rebuilt_store_still_mirrors(self, rng):
        from repro.service import StoreCorruptor

        store = GraphTinker(GTConfig(snapshot=True))
        edges = np.column_stack([rng.integers(0, 30, 400),
                                 rng.integers(0, 30, 400)])
        store.insert_batch(edges)
        store.analytics_snapshot.gather_active(np.arange(30))  # warm
        corruptor = StoreCorruptor(store, seed=7)
        corruptor.corrupt_random(3)
        repair = store.fsck(repair=True)
        assert repair.ok
        _assert_same(store, np.arange(30), "post-repair")


class TestServesFull:
    def test_cal_backed_gt_keeps_native_full_load(self):
        store = STORE_MAKERS["gt"]()
        assert store.analytics_snapshot.serves_full is False

    def test_calless_gt_and_stinger_serve_full(self):
        assert STORE_MAKERS["gt-nocal"]().analytics_snapshot.serves_full
        assert STORE_MAKERS["stinger"]().analytics_snapshot.serves_full


def _powerlaw_twins(monkeypatch):
    """Two identically-built snapshot-backed stores; the second answers
    ``measure_rows`` with the per-row measure-and-restore reference."""
    bulk, per_row = (GraphTinker(GTConfig(pagewidth=8, subblock=4,
                                          workblock=2, snapshot=True))
                     for _ in range(2))
    monkeypatch.setattr(
        per_row, "measure_rows",
        lambda rows: RowStoreDefaults.measure_rows(per_row, rows))
    return bulk, per_row


def _rows_of(snap):
    """Every row's ``(dst, weight)`` as a reader of the public view sees
    it: the overlay entry, else the flat slice, else (a row past the flat
    table) nothing yet."""
    indptr, dst, weight = snap.view_arrays()
    overlay = snap.overlay_rows()
    rows = []
    for row in range(snap.n_rows):
        if row in overlay:
            rows.append(overlay[row])
        elif row < indptr.shape[0] - 1:
            lo, hi = indptr[row], indptr[row + 1]
            rows.append((dst[lo:hi], weight[lo:hi]))
        else:
            rows.append((dst[:0], weight[:0]))
    return rows


def _assert_rows_equal(a, b, ctx):
    """Two snapshots hold the same rows, however split between the flat
    arrays and the overlay."""
    assert a.n_rows == b.n_rows and a.pending_rows == b.pending_rows, ctx
    assert np.array_equal(a._charges, b._charges), f"{ctx}: charge matrix"
    assert np.array_equal(a._counts, b._counts), f"{ctx}: counts"
    for row, (got, want) in enumerate(zip(_rows_of(a), _rows_of(b))):
        assert got[0].shape[0] == a._counts[row], (ctx, row)
        assert np.array_equal(got[0], want[0]), (ctx, row)
        assert np.array_equal(got[1], want[1]), (ctx, row)


def _assert_views_equal(bulk, per_row, ctx):
    a, b = bulk.analytics_snapshot, per_row.analytics_snapshot
    _assert_rows_equal(a, b, ctx)
    for got, want in zip(a.view_arrays(), b.view_arrays()):
        assert got.dtype == want.dtype and np.array_equal(got, want), ctx
    over_a, over_b = a.overlay_rows(), b.overlay_rows()
    assert sorted(over_a) == sorted(over_b), f"{ctx}: patched rows"
    for row, (dst, weight) in over_a.items():
        assert np.array_equal(dst, over_b[row][0]), f"{ctx}: row {row} dst"
        assert np.array_equal(weight, over_b[row][1]), f"{ctx}: row {row}"
        assert dst.base is None and weight.base is None, "rows must be copies"


class TestBulkMeasure:
    """One ``measure_rows`` call per sync == one native walk per row."""

    def test_measure_rows_matches_the_per_row_reference(self, rng):
        store = GraphTinker(GTConfig(pagewidth=8, subblock=4, workblock=2))
        edges = rmat_edges(9, 4_000, seed=3)
        store.insert_batch(edges, rng.random(edges.shape[0]))
        store.delete_batch(edges[::3])
        store.delete_vertex(int(edges[0, 0]))  # an allocated, empty row
        assert store.eba.overflow.n_used > 20  # hubs grew overflow trees
        rows = rng.permutation(store.dense_row_count())
        for chosen in (rows, rows[:1], rows[:0], np.repeat(rows[:5], 2)):
            before = store.stats.as_dict()
            got = store.measure_rows(chosen)
            assert store.stats.as_dict() == before, "measuring is uncharged"
            want = RowStoreDefaults.measure_rows(store, chosen)
            assert store.stats.as_dict() == before
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        assert (store.measure_rows(rows)[0] == 0).any(), "no empty row covered"

    def test_synced_view_matches_under_churn(self, monkeypatch, rng):
        bulk, per_row = _powerlaw_twins(monkeypatch)
        stream = rmat_edges(9, 6_000, seed=5)
        weights = rng.random(stream.shape[0])
        for step, lo in enumerate(range(0, 6_000, 1_500)):
            for store in (bulk, per_row):
                store.insert_batch(stream[lo:lo + 1_500], weights[lo:lo + 1_500])
                store.delete_batch(stream[lo:lo + 1_500:4])
                store.delete_vertex(int(stream[lo, 0]))        # empty row
                store.insert_edge(10_000 + step, 1, 0.5)       # new row
                store.neighbors_many(np.arange(600))           # engine sync
            assert bulk.stats.as_dict() == per_row.stats.as_dict()
            _assert_views_equal(bulk, per_row, f"step {step}")
        assert bulk.eba.overflow.n_used > 20

    def test_budgeted_sync_round_robin_matches(self, monkeypatch, rng):
        bulk, per_row = _powerlaw_twins(monkeypatch)
        stream = rmat_edges(8, 3_000, seed=9)
        for store in (bulk, per_row):
            store.insert_batch(stream[:2_000])
            store.analytics_snapshot.sync()
            store.delete_batch(stream[:2_000:2])
            store.insert_batch(stream[2_000:])                 # adds new rows
        backlog = bulk.analytics_snapshot.pending_rows
        assert backlog > 3 * 17
        for turn in range(backlog // 17 + 2):
            for store in (bulk, per_row):
                store.analytics_snapshot.sync(max_rows=17)
            _assert_views_equal(bulk, per_row, f"budgeted turn {turn}")
        assert bulk.analytics_snapshot.pending_rows == 0
        _assert_same(bulk, np.arange(300), "drained")


SPLICE_MAKERS = dict(STORE_MAKERS, **{
    "gt-compact": lambda: GraphTinker(GTConfig(pagewidth=16, subblock=4,
                                               workblock=2, snapshot=True,
                                               compact_on_delete=True)),
})


def _grow_unmarked(store):
    """A new dense row behind the snapshot's back: the table grows with
    nothing marked dirty."""
    snap = store.analytics_snapshot
    store.disable_snapshot()
    store.insert_edge(3_000, 1, 0.25)
    store._analytics_snapshot = snap


_SPLICE_STEPS = [
    ("grow", lambda s: s.insert_batch(
        np.array([[3, 900 + d] for d in range(9)] + [[5, 901], [39, 902]]))),
    ("shrink", lambda s: s.delete_batch(
        np.array([[3, 900 + d] for d in range(0, 9, 2)]))),
    ("empty", lambda s: [s.delete_vertex(v) for v in (0, 5, 39)]),
    ("nothing", lambda s: None),
    ("reappear", lambda s: s.insert_batch(
        np.array([[5, 7], [5, 8], [0, 1]]), np.array([1.5, 2.5, 3.5]))),
    ("new rows + dirty rows", lambda s: s.insert_batch(
        np.array([[1_000, 1], [1_001, 2], [3, 77], [1_000, 3]]))),
    ("new row alone", lambda s: s.insert_edge(2_000, 1, 0.5)),
    ("new row unmarked", _grow_unmarked),
    ("weight update", lambda s: s.insert_edge(3, 77, 9.0)),
]


def _assert_spliced_equals_scratch(spliced, scratch, active, ctx):
    """Engine-sync both — ``scratch`` from an ``invalidate()``, so every
    row re-measured and none kept — and compare everything held."""
    scratch.analytics_snapshot.invalidate()
    got, want = spliced.neighbors_many(active), scratch.neighbors_many(active)
    for g, w in zip(got, want):
        assert np.array_equal(g, w), ctx
    assert spliced.stats.as_dict() == scratch.stats.as_dict(), ctx
    a, b = spliced.analytics_snapshot, scratch.analytics_snapshot
    assert a.overlay_rows() == b.overlay_rows() == {}, ctx
    assert np.array_equal(a._charges, b._charges), f"{ctx}: charge matrix"
    assert np.array_equal(a._counts, b._counts), f"{ctx}: counts"
    for g, w in zip(a.view_arrays(), b.view_arrays()):
        assert g.dtype == w.dtype and np.array_equal(g, w), ctx


class TestSplice:
    """The incrementally spliced CSR == one built from scratch."""

    @pytest.mark.parametrize("store_name", sorted(SPLICE_MAKERS))
    def test_spliced_view_equals_a_scratch_build(self, store_name, rng):
        spliced, scratch = (SPLICE_MAKERS[store_name]() for _ in range(2))
        edges = np.column_stack([rng.integers(0, 40, 500),
                                 rng.integers(0, 60, 500)])
        edges = np.vstack([edges, [[0, 1], [39, 2]]])  # first and last row live
        weights = rng.random(edges.shape[0])
        active = np.arange(3_100)
        for store in (spliced, scratch):
            store.insert_batch(edges, weights)
        _assert_spliced_equals_scratch(spliced, scratch, active, "load")
        snap = spliced.analytics_snapshot
        for name, mutate in _SPLICE_STEPS:
            captured = snap.view_arrays()
            frozen = [a.copy() for a in captured]
            rebuilds = snap.rebuilds
            mutate(spliced)
            mutate(scratch)
            _assert_spliced_equals_scratch(spliced, scratch, active,
                                           f"{store_name}: {name}")
            assert snap.rebuilds == rebuilds + (name != "nothing")
            # A reader's capture from before the splice is untouched by it.
            for kept, was, now in zip(captured, frozen, snap.view_arrays()):
                assert np.array_equal(kept, was), name
                assert name == "nothing" or kept is not now

    def test_budgeted_syncs_interleaved_with_engine_syncs(self, monkeypatch, rng):
        """Serving-path rows wait in the overlay; an engine sync folds them
        in, and where a row was re-dirtied since, its fresh measurement
        wins; the threshold rebuild is the same splice fed the overlay."""
        from repro.engine import snapshot as snapshot_module

        monkeypatch.setattr(snapshot_module, "REBUILD_MIN", 60)
        spliced, scratch = (SPLICE_MAKERS["gt"]() for _ in range(2))
        stream = rmat_edges(8, 3_000, seed=9)
        active = np.arange(300)
        for store in (spliced, scratch):
            store.insert_batch(stream[:2_000])
        _assert_spliced_equals_scratch(spliced, scratch, active, "load")
        snap = spliced.analytics_snapshot
        for store in (spliced, scratch):
            store.delete_batch(stream[:2_000:2])
            store.insert_batch(stream[2_000:])                 # adds new rows
        assert snap.pending_rows > 3 * 17
        for _ in range(3):
            snap.sync(max_rows=17)                             # 51 < REBUILD_MIN
        waiting = snap.overlay_rows()
        assert len(waiting) == 51 and snap.pending_rows > 17
        stale = max(waiting, key=lambda row: waiting[row][0].shape[0])
        source = int(spliced.original_ids(np.array([stale]))[0])
        for store in (spliced, scratch):
            store.insert_edge(source, 123_456, 4.5)            # re-dirties it
        _assert_spliced_equals_scratch(spliced, scratch, active, "patch wins")

        for store in (spliced, scratch):
            store.delete_batch(stream[1:2_000:2])
            store.insert_edge(source, 123_457, 5.5)
        rebuilds, turns = snap.rebuilds, 0
        while snap.pending_rows:
            snap.sync(max_rows=17)
            turns += 1
            if turns == 2:                                     # mid-drain churn
                for store in (spliced, scratch):
                    store.delete_edge(source, 123_456)
        assert snap.rebuilds > rebuilds, "threshold rebuild never ran"
        assert snap.overlay_rows(), "drain ended on a rebuild: shift REBUILD_MIN"
        scratch.analytics_snapshot.invalidate()
        scratch.analytics_snapshot.sync()
        _assert_rows_equal(snap, scratch.analytics_snapshot, "drained")
        _assert_spliced_equals_scratch(spliced, scratch, active, "folded")


def _full_load(store):
    before = store.stats.snapshot()
    triple = load_edges_full(store)
    return triple, store.stats.delta(before).as_dict()


def _corrupt_and_repair(store):
    from repro.service import StoreCorruptor

    StoreCorruptor(store, seed=7).corrupt_random(3)
    assert store.fsck(repair=True).ok


def _reattach_after_a_detached_write(store):
    attached = store.analytics_snapshot is not None
    store.disable_snapshot()
    store.insert_edge(4, 555, 3.0)
    if attached:
        store.enable_snapshot()


def _overfull_batch(store):
    with pytest.raises(CapacityError):
        store.insert_batch(np.array([[5, 8], [5, 9]]
                                    + [[0, 2_000 + d] for d in range(40)]))


_CAPTURE_BASE = np.column_stack([np.repeat(np.arange(30), 4),
                                 np.arange(120) * 7 % 97])
_CAPTURE_STEPS = [
    ("insert_edge (new)", lambda s: s.insert_edge(3, 777, 2.0)),
    ("insert_edge (weight update)", lambda s: s.insert_edge(3, 777, 9.0)),
    ("insert_batch", lambda s: s.insert_batch(
        np.array([[31, 2], [7, 300], [7, 301], [3, 777]]),
        np.array([1.5, 2.5, 3.5, 4.5]))),
    ("delete_edge", lambda s: s.delete_edge(*_CAPTURE_BASE[0])),
    ("delete_edge (miss)", lambda s: s.delete_edge(3, 123_456)),
    ("delete_batch", lambda s: s.delete_batch(_CAPTURE_BASE[10:50:3])),
    ("delete_vertex", lambda s: s.delete_vertex(7)),
    ("fsck repair", _corrupt_and_repair),
    ("disable/enable_snapshot", _reattach_after_a_detached_write),
    ("insert_batch (CapacityError)", _overfull_batch),
]


@pytest.mark.parametrize("variant", [{}, {"compact_on_delete": True},
                                     {"enable_sgh": False}],
                         ids=["default", "compact", "nosgh"])
class TestFullLoadCapture:
    """FP loads between two mutations share one physical stream; arrays
    and modeled charges are those of a snapshot-less twin."""

    def _twins(self, variant):
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4,
                       max_generations=2, **variant)
        on, off = GraphTinker(cfg.with_(snapshot=True)), GraphTinker(cfg)
        for store in (on, off):
            store.insert_batch(_CAPTURE_BASE, np.arange(120) / 8.0)
        return on, off

    def test_every_mutator_drops_the_capture(self, variant):
        on, off = self._twins(variant)
        for name, mutate in [("load", lambda s: None)] + _CAPTURE_STEPS:
            mutate(on)
            mutate(off)
            for attempt in ("capture", "replay", "replay"):
                got, got_charge = _full_load(on)
                want, want_charge = _full_load(off)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), f"{name}, {attempt}"
                assert got_charge == want_charge, f"{name}, {attempt}"
            assert on.stats.as_dict() == off.stats.as_dict(), name

    def test_one_physical_stream_per_epoch(self, variant, monkeypatch):
        on, _ = self._twins(variant)
        streams = []
        native = on.cal.stream_edges
        monkeypatch.setattr(on.cal, "stream_edges",
                            lambda: streams.append(1) or native())
        snap = on.analytics_snapshot
        first = load_edges_full(on)
        hits = snap.hits
        for _ in range(3):
            engine = HybridEngine(on, BFS(), policy="full")
            engine.reset(roots=[0])
            engine.compute()
        assert len(streams) == 1
        assert snap.hits > hits
        assert load_edges_full(on)[0] is first[0]
        on.delete_edge(*_CAPTURE_BASE[0])
        assert load_edges_full(on)[0] is not first[0]
        assert len(streams) == 2
        snap.invalidate()  # fsck repair's hook: cells moved behind the marks
        load_edges_full(on)
        assert len(streams) == 3

    def test_captured_arrays_are_read_only(self, variant):
        on, _ = self._twins(variant)
        for array in load_edges_full(on):
            with pytest.raises(ValueError):
                array[0] = 1


class TestAttachment:
    def test_enable_disable_roundtrip(self):
        store = GraphTinker(GTConfig())
        assert store.analytics_snapshot is None
        snap = store.enable_snapshot()
        assert store.analytics_snapshot is snap
        assert store.enable_snapshot() is snap  # idempotent
        store.disable_snapshot()
        assert store.analytics_snapshot is None

    def test_config_flag_attaches(self):
        assert GraphTinker(GTConfig(snapshot=True)).analytics_snapshot
        assert Stinger(StingerConfig(snapshot=True)).analytics_snapshot
        assert GraphTinker(GTConfig()).analytics_snapshot is None

    def test_attach_to_populated_store(self, rng):
        store = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
        edges = np.column_stack([rng.integers(0, 20, 200),
                                 rng.integers(0, 20, 200)])
        store.insert_batch(edges)
        store.enable_snapshot()
        _assert_same(store, np.arange(20), "late attach")


class TestObsCounters:
    def test_counters_published_when_enabled(self):
        store = GraphTinker(GTConfig(snapshot=True))
        store.insert_batch(np.array([[0, 1], [2, 3]]))
        registry = obs.get_registry()
        registry.reset()
        obs.enable()
        try:
            snap = store.analytics_snapshot
            snap.gather_active(np.array([0]))
            store.insert_edge(0, 9)
            snap.gather_active(np.array([0, 2]))
        finally:
            obs.disable()
        assert registry.counter("engine.snapshot.hits").value == 2
        assert registry.counter("engine.snapshot.rebuilds").value >= 1
        assert registry.counter("engine.snapshot.patched_rows").value >= 1

    def test_counters_silent_when_disabled(self):
        registry = obs.get_registry()
        registry.reset()
        store = Stinger(StingerConfig(snapshot=True))
        store.insert_batch(np.array([[0, 1]]))
        store.analytics_snapshot.gather_active(np.array([0]))
        assert "engine.snapshot.hits" not in registry
