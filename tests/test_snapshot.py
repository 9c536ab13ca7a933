"""Unit tests for the CSR analytics snapshot (repro.engine.snapshot).

The engine-level on/off equivalence lives in the differential oracle
(``tests/test_differential.py::test_analytics_lockstep``); this module
tests the layer itself: sanitization, the charge-mirror contract at the
gather level, dirty-row patching granularity, invalidation (including
the fsck-repair hook), and the observability counters.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import GTConfig, StingerConfig
from repro.core.graphtinker import GraphTinker
from repro.engine.snapshot import (
    AnalyticsSnapshot,
    gather_active_scalar,
    sanitize_active,
)
from repro.errors import CapacityError
from repro.stinger import Stinger


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
