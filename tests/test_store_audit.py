"""One integrity audit per store: ``check_invariants`` is ``fsck``.

Every backend inherits one ``check_invariants`` that raises exactly when
``fsck(level="full")`` reports a violation, so whatever the audit checks
the test suite's hook checks too.  This module pins that definition over
every registered backend, and the two checks that only a backend's
``fsck`` can make:

* ``tiered`` — the tier-occupancy counters must match the rows, and a
  repair recounts them;
* ``sharded`` — the parent's audit includes every shard's own audit,
  with vertex ids translated back to original ids and ``where`` naming
  the shard, and a repair reports the shards' own vertex lists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ShardedConfig
from repro.core.graphtinker import GraphTinker
from repro.core.sharded import ShardedStore
from repro.core.store import backend_names, create_store
from repro.core.tiered import TIER_INLINE, TieredStore
from repro.service import StoreCorruptor
from repro.workloads.rmat import rmat_edges

N_SHARDS = 3


def _stream() -> np.ndarray:
    return rmat_edges(7, 900, seed=5)


def _degree_counters(store) -> np.ndarray:
    """The array a backend keeps its per-row degree counters in."""
    return store.eba._degrees if isinstance(store, GraphTinker) else store._degree


@pytest.mark.parametrize("backend", backend_names())
def test_check_invariants_raises_the_fsck_summary(backend):
    store = create_store(backend)
    try:
        store.insert_batch(_stream())
        before = store.stats.as_dict()
        store.check_invariants()
        _degree_counters(store)[0] += 1
        with pytest.raises(AssertionError) as raised:
            store.check_invariants()
        report = store.fsck(level="full")
        assert not report.ok
        assert str(raised.value) == report.summary()
        assert store.stats.as_dict() == before
    finally:
        if isinstance(store, ShardedStore):
            store.close()


# --------------------------------------------------------------------- #
# tiered: the occupancy counters
# --------------------------------------------------------------------- #
def test_tiered_fsck_audits_and_recounts_occupancy():
    store = TieredStore()
    store.insert_batch(_stream())
    truth = store.tier_occupancy()
    store._tier_counts[TIER_INLINE] += 3
    report = store.fsck()
    assert [v.kind for v in report.violations] == ["tier-assignment"]
    assert "occupancy" in report.violations[0].detail
    repair = store.fsck(repair=True)
    assert repair.final.ok, repair.final.violations
    assert store.tier_occupancy() == truth


# --------------------------------------------------------------------- #
# sharded: the shards' own audits
# --------------------------------------------------------------------- #
@pytest.fixture
def drifted_shards(monkeypatch):
    """A sharded store whose every shard drifts one VertexPropertyArray
    degree on its first audit: damage only a shard's own fsck can see
    (the parent's degree cache mirrors the EdgeblockArray counters)."""
    real_fsck = GraphTinker.fsck
    armed = [True]      # per process: each forked worker has its own copy

    def drifting_fsck(self, level="full", repair=False):
        if armed[0]:
            armed[0] = False
            StoreCorruptor(self, seed=0).corrupt("vpa-degree")
        return real_fsck(self, level=level, repair=repair)

    monkeypatch.setattr(GraphTinker, "fsck", drifting_fsck)
    store = ShardedStore(ShardedConfig(n_shards=N_SHARDS))  # forks now
    store.insert_batch(_stream())
    yield store
    store.close()


def _drifted(report) -> list:
    return [v for v in report.violations if v.kind == "vpa-degree-mismatch"]


def test_sharded_fsck_surfaces_shard_violations(drifted_shards):
    store = drifted_shards
    drifted = _drifted(store.fsck())
    assert sorted(v.where for v in drifted) == [
        f"shard{k}" for k in range(N_SHARDS)]
    for v in drifted:
        # An original id, owned by the shard that reported it.
        assert store._shard_of(v.vertex) == int(v.where[len("shard"):])
        assert store.degree(v.vertex) > 0
    with pytest.raises(AssertionError, match="vpa-degree-mismatch"):
        store.check_invariants()


def test_sharded_repair_reports_shard_vertices(drifted_shards):
    store = drifted_shards
    before = store.stats.as_dict()
    repair = store.fsck(repair=True)
    assert repair.ok, repair.final.violations
    drifted = sorted(v.vertex for v in _drifted(repair.initial))
    assert len(drifted) == N_SHARDS
    assert sorted(repair.recounted_vertices) == drifted
    assert repair.rebuilt_vertices == []
    assert store.stats.as_dict() == before
    store.check_invariants()
