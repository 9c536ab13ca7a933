"""Tests for the GraphService frontend and checkpoint manager."""

import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import GTConfig
from repro.core.graphtinker import GraphTinker
from repro.engine.algorithms import BFS
from repro.errors import ServiceError
from repro.service import (
    OP_DELETE,
    OP_INSERT,
    CheckpointManager,
    GraphService,
    iter_records,
    latest_checkpoint,
    list_checkpoints,
    list_segments,
    load_checkpoint,
    recover,
)
from repro.workloads import rmat_edges


def edge_set(store):
    src, dst, _ = store.analytics_edges()
    return set(zip(src.tolist(), dst.tolist()))


@pytest.fixture
def edges():
    return rmat_edges(8, 2500, seed=7)


@pytest.fixture
def fresh_registry():
    registry = obs.MetricsRegistry()
    prior = obs.set_registry(registry)
    with obs.enabled_scope(True):
        yield registry
    obs.set_registry(prior)


class TestIngest:
    def test_tickets_resolve_with_sequences(self, tmp_path, edges):
        with GraphService(tmp_path, batch_edges=500, flush_interval=0.01) as svc:
            tickets = [svc.submit_insert(edges[i:i + 250])
                       for i in range(0, 1000, 250)]
            seqs = [t.wait(10) for t in tickets]
        assert all(s >= 1 for s in seqs)
        assert seqs == sorted(seqs)

    def test_state_matches_direct_inserts(self, tmp_path, edges):
        with GraphService(tmp_path, batch_edges=400, flush_interval=0.005) as svc:
            for i in range(0, edges.shape[0], 300):
                svc.submit_insert(edges[i:i + 300])
            svc.flush_now()
            got = edge_set(svc)
            n = svc.n_edges
        ref = GraphTinker()
        ref.insert_batch(edges)
        assert got == edge_set(ref)
        assert n == ref.n_edges

    def test_deletes_interleave_in_order(self, tmp_path, edges):
        with GraphService(tmp_path, batch_edges=10_000, flush_interval=60) as svc:
            svc.submit_insert(edges)
            svc.submit_delete(edges[:500])
            svc.flush_now()  # two flushes: one record per same-op run
            got = edge_set(svc)
        ref = GraphTinker()
        ref.insert_batch(edges)
        ref.delete_batch(edges[:500])
        assert got == edge_set(ref)

    def test_a_flush_is_one_record_and_one_fsync(self, tmp_path, edges,
                                                 fresh_registry):
        with GraphService(tmp_path, batch_edges=10_000,
                          flush_interval=60) as svc:
            tickets = [svc.submit_insert(edges[:300]),
                       svc.submit_delete(edges[:100]),
                       svc.submit_insert(edges[300:400])]
            svc.flush_now()
            seqs = [t.wait(10) for t in tickets]
            counts = [fresh_registry.counter(name).value for name in (
                "service.wal.appends", "service.wal.syncs",
                "service.flush.batches")]
        records = list(iter_records(tmp_path))
        assert [r.op for r in records] == [OP_INSERT, OP_DELETE, OP_INSERT]
        assert seqs == [r.seq for r in records]
        assert counts == [3, 3, 3]

    def test_concurrent_submitters(self, tmp_path, edges):
        chunks = [edges[i:i + 100] for i in range(0, edges.shape[0], 100)]
        with GraphService(tmp_path, batch_edges=600, flush_interval=0.005) as svc:
            def worker(mine):
                for chunk in mine:
                    svc.submit_insert(chunk).wait(30)
            threads = [threading.Thread(target=worker, args=(chunks[k::4],))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            got = edge_set(svc)
        ref = GraphTinker()
        ref.insert_batch(edges)
        assert got == edge_set(ref)  # inserts commute as a set

    def test_submit_validates_shapes(self, tmp_path):
        with GraphService(tmp_path) as svc:
            with pytest.raises(ServiceError):
                svc.submit_insert(np.arange(4))
            with pytest.raises(ServiceError):
                svc.submit_insert(np.zeros((3, 2), dtype=np.int64),
                                  weights=np.ones(2))

    def test_submit_after_close_raises(self, tmp_path):
        svc = GraphService(tmp_path)
        svc.close()
        with pytest.raises(ServiceError, match="closed"):
            svc.submit_insert(np.zeros((1, 2), dtype=np.int64))

    def test_reads_are_served(self, tmp_path):
        with GraphService(tmp_path, flush_interval=0.005) as svc:
            svc.submit_insert(np.array([[1, 2], [1, 3], [4, 1]])).wait(10)
            assert svc.n_edges == 3
            assert svc.degree(1) == 2
            assert svc.has_edge(4, 1)
            dsts, _ = svc.neighbors(1)
            assert set(dsts.tolist()) == {2, 3}

    def test_analytics_via_engine(self, tmp_path):
        chain = np.array([[0, 1], [1, 2], [2, 3], [9, 9]])
        with GraphService(tmp_path, flush_interval=0.005) as svc:
            svc.submit_insert(chain).wait(10)
            result = svc.analytics(BFS(), roots=[0])
        assert result.n_iterations >= 1


class TestBackpressure:
    def test_queue_full_times_out(self, tmp_path):
        # Huge size trigger + long latency trigger: the flusher sits on
        # the queue, so the bound is what pushes back.
        with GraphService(tmp_path, batch_edges=10**9, flush_interval=60,
                          queue_limit=2, submit_timeout=0.05) as svc:
            svc.submit_insert(np.array([[0, 1]]))
            svc.submit_insert(np.array([[0, 2]]))
            with pytest.raises(ServiceError, match="backpressure"):
                svc.submit_insert(np.array([[0, 3]]))

    def test_queue_metrics(self, tmp_path, fresh_registry):
        with GraphService(tmp_path, flush_interval=0.005) as svc:
            svc.submit_insert(np.array([[0, 1]])).wait(10)
            svc.flush_now()
        assert fresh_registry.counter("service.queue.enqueued").value == 1
        assert fresh_registry.counter("service.flush.batches").value >= 1
        assert fresh_registry.counter("service.wal.appends").value >= 1
        assert fresh_registry.counter("service.flush.edges").value == 1


class TestConstruction:
    def test_refuses_dirty_directory(self, tmp_path, edges):
        with GraphService(tmp_path, flush_interval=0.005) as svc:
            svc.submit_insert(edges[:100]).wait(10)
        with pytest.raises(ServiceError, match="recover first"):
            GraphService(tmp_path)

    def test_open_recovers_and_resumes(self, tmp_path, edges):
        with GraphService(tmp_path, flush_interval=0.005) as svc:
            svc.submit_insert(edges[:400]).wait(10)
        svc2, result = GraphService.open(tmp_path, flush_interval=0.005)
        with svc2:
            assert result.cum_edges == 400
            svc2.submit_insert(edges[400:800]).wait(10)
            got = edge_set(svc2)
        ref = GraphTinker()
        ref.insert_batch(edges[:800])
        assert got == edge_set(ref)

    def test_validates_knobs(self, tmp_path):
        with pytest.raises(ServiceError):
            GraphService(tmp_path, batch_edges=0)
        with pytest.raises(ServiceError):
            GraphService(tmp_path, queue_limit=0)


class TestCheckpoint:
    def test_checkpoint_prunes_wal(self, tmp_path, edges):
        with GraphService(tmp_path, flush_interval=0.005,
                          segment_bytes=2048, checkpoint_keep=1) as svc:
            for i in range(0, 2000, 200):
                svc.submit_insert(edges[i:i + 200]).wait(10)
            assert len(list_segments(tmp_path)) > 1
            svc.checkpoint()
            assert len(list_segments(tmp_path)) == 1  # only the active one
            assert len(list_checkpoints(tmp_path)) == 1

    def test_recovery_prefers_checkpoint(self, tmp_path, edges):
        with GraphService(tmp_path, flush_interval=0.005) as svc:
            svc.submit_insert(edges[:600]).wait(10)
            svc.checkpoint()
            svc.submit_insert(edges[600:900]).wait(10)
        result = recover(tmp_path)
        assert result.checkpoint_seq == 1
        assert result.replayed_records == 1   # only the post-checkpoint batch
        # Record 1 shares the active segment (never pruned), so it is
        # present but *skipped* — already inside the checkpoint.
        assert result.skipped_records == 1
        ref = GraphTinker()
        ref.insert_batch(edges[:900])
        assert edge_set(result.store) == edge_set(ref)

    def test_checkpoint_keeps_fallbacks(self, tmp_path, edges):
        with GraphService(tmp_path, flush_interval=0.005,
                          checkpoint_keep=2) as svc:
            svc.submit_insert(edges[:300]).wait(10)
            svc.checkpoint()
            svc.submit_insert(edges[300:600]).wait(10)
            svc.checkpoint()
            svc.submit_insert(edges[600:700]).wait(10)
            svc.checkpoint()
        assert len(list_checkpoints(tmp_path)) == 2

    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path, edges):
        with GraphService(tmp_path, flush_interval=0.005) as svc:
            svc.submit_insert(edges[:300]).wait(10)
            svc.checkpoint()
            svc.submit_insert(edges[300:500]).wait(10)
            svc.checkpoint()
        newest = list_checkpoints(tmp_path)[-1]
        newest.write_bytes(b"garbage")
        result = recover(tmp_path)
        assert result.checkpoint_seq == 1
        ref = GraphTinker()
        ref.insert_batch(edges[:500])
        assert edge_set(result.store) == edge_set(ref)

    def test_auto_checkpoint_every(self, tmp_path, edges):
        with GraphService(tmp_path, flush_interval=0.005,
                          checkpoint_every=2) as svc:
            for i in range(0, 1200, 200):
                svc.submit_insert(edges[i:i + 200]).wait(10)
        assert len(list_checkpoints(tmp_path)) >= 1

    def test_checkpoint_embeds_cursor_and_config(self, tmp_path, edges):
        config = GTConfig(pagewidth=16, subblock=4, workblock=2)
        with GraphService(tmp_path, config=config,
                          flush_interval=0.005) as svc:
            svc.submit_insert(edges[:200]).wait(10)
            path = svc.checkpoint()
        info = load_checkpoint(path)
        assert info.last_seq == 1
        assert info.cum_edges == 200
        assert info.snapshot.writer_config == config
        # Recovery restores under the embedded writer config.
        result = recover(tmp_path)
        assert result.store.config == config

    def test_plain_snapshot_is_not_a_checkpoint(self, tmp_path):
        from repro.workloads.persistence import save_snapshot

        gt = GraphTinker()
        gt.insert_edge(1, 2)
        target = tmp_path / "checkpoint-00000000000000000005.npz"
        save_snapshot(gt, target)  # no WAL cursor in meta
        with pytest.raises(ServiceError, match="no WAL cursor"):
            load_checkpoint(target)
        assert latest_checkpoint(tmp_path) is None

    def test_manager_validates_keep(self, tmp_path):
        with pytest.raises(ServiceError):
            CheckpointManager(tmp_path, keep=0)
