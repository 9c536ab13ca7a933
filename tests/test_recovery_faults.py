"""Fault-injection tests: randomized writer kills must never lose a
durable batch or invent an undurable one.

The harness mirrors a real deployment loop: a writer streams batches
through :class:`GraphService` (waiting on each ticket, so every
completed batch is WAL-durable), dies at a randomized WAL byte offset,
is recovered, and then finishes the remaining input.  The final edge set
must be bit-identical to an uncrashed run of the same stream.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.core.graphtinker import GraphTinker
from repro.errors import ReproError, ServiceError
from repro.service import (
    CheckpointManager,
    FaultInjector,
    GraphService,
    SimulatedCrash,
    WriteAheadLog,
    list_segments,
    recover,
)
from repro.service.wal import OP_INSERT, SEGMENT_MAGIC
from repro.workloads import rmat_edges

BATCH = 150
N_EDGES = 2400


@pytest.fixture
def edges():
    return rmat_edges(8, N_EDGES, seed=11)


def edge_set(store):
    src, dst, _ = store.analytics_edges()
    return set(zip(src.tolist(), dst.tolist()))


def reference_set(edges):
    ref = GraphTinker()
    ref.insert_batch(edges)
    return edge_set(ref)


def run_until_crash(directory, edges, kill_at, checkpoint_every=0):
    """Stream batches (ticket-synchronous) until the injected kill fires."""
    service, rec = GraphService.open(
        directory, flush_interval=0.002, checkpoint_every=checkpoint_every,
        injector=FaultInjector(kill_at))
    offset = rec.cum_edges
    try:
        for start in range(offset, edges.shape[0], BATCH):
            service.submit_insert(edges[start:start + BATCH]).wait(30)
    except ReproError:
        # Either the ticket re-raised the SimulatedCrash itself or a
        # later submit saw the stopped flusher (ServiceError).
        assert isinstance(service.fatal_error, SimulatedCrash)
        service.close()
        return True
    service.close()
    return False


def finish_stream(directory, edges):
    service, rec = GraphService.open(directory, flush_interval=0.002)
    with service:
        for start in range(rec.cum_edges, edges.shape[0], BATCH):
            service.submit_insert(edges[start:start + BATCH]).wait(30)
        return edge_set(service)


class TestRandomizedKills:
    @pytest.mark.parametrize("kill_seed", range(6))
    def test_kill_recover_resume_matches_uncrashed(self, tmp_path, edges,
                                                   kill_seed):
        rng = np.random.default_rng(kill_seed)
        # Offsets across the whole plausible log (~40 bytes/edge).
        kill_at = int(rng.integers(10, N_EDGES * 40))
        crashed = run_until_crash(tmp_path, edges, kill_at)
        registry = obs.MetricsRegistry()
        prior = obs.set_registry(registry)
        try:
            with obs.enabled_scope(True):
                result = recover(tmp_path)
        finally:
            obs.set_registry(prior)
        # Recovery never replays at or before the checkpoint cursor.
        assert all(s > result.checkpoint_seq for s in result.replayed_seqs)
        assert registry.gauge("service.recovery.checkpoint_seq").value \
            == result.checkpoint_seq
        assert registry.counter("service.recovery.replayed_records").value \
            == result.replayed_records
        # Durable prefix is batch-aligned: ticket-synchronous submission
        # means cum_edges counts whole completed batches.
        assert result.cum_edges % BATCH == 0
        assert edge_set(result.store) == reference_set(edges[:result.cum_edges])
        # Finish the stream: final state identical to an uncrashed run.
        final = finish_stream(tmp_path, edges)
        assert final == reference_set(edges)
        if not crashed:
            assert result.cum_edges == N_EDGES

    def test_kill_with_checkpoints_replays_only_tail(self, tmp_path, edges):
        crashed = run_until_crash(tmp_path, edges, kill_at=30_000,
                                  checkpoint_every=3)
        assert crashed
        registry = obs.MetricsRegistry()
        prior = obs.set_registry(registry)
        try:
            with obs.enabled_scope(True):
                result = recover(tmp_path)
        finally:
            obs.set_registry(prior)
        assert result.checkpoint_seq > 0
        assert all(s > result.checkpoint_seq for s in result.replayed_seqs)
        assert registry.gauge("service.recovery.last_seq").value \
            == result.last_seq
        assert finish_stream(tmp_path, edges) == reference_set(edges)

    def test_kill_inside_a_rotated_segments_magic(self, tmp_path, edges):
        # One record per segment: the second segment's 8-byte magic starts
        # right after the first segment's bytes.  The injector counts the
        # magic too, so a kill 3 bytes into it tears the magic itself.
        clean, _ = GraphService.open(tmp_path / "clean", segment_bytes=256)
        with clean:
            clean.submit_insert(edges[:BATCH]).wait(30)
        (first,) = list_segments(tmp_path / "clean")
        directory = tmp_path / "crash"
        service, _ = GraphService.open(
            directory, segment_bytes=256,
            injector=FaultInjector(first.stat().st_size + 3))
        with service:
            service.submit_insert(edges[:BATCH]).wait(30)
            with pytest.raises(SimulatedCrash):
                service.submit_insert(edges[BATCH:2 * BATCH]).wait(30)
        torn = list_segments(directory)[-1]
        assert torn.read_bytes() == SEGMENT_MAGIC[:3]
        result = recover(directory)
        assert result.torn_offset == 0 and not torn.exists()
        assert result.cum_edges == BATCH
        assert finish_stream(directory, edges) == reference_set(edges)


class TestRecoveryProtocol:
    def test_no_checkpoint_no_wal(self, tmp_path):
        result = recover(tmp_path)
        assert result.store.n_edges == 0
        assert result.last_seq == 0 and result.checkpoint_seq == 0

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ServiceError, match="no such service directory"):
            recover(tmp_path / "nope")

    def test_wal_only_no_checkpoint(self, tmp_path, edges):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(OP_INSERT, edges[:500])
            wal.append(OP_INSERT, edges[500:900])
        result = recover(tmp_path)
        assert result.checkpoint_seq == 0
        assert result.replayed_records == 2
        assert edge_set(result.store) == reference_set(edges[:900])

    def test_double_recovery_is_idempotent(self, tmp_path, edges):
        run_until_crash(tmp_path, edges, kill_at=25_000)
        first = recover(tmp_path)
        second = recover(tmp_path)
        assert edge_set(first.store) == edge_set(second.store)
        assert (first.last_seq, first.cum_edges) \
            == (second.last_seq, second.cum_edges)
        # The first pass truncated the torn tail; the second sees none.
        assert second.torn_offset is None

    def test_checkpoint_wal_gap_raises(self, tmp_path, edges):
        # One record per segment, then lose the one right after the
        # checkpoint cursor: recovery must refuse, not silently diverge.
        store = GraphTinker()
        with WriteAheadLog(tmp_path, segment_bytes=64) as wal:
            for k in range(3):
                batch = edges[k * 100:(k + 1) * 100]
                wal.append(OP_INSERT, batch)
                store.insert_batch(batch)
                if k == 0:
                    CheckpointManager(tmp_path).write(store, 1, 100)
        segments = list_segments(tmp_path)
        segments[1].unlink()  # drop sequence 2 (first post-checkpoint record)
        with pytest.raises(ServiceError, match="gap"):
            recover(tmp_path)

    def test_recover_after_clean_shutdown_checkpoint(self, tmp_path, edges):
        service, _ = GraphService.open(tmp_path, flush_interval=0.002)
        service.submit_insert(edges[:800]).wait(30)
        service.close(checkpoint=True)
        result = recover(tmp_path)
        assert result.replayed_records == 0  # checkpoint covers everything
        assert edge_set(result.store) == reference_set(edges[:800])
