"""A failed flush never leaves the service's log ahead of its store.

The flusher commits WAL-first, one record per flush, so a flush can fail
after its record reached the log (its sync or apply failed).  The writer
may keep serving (the circuit breaker counts the failure) only if the
record was not logged; otherwise it stops as a crash would, and
reopening the directory replays what the log holds.  Either way the live
store equals what its own directory recovers.
"""

import shutil

import numpy as np
import pytest

from repro.core.config import ShardedConfig
from repro.core.hashing import partition_of_array
from repro.core.store import store_digest
from repro.errors import ReproError, ServiceError
from repro.service import (
    CheckpointManager,
    GraphService,
    TransientFaultInjector,
    recover,
)
from repro.workloads import rmat_edges


def recovered_digest(directory, scratch):
    """Digest of what ``directory`` recovers, read from a copy of it."""
    shutil.copytree(directory, scratch)
    return store_digest(recover(scratch, verify=None).store)


def lingering_service(directory, **kwargs):
    """A service that flushes only on ``flush_now``: one flush per call."""
    return GraphService(directory, batch_edges=10_000, flush_interval=60,
                        breaker_threshold=5, **kwargs)


def test_failed_delete_run_fails_only_its_own_ticket(tmp_path):
    """An insert then a delete queued together are two flushes, one
    record each: the delete's append failing (record 2, once) fails the
    delete's ticket alone, and the writer serves on equal to its log."""
    svc = lingering_service(
        tmp_path / "d", injector=TransientFaultInjector(fail_every=2,
                                                        fail_times=1))
    try:
        first = svc.submit_insert(np.array([[0, 1], [0, 2]]))
        second = svc.submit_delete(np.array([[0, 1]]))
        svc.flush_now(timeout=10)
        assert first.wait(10) == 1
        with pytest.raises(OSError):
            second.wait(10)
        assert svc.fatal_error is None
        assert store_digest(svc._store) == recovered_digest(
            tmp_path / "d", tmp_path / "copy")
        retried = svc.submit_delete(np.array([[0, 1]]))
        svc.flush_now(timeout=10)
        assert retried.wait(10) == 2
    finally:
        svc.close()
    svc, result = GraphService.open(tmp_path / "d")
    with svc:
        assert result.last_seq == 2
        assert svc.n_edges == 1


def test_failed_sync_after_appends_stops_the_writer(tmp_path, monkeypatch):
    svc = lingering_service(tmp_path / "d")
    try:
        def broken_sync():
            raise OSError("injected fsync failure")

        monkeypatch.setattr(svc._wal, "sync", broken_sync)
        ticket = svc.submit_insert(np.array([[0, 1]]))
        with pytest.raises(ServiceError):
            svc.flush_now(timeout=10)
        with pytest.raises(OSError):
            ticket.wait(10)
        assert svc.fatal_error is not None
        assert svc.health()["breaker"]["consecutive_failures"] == 0
    finally:
        monkeypatch.undo()
        svc.close()
    result = recover(tmp_path / "d")
    assert result.store.n_edges == 1


def test_sharded_append_given_up_lands_nothing(tmp_path):
    """A sharded batch is one record: an append given up after a
    transient fault lands none of its rows, so the writer serves on and
    still equals what its directory recovers."""
    cfg = ShardedConfig(n_shards=2, seed=7)
    edges = rmat_edges(7, 400, seed=3)
    owner = partition_of_array(edges[:, 0], 2, 7)
    assert set(owner[:100].tolist()) == {0, 1}
    svc = lingering_service(
        tmp_path / "d", config=cfg,
        injector=TransientFaultInjector(fail_every=2, fail_times=1))
    try:
        svc.submit_insert(edges[owner == 1][:10])
        svc.flush_now(timeout=30)
        failed = svc.submit_insert(edges[:100])   # record 2 fails once
        svc.flush_now(timeout=30)
        with pytest.raises(OSError):
            failed.wait(10)
        assert svc.fatal_error is None
        assert svc._wal.last_seq == svc.applied_seq == 1
        served = svc.submit_insert(edges[100:200])
        svc.flush_now(timeout=30)
        assert served.wait(10) == 2
        live = store_digest(svc._store)
        assert live == recovered_digest(tmp_path / "d", tmp_path / "copy")
    finally:
        svc.close()
        svc._store.close()
    result = recover(tmp_path / "d", config=cfg)
    try:
        assert result.last_seq == 2
        assert store_digest(result.store) == live
        assert result.store.n_edges == svc.n_edges
    finally:
        result.store.close()


def test_failed_auto_checkpoint_keeps_durable_tickets(tmp_path, monkeypatch):
    """The automatic checkpoint runs after the flush's tickets resolved
    durable; its failure must not turn them into errors."""
    def broken_write(self, *args, **kwargs):
        raise OSError("injected checkpoint failure")

    monkeypatch.setattr(CheckpointManager, "write", broken_write)
    svc = GraphService(tmp_path / "d", checkpoint_every=1,
                       breaker_threshold=5)
    try:
        ticket = svc.submit_insert(np.array([[0, 1]]))
        svc.flush_now(timeout=10)
        assert ticket.wait(10) == 1
        assert ticket.error is None
        assert svc.has_edge(0, 1)
        assert svc.fatal_error is None
    finally:
        svc.close()


@pytest.mark.parametrize("seed", range(4))
def test_a_writer_that_serves_on_matches_its_log(tmp_path, seed):
    """Random single- and mixed-op queues under transient faults: after
    every failed flush the writer has either stopped or equals its log."""
    rng = np.random.default_rng(seed)
    pool = rmat_edges(6, 600, seed=seed)
    svc = lingering_service(
        tmp_path / "d", injector=TransientFaultInjector(fail_every=3,
                                                        fail_times=1))
    failed = 0
    try:
        for step in range(12):
            tickets = []
            for _ in range(int(rng.integers(1, 4))):
                rows = pool[rng.integers(0, pool.shape[0], size=20)]
                tickets.append(svc.submit_delete(rows) if rng.random() < 0.3
                               else svc.submit_insert(rows))
            try:
                svc.flush_now(timeout=10)
            except ReproError:
                pass
            if svc.fatal_error is not None:
                break
            if all(ticket.error is None for ticket in tickets):
                continue
            failed += 1
            assert store_digest(svc._store) == recovered_digest(
                tmp_path / "d", tmp_path / f"copy{step}")
    finally:
        svc.close()
    assert failed or svc.fatal_error is not None
    svc, _ = GraphService.open(tmp_path / "d")
    svc.close()
