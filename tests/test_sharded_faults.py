"""Sharded fault injection: worker kills, targeted replay, WAL retries.

The sharded service's failure story has three legs, each pinned here:

* a ``kill -9``-ed shard worker surfaces as the *typed*
  :class:`~repro.errors.ShardCrashError` (a :class:`ServiceError`) at
  the next store operation that touches the dead pipe — never a hang,
  never a bare ``EOFError``;
* recovery of a crashed sharded service replays only the one log's
  tail past the checkpoint, and the recovered digest equals the durable
  (uncrashed) prefix of the input stream, bit-for-bit — under the shard
  count that wrote the directory or any other;
* a sharded batch is one WAL record, so an append that fails with a
  transient ``OSError`` lands nothing: the service's verbatim retry, or
  a different batch, logs exactly its own rows.
"""

from __future__ import annotations

import os
import shutil
import signal
import threading
import time

import numpy as np
import pytest

import repro.obs as obs
from repro.core import sharded as sharded_mod
from repro.core.config import GTConfig, ShardedConfig
from repro.core.graphtinker import GraphTinker
from repro.core.hashing import partition_of_array
from repro.core.sharded import ShardedStore
from repro.core.store import store_digest
from repro.errors import ReproError, ServiceError, ShardCrashError
from repro.service import (
    FaultInjector,
    GraphService,
    SimulatedCrash,
    TransientFaultInjector,
    list_checkpoints,
    load_checkpoint,
    recover,
)
from repro.service import checkpoint as checkpoint_mod
from repro.service.wal import (
    OP_INSERT,
    WriteAheadLog,
    iter_records,
    list_segments,
    segment_first_seq,
)
from repro.workloads import rmat_edges

N_SHARDS = 3
SEED = 7
CFG = ShardedConfig(n_shards=N_SHARDS, seed=SEED)
BATCH = 200


@pytest.fixture
def store():
    s = ShardedStore(CFG)
    yield s
    s.close()


def _digest_of_prefix(edges: np.ndarray) -> dict:
    ref = GraphTinker()
    if edges.shape[0]:
        ref.insert_batch(edges)
    return store_digest(ref)


# --------------------------------------------------------------------- #
# kill -9 a worker: typed error, no hang
# --------------------------------------------------------------------- #
def test_killed_worker_raises_typed_error(store):
    assert issubclass(ShardCrashError, ServiceError)
    edges = rmat_edges(7, 600, seed=3)
    store.insert_batch(edges)
    victim = 1
    os.kill(store.worker_pids[victim], signal.SIGKILL)
    with pytest.raises(ShardCrashError):
        store.insert_batch(rmat_edges(7, 600, seed=4))
    # Subsequent operations against the dead shard stay typed too.
    hit_victim = next(v for v in range(200) if store._shard_of(v) == victim)
    with pytest.raises(ShardCrashError):
        store.neighbors(hit_victim)
    # close() on a store with a dead worker must not raise.
    store.close()


def test_killed_worker_poisons_the_whole_store(store):
    """A crash mid-scatter leaves surviving shards' replies unread and
    the parent caches stale, so the store must fail *every* later
    operation with the same typed error — even ones routed to healthy
    shards — instead of serving desynced state."""
    edges = rmat_edges(7, 600, seed=5)
    store.insert_batch(edges)
    victim = 0
    os.kill(store.worker_pids[victim], signal.SIGKILL)
    with pytest.raises(ShardCrashError, match=r"shard 0"):
        store.insert_batch(edges)
    survivor_src = next(
        int(v) for v in np.unique(edges[:, 0])
        if store._shard_of(int(v)) != victim)
    with pytest.raises(ShardCrashError, match=r"shard 0"):
        store.neighbors(survivor_src)
    with pytest.raises(ShardCrashError, match=r"shard 0"):
        store.insert_edge(survivor_src, 1)
    # The uncharged parent-local degree cache still answers (reads no
    # pipe), and close() remains clean.
    assert store.degree(survivor_src) >= 0


def test_stopped_worker_fails_in_bounded_time(store, monkeypatch):
    """A worker that never answers (SIGSTOP) is a crash once the reply
    deadline passes, not a hang."""
    store.insert_batch(rmat_edges(7, 600, seed=6))
    victim = 2
    pid = store.worker_pids[victim]
    monkeypatch.setattr(sharded_mod, "SHARD_REPLY_TIMEOUT_S", 0.5)
    os.kill(pid, signal.SIGSTOP)
    try:
        src = next(v for v in range(200) if store._shard_of(v) == victim)
        t0 = time.monotonic()
        with pytest.raises(ShardCrashError, match=r"shard 2.*no reply"):
            store.insert_edge(src, 1)
        assert 0.5 <= time.monotonic() - t0 < 5.0
        with pytest.raises(ShardCrashError, match=r"shard 2"):
            store.neighbors(src)
    finally:
        os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("call", ["insert_batch", "edge_arrays", "repair",
                                  "neighbors_many", "delete_vertex"])
def test_slow_bulk_call_outlives_the_reply_deadline(store, monkeypatch, call):
    """Calls whose run time grows with the data (batches, exports, repair,
    row walks) wait for a slow worker past the one-edge reply deadline."""
    edges = rmat_edges(7, 600, seed=6)
    victim = 2
    src = next(v for v in edges[:, 0].tolist() if store._shard_of(v) == victim)
    ref = GraphTinker()
    ref.insert_batch(edges)
    if call != "insert_batch":
        store.insert_batch(edges)
    if call == "delete_vertex":
        ref.delete_vertex(src)
    run = {
        "insert_batch": lambda: store.insert_batch(edges),
        "edge_arrays": store.edge_arrays,
        "repair": lambda: store.fsck(repair=True),
        "neighbors_many": lambda: store.neighbors_many(
            np.arange(store.n_vertices)),
        "delete_vertex": lambda: store.delete_vertex(src),
    }[call]
    pid = store.worker_pids[victim]
    monkeypatch.setattr(sharded_mod, "SHARD_REPLY_TIMEOUT_S", 0.1)
    os.kill(pid, signal.SIGSTOP)
    resume = threading.Timer(0.6, os.kill, (pid, signal.SIGCONT))
    resume.start()
    try:
        t0 = time.monotonic()
        run()
        assert time.monotonic() - t0 >= 0.5
    finally:
        resume.cancel()
        os.kill(pid, signal.SIGCONT)
    assert store_digest(store) == store_digest(ref)


# --------------------------------------------------------------------- #
# service crash + recovery: only the tail past the checkpoint replays
# --------------------------------------------------------------------- #
def test_recovery_replays_only_crashed_shards_tail(tmp_path):
    edges = rmat_edges(8, 2400, seed=11)
    service, rec = GraphService.open(tmp_path, config=CFG,
                                     flush_interval=0.002)
    for start in range(0, edges.shape[0], BATCH):
        service.submit_insert(edges[start:start + BATCH]).wait(30)
    service.checkpoint()  # covers phase A
    ckpt_seq = service.applied_seq

    # Phase B routes exclusively to the victim shard's vertices.
    victim = 2
    more = rmat_edges(8, 1200, seed=12)
    owned = more[partition_of_array(
        more[:, 0], N_SHARDS, SEED) == victim]
    assert owned.shape[0] >= 100, "stream never touched the victim shard"
    n_b = 0
    for start in range(0, owned.shape[0], 100):
        service.submit_insert(owned[start:start + 100]).wait(30)
        n_b += 1

    os.kill(rec.store.worker_pids[victim], signal.SIGKILL)
    with pytest.raises(ReproError):
        # WAL append lands (durable), then the store apply hits the dead
        # pipe and stops the flusher.
        service.submit_insert(owned[:50]).wait(30)
    assert isinstance(service.fatal_error, ShardCrashError)
    service.close()
    rec.store.close()

    rec2 = recover(tmp_path, config=CFG)
    try:
        # Only the tail past the checkpoint replayed: phase-B appends
        # plus the killed append (durable in the WAL, never applied).
        assert rec2.replayed_records == n_b + 1
        assert rec2.replayed_seqs == list(range(ckpt_seq + 1,
                                                ckpt_seq + n_b + 2))
        assert rec2.last_seq == ckpt_seq + n_b + 1
        assert list_segments(tmp_path)
        assert not list(tmp_path.glob("wal-shard*"))
        # Digest equals the durable prefix: A + B + the killed batch.
        durable = np.vstack([edges, owned, owned[:50]])
        assert store_digest(rec2.store) == _digest_of_prefix(durable)
        assert rec2.fsck is not None and rec2.fsck.ok
    finally:
        rec2.store.close()

    # The recovered directory serves again — and the service can keep
    # appending to every shard.
    service2, rec3 = GraphService.open(tmp_path, config=CFG,
                                       flush_interval=0.002)
    try:
        service2.submit_insert(rmat_edges(8, 300, seed=13)).wait(30)
        assert service2.fatal_error is None
    finally:
        service2.close()
        rec3.store.close()


def test_post_recovery_digest_equals_uncrashed_prefix(tmp_path):
    """Crash with *no* checkpoint: every shard replays its whole chain
    and the result equals exactly the batches whose tickets resolved."""
    edges = rmat_edges(8, 1600, seed=21)
    service, rec = GraphService.open(tmp_path, config=CFG,
                                     flush_interval=0.002)
    durable_rows = 0
    for start in range(0, 1200, BATCH):
        service.submit_insert(edges[start:start + BATCH]).wait(30)
        durable_rows = start + BATCH
    os.kill(rec.store.worker_pids[0], signal.SIGKILL)
    with pytest.raises(ReproError):
        service.submit_insert(edges[1200:1400]).wait(30)
    service.close()
    rec.store.close()

    rec2 = recover(tmp_path, config=CFG)
    try:
        # The killed batch's WAL append preceded the failed apply, so the
        # durable prefix is every waited batch plus that one record.
        assert rec2.cum_edges == durable_rows + 200
        assert store_digest(rec2.store) == \
            _digest_of_prefix(edges[:rec2.cum_edges])
    finally:
        rec2.store.close()


# --------------------------------------------------------------------- #
# a sharded batch is one record: a failed append lands nothing
# --------------------------------------------------------------------- #
def test_sharded_wal_retry_skips_landed_shards(tmp_path):
    """The service's verbatim retry after a transient ``OSError`` logs
    every row of a batch that spans all shards exactly once."""
    edges = rmat_edges(7, 300, seed=9)
    shard_ids = partition_of_array(edges[:, 0], N_SHARDS, SEED)
    assert len(set(shard_ids.tolist())) == N_SHARDS, \
        "stream must touch every shard"
    injector = TransientFaultInjector(fail_every=1, fail_times=1)
    service = GraphService(tmp_path, config=CFG, max_retries=2,
                           injector=injector)
    try:
        assert service.submit_insert(edges).wait(30) == 1
        assert injector.injected == 1
        assert store_digest(service._store) == _digest_of_prefix(edges)
    finally:
        service.close()
        service._store.close()
    (record,) = iter_records(tmp_path)
    np.testing.assert_array_equal(record.edges, edges)
    assert record.cum_edges == edges.shape[0]


def test_sharded_wal_different_batch_does_not_resume(tmp_path):
    """A different append after a failed one logs only its own rows:
    nothing of the failed batch landed to be resumed."""
    a = rmat_edges(7, 300, seed=9)
    b = rmat_edges(7, 300, seed=10)
    with WriteAheadLog(tmp_path, injector=TransientFaultInjector(
            fail_every=1, fail_times=1)) as wal:
        with pytest.raises(OSError):
            wal.append(OP_INSERT, a)
        assert (wal.last_seq, wal.cum_edges) == (0, 0)
        assert wal.append(OP_INSERT, b) == 1
    (record,) = iter_records(tmp_path)
    np.testing.assert_array_equal(record.edges, b)
    assert record.cum_edges == b.shape[0]


# --------------------------------------------------------------------- #
# one log whatever the shard count
# --------------------------------------------------------------------- #
def _feed(service, edges, lo, hi):
    for start in range(lo, hi, BATCH):
        service.submit_insert(edges[start:start + BATCH]).wait(30)


def _first_seq(directory):
    """First retained sequence of the log."""
    return segment_first_seq(list_segments(directory)[0])


def test_torn_shard_chain_tail_is_reported(tmp_path):
    """Recovery truncates a sharded service's torn tail — and says so."""
    cfg = ShardedConfig(n_shards=2, seed=SEED)
    service, rec = GraphService.open(tmp_path, config=cfg,
                                     flush_interval=0.002)
    _feed(service, rmat_edges(8, 800, seed=41), 0, 800)
    service.close()
    rec.store.close()
    assert not list(tmp_path.glob("wal-shard*"))
    victim = list_segments(tmp_path)[-1]
    victim.write_bytes(victim.read_bytes()[:-7])

    registry = obs.MetricsRegistry()
    prior = obs.set_registry(registry)
    try:
        with obs.enabled_scope(True):
            rec2 = recover(tmp_path, config=cfg)
    finally:
        obs.set_registry(prior)
    try:
        assert rec2.torn_offset is not None
        assert victim.stat().st_size == rec2.torn_offset
        assert rec2.blackbox["torn_truncated"] is True
        assert registry.counter(
            "service.recovery.torn_truncated").value == 1
    finally:
        rec2.store.close()
    rec3 = recover(tmp_path, config=cfg)  # idempotent: now clean
    assert rec3.torn_offset is None
    rec3.store.close()


def test_plain_directory_flips_to_sharded(tmp_path):
    """The log is the same for every store: reopening a plain directory
    with shards keeps its checkpoint and tail, appends to the same chain
    and prunes it — no migration step anywhere."""
    edges = rmat_edges(8, 3000, seed=31)
    service, _ = GraphService.open(tmp_path, flush_interval=0.002,
                                   segment_bytes=2048)
    _feed(service, edges, 0, 1000)
    service.checkpoint()
    _feed(service, edges, 1000, 1400)  # a plain tail past the checkpoint
    plain_seq = service.applied_seq
    service.close()
    assert len(list_segments(tmp_path)) > 1

    service, rec = GraphService.open(
        tmp_path, config=CFG, flush_interval=0.002, segment_bytes=2048,
        checkpoint_keep=1)
    assert rec.last_seq == plain_seq
    assert rec.replayed_seqs == list(range(rec.checkpoint_seq + 1,
                                           plain_seq + 1))
    _feed(service, edges, 1400, 2200)
    service.checkpoint()
    _feed(service, edges, 2200, 3000)
    service.checkpoint()
    assert service.applied_seq == service._wal.last_seq > plain_seq
    last_seq, cum = service.applied_seq, service.cum_input_edges
    service.close()
    rec.store.close()
    # keep=1: only the sharded checkpoint survives, so the log is
    # pruned down to the segment holding its cursor.
    (segment,) = list_segments(tmp_path)
    assert plain_seq < segment_first_seq(segment) <= last_seq
    assert not list(tmp_path.glob("wal-shard*"))

    rec2 = recover(tmp_path, config=CFG)
    try:
        assert (rec2.last_seq, rec2.cum_edges) == (last_seq, cum)
        assert cum == edges.shape[0]
        assert store_digest(rec2.store) == _digest_of_prefix(edges)
    finally:
        rec2.store.close()


@pytest.mark.parametrize("damage", ["delete", "garbage", "truncate"])
def test_sharded_rotate_prune_and_checkpoint_fallback(tmp_path, damage):
    """With ``keep=2`` the log is pruned only up to the *older*
    surviving checkpoint, so losing the newest one still recovers."""
    edges = rmat_edges(8, 3000, seed=33)
    service, rec = GraphService.open(
        tmp_path, config=CFG, flush_interval=0.002, segment_bytes=2048,
        checkpoint_keep=2)
    _feed(service, edges, 0, 800)
    service.checkpoint()
    _feed(service, edges, 800, 1600)
    older = service.checkpoint()
    _feed(service, edges, 1600, 2400)
    newest = service.checkpoint()
    _feed(service, edges, 2400, 3000)
    assert service._wal.n_rotations > 0
    last_seq = service.applied_seq
    service.close()
    rec.store.close()
    assert list_checkpoints(tmp_path) == [older, newest]
    # Pruned behind the older survivor — and not a record further.
    older_seq = load_checkpoint(older).last_seq
    assert 1 < _first_seq(tmp_path) <= older_seq + 1

    if damage == "delete":
        newest.unlink()
    elif damage == "garbage":
        newest.write_bytes(b"garbage")
    else:
        newest.write_bytes(newest.read_bytes()[:-40])
    rec2 = recover(tmp_path, config=CFG)
    try:
        assert rec2.checkpoint_path == older
        assert rec2.last_seq == last_seq
        assert store_digest(rec2.store) == _digest_of_prefix(edges)
    finally:
        rec2.store.close()


def _reference_digest(ops) -> dict:
    ref = GraphTinker()
    for kind, rows in ops:
        (ref.insert_batch if kind == "insert" else ref.delete_batch)(rows)
    return store_digest(ref)


@pytest.mark.parametrize("n_shards", [0, 1, 3])
def test_shard_count_does_not_change_what_recovers(tmp_path, n_shards):
    """One seeded op stream, killed between a WAL append and its apply:
    every shard count recovers the same graph from the same log, one
    record per flush."""
    edges = rmat_edges(8, 2400, seed=35)
    ops = []
    for i, start in enumerate(range(0, 2400, BATCH)):
        ops.append(("insert", edges[start:start + BATCH]))
        if i % 3 == 2:
            ops.append(("delete", edges[start:start + 40]))
    config = ShardedConfig(n_shards=n_shards, seed=SEED) if n_shards else None
    service, rec = GraphService.open(tmp_path, config=config,
                                     flush_interval=0.002,
                                     segment_bytes=4096)
    kill_at = len(ops) - 2
    for i, (kind, rows) in enumerate(ops[:kill_at]):
        submit = (service.submit_insert if kind == "insert"
                  else service.submit_delete)
        submit(rows).wait(30)
        if i == 5:
            service.checkpoint()

    def killed(*args, **kwargs):
        raise SimulatedCrash("killed between WAL append and store apply")

    rec.store.insert_batch = rec.store.delete_batch = killed
    kind, rows = ops[kill_at]
    with pytest.raises(ReproError):
        (service.submit_insert if kind == "insert"
         else service.submit_delete)(rows).wait(30)
    service.close()
    if n_shards:
        rec.store.close()

    rec2 = recover(tmp_path, config=config)
    try:
        # The killed record is durable: it is part of what recovers.
        assert store_digest(rec2.store) == _reference_digest(
            ops[:kill_at + 1])
        with WriteAheadLog(tmp_path) as wal:
            assert rec2.last_seq == wal.last_seq == kill_at + 1
            assert rec2.cum_edges == wal.cum_edges == sum(
                rows.shape[0] for _, rows in ops[:kill_at + 1])
    finally:
        if n_shards:
            rec2.store.close()


@pytest.mark.parametrize("resume_shards", [0, 3])
def test_killed_directory_resumes_under_another_shard_count(tmp_path,
                                                            resume_shards):
    """A 2-shard directory killed mid-stream resumes with 3 shards, or
    with none, and reaches the clean run's digest."""
    edges = rmat_edges(8, 2400, seed=43)
    cfg = ShardedConfig(n_shards=2, seed=SEED)
    service, rec = GraphService.open(
        tmp_path / "d", config=cfg, checkpoint_every=4,
        injector=FaultInjector(30_000))
    try:
        with pytest.raises(ReproError):
            _feed(service, edges, 0, edges.shape[0])
        assert isinstance(service.fatal_error, SimulatedCrash)
    finally:
        service.close()
        rec.store.close()
    assert list_checkpoints(tmp_path / "d")

    config = (ShardedConfig(n_shards=resume_shards, seed=SEED)
              if resume_shards else GTConfig())
    service, rec = GraphService.open(tmp_path / "d", config=config)
    try:
        assert 0 < rec.cum_edges < edges.shape[0]
        _feed(service, edges, rec.cum_edges, edges.shape[0])
        assert service.cum_input_edges == edges.shape[0]
        assert store_digest(service._store) == _digest_of_prefix(edges)
    finally:
        service.close()
        if resume_shards:
            rec.store.close()
    shutil.copytree(tmp_path / "d", tmp_path / "copy")
    rec2 = recover(tmp_path / "copy", config=config)
    try:
        assert store_digest(rec2.store) == _digest_of_prefix(edges)
        assert rec2.fsck.ok
    finally:
        if resume_shards:
            rec2.store.close()


# --------------------------------------------------------------------- #
# pruning reads cursors from file names, not graphs
# --------------------------------------------------------------------- #
def test_prune_reads_the_oldest_survivors_header_only(tmp_path):
    """The oldest survivor's cursor is in its file name, so it bounds the
    prune even when the file itself is damaged."""
    edges = rmat_edges(8, 2400, seed=37)
    service, rec = GraphService.open(
        tmp_path, config=CFG, flush_interval=0.002, segment_bytes=2048,
        checkpoint_keep=2)
    try:
        _feed(service, edges, 0, 600)
        service.checkpoint()
        _feed(service, edges, 600, 1400)
        damaged = service.checkpoint()  # log pruned up to the first one
        damaged_seq = service.applied_seq
        damaged.write_bytes(b"garbage")
        with pytest.raises(ServiceError):
            load_checkpoint(damaged)
        before = _first_seq(tmp_path)
        _feed(service, edges, 1400, 2400)
        service.checkpoint()  # survivors: the damaged one and this one
        assert before < _first_seq(tmp_path) <= damaged_seq + 1
    finally:
        service.close()
        rec.store.close()


def test_plain_checkpoint_never_loads_a_snapshot_to_prune(tmp_path,
                                                          monkeypatch):
    def loaded(path):
        raise AssertionError(f"prune materialised {path}")

    monkeypatch.setattr(checkpoint_mod, "read_snapshot", loaded)
    edges = rmat_edges(8, 1200, seed=39)
    with GraphService(tmp_path, flush_interval=0.002, segment_bytes=2048,
                      checkpoint_keep=2) as service:
        for lo in range(0, 1200, 400):
            _feed(service, edges, lo, lo + 400)
            service.checkpoint()
    assert len(list_checkpoints(tmp_path)) == 2
    assert segment_first_seq(list_segments(tmp_path)[0]) > 1
