"""Sharded fault injection: worker kills, targeted replay, WAL retries.

The sharded service's failure story has three legs, each pinned here:

* a ``kill -9``-ed shard worker surfaces as the *typed*
  :class:`~repro.errors.ShardCrashError` (a :class:`ServiceError`) at
  the next store operation that touches the dead pipe — never a hang,
  never a bare ``EOFError``;
* recovery of a crashed sharded service replays **only the crashed
  shard's WAL tail** — the surviving shards' chains are fully covered by
  the checkpoint cursors — and the recovered digest equals the durable
  (uncrashed) prefix of the input stream, bit-for-bit;
* a :class:`~repro.service.wal.WriteAheadLog` with shard chains survives
  the service's verbatim append retry after a transient ``OSError``:
  shards that already landed their sub-record are skipped, so retries
  never duplicate rows (the resume-token mechanism).
"""

from __future__ import annotations

import os
import signal
import zipfile

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import ShardedConfig
from repro.core.graphtinker import GraphTinker
from repro.core.hashing import partition_of_array
from repro.core.sharded import ShardedStore
from repro.core.store import store_digest
from repro.errors import ReproError, ServiceError, ShardCrashError
from repro.service import (
    GraphService,
    SimulatedCrash,
    list_checkpoints,
    load_checkpoint,
    recover,
)
from repro.service import checkpoint as checkpoint_mod
from repro.service.wal import (
    OP_INSERT,
    WriteAheadLog,
    chain_prefix,
    checkpoint_cursors,
    iter_records,
    list_segments,
    segment_first_seq,
    shard_prefix,
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


# --------------------------------------------------------------------- #
# service crash + recovery: only the crashed shard's tail replays
# --------------------------------------------------------------------- #
def test_recovery_replays_only_crashed_shards_tail(tmp_path):
    edges = rmat_edges(8, 2400, seed=11)
    service, rec = GraphService.open(tmp_path, config=CFG,
                                     flush_interval=0.002)
    for start in range(0, edges.shape[0], BATCH):
        service.submit_insert(edges[start:start + BATCH]).wait(30)
    service.checkpoint()  # every shard's cursor now covers phase A

    # Phase B routes exclusively to the victim shard's vertices, so the
    # victim's chain is the only one with records past its cursor.
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
        assert rec2.n_shards == N_SHARDS
        # Only the victim's tail replayed: phase-B appends plus the
        # killed append (durable in the WAL, never applied).
        assert rec2.replayed_records == n_b + 1
        assert list_segments(tmp_path, prefix=shard_prefix(victim))
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
# sharded WAL append retry: the resume token prevents duplication
# --------------------------------------------------------------------- #
def test_sharded_wal_retry_skips_landed_shards(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path, n_shards=N_SHARDS, seed=SEED)
    edges = rmat_edges(7, 300, seed=9)
    shard_ids = partition_of_array(edges[:, 0], N_SHARDS, SEED)
    touched = sorted(set(shard_ids.tolist()))
    assert len(touched) == N_SHARDS, "stream must touch every shard"

    # First shard lands its sub-record, then the disk 'fails' once.
    real_append = type(wal.shards[1]).append
    fails = {"left": 1}

    def flaky(self, *args, **kwargs):
        if self.prefix == shard_prefix(1) and fails["left"]:
            fails["left"] -= 1
            raise OSError("injected transient append failure")
        return real_append(self, *args, **kwargs)

    monkeypatch.setattr(type(wal.shards[1]), "append", flaky)
    with pytest.raises(OSError):
        wal.append(OP_INSERT, edges)
    assert wal.shards[0].last_seq == 1          # landed before the fault
    assert wal.shards[1].last_seq == 0          # the faulted shard
    # The service retries the identical append verbatim: already-landed
    # shards are skipped, the rest complete, no row is duplicated.
    seq = wal.append(OP_INSERT, edges)
    assert [log.last_seq for log in wal.shards] == [1, 1, 1]
    assert seq == wal.last_seq == 3
    assert wal.cum_edges == edges.shape[0]
    wal.close()

    for k in touched:
        rows = sum(
            rec.edges.shape[0]
            for rec in iter_records(tmp_path, prefix=shard_prefix(k)))
        assert rows == int((shard_ids == k).sum()), f"shard {k} rows"


def test_sharded_wal_different_batch_does_not_resume(tmp_path, monkeypatch):
    """The resume token is per-batch: a *different* append after a fault
    must not skip shards that the faulted batch had landed."""
    wal = WriteAheadLog(tmp_path, n_shards=N_SHARDS, seed=SEED)
    a = rmat_edges(7, 300, seed=9)
    b = rmat_edges(7, 300, seed=10)

    real_append = type(wal.shards[1]).append
    fails = {"left": 1}

    def flaky(self, *args, **kwargs):
        if self.prefix == shard_prefix(1) and fails["left"]:
            fails["left"] -= 1
            raise OSError("injected transient append failure")
        return real_append(self, *args, **kwargs)

    monkeypatch.setattr(type(wal.shards[1]), "append", flaky)
    with pytest.raises(OSError):
        wal.append(OP_INSERT, a)
    wal.append(OP_INSERT, b)  # different batch: full routing, no skips
    b_ids = partition_of_array(b[:, 0], N_SHARDS, SEED)
    for k in range(N_SHARDS):
        expect = int((b_ids == k).sum())
        if k == 0:  # shard 0 also carries batch a's landed sub-record
            a_ids = partition_of_array(a[:, 0], N_SHARDS, SEED)
            expect += int((a_ids == 0).sum())
        rows = sum(
            rec.edges.shape[0]
            for rec in iter_records(tmp_path, prefix=shard_prefix(k)))
        assert rows == expect, f"shard {k}"
    wal.close()


# --------------------------------------------------------------------- #
# one log, K chains: the side of the old plain/sharded fork nothing pinned
# --------------------------------------------------------------------- #
def _feed(service, edges, lo, hi):
    for start in range(lo, hi, BATCH):
        service.submit_insert(edges[start:start + BATCH]).wait(30)


def _first_seqs(directory, n_shards):
    """First retained sequence of every chain (None for an empty chain)."""
    out = []
    for chain in range(n_shards + 1):
        segments = list_segments(directory, prefix=chain_prefix(chain))
        out.append(segment_first_seq(segments[0]) if segments else None)
    return out


def test_torn_shard_chain_tail_is_reported(tmp_path):
    """Recovery truncates a torn tail in *any* chain — and says so."""
    cfg = ShardedConfig(n_shards=2, seed=SEED)
    service, rec = GraphService.open(tmp_path, config=cfg,
                                     flush_interval=0.002)
    _feed(service, rmat_edges(8, 800, seed=41), 0, 800)
    service.close()
    rec.store.close()
    assert list_segments(tmp_path) == []  # never plain: no base chain
    victim = list_segments(tmp_path, prefix=shard_prefix(1))[-1]
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
    """The base chain is the zero-shard log: reopening a plain directory
    with shards keeps its checkpoint and tail, appends to shard chains,
    and prunes every chain — no migration step anywhere."""
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
    assert (rec.n_shards, rec.last_seq) == (N_SHARDS, plain_seq)
    assert rec.replayed_seqs == list(range(rec.checkpoint_seq + 1,
                                           plain_seq + 1))
    _feed(service, edges, 1400, 2200)
    service.checkpoint()
    _feed(service, edges, 2200, 3000)
    service.checkpoint()
    cursor = service._wal.cursor
    assert cursor[0] == plain_seq and all(cursor[1:])
    assert service.applied_seq == sum(cursor)
    last_seq, cum = service.applied_seq, service.cum_input_edges
    service.close()
    rec.store.close()
    # keep=1: only the sharded checkpoint survives, so every chain is
    # pruned down to the segment holding its cursor.
    assert len(list_segments(tmp_path)) == 1
    firsts = _first_seqs(tmp_path, N_SHARDS)
    assert any(first > 1 for first in firsts[1:]), firsts

    rec2 = recover(tmp_path, config=CFG)
    try:
        assert (rec2.last_seq, rec2.cum_edges) == (last_seq, cum)
        assert cum == edges.shape[0]
        assert store_digest(rec2.store) == _digest_of_prefix(edges)
    finally:
        rec2.store.close()


@pytest.mark.parametrize("damage", ["delete", "garbage", "truncate"])
def test_sharded_rotate_prune_and_checkpoint_fallback(tmp_path, damage):
    """With ``keep=2`` the chains are pruned only up to the *older*
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
    older_seqs, _ = checkpoint_cursors(load_checkpoint(older).snapshot.meta)
    firsts = _first_seqs(tmp_path, N_SHARDS)
    assert any(first > 1 for first in firsts[1:]), firsts
    assert all(first <= cur + 1
               for first, cur in zip(firsts[1:], older_seqs[1:]))

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
    every shard count recovers the same graph, and the scalar cursor is
    always the sum of the chain cursors."""
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
        assert rec2.n_shards == n_shards
        # The killed record is durable: it is part of what recovers.
        assert store_digest(rec2.store) == _reference_digest(
            ops[:kill_at + 1])
        with WriteAheadLog(tmp_path, n_shards=n_shards, seed=SEED) as wal:
            assert len(wal.cursor) == n_shards + 1
            assert rec2.last_seq == wal.last_seq == sum(wal.cursor)
            assert rec2.cum_edges == wal.cum_edges == sum(
                rows.shape[0] for _, rows in ops[:kill_at + 1])
    finally:
        if n_shards:
            rec2.store.close()


# --------------------------------------------------------------------- #
# pruning reads cursors, not graphs
# --------------------------------------------------------------------- #
def _break_arrays(path):
    """Rewrite a checkpoint so its edge arrays are junk, header intact."""
    with zipfile.ZipFile(path) as src:
        members = {name: src.read(name) for name in src.namelist()}
    with zipfile.ZipFile(path, "w") as dst:
        for name, data in members.items():
            junk = name.removesuffix(".npy") in ("src", "dst", "weight")
            dst.writestr(name, b"junk" if junk else data)


def test_prune_reads_the_oldest_survivors_header_only(tmp_path):
    edges = rmat_edges(8, 2400, seed=37)
    service, rec = GraphService.open(
        tmp_path, config=CFG, flush_interval=0.002, segment_bytes=2048,
        checkpoint_keep=2)
    try:
        _feed(service, edges, 0, 600)
        service.checkpoint()
        _feed(service, edges, 600, 1400)
        damaged = service.checkpoint()  # chains pruned up to the first one
        _break_arrays(damaged)
        with pytest.raises(ServiceError):
            load_checkpoint(damaged)
        before = _first_seqs(tmp_path, N_SHARDS)
        _feed(service, edges, 1400, 2400)
        service.checkpoint()  # survivors: the damaged one and this one
        # The damaged survivor's header still bounds the prune.
        after = _first_seqs(tmp_path, N_SHARDS)
        assert all(b < a for b, a in zip(before[1:], after[1:])), \
            (before, after)
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
