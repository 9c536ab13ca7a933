"""Tests for WAL-shipping replication: apply, recovery, wire ops, failover.

Three layers, bottom-up:

* :class:`~repro.net.replication.ReplicaService` applying shipped
  records to its own durable WAL + store (idempotence, gap detection,
  cursor parity, crash recovery) — no network involved.
* The writer-side replication ops (``subscribe`` / ``wal_batch`` /
  ``replica_status`` / ``resync``) over a real socket.
* The composed :class:`~repro.net.replication.ReplicaServer` and the
  client-side :class:`~repro.net.client.ReplicaSet` (read-your-writes
  floors, failover, staleness metadata).

The convergence oracle throughout is
:func:`~repro.net.protocol.store_digest` — an order-insensitive hash of
the full edge multiset, so "replica equals writer" is exact, not
sampled.  Fault-schedule variants live in ``test_replication_chaos.py``.
"""

import time

import numpy as np
import pytest

from repro.core.config import ShardedConfig
from repro.errors import (
    NotWriterError,
    ReplicationError,
    ServiceError,
    StaleReadError,
    WorkloadError,
)
from repro.net.client import GraphClient, ReplicaSet
from repro.net.protocol import (
    RETRYABLE_CODES,
    store_digest,
    wal_record_from_wire,
    wal_record_to_wire,
)
from repro.net.replication import ReplicaServer, ReplicaService
from repro.net.server import ServerThread
from repro.service import GraphService
from repro.service.wal import OP_DELETE, OP_INSERT, WalRecord, iter_records


def make_records(n: int, start_seq: int = 1, edges_per: int = 2):
    """``n`` consecutive insert records with the right cum_edges chain."""
    out = []
    cum = (start_seq - 1) * edges_per
    for i in range(n):
        seq = start_seq + i
        edges = np.array([[seq * 10 + j, seq * 10 + j + 1]
                          for j in range(edges_per)], dtype=np.int64)
        cum += edges_per
        out.append(WalRecord(seq=seq, op=OP_INSERT, edges=edges,
                             weights=np.ones(edges_per), cum_edges=cum))
    return out


def writer_digest(service):
    with service._store_lock:
        return store_digest(service._store)


def replica_digest(replica_service):
    with replica_service._store_lock:
        return store_digest(replica_service._store)


class TestReplicaServiceApply:
    def test_apply_in_order(self, tmp_path):
        rep = ReplicaService(tmp_path)
        for record in make_records(5):
            assert rep.apply_record(record) is True
        assert rep.applied_seq == 5
        assert rep.cum_input_edges == 10
        assert rep._store.n_edges == 10
        rep.close()

    def test_reapply_is_idempotent_skip(self, tmp_path):
        rep = ReplicaService(tmp_path)
        records = make_records(3)
        for record in records:
            rep.apply_record(record)
        assert rep.apply_record(records[1]) is False  # already applied
        assert rep.applied_seq == 3
        assert rep._store.n_edges == 6  # nothing double-applied
        rep.close()

    def test_sequence_gap_is_typed_error(self, tmp_path):
        rep = ReplicaService(tmp_path)
        r1, _, r3 = make_records(3)
        rep.apply_record(r1)
        with pytest.raises(ReplicationError):
            rep.apply_record(r3)
        rep.close()

    def test_cum_edges_parity_mismatch_is_typed_error(self, tmp_path):
        rep = ReplicaService(tmp_path)
        (record,) = make_records(1)
        bad = WalRecord(seq=record.seq, op=record.op, edges=record.edges,
                        weights=record.weights,
                        cum_edges=record.cum_edges + 7)
        with pytest.raises(ReplicationError):
            rep.apply_record(bad)
        rep.close()

    def test_mutations_refused_with_not_writer(self, tmp_path):
        rep = ReplicaService(tmp_path)
        with pytest.raises(NotWriterError):
            rep.submit_insert(np.array([[1, 2]], dtype=np.int64))
        with pytest.raises(NotWriterError):
            rep.submit_delete(np.array([[1, 2]], dtype=np.int64))
        rep.close()

    def test_deletes_replicate(self, tmp_path):
        rep = ReplicaService(tmp_path)
        edges = np.array([[1, 2], [3, 4]], dtype=np.int64)
        rep.apply_record(WalRecord(seq=1, op=OP_INSERT, edges=edges,
                                   weights=np.ones(2), cum_edges=2))
        rep.apply_record(WalRecord(seq=2, op=OP_DELETE,
                                   edges=edges[:1], weights=np.ones(1),
                                   cum_edges=3))
        assert rep._store.n_edges == 1
        rep.close()

    def test_shipped_record_with_unknown_op_is_refused(self):
        """An op the writer's own recovery would refuse must not reach a
        replica's WAL (it would be applied as a delete, and the replica's
        next recover() would reject its own log)."""
        (record,) = make_records(1)
        wire = wal_record_to_wire(record)
        assert wal_record_from_wire(wire).op == OP_INSERT
        for bad_op in (2, -1, 255):
            with pytest.raises(ReplicationError, match="unknown WAL op"):
                wal_record_from_wire({**wire, "op": bad_op})

    def test_abandoned_replica_recovers_exact_state(self, tmp_path):
        """kill -9 equivalent: drop the service without close(); the
        local WAL alone must reproduce the state and the cursor."""
        rep = ReplicaService(tmp_path)
        for record in make_records(7):
            rep.apply_record(record)
        digest = replica_digest(rep)["sha256"]
        # no close(): the WAL flushes every append, so this is a crash
        rep2 = ReplicaService(tmp_path)
        assert rep2.applied_seq == 7
        assert rep2.cum_input_edges == 14
        assert replica_digest(rep2)["sha256"] == digest
        rep2.close()

    def test_stale_shed_over_lag_budget(self, tmp_path):
        rep = ReplicaService(tmp_path, max_lag_seq=3)
        for record in make_records(2):
            rep.apply_record(record)
        rep.known_upstream_seq = rep.applied_seq + 4  # over budget
        with pytest.raises(StaleReadError):
            rep._shed_check()
        assert rep.health()["shedding_reads"] is True
        assert rep.read_staleness()["lag_seq"] == 4
        rep.known_upstream_seq = rep.applied_seq + 3  # at budget: fine
        rep._shed_check()
        rep.close()


@pytest.fixture
def writer(tmp_path):
    svc = GraphService(tmp_path / "writer", batch_edges=512,
                       flush_interval=0.005)
    yield svc
    svc.close()


@pytest.fixture
def writer_server(writer):
    with ServerThread(writer, view_refresh_s=0.0) as thread:
        yield thread


def insert(service, edges) -> int:
    return service.submit_insert(np.asarray(edges, dtype=np.int64)).wait(10)


class TestReplicationWireOps:
    def test_subscribe_and_stream_everything(self, writer, writer_server):
        insert(writer, [[1, 2], [2, 3], [3, 4]])
        with GraphClient(port=writer_server.port) as c:
            sub = c.call("subscribe", {"after_seq": 0, "cum_edges": 0,
                                            "replica_id": "t1"})
            assert sub["writer_seq"] == writer.applied_seq
            batch = c.call("wal_batch", {"max_records": 100,
                                               "wait_s": 0.0})
            assert batch["last_seq"] == writer.applied_seq
            total = sum(len(r["edges"]) for r in batch["records"])
            assert total == 3

    def test_wal_batch_requires_subscribe(self, writer_server):
        with GraphClient(port=writer_server.port) as c:
            with pytest.raises(WorkloadError):
                c.call("wal_batch", {"max_records": 10, "wait_s": 0.0})

    def test_subscribe_ahead_of_writer_is_cursor_gap(self, writer,
                                                     writer_server):
        insert(writer, [[1, 2]])
        with GraphClient(port=writer_server.port) as c:
            with pytest.raises(ReplicationError):
                c.call("subscribe", {"after_seq": 999,
                                           "cum_edges": 999,
                                           "replica_id": "t1"})

    def test_sharded_writer_refuses_wal_shipping(self, tmp_path):
        """The tailer streams the base chain only; a writer whose log has
        shard chains must say so instead of advertising a ``writer_seq``
        no ``wal_batch`` ever reaches (a silent, unbounded replica lag)."""
        svc, rec = GraphService.open(
            tmp_path / "sharded-writer", config=ShardedConfig(n_shards=2),
            flush_interval=0.005)
        try:
            insert(svc, [[v, v + 1] for v in range(40)])
            assert svc.applied_seq > 0
            with ServerThread(svc, view_refresh_s=0.0) as thread, \
                    GraphClient(port=thread.port) as c:
                for op, args in (
                        ("subscribe", {"after_seq": 0, "cum_edges": 0,
                                       "replica_id": "t1"}),
                        ("wal_batch", {"max_records": 10, "wait_s": 5.0})):
                    with pytest.raises(ServiceError,
                                       match="sharded writer") as err:
                        c.call(op, args)
                    assert not isinstance(err.value, ReplicationError)
                    assert err.value.code not in RETRYABLE_CODES
                # Refused, not broken: the connection still serves.
                assert c.call("resync", {})["last_seq"] == svc.applied_seq
        finally:
            svc.close()
            rec.store.close()

    def test_resync_ships_consistent_snapshot(self, writer, writer_server):
        insert(writer, [[1, 2], [2, 3], [1, 2]])  # duplicate collapses
        with GraphClient(port=writer_server.port) as c:
            c.call("subscribe", {"after_seq": 0, "cum_edges": 0,
                                       "replica_id": "t1"})
            snap = c.call("resync", {})
            assert snap["last_seq"] == writer.applied_seq
            assert snap["digest"]["sha256"] == writer_digest(writer)["sha256"]
            assert len(snap["src"]) == snap["digest"]["n_edges"]

    def test_replica_status_lands_in_writer_health(self, writer,
                                                   writer_server):
        insert(writer, [[1, 2]])
        with GraphClient(port=writer_server.port) as c:
            c.call("subscribe", {"after_seq": 0, "cum_edges": 0,
                                       "replica_id": "r-health"})
            c.call("replica_status",
                         {"replica_id": "r-health", "applied_seq": 0,
                          "cum_edges": 0, "generation": 1})
            health = c.health()
            peers = health["replication"]["peers"]
            assert "r-health" in peers
            assert peers["r-health"]["connected"] is True
            assert peers["r-health"]["lag_seq"] == writer.applied_seq


class TestReplicaServer:
    def test_catch_up_then_live_follow(self, writer, writer_server,
                                       tmp_path):
        insert(writer, [[i, i + 1] for i in range(50)])
        with ReplicaServer(tmp_path / "replica", "127.0.0.1",
                           writer_server.port, replica_id="r1",
                           poll_wait_s=0.2, view_refresh_s=0.0, backoff=0.05) as rep:
            assert rep.wait_caught_up(writer.applied_seq)
            assert (replica_digest(rep.service)["sha256"]
                    == writer_digest(writer)["sha256"])
            # live follow: new writes arrive without resubscribing
            insert(writer, [[100 + i, 200 + i] for i in range(20)])
            assert rep.wait_caught_up(writer.applied_seq)
            assert (replica_digest(rep.service)["sha256"]
                    == writer_digest(writer)["sha256"])
            assert rep.service.health()["replication"]["n_resubscribes"] == 0

    def test_replica_serves_reads_with_staleness(self, writer,
                                                 writer_server, tmp_path):
        insert(writer, [[7, 8], [7, 9]])
        with ReplicaServer(tmp_path / "replica", "127.0.0.1",
                           writer_server.port, poll_wait_s=0.2, view_refresh_s=0.0) as rep:
            assert rep.wait_caught_up(writer.applied_seq)
            with GraphClient(port=rep.port) as c:
                c.refresh()  # force the lazy view re-capture
                assert c.degree(7) == 2
                assert c.last_staleness is not None
                assert c.last_staleness["lag_seq"] == 0
                assert c.last_applied_seq == writer.applied_seq

    def test_replica_refuses_mutations(self, writer, writer_server,
                                       tmp_path):
        insert(writer, [[1, 2]])
        with ReplicaServer(tmp_path / "replica", "127.0.0.1",
                           writer_server.port, poll_wait_s=0.2, view_refresh_s=0.0) as rep:
            assert rep.wait_caught_up(writer.applied_seq)
            with GraphClient(port=rep.port) as c:
                with pytest.raises(NotWriterError):
                    c.insert_edges([[5, 6]])

    def test_stale_reads_shed_with_typed_error(self, writer, writer_server,
                                               tmp_path):
        insert(writer, [[1, 2]])
        rep = ReplicaServer(tmp_path / "replica", "127.0.0.1",
                            writer_server.port, poll_wait_s=0.2, view_refresh_s=0.0,
                            max_lag_seq=5).start()
        try:
            assert rep.wait_caught_up(writer.applied_seq)
            rep.link.stop()  # freeze the replica, then outrun it
            rep.service.known_upstream_seq = rep.service.applied_seq + 50
            with GraphClient(port=rep.port) as c:
                with pytest.raises(StaleReadError) as excinfo:
                    c.degree(1)
                from repro.net.protocol import RETRYABLE_CODES
                assert excinfo.value.code in RETRYABLE_CODES
        finally:
            rep.stop()

    def test_kill_dash_nine_restart_converges(self, writer, writer_server,
                                              tmp_path):
        insert(writer, [[i, i + 1] for i in range(30)])
        rep = ReplicaServer(tmp_path / "replica", "127.0.0.1",
                            writer_server.port, replica_id="r1",
                            poll_wait_s=0.2, view_refresh_s=0.0, backoff=0.05).start()
        assert rep.wait_caught_up(writer.applied_seq)
        # crash: tear down the threads but never close the service —
        # nothing gets checkpointed, flushed, or released cleanly.
        rep.link.stop()
        rep.thread.stop()
        # writer keeps moving while the replica is dead
        insert(writer, [[500 + i, 600 + i] for i in range(25)])
        rep2 = ReplicaServer(tmp_path / "replica", "127.0.0.1",
                             writer_server.port, replica_id="r1",
                             poll_wait_s=0.2, view_refresh_s=0.0, backoff=0.05).start()
        try:
            assert rep2.wait_caught_up(writer.applied_seq)
            assert (replica_digest(rep2.service)["sha256"]
                    == writer_digest(writer)["sha256"])
        finally:
            rep2.stop()

    def test_silent_divergence_at_equal_cursor_resyncs(self, writer,
                                                       writer_server,
                                                       tmp_path):
        """Same seqs, same ``cum_edges``, different edges: ``subscribe``
        sees nothing wrong, only the post-catch-up digest does."""
        for i in range(3):
            insert(writer, [[i * 10 + j, i * 10 + j + 1] for j in range(8)])
        doctored = ReplicaService(tmp_path / "replica")
        for record in iter_records(writer.directory):
            doctored.apply_record(WalRecord(
                seq=record.seq, op=record.op, edges=record.edges + 1000,
                weights=record.weights, cum_edges=record.cum_edges))
        doctored.close()
        rep = ReplicaServer(tmp_path / "replica", "127.0.0.1",
                            writer_server.port, replica_id="r1",
                            poll_wait_s=0.2, view_refresh_s=0.0,
                            backoff=0.05)
        try:
            want = writer_digest(writer)["sha256"]
            assert rep.service.applied_seq == writer.applied_seq
            assert rep.service.cum_input_edges == writer.cum_input_edges
            assert replica_digest(rep.service)["sha256"] != want
            rep.start()
            deadline = time.monotonic() + 20
            while (replica_digest(rep.service)["sha256"] != want
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert replica_digest(rep.service)["sha256"] == want
            assert rep.service.applied_seq == writer.applied_seq
            assert rep.service.health()["replication"]["n_resyncs"] == 1
        finally:
            rep.stop()

    def test_pruned_cursor_triggers_resync(self, tmp_path):
        """A replica joining after checkpoints pruned the WAL cannot
        stream from seq 0 — it must detect the gap and resync."""
        svc = GraphService(tmp_path / "writer", batch_edges=64,
                           flush_interval=0.005, segment_bytes=512,
                           checkpoint_every=4, checkpoint_keep=1)
        try:
            with ServerThread(svc, view_refresh_s=0.0) as thread:
                for i in range(10):
                    insert(svc, [[i * 50 + j, i * 50 + j + 1]
                                 for j in range(40)])
                from repro.service.wal import list_segments
                from repro.service.tail import segment_first_seq
                first = segment_first_seq(
                    list_segments(tmp_path / "writer")[0])
                assert first > 1  # the prefix really is gone
                with ReplicaServer(tmp_path / "replica", "127.0.0.1",
                                   thread.port, poll_wait_s=0.2, view_refresh_s=0.0,
                                   backoff=0.05) as rep:
                    assert rep.wait_caught_up(svc.applied_seq)
                    repl = rep.service.health()["replication"]
                    assert repl["n_resyncs"] >= 1
                    assert (replica_digest(rep.service)["sha256"]
                            == writer_digest(svc)["sha256"])
        finally:
            svc.close()


class TestReplicaSet:
    def test_read_your_writes_after_failover(self, writer, writer_server,
                                             tmp_path):
        with ReplicaServer(tmp_path / "replica", "127.0.0.1",
                           writer_server.port, poll_wait_s=0.2, view_refresh_s=0.0) as rep:
            rs = ReplicaSet(("127.0.0.1", writer_server.port),
                            [("127.0.0.1", rep.port)], timeout=10.0)
            with rs:
                rs.insert_edges([[41, 42], [41, 43]])
                assert rs.floor_seq > 0
                # immediately readable, replica lag notwithstanding
                assert rs.degree(41) == 2

    def test_reads_survive_replica_death(self, writer, writer_server,
                                         tmp_path):
        rep = ReplicaServer(tmp_path / "replica", "127.0.0.1",
                            writer_server.port, poll_wait_s=0.2, view_refresh_s=0.0).start()
        rs = ReplicaSet(("127.0.0.1", writer_server.port),
                        [("127.0.0.1", rep.port)], timeout=5.0)
        try:
            rs.insert_edges([[9, 10]])  # floor makes reads exact
            assert rep.wait_caught_up(writer.applied_seq)
            assert rs.degree(9) == 1
            rep.link.stop()
            rep.thread.stop()  # replica gone; reads must fail over
            for _ in range(5):
                assert rs.degree(9) == 1
            assert rs.n_failovers >= 1
        finally:
            rs.close()
            rep.service.close(checkpoint=False)

    def test_write_reports_cursor_floor(self, writer, writer_server):
        rs = ReplicaSet(("127.0.0.1", writer_server.port), timeout=10.0)
        with rs:
            first = rs.insert_edges([[1, 2]])
            second = rs.insert_edges([[3, 4]])
            assert second["seq"] > first["seq"]
            assert rs.floor_seq == second["seq"]
