"""The loop-side write path: submit on the event loop, ack by callback.

``_GraphConnection`` handles a mutation without leaving the loop thread:
it submits with ``timeout=0``, parks the connection's queue, and answers
from the ticket's done-callback (or a loop deadline timer).  These pin
what that must keep — per-connection response order, typed errors, the
durable ack — and what it adds: a full queue answers ``QUEUE_FULL`` at
once while other connections keep being served, and a server stopped
with a write in flight cannot hurt the flusher.
"""

import socket
import threading
import time

import numpy as np
import pytest

import repro.net.server as server_mod
from repro.errors import NotWriterError, QueueFullError, ServiceError
from repro.net.client import GraphClient
from repro.net.frames import FrameDecoder, encode_frame
from repro.net.protocol import PROTOCOL_VERSION
from repro.net.replication import ReplicaService
from repro.net.server import ServerThread
from repro.service import GraphService


def serve(service):
    return ServerThread(service, view_refresh_s=0.0)


def parked(tmp_path, **kwargs):
    """A service whose flusher sits on its queue until ``flush_now``."""
    return GraphService(tmp_path, flush_interval=30.0, **kwargs)


class RawConnection:
    """One socket speaking frames by hand, so requests can be pipelined
    in an order no client driver would send them."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.decoder = FrameDecoder()
        self.frames = []
        self.send(0, "hello", proto=PROTOCOL_VERSION)
        assert self.recv()["ok"]

    def send(self, request_id, op, **args):
        self.sock.sendall(encode_frame(
            {"id": request_id, "op": op, "args": args}, "json"))

    def recv(self):
        while not self.frames:
            data = self.sock.recv(1 << 16)
            assert data, "server closed the connection"
            self.decoder.feed(data)
            self.frames.extend(self.decoder.frames())
        return self.frames.pop(0)

    def close(self):
        self.sock.close()


class TestOrdering:
    def test_pipelined_writes_answer_in_request_order(self, tmp_path):
        with GraphService(tmp_path) as svc, serve(svc) as thread:
            with GraphClient(port=thread.port) as c:
                batches = [[[i, i + 1]] for i in range(64)]
                results = c.submit_edges_pipelined(batches, window=16)
            assert [r["seq"] for r in results] == sorted(
                r["seq"] for r in results)
            assert all(r["n_edges"] == 1 for r in results)
            assert svc.n_edges == 64

    def test_read_behind_a_write_waits_for_it(self, tmp_path):
        with parked(tmp_path) as svc, serve(svc) as thread:
            conn = RawConnection(thread.port)
            try:
                conn.send(1, "insert_edges", edges=[[1, 2]])
                conn.send(2, "ping")
                conn.sock.settimeout(0.3)
                with pytest.raises(socket.timeout):
                    conn.recv()          # the ping is parked behind id 1
                conn.sock.settimeout(10)
                svc.flush_now(timeout=10)
                first, second = conn.recv(), conn.recv()
            finally:
                conn.close()
            assert (first["id"], first["result"]["seq"]) == (1, 1)
            assert (second["id"], second["result"]) == (2, {"pong": True})

    def test_wait_false_answers_queued_without_parking(self, tmp_path):
        with parked(tmp_path) as svc, serve(svc) as thread:
            with GraphClient(port=thread.port) as c:
                got = c.insert_edges([[1, 2]], wait=False)
                assert got == {"queued": True, "n_edges": 1}
                assert c.ping() == {"pong": True}   # queue not parked
                assert svc.applied_seq == 0         # and nothing flushed
            svc.flush_now(timeout=10)
            assert svc.n_edges == 1


class TestLoopNeverBlocks:
    def test_queue_full_is_immediate_and_others_are_served(self, tmp_path):
        # submit_timeout is what a *blocking* submit would wait; the
        # server must refuse long before it, and a second connection
        # must be answered while the first sits on its parked write.
        with parked(tmp_path, queue_limit=1, submit_timeout=5.0) as svc, \
                serve(svc) as thread:
            with GraphClient(port=thread.port) as a, \
                    GraphClient(port=thread.port) as b:
                acked = []
                writer = threading.Thread(
                    target=lambda: acked.append(a.insert_edges([[1, 2]])))
                writer.start()
                deadline = time.monotonic() + 10
                while (svc.health()["queue_depth"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                start = time.monotonic()
                with pytest.raises(QueueFullError) as info:
                    b.insert_edges([[3, 4]])
                assert info.value.code == "QUEUE_FULL"
                assert b.ping() == {"pong": True}
                assert b.degree(1) == 0
                assert time.monotonic() - start < 1.0
                assert acked == []               # a is still parked
                svc.flush_now(timeout=10)
                writer.join(10)
                assert not writer.is_alive()
                assert acked[0]["seq"] == 1
                assert b.insert_edges([[3, 4]], wait=False)["queued"]
            svc.flush_now(timeout=10)
            assert svc.n_edges == 2


class TestWriteDeadline:
    def test_deadline_answers_typed_and_late_flush_is_a_noop(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_mod, "DEFAULT_WRITE_TIMEOUT", 0.2)
        with parked(tmp_path) as svc, serve(svc) as thread:
            with GraphClient(port=thread.port) as c:
                with pytest.raises(ServiceError, match="not durable") as info:
                    c.insert_edges([[1, 2]])
                assert info.value.code == "SERVICE"
                assert c.ping() == {"pong": True}      # connection usable
                # The parked batch lands now; its callback finds the
                # write already settled and must send nothing.
                svc.flush_now(timeout=10)
                assert svc.n_edges == 1
                assert c.ping() == {"pong": True}
                assert c.insert_edges([[3, 4]], wait=False)["queued"]
            svc.flush_now(timeout=10)
            assert svc.fatal_error is None


class TestReplica:
    def test_replica_answers_not_writer(self, tmp_path):
        replica = ReplicaService(tmp_path)
        try:
            with serve(replica) as thread:
                with GraphClient(port=thread.port) as c:
                    for mutate in (c.insert_edges, c.delete_edges):
                        with pytest.raises(NotWriterError) as info:
                            mutate([[1, 2]])
                        assert info.value.code == "NOT_WRITER"
                    assert c.ping() == {"pong": True}
        finally:
            replica.close()


class TestServerStoppedMidWrite:
    def test_flush_after_stop_does_not_kill_the_flusher(self, tmp_path):
        with parked(tmp_path) as svc:
            thread = serve(svc).start()
            conn = RawConnection(thread.port)
            try:
                conn.send(1, "insert_edges", edges=[[1, 2]])
                deadline = time.monotonic() + 10
                while (svc.health()["queue_depth"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert svc.health()["queue_depth"] == 1
                thread.stop()        # closes the loop under the write
            finally:
                conn.close()
            # The flush resolves the ticket; its callback's
            # call_soon_threadsafe raises "Event loop is closed".
            svc.flush_now(timeout=10)
            assert svc.fatal_error is None
            assert svc.has_edge(1, 2)
            with serve(svc) as again, GraphClient(port=again.port) as c:
                assert c.insert_edges([[3, 4]], wait=False)["queued"]
                svc.flush_now(timeout=10)
                c.refresh()
                assert c.degree(1) == 1 and c.degree(3) == 1


def test_writes_never_touch_the_pool(tmp_path):
    """Acked writes are served with the executor shut down entirely."""
    with GraphService(tmp_path) as svc, serve(svc) as thread:
        thread.server._pool.shutdown(wait=True)
        with GraphClient(port=thread.port) as c:
            got = c.insert_edges(np.array([[1, 2], [1, 3]]).tolist())
            assert (got["seq"], got["n_edges"]) == (1, 2)
            assert c.delete_edges([[1, 3]])["seq"] == 2


def test_negative_id_is_refused_before_the_log(tmp_path):
    """Admission runs before the WAL: a negative id is ``BAD_REQUEST``,
    nothing is logged, the next write from another connection is acked,
    and the directory reopens to exactly the acked writes."""
    from repro.core.store import store_digest
    from repro.errors import WorkloadError

    with GraphService(tmp_path) as svc, serve(svc) as thread:
        with GraphClient(port=thread.port) as a, GraphClient(port=thread.port) as b:
            assert a.insert_edges([[1, 2]])["seq"] == 1
            with pytest.raises(WorkloadError) as refused:
                a.insert_edges([[-5, 3]])
            assert refused.value.code == "BAD_REQUEST"
            assert b.insert_edges([[4, 5], [4, 6]])["seq"] == 2
            acked = b.digest()
    assert acked["applied_seq"] == 2
    reopened, recovery = GraphService.open(tmp_path)
    try:
        assert recovery.fsck.ok
        assert store_digest(recovery.store)["sha256"] == acked["sha256"]
        assert recovery.store.n_edges == acked["n_edges"] == 3
    finally:
        reopened.close()
