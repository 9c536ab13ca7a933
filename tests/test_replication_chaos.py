"""Replication chaos suite: fault schedules that must end in convergence.

Every test here puts a :class:`~repro.net.chaos.ChaosProxy` between a
real writer and a real replica (or kills a node outright), lets the
fault play out, and then asserts the one property replication promises:
**after the fault heals, the replica's full edge multiset digest equals
the writer's, and no acked write is lost.**  Latency, retry counts and
resubscribes are allowed to vary; divergence and data loss are not.

The proxy injects faults on *frame* boundaries keyed to a global frame
counter, so each schedule is deterministic for a given op sequence.
In-process "kill -9" is modeled by tearing down a replica's threads
without closing its service: nothing is flushed or checkpointed beyond
what each WAL append already made durable — the same disk state a real
SIGKILL leaves behind.
"""

import time

import numpy as np
import pytest

from repro.core.store import store_digest
from repro.net.chaos import ChaosProxy
from repro.net.client import GraphClient, ReplicaSet
from repro.net.loadgen import run_loadgen
from repro.net.protocol import RETRYABLE_CODES
from repro.net.replication import ReplicaServer
from repro.net.server import ServerThread
from repro.service import GraphService


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


def digests_match(writer, replica_server) -> bool:
    with writer._store_lock:
        w = store_digest(writer._store)["sha256"]
    with replica_server.service._store_lock:
        r = store_digest(replica_server.service._store)["sha256"]
    return w == r


def make_replica(tmp_path, port, name="r1", **kwargs):
    kwargs.setdefault("poll_wait_s", 0.2)
    kwargs.setdefault("backoff", 0.05)
    return ReplicaServer(tmp_path / name, "127.0.0.1", port,
                         replica_id=name, **kwargs)


class TestScheduledFaults:
    def test_cut_mid_stream_converges(self, writer, writer_server,
                                      tmp_path):
        insert(writer, [[i, i + 1] for i in range(100)])
        schedule = [{"at_frame": 8, "action": "cut"},
                    {"at_frame": 20, "action": "cut"}]
        with ChaosProxy("127.0.0.1", writer_server.port,
                        schedule=schedule) as proxy:
            with make_replica(tmp_path, proxy.port) as rep:
                insert(writer, [[200 + i, 300 + i] for i in range(50)])
                assert rep.wait_caught_up(writer.applied_seq, timeout=30)
                # A replica caught up before frame 8 meets the cut only
                # afterwards: wait until it has been felt, then catch up
                # again before comparing.
                deadline = time.monotonic() + 30
                while not (proxy.n_cut >= 1 and rep.service.health()[
                        "replication"]["n_resubscribes"] >= 1):
                    assert time.monotonic() < deadline, "the cut never landed"
                    time.sleep(0.01)
                assert rep.wait_caught_up(writer.applied_seq, timeout=30)
                assert digests_match(writer, rep)
                repl = rep.service.health()["replication"]
                assert repl["n_resubscribes"] >= 1  # the cut was felt
            assert proxy.n_cut >= 1

    def test_delayed_frames_converge(self, writer, writer_server, tmp_path):
        insert(writer, [[i, i + 1] for i in range(60)])
        schedule = [{"at_frame": f, "action": "delay", "delay_s": 0.15}
                    for f in (4, 7, 10, 13)]
        with ChaosProxy("127.0.0.1", writer_server.port,
                        schedule=schedule) as proxy:
            with make_replica(tmp_path, proxy.port) as rep:
                assert rep.wait_caught_up(writer.applied_seq, timeout=30)
                assert digests_match(writer, rep)
            assert proxy.n_delayed >= 2  # later entries need later frames

    def test_dropped_frame_recovers_via_timeout(self, writer, writer_server,
                                                tmp_path):
        """A swallowed response stalls the link until its request times
        out; the resubscribe must then resume the stream, not restart
        or diverge."""
        insert(writer, [[i, i + 1] for i in range(40)])
        schedule = [{"at_frame": 6, "action": "drop"}]
        with ChaosProxy("127.0.0.1", writer_server.port,
                        schedule=schedule) as proxy:
            rep = make_replica(tmp_path, proxy.port, timeout=1.0)
            with rep:  # the 1s client timeout keeps the stall short
                insert(writer, [[500 + i, 600 + i] for i in range(30)])
                assert rep.wait_caught_up(writer.applied_seq, timeout=30)
                assert digests_match(writer, rep)
            assert proxy.n_dropped == 1

    def test_partition_heals_and_converges(self, writer, writer_server,
                                           tmp_path):
        insert(writer, [[i, i + 1] for i in range(30)])
        with ChaosProxy("127.0.0.1", writer_server.port) as proxy:
            with make_replica(tmp_path, proxy.port) as rep:
                assert rep.wait_caught_up(writer.applied_seq, timeout=30)
                proxy.partition(1.0)
                # the writer keeps acking writes during the partition
                insert(writer, [[700 + i, 800 + i] for i in range(40)])
                assert rep.wait_caught_up(writer.applied_seq, timeout=30)
                assert digests_match(writer, rep)
                assert proxy.n_refused >= 1  # the partition bit


class TestCrashSchedules:
    def test_replica_kill_during_stream_then_restart(self, tmp_path):
        """kill -9 a replica mid-catch-up; restart it against a writer
        that moved on (checkpoints pruning the WAL underneath it)."""
        svc = GraphService(tmp_path / "writer", batch_edges=64,
                           flush_interval=0.005, segment_bytes=512,
                           checkpoint_every=4, checkpoint_keep=1)
        try:
            with ServerThread(svc, view_refresh_s=0.0) as thread:
                insert(svc, [[i, i + 1] for i in range(40)])
                rep = make_replica(tmp_path, thread.port)
                rep.start()
                assert rep.wait_caught_up(svc.applied_seq, timeout=30)
                # SIGKILL: threads die, service never closes
                rep.link.stop()
                rep.thread.stop()
                # writer advances far enough to prune the stream prefix
                for i in range(12):
                    insert(svc, [[i * 60 + j + 1000, i * 60 + j + 1001]
                                 for j in range(50)])
                rep2 = make_replica(tmp_path, thread.port)
                with rep2:
                    assert rep2.wait_caught_up(svc.applied_seq, timeout=30)
                    assert digests_match(svc, rep2)
        finally:
            svc.close()

    def test_writer_restart_mid_stream(self, tmp_path):
        """The writer dies and comes back on a new port (port file);
        the replica must resubscribe and keep its applied prefix."""
        port_file = tmp_path / "writer.port"
        svc = GraphService(tmp_path / "writer", batch_edges=512,
                           flush_interval=0.005)
        thread = ServerThread(svc, view_refresh_s=0.0)
        thread.start()
        port_file.write_text(f"{thread.port}\n")
        rep = ReplicaServer(tmp_path / "replica", "127.0.0.1",
                            upstream_port_file=port_file,
                            replica_id="r1", poll_wait_s=0.2, backoff=0.05)
        try:
            insert(svc, [[i, i + 1] for i in range(30)])
            rep.start()
            assert rep.wait_caught_up(svc.applied_seq, timeout=30)
            applied_before = rep.service.applied_seq

            # abrupt writer death (no close: its WAL is the truth)
            thread.stop()
            svc2, _ = GraphService.open(tmp_path / "writer",
                                        batch_edges=512,
                                        flush_interval=0.005)
            thread2 = ServerThread(svc2, view_refresh_s=0.0)
            thread2.start()
            port_file.write_text(f"{thread2.port}\n")
            try:
                insert(svc2, [[900 + i, 950 + i] for i in range(20)])
                assert rep.wait_caught_up(svc2.applied_seq, timeout=30)
                assert digests_match(svc2, rep)
                assert rep.service.applied_seq > applied_before
            finally:
                thread2.stop()
                svc2.close()
        finally:
            rep.stop()
            svc.close()


class TestLoadgenAvailability:
    def test_zero_nonretryable_errors_with_replica_killed(self, writer,
                                                          writer_server,
                                                          tmp_path):
        """The acceptance scenario: loadgen against one writer + two
        replicas; one replica is killed mid-run.  Every client op must
        either succeed or fail with a retryable/failover code — the
        death is allowed to cost latency, never correctness."""
        insert(writer, [[i, i + 1] for i in range(20)])
        r1 = make_replica(tmp_path, writer_server.port, "r1",
                          view_refresh_s=0.0).start()
        r2 = make_replica(tmp_path, writer_server.port, "r2",
                          view_refresh_s=0.0).start()
        killed = False
        try:
            assert r1.wait_caught_up(writer.applied_seq, timeout=30)
            assert r2.wait_caught_up(writer.applied_seq, timeout=30)

            import threading

            def kill_r2():
                time.sleep(1.0)
                r2.link.stop()
                r2.thread.stop()  # SIGKILL-style: service never closed

            killer = threading.Thread(target=kill_r2)
            killer.start()
            stats = run_loadgen(
                "127.0.0.1", writer_server.port,
                clients=2, duration=3.0, read_fraction=0.9,
                scale=8, batch_edges=8, batches_per_worker=16,
                seed=7, retries=5, timeout=5.0,
                replicas=[("127.0.0.1", r1.port), ("127.0.0.1", r2.port)])
            killer.join()
            killed = True
            assert stats.total_ops > 0
            allowed = RETRYABLE_CODES | {"NOT_WRITER", "UNAVAILABLE"}
            assert set(stats.errors) <= allowed, stats.errors
            # acked writes all survived on the writer
            acked = stats.n_edges_written
            assert acked > 0
            assert r1.wait_caught_up(writer.applied_seq, timeout=30)
            assert digests_match(writer, r1)
        finally:
            r1.stop()
            if killed:
                r2.service.close(checkpoint=False)
            else:
                r2.stop()
