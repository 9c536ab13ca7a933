"""End-to-end tests for the network front-end: server, clients, read path.

Everything here runs a real :class:`ServerThread` over a real
:class:`GraphService` on a loopback TCP port — no mocked transports —
because the properties under test (ordered pipelining, generation
monotonicity, disconnect containment, wire-vs-in-process state identity)
only mean anything across an actual socket boundary.
"""

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.graphtinker import GraphTinker
from repro.errors import NetError, ProtocolError, WorkloadError
from repro.net.aioclient import AsyncGraphClient
from repro.net.client import GraphClient
from repro.net.frames import FrameDecoder, encode_frame
from repro.net.protocol import PROTOCOL_VERSION, store_digest
from repro.net.server import ServerThread
from repro.service import GraphService, recover
from repro.workloads import rmat_edges


def read_frame(sock):
    """Blocking read of one frame from a raw socket (None on clean EOF)."""
    decoder = FrameDecoder()
    while not (frames := list(decoder.frames())):
        data = sock.recv(1 << 16)
        if not data:
            return None
        decoder.feed(data)
    return frames[0]


@pytest.fixture
def service(tmp_path):
    svc = GraphService(tmp_path, batch_edges=512, flush_interval=0.005)
    yield svc
    svc.close()


@pytest.fixture
def server(service):
    # view_refresh_s=0: re-capture on every applied-seq change so reads
    # observe writes promptly (tests force exactness via refresh()).
    with ServerThread(service, view_refresh_s=0.0) as thread:
        yield thread


@pytest.fixture
def client(server):
    with GraphClient(port=server.port) as c:
        yield c


class TestOpRoundTrips:
    def test_ping(self, client):
        assert client.ping() == {"pong": True}

    def test_hello_negotiates_version_and_codec(self, server):
        with GraphClient(port=server.port) as c:
            assert c.codec == "json"

    def test_point_reads_after_insert(self, client):
        client.insert_edges([[1, 2], [1, 3], [2, 3]])
        client.refresh()
        assert client.degree(1) == 2
        got = client.neighbors(1)
        assert sorted(got["dst"]) == [2, 3]
        assert client.degree(999) == 0

    def test_weights_on_the_wire(self, client):
        client.insert_edges([[5, 6]], weights=[2.5])
        client.refresh()
        got = client.neighbors(5)
        assert got["dst"] == [6]
        assert got["weight"] == [2.5]

    def test_khop(self, client):
        client.insert_edges([[1, 2], [2, 3], [3, 4]])
        client.refresh()
        got = client.khop(1, 2)
        assert set(got["vertices"]) >= {1, 2, 3}
        assert 4 not in got["vertices"]
        assert got["truncated"] is False

    def test_khop_limit_truncates(self, client):
        star = [[0, i] for i in range(1, 50)]
        client.insert_edges(star)
        client.refresh()
        got = client.khop(0, 1, limit=10)
        assert got["truncated"] is True
        assert len(got["vertices"]) <= 11  # limit + the source

    def test_shortest_path(self, client):
        client.insert_edges([[1, 2], [2, 3], [1, 3]],
                            weights=[1.0, 1.0, 5.0])
        client.refresh()
        got = client.shortest_path(1, 3)
        assert got["found"] is True
        assert got["path"] == [1, 2, 3]
        assert got["distance"] == pytest.approx(2.0)
        unweighted = client.shortest_path(1, 3, weighted=False)
        assert unweighted["path"] == [1, 3]

    def test_delete_edges(self, client):
        client.insert_edges([[1, 2], [1, 3]])
        client.delete_edges([[1, 2]])
        client.refresh()
        assert client.degree(1) == 1
        assert client.neighbors(1)["dst"] == [3]

    def test_health_includes_net_and_view(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["net"]["active_conns"] >= 1
        assert health["net"]["view_generation"] >= 0
        assert health["snapshot_generation"] is not None

    def test_metrics_frame(self, client):
        got = client.metrics()
        assert "prometheus" in got
        assert isinstance(got["obs_enabled"], bool)

    def test_digest_reports_edge_count(self, client):
        client.insert_edges([[1, 2], [3, 4]])
        digest = client.digest()
        assert digest["n_edges"] == 2
        assert len(digest["sha256"]) == 64

    def test_unknown_op_is_bad_request(self, client):
        with pytest.raises(WorkloadError) as info:
            client.call("frobnicate")
        assert info.value.code == "BAD_REQUEST"

    def test_malformed_edges_are_bad_request(self, client):
        with pytest.raises(WorkloadError):
            client.insert_edges([[1, 2, 3]])
        with pytest.raises(WorkloadError):
            client.call("degree", {"src": "not-an-int"})
        # the connection survives a bad request
        assert client.ping() == {"pong": True}


class TestDifferentialDigest:
    def test_wire_equals_in_process_after_rmat_churn(self, client):
        """The equality oracle: RMAT ingest + deletes through the wire
        must leave exactly the state the same ops produce in-process."""
        edges = rmat_edges(9, 3000, seed=11)
        ref = GraphTinker()
        step = 500
        for i in range(0, edges.shape[0], step):
            batch = edges[i:i + step]
            client.insert_edges(batch.tolist())
            ref.insert_batch(batch)
            if i % (2 * step) == 0 and i > 0:
                victims = edges[i - step:i - step + 100]
                client.delete_edges(victims.tolist())
                ref.delete_batch(victims)
        wire = client.digest()
        local = store_digest(ref)
        assert wire["sha256"] == local["sha256"]
        assert wire["n_edges"] == local["n_edges"]


class TestGenerationMonotonicity:
    def test_generation_never_decreases_under_concurrent_writes(
            self, server):
        stop = threading.Event()
        fatal = []

        def writer():
            try:
                with GraphClient(port=server.port) as wc:
                    rng = np.random.default_rng(3)
                    while not stop.is_set():
                        batch = rng.integers(0, 512, size=(32, 2))
                        wc.insert_edges(batch.tolist())
            except Exception as exc:  # noqa: BLE001 - surfaced below
                fatal.append(exc)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            with GraphClient(port=server.port) as rc:
                last = -1
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    rc.degree(int(time.monotonic() * 1000) % 512)
                    gen = rc.last_generation
                    assert gen is not None and gen >= last
                    last = gen
                # the view must actually advance while writes land
                rc.refresh()
                rc.degree(0)
                assert rc.last_generation >= last
        finally:
            stop.set()
            thread.join(5.0)
        assert not fatal, f"writer died: {fatal[0]!r}"

    def test_refresh_gives_read_your_writes(self, client):
        client.insert_edges([[7, 8]])
        before = client.refresh()
        assert client.degree(7) == 1
        assert client.last_generation >= before["generation"] - 1


class TestPipelining:
    def test_pipelined_submit_ordered_and_durable(self, client, service):
        batches = [[[i, i + 1], [i, i + 2]] for i in range(0, 40, 4)]
        results = client.submit_edges_pipelined(batches, window=4)
        assert len(results) == len(batches)
        seqs = [r["seq"] for r in results]
        assert seqs == sorted(seqs)
        assert all(r["n_edges"] == 2 for r in results)
        ref = GraphTinker()
        for batch in batches:
            ref.insert_batch(np.asarray(batch))
        assert client.digest()["sha256"] == store_digest(ref)["sha256"]

    def test_async_wait_false_returns_queued(self, client):
        got = client.insert_edges([[100, 101]], wait=False)
        assert got == {"queued": True, "n_edges": 1}


class TestAsyncClient:
    def test_async_client_mirror(self, server):
        async def scenario():
            async with AsyncGraphClient(port=server.port) as c:
                assert await c.ping() == {"pong": True}
                await c.insert_edges([[1, 2], [1, 3]])
                await c.refresh()
                assert await c.degree(1) == 2
                got = await c.neighbors(1)
                assert sorted(got["dst"]) == [2, 3]
                health = await c.health()
                assert health["ok"] is True
                return await c.digest()

        digest = asyncio.run(scenario())
        assert digest["n_edges"] == 2

    def test_async_many_connections_one_loop(self, server):
        async def scenario():
            clients = [AsyncGraphClient(port=server.port) for _ in range(4)]
            try:
                await asyncio.gather(*(c.connect() for c in clients))
                await asyncio.gather(*(
                    c.insert_edges([[i, i + 1]])
                    for i, c in enumerate(clients)))
                return [await c.ping() for c in clients]
            finally:
                await asyncio.gather(*(c.close() for c in clients))

        assert asyncio.run(scenario()) == [{"pong": True}] * 4


class TestProtocolEnforcement:
    def test_version_mismatch_rejected_with_typed_frame(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(encode_frame(
                {"id": 1, "op": "hello", "args": {"proto": 999}}))
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "VERSION"
            # the server hangs up after a version mismatch
            assert read_frame(sock) is None

    def test_hello_offering_msgpack_negotiates_json(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(encode_frame(
                {"id": 1, "op": "hello",
                 "args": {"proto": PROTOCOL_VERSION,
                          "codecs": ["json", "msgpack"]}}))
            response = read_frame(sock)
            assert response["ok"] is True
            assert response["result"]["codec"] == "json"

    def test_hello_first_enforced(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(encode_frame(
                {"id": 1, "op": "degree", "args": {"src": 1}}))
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "PROTOCOL"

    def test_client_raises_on_version_mismatch(self, server, monkeypatch):
        import repro.net.client as client_mod
        monkeypatch.setattr(client_mod, "PROTOCOL_VERSION",
                            PROTOCOL_VERSION + 1)
        with pytest.raises(ProtocolError):
            GraphClient(port=server.port).connect()

    def test_garbage_bytes_answered_typed_then_closed(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=5.0) as sock:
            sock.sendall(b"\xde\xad\xbe\xef" + b"\x00" * 16)
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "PROTOCOL"
            assert read_frame(sock) is None


class TestDisconnectContainment:
    def _wait_active(self, server, expected, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if server.server.active_connections == expected:
                return
            time.sleep(0.01)
        raise AssertionError(
            f"active_connections stuck at "
            f"{server.server.active_connections}, expected {expected}")

    def test_abrupt_disconnect_mid_frame_leaves_server_serving(
            self, server):
        baseline = server.server.active_connections
        blob = encode_frame({"id": 1, "op": "hello",
                             "args": {"proto": PROTOCOL_VERSION,
                                      "codecs": ["json"]}})
        sock = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5.0)
        sock.sendall(blob[: len(blob) - 4])  # die mid-frame
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00")  # RST
        sock.close()
        self._wait_active(server, baseline)
        with GraphClient(port=server.port) as c:
            assert c.ping() == {"pong": True}

    def test_many_churning_connections(self, server):
        baseline = server.server.active_connections
        for _ in range(10):
            with GraphClient(port=server.port) as c:
                c.ping()
        self._wait_active(server, baseline)
        assert server.server.n_connections >= 10

    def test_client_reports_server_gone_as_net_error(self, service):
        thread = ServerThread(service).start()
        c = GraphClient(port=thread.port).connect()
        thread.stop()
        with pytest.raises((NetError, ProtocolError)):
            for _ in range(5):  # first call may still find the socket up
                c.ping()
                time.sleep(0.05)
        c.close()


class TestCloseOrdering:
    def test_acked_writes_survive_service_close(self, tmp_path):
        """Regression for the close-ordering contract: every write the
        server acknowledged (ticket resolved durable) must be recoverable
        after server stop + service close, whatever the fsync policy."""
        edges = rmat_edges(8, 600, seed=5)
        svc = GraphService(tmp_path, batch_edges=128, flush_interval=0.005,
                           sync="batch")
        thread = ServerThread(svc, view_refresh_s=0.0).start()
        try:
            with GraphClient(port=thread.port) as c:
                for i in range(0, edges.shape[0], 100):
                    c.insert_edges(edges[i:i + 100].tolist())
                acked = c.digest()
        finally:
            thread.stop()
            svc.close()
        result = recover(tmp_path)
        assert store_digest(result.store)["sha256"] == acked["sha256"]

    def test_server_stop_does_not_close_the_service(self, tmp_path):
        svc = GraphService(tmp_path, flush_interval=0.005)
        thread = ServerThread(svc).start()
        thread.stop()
        # ownership rule: the service is still usable after server stop
        svc.submit_insert(np.array([[1, 2]])).wait(5.0)
        assert svc.n_edges == 1
        svc.close()
