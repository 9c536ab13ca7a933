"""Tests for the sans-IO :class:`ClientSession` and its drivers.

The first half never opens a socket: the session is fed scripted
response bytes, so request/response matching, typed error mapping, the
watermarks and the retry decision are checked as pure functions of the
byte stream.  The second half runs the two socket drivers
(:class:`GraphClient`, :class:`AsyncGraphClient`) against a real
:class:`ServerThread` — and against a scripted misbehaving peer — to pin
what used to be kept in step by hand: identical results and watermarks
for the typed ops, a pipeline that stays usable after a remote error,
and a connection that is dropped (not wedged) on a protocol violation.
"""

import asyncio
import inspect
import random
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetError, ProtocolError, ReproError, WorkloadError
from repro.net.aioclient import AsyncGraphClient
from repro.net.client import GraphClient
from repro.net.frames import FrameDecoder, encode_frame
from repro.net.protocol import (
    CODE_TO_EXCEPTION,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    error_response,
)
from repro.net.server import ServerThread
from repro.net.session import ClientSession, backoff_delay
from repro.service import GraphService
from tests.test_net_frames import rechunked


def remote_error(code: str) -> ReproError:
    """The exception a session raises for an error frame carrying ``code``."""
    session = ClientSession()
    session.request("ping", {})
    session.receive(encode_frame(error_response(1, code, "boom")))
    with pytest.raises(ReproError) as info:
        session.next_response()
    assert not session.in_flight
    return info.value


def outcomes(session: ClientSession, chunks) -> list:
    """Feed ``chunks``; every popped result / typed error, each followed
    by the watermarks it left behind."""
    out = []
    for chunk in chunks:
        session.receive(chunk)
        while session.in_flight:
            try:
                response = session.next_response()
            except ReproError as exc:
                out.append((type(exc), exc.code, str(exc)))
            else:
                if response is None:
                    break
                out.append(response.get("result"))
            out.append((session.last_generation, session.last_applied_seq,
                        session.last_staleness))
    return out


# One scripted response: ok with optional read watermarks, or an error.
scripted_responses = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {"result": st.dictionaries(st.text(max_size=5),
                                       st.integers(-5, 5), max_size=3)},
            optional={"generation": st.integers(0, 9),
                      "applied_seq": st.integers(0, 9),
                      "staleness": st.just({"lag_seq": 2})}),
        st.sampled_from(sorted(CODE_TO_EXCEPTION))),
    min_size=1, max_size=8)


class TestSessionSocketFree:
    @settings(max_examples=60, deadline=None)
    @given(script=scripted_responses, data=st.data())
    def test_any_chunking_yields_the_same_outcomes(self, script, data):
        def play(chunker):
            session = ClientSession()
            stream = b""
            for entry in script:
                session.request("degree", {"src": 1})
                request_id = len(session.in_flight)
                stream += encode_frame(
                    error_response(request_id, entry, "scripted")
                    if isinstance(entry, str)
                    else {"id": request_id, "ok": True, **entry})
            got = outcomes(session, chunker(stream))
            assert not session.in_flight
            return got

        whole = play(lambda stream: [stream])
        assert len(whole) == 2 * len(script)
        assert play(lambda stream: rechunked(stream, data)) == whole

    @pytest.mark.parametrize("code", sorted(CODE_TO_EXCEPTION))
    def test_every_wire_code_maps_to_its_exception(self, code):
        exc = remote_error(code)
        assert type(exc) is CODE_TO_EXCEPTION[code]
        assert exc.code == code

    def test_unknown_code_is_a_plain_net_error(self):
        exc = remote_error("NO_SUCH_CODE")
        assert type(exc) is NetError and exc.code == "NO_SUCH_CODE"

    def test_remote_error_leaves_the_stream_in_step(self):
        session = ClientSession()
        session.request("degree", {"src": "x"})
        session.request("ping", {})
        session.receive(
            encode_frame(error_response(1, "BAD_REQUEST", "bad src"))
            + encode_frame({"id": 2, "ok": True, "result": {"pong": True}}))
        with pytest.raises(WorkloadError):
            session.next_response()
        assert session.next_response()["result"] == {"pong": True}
        assert not session.in_flight

    def test_retry_only_for_retryable_codes_and_stops_at_retries(self):
        session = ClientSession(retries=2, rng=random.Random(0))
        for code in CODE_TO_EXCEPTION:
            delay = session.retry_delay(remote_error(code), 0)
            assert (delay is not None) == (code in RETRYABLE_CODES)
        assert session.retry_delay(ProtocolError("local, no code"), 0) is None
        transient = remote_error("SHED")
        assert session.retry_delay(transient, 1) is not None
        assert session.retry_delay(transient, 2) is None
        assert session.n_retries == len(RETRYABLE_CODES) + 1
        assert ClientSession().retry_delay(transient, 0) is None  # retries=0

    def test_unavailable_is_retryable(self):
        exc = ClientSession().unavailable("127.0.0.1:1: connect failed")
        assert type(exc) is NetError and exc.code in RETRYABLE_CODES

    def test_backoff_delay_sequence_is_pinned(self):
        rng = random.Random(0)
        delays = [backoff_delay(n, 0.05, 2.0, rng) for n in range(8)]
        assert delays == pytest.approx([
            0.067221, 0.125795, 0.184114, 0.303567,
            0.80902, 1.447895, 2.567597, 1.606625], abs=1e-6)

    def test_eof_is_a_transport_fault(self):
        session = ClientSession()
        blob = encode_frame({"id": 1, "ok": True, "result": {}})
        session.request("ping", {})
        with pytest.raises(ConnectionError, match="mid-request"):
            session.receive(b"")
        session.receive(blob[:-3])
        with pytest.raises(ConnectionError, match="mid-frame"):
            session.receive(b"")

    @pytest.mark.parametrize("reply, match", [
        (encode_frame([1, 2]), "must be an object"),
        (encode_frame({"id": 9, "ok": True}), "does not match request id 1"),
        (b"XX" + bytes(14), "magic"),
    ])
    def test_bad_response_is_protocol_error_and_reset_recovers(self, reply,
                                                               match):
        session = ClientSession()
        session.request("ping", {})
        with pytest.raises(ProtocolError, match=match):
            session.receive(reply)
            session.next_response()
        session.reset()
        assert not session.in_flight
        session.request("ping", {})
        session.receive(encode_frame({"id": 2, "ok": True, "result": {}}))
        assert session.next_response()["result"] == {}

    def test_unsolicited_frame_is_protocol_error(self):
        session = ClientSession()
        session.receive(encode_frame({"id": 1, "ok": True}))
        with pytest.raises(ProtocolError, match="no request in flight"):
            session.next_response()


# --------------------------------------------------------------------- #
# the socket drivers
# --------------------------------------------------------------------- #
@pytest.fixture
def server(tmp_path):
    with GraphService(tmp_path, batch_edges=512,
                      flush_interval=0.005) as service:
        with ServerThread(service, view_refresh_s=0.0) as thread:
            yield thread


async def settle(value):
    """``value``, awaited when the asyncio driver returned an awaitable."""
    return await value if inspect.isawaitable(value) else value


#: (method, args, kwargs) -> (result, last_generation, last_applied_seq)
TYPED_OPS = [
    ("ping", (), {}, ({"pong": True}, None, None)),
    ("insert_edges", ([[1, 2], [1, 3], [2, 3], [3, 4]],),
     {"weights": [1.0, 5.0, 1.0, 1.0]},
     ({"seq": 1, "n_edges": 4}, None, None)),
    ("refresh", (), {}, ({"generation": 1, "applied_seq": 1}, None, None)),
    ("degree", (1,), {}, (2, 1, 1)),
    ("neighbors", (1,), {}, ({"dst": [2, 3], "weight": [1.0, 5.0]}, 1, 1)),
    ("khop", (1, 2), {},
     ({"vertices": [1, 2, 3, 4], "truncated": False}, 1, 1)),
    ("khop", (1, 2), {"limit": 1},
     ({"vertices": [1], "truncated": True}, 1, 1)),
    ("shortest_path", (1, 3), {},
     ({"found": True, "distance": 2.0, "path": [1, 2, 3],
       "truncated": False}, 1, 1)),
    ("shortest_path", (1, 3), {"weighted": False, "limit": 10},
     ({"found": True, "distance": 1.0, "path": [1, 3],
       "truncated": False}, 1, 1)),
    ("delete_edges", ([[1, 3]],), {}, ({"seq": 2, "n_edges": 1}, 1, 1)),
    ("refresh", (), {}, ({"generation": 2, "applied_seq": 2}, 1, 1)),
    ("degree", (1,), {}, (1, 2, 2)),
]


class TestDriverParity:
    @pytest.mark.parametrize("client_cls", [GraphClient, AsyncGraphClient])
    def test_typed_ops_and_watermarks(self, server, client_cls):
        async def scenario():
            client = client_cls(port=server.port)
            try:
                got = []
                for method, args, kwargs, _ in TYPED_OPS:
                    result = await settle(
                        getattr(client, method)(*args, **kwargs))
                    assert client.last_staleness is None  # a writer
                    got.append((result, client.last_generation,
                                client.last_applied_seq))
                assert (await settle(client.digest()))["n_edges"] == 3
                assert (await settle(client.health()))["ok"] is True
                assert "prometheus" in await settle(client.metrics())
                assert client.codec == "json" and client.n_retries == 0
                return got
            finally:
                await settle(client.close())

        assert asyncio.run(scenario()) == [want for *_, want in TYPED_OPS]


class TestPipelineErrorContract:
    def test_remote_error_mid_pipeline_leaves_connection_usable(self, server):
        ok = [[[i, i + 1]] for i in range(4)]
        with GraphClient(port=server.port) as client:
            with pytest.raises(WorkloadError) as info:
                client.submit_edges_pipelined(
                    [ok[0], ok[1], "garbage", ok[2], ok[3]], window=8)
            assert info.value.code == "BAD_REQUEST"
            # every owed response was read: the connection is in step
            assert client.ping() == {"pong": True}
            # every batch before the failed one is acked (durable)
            health = client.health()
            assert health["applied_seq"] >= 2
            client.refresh()
            assert client.degree(0) == 1 and client.degree(1) == 1

    def test_no_batch_is_sent_after_the_first_error(self, server):
        batches = ["garbage"] + [[[i, i + 1]] for i in range(10, 20)]
        with GraphClient(port=server.port) as client:
            with pytest.raises(WorkloadError):
                client.submit_edges_pipelined(batches, window=2)
            # window=2: only the batch sent beside the bad one went out
            assert client.health()["applied_seq"] == 1


# --------------------------------------------------------------------- #
# a peer that violates the protocol
# --------------------------------------------------------------------- #
def answer_ok(request: dict) -> bytes:
    result = ({"proto": PROTOCOL_VERSION, "codec": "json"}
              if request["op"] == "hello" else {"pong": True})
    return encode_frame({"id": request["id"], "ok": True, "result": result})


def answer_garbage(kind: str):
    """Proper hello, then a structurally bad frame for every request."""
    def reply(request: dict) -> bytes:
        if request["op"] == "hello":
            return answer_ok(request)
        return {
            "bad-magic": b"XX" + bytes(14),
            "non-object": encode_frame([1, 2]),
            "id-mismatch": encode_frame(
                {"id": request["id"] + 7, "ok": True, "result": {}}),
        }[kind]
    return reply


class ScriptedServer:
    """Loopback peer: the i-th accepted connection is answered by
    ``replies[i]`` and held open until the client hangs up."""

    def __init__(self, *replies):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._replies = replies
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        try:
            for reply in self._replies:
                conn, _ = self._listener.accept()
                threading.Thread(target=self._talk, args=(conn, reply),
                                 daemon=True).start()
        except OSError:
            pass  # listener closed by the test

    @staticmethod
    def _talk(conn, reply):
        decoder = FrameDecoder()
        with conn:
            try:
                while data := conn.recv(1 << 16):
                    decoder.feed(data)
                    for request in decoder.frames():
                        conn.sendall(reply(request))
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._listener.close()


@pytest.mark.parametrize("kind", ["bad-magic", "non-object", "id-mismatch"])
@pytest.mark.parametrize("client_cls", [GraphClient, AsyncGraphClient])
def test_protocol_error_drops_the_connection_instead_of_wedging(client_cls,
                                                                kind):
    async def scenario(port):
        client = client_cls(port=port, timeout=5.0, retries=2)
        try:
            with pytest.raises(ProtocolError):
                await settle(client.ping())
            assert client.n_retries == 0  # surfaced, never retried
            # the poisoned connection is gone: this call reconnects
            assert await settle(client.ping()) == {"pong": True}
        finally:
            await settle(client.close())

    with ScriptedServer(answer_garbage(kind), answer_ok) as peer:
        asyncio.run(scenario(peer.port))
