"""Property and adversarial tests for the wire frame codec.

The frame layer is the one part of the network stack both ends must
agree on byte-for-byte, so it gets the heaviest scrutiny: round-trips
(including >64 KiB payloads, empty objects, and non-ASCII text),
arbitrary stream re-chunking through :class:`FrameDecoder`, and the full
catalogue of structural violations — each of which must raise a typed
:class:`~repro.errors.ProtocolError`, never a bare ``struct.error`` /
``JSONDecodeError`` and never a silent mis-parse.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net.frames import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    MAGIC,
    FrameDecoder,
    encode_frame,
    parse_header,
    supported_codecs,
)


def decode_one(blob: bytes):
    decoder = FrameDecoder()
    decoder.feed(blob)
    frames = list(decoder.frames())
    assert len(frames) == 1
    assert decoder.at_boundary
    return frames[0]


class TestRoundTrip:
    def test_simple_object(self):
        msg = {"id": 1, "op": "degree", "args": {"src": 42}}
        assert decode_one(encode_frame(msg)) == msg

    def test_empty_object(self):
        assert decode_one(encode_frame({})) == {}

    def test_empty_list_and_scalars(self):
        for msg in ([], 0, -1, 1.5, "", True, None):
            assert decode_one(encode_frame(msg)) == msg

    def test_unicode_payload(self):
        msg = {"text": "héllo wörld ☃ \U0001F600 — グラフ"}
        blob = encode_frame(msg)
        assert decode_one(blob) == msg

    def test_large_payload_over_64kib(self):
        msg = {"edges": [[i, i + 1] for i in range(20_000)]}
        blob = encode_frame(msg)
        assert len(blob) > 64 * 1024
        assert decode_one(blob) == msg

    def test_payload_length_matches_header(self):
        msg = {"k": "v" * 100}
        blob = encode_frame(msg)
        _, length = parse_header(blob[:HEADER_SIZE])
        assert length == len(blob) - HEADER_SIZE

    def test_json_codec_is_always_supported(self):
        assert supported_codecs()[0] == "json"

    def test_msgpack_codec_rejected(self):
        """JSON is the only codec: the old msgpack name and id are errors."""
        assert supported_codecs() == ["json"]
        with pytest.raises(ProtocolError, match="unknown codec"):
            encode_frame({"id": 7}, "msgpack")
        blob = bytearray(encode_frame({"id": 7}))
        blob[2] = 1  # the codec byte msgpack used to claim
        decoder = FrameDecoder()
        decoder.feed(bytes(blob))
        with pytest.raises(ProtocolError, match="unknown codec id 1"):
            list(decoder.frames())


class TestStructuralViolations:
    def test_unknown_codec_name(self):
        with pytest.raises(ProtocolError, match="unknown codec"):
            encode_frame({}, "xml")

    def test_bad_magic(self):
        blob = bytearray(encode_frame({"id": 1}))
        blob[0:2] = b"XX"
        decoder = FrameDecoder()
        decoder.feed(bytes(blob))
        with pytest.raises(ProtocolError, match="magic"):
            list(decoder.frames())

    def test_unknown_codec_id(self):
        blob = bytearray(encode_frame({"id": 1}))
        blob[2] = 99
        decoder = FrameDecoder()
        decoder.feed(bytes(blob))
        with pytest.raises(ProtocolError, match="codec"):
            list(decoder.frames())

    def test_nonzero_reserved_flags(self):
        blob = bytearray(encode_frame({"id": 1}))
        blob[3] = 1
        decoder = FrameDecoder()
        decoder.feed(bytes(blob))
        with pytest.raises(ProtocolError, match="flags"):
            list(decoder.frames())

    def test_oversize_declared_length(self):
        header = struct.pack(">2sBBI", MAGIC, 0, 0, DEFAULT_MAX_FRAME + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_header(header)

    def test_encode_respects_max_frame(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * 1024}, max_frame=64)

    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="truncated"):
            parse_header(b"RG\x00")

    def test_undecodable_json_payload(self):
        payload = b"{not json"
        blob = struct.pack(">2sBBI", MAGIC, 0, 0, len(payload)) + payload
        decoder = FrameDecoder()
        decoder.feed(blob)
        with pytest.raises(ProtocolError, match="undecodable"):
            list(decoder.frames())

    def test_garbage_stream(self):
        decoder = FrameDecoder()
        decoder.feed(b"\xde\xad\xbe\xef" * 4)
        with pytest.raises(ProtocolError):
            list(decoder.frames())


class TestFrameDecoderStreaming:
    def test_incomplete_frame_is_not_an_error(self):
        blob = encode_frame({"id": 1, "op": "ping"})
        decoder = FrameDecoder()
        decoder.feed(blob[: len(blob) - 3])
        assert list(decoder.frames()) == []
        assert not decoder.at_boundary
        decoder.feed(blob[len(blob) - 3:])
        assert list(decoder.frames()) == [{"id": 1, "op": "ping"}]
        assert decoder.at_boundary

    def test_multiple_frames_in_one_feed(self):
        msgs = [{"id": i} for i in range(5)]
        decoder = FrameDecoder()
        decoder.feed(b"".join(encode_frame(m) for m in msgs))
        assert list(decoder.frames()) == msgs

    def test_byte_at_a_time(self):
        msg = {"id": 3, "args": {"src": 1, "text": "グ"}}
        blob = encode_frame(msg)
        decoder = FrameDecoder()
        got = []
        for i in range(len(blob)):
            decoder.feed(blob[i:i + 1])
            got.extend(decoder.frames())
        assert got == [msg]


# JSON-safe message objects: nested dicts/lists of scalars and strings.
json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.text(max_size=10), inner, max_size=6)),
    max_leaves=25)


def rechunked(stream: bytes, data):
    """``stream`` cut into hypothesis-drawn chunks (any re-chunking)."""
    i = 0
    while i < len(stream):
        step = data.draw(st.integers(min_value=1, max_value=len(stream)),
                         label="chunk")
        yield stream[i:i + step]
        i += step


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(json_values, min_size=1, max_size=6),
           data=st.data())
    def test_any_chunking_recovers_the_message_sequence(self, messages,
                                                        data):
        """Frames survive arbitrary stream re-chunking, in order."""
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        got = []
        for chunk in rechunked(stream, data):
            decoder.feed(chunk)
            got.extend(decoder.frames())
        assert got == messages
        assert decoder.at_boundary

    @settings(max_examples=60, deadline=None)
    @given(msg=json_values)
    def test_round_trip_identity(self, msg):
        blob = encode_frame(msg)
        assert decode_one(blob) == json.loads(
            blob[HEADER_SIZE:].decode("utf-8"))
        assert decode_one(blob) == msg

