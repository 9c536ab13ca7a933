"""Length-prefixed frame codec — the wire layer both ends share.

Every message on a ``repro`` network connection is one *frame*::

    offset  size  field
    0       2     magic  b"RG"
    2       1     codec  0 = JSON (UTF-8); every other value is rejected
    3       1     flags  reserved, must be 0
    4       4     length of the payload in bytes, big-endian unsigned
    8       len   payload (one encoded message object)

The codec is symmetric and stateless: :func:`encode_frame` turns one
JSON-safe object into bytes, :class:`FrameDecoder` incrementally turns a
byte stream back into objects (feed arbitrary chunks, pop complete
messages).  Anything structurally wrong — bad magic, unknown codec byte,
nonzero reserved flags, a declared length over ``max_frame``, or an
undecodable payload — raises a typed
:class:`~repro.errors.ProtocolError`; an *incomplete* frame is not an
error (more bytes may arrive) — what EOF mid-frame means is for the
decoder's owner to say (:attr:`FrameDecoder.at_boundary`).

JSON is the only codec.  The codec byte and the hello handshake's
``codecs`` list are part of the wire format, but a peer offering more
than JSON is answered ``"json"`` and a frame carrying any other codec
byte is refused.
"""

from __future__ import annotations

import json
import struct

from repro.errors import ProtocolError

MAGIC = b"RG"
HEADER_SIZE = 8
_HEADER = struct.Struct(">2sBBI")

CODEC_JSON = 0
CODEC_NAMES = {CODEC_JSON: "json"}
CODEC_IDS = {name: codec_id for codec_id, name in CODEC_NAMES.items()}

#: Default upper bound on one frame's payload (64 MiB) — large enough
#: for any realistic batched mutation, small enough that a corrupt
#: length prefix cannot make either end try to buffer gigabytes.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024

def supported_codecs() -> list[str]:
    """Codec names this process can speak (the hello handshake's offer)."""
    return list(CODEC_IDS)


def _decode_payload(payload: bytes):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable JSON payload: {exc}") from exc


def encode_frame(obj, codec: str = "json", *,
                 max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """One message object -> one wire frame (header + payload)."""
    try:
        codec_id = CODEC_IDS[codec]
    except KeyError:
        raise ProtocolError(f"unknown codec {codec!r}") from None
    payload = json.dumps(obj, separators=(",", ":"),
                         ensure_ascii=False).encode("utf-8")
    if len(payload) > max_frame:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame limit")
    return _HEADER.pack(MAGIC, codec_id, 0, len(payload)) + payload


def parse_header(header: bytes, *,
                 max_frame: int = DEFAULT_MAX_FRAME) -> tuple[int, int]:
    """Validate an 8-byte header; return ``(codec_id, payload_length)``."""
    if len(header) != HEADER_SIZE:
        raise ProtocolError(
            f"truncated frame header ({len(header)} of {HEADER_SIZE} bytes)")
    magic, codec_id, flags, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if codec_id not in CODEC_NAMES:
        raise ProtocolError(f"unknown codec id {codec_id}")
    if flags != 0:
        raise ProtocolError(f"reserved frame flags must be 0, got {flags}")
    if length > max_frame:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{max_frame}-byte frame limit")
    return codec_id, length


class FrameDecoder:
    """Incremental frame decoder over an arbitrary chunking of the stream.

    ``feed(chunk)`` buffers bytes; ``frames()`` yields every complete
    message currently decodable.  Structural violations raise
    :class:`~repro.errors.ProtocolError` immediately (the connection is
    unrecoverable at that point — there is no way to resynchronise a
    length-prefixed stream after a bad prefix).
    """

    def __init__(self, *, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> None:
        self._buffer.extend(chunk)

    @property
    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (clean-EOF detection)."""
        return not self._buffer

    def frames(self):
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return
            _, length = parse_header(
                bytes(self._buffer[:HEADER_SIZE]), max_frame=self.max_frame)
            if len(self._buffer) < HEADER_SIZE + length:
                return
            payload = bytes(self._buffer[HEADER_SIZE:HEADER_SIZE + length])
            del self._buffer[:HEADER_SIZE + length]
            yield _decode_payload(payload)
