"""Wire protocol: versioning, the op table, and typed error mapping.

One request/response pair per frame (see :mod:`repro.net.frames` for the
byte layout).  Requests and responses are plain JSON-safe objects::

    request:  {"id": 7, "op": "degree", "args": {"src": 42}}
    response: {"id": 7, "ok": true, "result": {"degree": 3},
               "generation": 12}                       # read ops only
    error:    {"id": 7, "ok": false,
               "error": {"code": "SHED", "message": "..."}}

The first frame on a connection must be ``hello``; the server answers
with the negotiated protocol version and codec, and every later frame on
that connection uses the negotiated codec.  A protocol-version mismatch
is answered with a ``VERSION`` error frame and the connection is closed.

Error codes are the wire form of the repro exception hierarchy; both
directions of the mapping live here so the client can re-raise exactly
the exception the server-side service raised
(:class:`~repro.errors.ShedError` for a shed read,
:class:`~repro.errors.BreakerOpenError` for a fast-failed submit, …)
instead of a stringly-typed remote error.
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    BreakerOpenError,
    CursorGapError,
    NetError,
    NotWriterError,
    ProtocolError,
    QueueFullError,
    ReplicationError,
    ReproError,
    ServiceError,
    ShedError,
    StaleReadError,
    WorkloadError,
)

#: Protocol version this build speaks.  Bumped on any incompatible
#: message-shape change; the hello handshake rejects a peer whose
#: version differs.
PROTOCOL_VERSION = 1

# --------------------------------------------------------------------- #
# op table
# --------------------------------------------------------------------- #
#: op name -> family.  ``write`` ops feed the service's batching queue
#: (durable, ticketed), ``read`` ops are served lock-free from the CSR
#: snapshot view and carry a ``generation``, ``admin`` ops are control
#: plane (never shed).
OPS: dict[str, str] = {
    "hello": "admin",
    "ping": "admin",
    "health": "admin",
    "metrics": "admin",
    "digest": "admin",
    "refresh": "admin",
    "insert_edges": "write",
    "delete_edges": "write",
    "degree": "read",
    "neighbors": "read",
    "khop": "read",
    "shortest_path": "read",
    # Replication plane (docs/network.md "Replication"): a replica
    # subscribes with its {seq, cum_edges} cursor, pulls WAL record
    # batches (long-poll), reports its applied cursor back, and falls
    # back to a full state transfer when its cursor is below the
    # writer's retained log.  Never shed — replication is how replicas
    # *stop* being stale.
    "subscribe": "repl",
    "wal_batch": "repl",
    "replica_status": "repl",
    "resync": "repl",
}

# --------------------------------------------------------------------- #
# error codes <-> exceptions
# --------------------------------------------------------------------- #
E_VERSION = "VERSION"
E_PROTOCOL = "PROTOCOL"
E_BAD_REQUEST = "BAD_REQUEST"
E_SHED = "SHED"
E_BREAKER_OPEN = "BREAKER_OPEN"
E_QUEUE_FULL = "QUEUE_FULL"
E_SERVICE = "SERVICE"
E_INTERNAL = "INTERNAL"
E_STALE = "STALE"
E_NOT_WRITER = "NOT_WRITER"
E_CURSOR_GAP = "CURSOR_GAP"
E_REPLICATION = "REPLICATION"
#: Client-side synthetic code for transport failures (connection
#: refused/reset, peer vanished mid-frame).  Never sent by a server —
#: attached by the clients so retry/failover policies can treat "the
#: node is unreachable" uniformly with the typed transient errors.
E_UNAVAILABLE = "UNAVAILABLE"

#: code -> exception class raised client-side for a remote error frame.
CODE_TO_EXCEPTION: dict[str, type[ReproError]] = {
    E_VERSION: ProtocolError,
    E_PROTOCOL: ProtocolError,
    E_BAD_REQUEST: WorkloadError,
    E_SHED: ShedError,
    E_BREAKER_OPEN: BreakerOpenError,
    E_QUEUE_FULL: QueueFullError,
    E_SERVICE: ServiceError,
    E_INTERNAL: NetError,
    E_STALE: StaleReadError,
    E_NOT_WRITER: NotWriterError,
    E_CURSOR_GAP: CursorGapError,
    E_REPLICATION: ReplicationError,
    E_UNAVAILABLE: NetError,
}

#: Codes a client may transparently retry with backoff: the condition is
#: declared transient by the service itself (or, for ``UNAVAILABLE``,
#: by the transport — reconnecting may reach a restarted server).
RETRYABLE_CODES = frozenset({E_SHED, E_BREAKER_OPEN, E_QUEUE_FULL,
                             E_STALE, E_UNAVAILABLE})

#: Codes a replica-routing client fails over on (try the next target)
#: without treating the whole call as failed.  ``NOT_WRITER`` is not
#: retryable against the same node but is exactly a rerouting signal.
FAILOVER_CODES = RETRYABLE_CODES | frozenset({E_NOT_WRITER})


def exception_to_code(exc: BaseException) -> str:
    """Server-side: the wire code for an exception (most specific wins)."""
    if isinstance(exc, ShedError):
        return E_SHED
    if isinstance(exc, BreakerOpenError):
        return E_BREAKER_OPEN
    if isinstance(exc, QueueFullError):
        return E_QUEUE_FULL
    if isinstance(exc, StaleReadError):
        return E_STALE
    if isinstance(exc, NotWriterError):
        return E_NOT_WRITER
    if isinstance(exc, CursorGapError):
        return E_CURSOR_GAP
    if isinstance(exc, ReplicationError):
        return E_REPLICATION
    if isinstance(exc, ProtocolError):
        return E_PROTOCOL
    if isinstance(exc, WorkloadError):
        return E_BAD_REQUEST
    if isinstance(exc, ServiceError):
        return E_SERVICE
    return E_INTERNAL


def error_response(request_id, exc_or_code, message: str | None = None) -> dict:
    """Build one error frame (from an exception, or an explicit code)."""
    if isinstance(exc_or_code, BaseException):
        code = exception_to_code(exc_or_code)
        message = str(exc_or_code)
    else:
        code = exc_or_code
        message = message or code
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def raise_remote_error(error: dict) -> None:
    """Client-side: re-raise an error frame as its typed exception.

    The wire code rides along as ``exc.code`` so retry policies can
    consult :data:`RETRYABLE_CODES` without string matching.
    """
    code = error.get("code", E_INTERNAL)
    message = error.get("message", "remote error")
    exc_cls = CODE_TO_EXCEPTION.get(code, NetError)
    exc = exc_cls(f"[{code}] {message}")
    exc.code = code
    raise exc


# --------------------------------------------------------------------- #
# replication record codec
# --------------------------------------------------------------------- #
def wal_record_to_wire(record) -> dict:
    """One :class:`~repro.service.wal.WalRecord` as a JSON-safe object.

    The cursor fields (``seq``, ``cum_edges``) ride along so a replica
    can verify stream contiguity and cumulative-edge parity record by
    record instead of trusting the batch envelope.
    """
    wire = {
        "seq": int(record.seq),
        "op": int(record.op),
        "edges": np.asarray(record.edges, dtype=np.int64).tolist(),
        "cum_edges": int(record.cum_edges),
    }
    if record.weights is not None:
        wire["weights"] = np.asarray(record.weights,
                                     dtype=np.float64).tolist()
    return wire


def wal_record_from_wire(wire: dict):
    """Inverse of :func:`wal_record_to_wire` (returns a ``WalRecord``)."""
    from repro.service.wal import OP_DELETE, OP_INSERT, WalRecord

    try:
        op = int(wire["op"])
        if op not in (OP_INSERT, OP_DELETE):
            raise ValueError(f"unknown WAL op {op}")
        edges = np.asarray(wire["edges"], dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges shape {edges.shape}")
        weights = wire.get("weights")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != edges.shape[0]:
                raise ValueError("weights length != edge count")
        return WalRecord(seq=int(wire["seq"]), op=op,
                         edges=edges, weights=weights,
                         cum_edges=int(wire["cum_edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplicationError(
            f"malformed WAL record on the wire: {exc}") from exc


# --------------------------------------------------------------------- #
# JSON safety
# --------------------------------------------------------------------- #
def json_safe(value):
    """Recursively convert numpy scalars/arrays so json can encode them."""
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value
