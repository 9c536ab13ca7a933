"""Network front-end: the wire protocol and serving tier.

``repro.net`` turns one durable :class:`~repro.service.GraphService`
into a network service:

* :mod:`repro.net.frames` — length-prefixed JSON frame codec shared by
  every peer.
* :mod:`repro.net.protocol` — protocol version, op table, typed error
  code ↔ exception mapping.  ``store_digest``, the canonical state
  digest, is :func:`repro.core.store.store_digest`, exported here too.
* :mod:`repro.net.readpath` — immutable CSR :class:`ReadView` captures
  and the lock-free graph queries served from them.
* :mod:`repro.net.server` — the asyncio :class:`GraphServer` (and the
  thread-hosted :class:`ServerThread` wrapper).
* :mod:`repro.net.session` — the sans-IO :class:`ClientSession` (request
  ids, response validation, typed remote errors, retry decision) and
  the typed op surface every client shares.
* :mod:`repro.net.client` / :mod:`repro.net.aioclient` — its blocking
  and asyncio drivers, and the :class:`ReplicaSet` failover router.
* :mod:`repro.net.loadgen` — the closed-loop load generator behind
  ``python -m repro loadgen`` (a smoke and chaos driver — the serving
  numbers of record are ``perf/``'s ``serve_mixed`` workload).
* :mod:`repro.net.replication` — WAL-shipping read replicas:
  :class:`ReplicationLink` (the pull/apply/resync thread feeding a
  follower :class:`~repro.service.GraphService`) and the composed
  :class:`ReplicaServer` behind ``python -m repro serve-replica``.
* :mod:`repro.net.chaos` — :class:`ChaosProxy`, the frame-aware
  fault-injecting proxy the replication chaos suite runs through.

See docs/network.md for the protocol spec, replication cursor rules and
staleness semantics.
"""

from repro.core.store import store_digest
from repro.net.aioclient import AsyncGraphClient
from repro.net.chaos import ChaosProxy
from repro.net.client import GraphClient, ReplicaSet
from repro.net.frames import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    encode_frame,
    supported_codecs,
)
from repro.net.loadgen import LoadStats, run_loadgen
from repro.net.protocol import (
    FAILOVER_CODES,
    OPS,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    wal_record_from_wire,
    wal_record_to_wire,
)
from repro.net.readpath import ReadView, capture_view, capture_view_locked
from repro.net.replication import ReplicaServer, ReplicationLink
from repro.net.server import GraphServer, ServerThread

__all__ = [
    "AsyncGraphClient",
    "ChaosProxy",
    "DEFAULT_MAX_FRAME",
    "FAILOVER_CODES",
    "FrameDecoder",
    "GraphClient",
    "GraphServer",
    "LoadStats",
    "OPS",
    "PROTOCOL_VERSION",
    "RETRYABLE_CODES",
    "ReadView",
    "ReplicaServer",
    "ReplicaSet",
    "ReplicationLink",
    "ServerThread",
    "capture_view",
    "capture_view_locked",
    "encode_frame",
    "run_loadgen",
    "store_digest",
    "supported_codecs",
    "wal_record_from_wire",
    "wal_record_to_wire",
]
