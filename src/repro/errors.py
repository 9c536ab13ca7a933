"""Exception hierarchy for the ``repro`` package.

Every error raised on a public code path derives from :class:`ReproError`
so callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied."""


class StoreProtocolError(ReproError, TypeError):
    """A backend does not implement the full :class:`repro.core.store.Store`
    contract.

    Raised at registration/construction time — naming every missing
    member — so an incomplete backend fails loudly up front instead of
    deep inside an engine kernel with an ``AttributeError``.
    """


class CapacityError(ReproError):
    """A fixed-capacity structure could not accommodate an element.

    This is an internal signal in most cases (e.g. a congested Subblock
    triggers a branch-out rather than surfacing the error), but it becomes
    user-visible when a hard capacity cap (``max_generations``) is exhausted.
    """


class VertexNotFoundError(ReproError, KeyError):
    """The requested vertex does not exist in the structure."""


class EngineError(ReproError):
    """The graph engine was driven with an inconsistent request."""


class WorkloadError(ReproError, ValueError):
    """A workload/dataset request could not be satisfied."""


class ServiceError(ReproError):
    """The durable graph service hit an unrecoverable condition.

    Raised for corrupt write-ahead-log records (CRC mismatch with intact
    data after them), a sequence gap between a checkpoint and the
    surviving WAL tail, queue-full backpressure timeouts, and submissions
    to a stopped service.  Messages name the offending file/offset or
    sequence numbers so an operator can act on them.  Overload conditions
    raise the typed subclasses below so callers (and the network layer)
    can map them without parsing messages.
    """


class ShardCrashError(ServiceError):
    """A shard worker process of a sharded store died.

    Raised when a command pipe to a worker breaks (the worker was
    ``kill -9``-ed, OOM-killed, or crashed) or when a dispatched command
    never gets a response.  The surviving shards' state is intact; the
    recovery action is to discard the parent store and re-open the
    service directory — per-shard WAL segments replay independently, so
    only the crashed shard's tail is re-applied.
    """


class ShedError(ServiceError):
    """A read was shed because the ingest queue is over the shed mark.

    Transient by construction: the read was rejected *instead of*
    queueing behind a saturated flusher, so retrying after a backoff is
    the intended client response.
    """


class BreakerOpenError(ServiceError):
    """The service's circuit breaker is open; work was fast-failed.

    Raised both for new submissions while open and for queued tickets
    that were failed when the breaker tripped.  Clears after
    ``breaker_reset`` seconds once the underlying fault stops recurring.
    """


class QueueFullError(ServiceError):
    """Backpressure timeout: the bounded ingest queue stayed full."""


class StaleReadError(ServiceError):
    """A replica shed a read because its replication lag exceeds the SLO.

    Transient by construction, like :class:`ShedError`: the replica
    refused to serve an answer staler than its configured bound instead
    of lying about freshness.  Clients should retry elsewhere (another
    replica, or the writer) — the :class:`~repro.net.client.ReplicaSet`
    router does exactly that.
    """


class NotWriterError(ServiceError):
    """A mutation was sent to a read replica.

    Replicas apply mutations only from their upstream WAL stream; a
    client-side router (``ReplicaSet``) sends writes to the writer and
    never sees this.  Not retryable against the *same* node — the
    correct response is rerouting, not backoff.
    """


class ReplicationError(ServiceError):
    """The WAL-shipping replication stream hit an unrecoverable state.

    Raised for upstream/replica cursor divergence (sequence or
    cumulative-edge mismatch on an applied record) and digest
    cross-check failures after catch-up.  The replica's recovery action
    is a full resync from the writer's live state.
    """


class CursorGapError(ReplicationError):
    """A subscription cursor points below the writer's retained WAL.

    Checkpoints prune WAL segments; a replica that was down long enough
    can come back with a cursor older than the oldest surviving segment
    (or, after a writer-side reset, *ahead* of the writer's log).  The
    missing records cannot be streamed — the subscriber must take the
    full-resync path instead.
    """


class NetError(ReproError):
    """A network-layer failure talking to (or serving) a graph service.

    Covers transport-level failures the typed remote errors cannot:
    exhausted reconnect attempts, a server that vanished mid-request,
    or a remote fault with no more specific mapping.
    """


class ProtocolError(NetError):
    """The wire protocol was violated (bad frame, codec, or version).

    Raised for garbage/truncated frame prefixes, oversized declared
    lengths, unknown codec bytes, undecodable payloads, and protocol
    version mismatches during the hello handshake.
    """
