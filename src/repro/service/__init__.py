"""Durable graph service: WAL, checkpoints, crash recovery, frontend.

This subsystem wraps the in-process stores with the machinery a
long-running deployment needs (docs/service.md):

* :mod:`repro.service.wal` — append-only, CRC-guarded write-ahead log.
* :mod:`repro.service.checkpoint` — versioned snapshots bound to WAL
  cursors, with pruning.
* :mod:`repro.service.recovery` — checkpoint restore + idempotent WAL
  tail replay.
* :mod:`repro.service.service` — :class:`GraphService`, the
  multi-threaded batching ingest/query frontend.
* :mod:`repro.service.faults` — fault injection: byte-exact writer
  kills, scheduled transient WAL I/O errors, and in-memory store
  corruption for fsck testing.
* :mod:`repro.service.tail` — :class:`WalTailer`, cursor-based
  tail-follow reads of a live WAL (the substrate replication streams
  ride on).

Nothing in the core data-structure or benchmark paths imports this
package; using the library without the service costs nothing.
"""

from repro.service.checkpoint import (
    CheckpointInfo,
    CheckpointManager,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
)
from repro.service.faults import (
    CorruptionError,
    FaultInjector,
    InjectedCorruption,
    InjectedWalFault,
    SimulatedCrash,
    StoreCorruptor,
    TransientFaultInjector,
)
from repro.service.recovery import RecoveryResult, recover
from repro.service.service import GraphService, Ticket
from repro.service.tail import DEFAULT_POLL_RECORDS, WalTailer, segment_first_seq
from repro.service.wal import (
    OP_DELETE,
    OP_INSERT,
    WalRecord,
    WriteAheadLog,
    iter_records,
    list_segments,
    prune_segments,
    scan_segment,
    truncate_torn_tail,
)

__all__ = [
    "CheckpointInfo",
    "CheckpointManager",
    "CorruptionError",
    "DEFAULT_POLL_RECORDS",
    "FaultInjector",
    "GraphService",
    "InjectedCorruption",
    "InjectedWalFault",
    "OP_DELETE",
    "OP_INSERT",
    "RecoveryResult",
    "SimulatedCrash",
    "StoreCorruptor",
    "Ticket",
    "TransientFaultInjector",
    "WalRecord",
    "WalTailer",
    "WriteAheadLog",
    "iter_records",
    "latest_checkpoint",
    "list_checkpoints",
    "list_segments",
    "load_checkpoint",
    "prune_segments",
    "recover",
    "scan_segment",
    "segment_first_seq",
    "truncate_torn_tail",
]
