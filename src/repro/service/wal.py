"""Append-only write-ahead log with CRC-guarded binary segments.

The WAL is the durability spine of the graph service: every micro-batch
the service applies to the store is first appended here as one *record*,
so a crash between the append and the in-memory apply loses nothing —
recovery replays the tail.

On-disk layout
--------------
A WAL directory holds numbered segment files::

    wal-00000000000000000001.seg      <- first record is sequence 1
    wal-00000000000000000042.seg      <- rotated; first record is seq 42

A sharded service (``--shards N``) keeps one independent chain per
shard in the same directory, ``wal-shard<k>-<seq>.seg``, managed by
:class:`ShardedWriteAheadLog`; each chain has its own contiguous
sequence space and replays independently on recovery (docs/sharding.md).

Each segment starts with an 8-byte magic (``GTWAL001``) followed by
back-to-back records.  A record is a fixed header plus a payload::

    <I  crc32   over the rest of the header + payload
    <Q  seq     monotonic batch sequence number (1-based, contiguous)
    <B  op      0 = insert, 1 = delete
    <I  n       edge rows in the payload
    <Q  cum     cumulative edge rows through this record (stream offset)
    <I  len     payload byte length (n*24 insert, n*16 delete)

    payload:    src int64[n] | dst int64[n] | weight float64[n insert only]

The ``cum`` field lets a driver resume a deterministic input stream after
a crash without replaying it: the last durable record says how many input
rows were consumed (see ``python -m repro serve --resume``).

Torn tails vs corruption
------------------------
A process killed mid-``write`` leaves a *torn* final record — a short
header, a short payload, or a final record whose CRC does not match.
That is expected and safe: readers drop it (and recovery truncates it).
A CRC mismatch (or a short record) with *more data after it*, or in any
segment that is not the last, means real corruption and raises
:class:`~repro.errors.ServiceError` — replaying past a hole would
silently diverge from the pre-crash state.

Sync policy
-----------
``"always"`` fsyncs every append (each record durable against OS crash),
``"batch"`` flushes every append and leaves fsync to explicit
:meth:`WriteAheadLog.sync` calls (the service syncs once per micro-batch
flush), ``"never"`` flushes to the OS only on rotation/close.  All three
survive a killed *process*; the weaker two trade OS-crash durability for
throughput.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import ServiceError

SEGMENT_MAGIC = b"GTWAL001"
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"

#: Record header: crc32, seq, op, n_edges, cum_edges, payload_len.
_HEADER = struct.Struct("<IQBIQI")

OP_INSERT = 0
OP_DELETE = 1

SYNC_POLICIES = ("always", "batch", "never")

DEFAULT_SEGMENT_BYTES = 1 << 20


@dataclass
class WalRecord:
    """One decoded WAL record."""

    seq: int
    op: int
    edges: np.ndarray      # (n, 2) int64
    weights: np.ndarray    # (n,) float64 (all-ones for deletes)
    cum_edges: int         # input rows consumed through this record

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])


def shard_prefix(shard: int) -> str:
    """Segment-name prefix of one shard's log (``wal-shard<k>-``).

    A sharded service keeps one independent WAL per shard in the same
    directory; the per-shard prefixes and the plain ``wal-`` prefix never
    collide because the plain lister requires an all-digit stem.
    """
    return f"{SEGMENT_PREFIX}shard{shard}-"


def segment_path(directory: Path, first_seq: int,
                 prefix: str = SEGMENT_PREFIX) -> Path:
    return directory / f"{prefix}{first_seq:020d}{SEGMENT_SUFFIX}"


def list_segments(directory: str | Path,
                  prefix: str = SEGMENT_PREFIX) -> list[Path]:
    """Segment files in ``directory``, ordered by first sequence number.

    Only files whose name is exactly ``<prefix><digits><suffix>`` match,
    so the plain prefix never picks up per-shard segments (their stems
    start with ``shard<k>-``) and vice versa.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for p in directory.iterdir():
        name = p.name
        if name.startswith(prefix) and name.endswith(SEGMENT_SUFFIX):
            stem = name[len(prefix):-len(SEGMENT_SUFFIX)]
            if stem.isdigit():
                out.append((int(stem), p))
    return [p for _, p in sorted(out)]


def _encode(seq: int, op: int, edges: np.ndarray, weights: np.ndarray | None,
            cum_edges: int) -> bytes:
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    n = edges.shape[0]
    parts = [edges[:, 0].tobytes(), edges[:, 1].tobytes()]
    if op == OP_INSERT:
        if weights is None:
            weights = np.ones(n, dtype=np.float64)
        parts.append(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
    payload = b"".join(parts)
    body = _HEADER.pack(0, seq, op, n, cum_edges, len(payload))[4:] + payload
    crc = zlib.crc32(body)
    return struct.pack("<I", crc) + body


class RecordScan:
    """The one WAL record decoder: segment bytes + offset in, records out.

    Iterating yields each complete, valid :class:`WalRecord` from
    ``offset`` on (``offset == 0`` verifies the segment magic first) and
    keeps ``offset`` at the end of the last record yielded.  Afterwards
    ``torn`` is ``None`` if the bytes ended on a record boundary, else
    why the bytes from ``offset`` on are a *torn tail*: a short magic,
    header or payload, or a CRC mismatch in the very last record (a
    larger intended write landed partially).  What a torn tail means —
    drop, truncate, pending — is the caller's; what is *invalid* is
    decided only here (each such case raises :class:`ServiceError`).
    """

    def __init__(self, data: bytes, offset: int, path: Path):
        self.data = data
        self.offset = offset
        self.path = path
        self.torn: str | None = None

    def __iter__(self) -> Iterator[WalRecord]:
        data, path = self.data, self.path
        if self.offset == 0:
            if not data.startswith(SEGMENT_MAGIC):
                if SEGMENT_MAGIC.startswith(data):
                    # died inside the magic write of a fresh segment
                    self.torn = "torn segment magic"
                    return
                raise ServiceError(f"{path}: not a WAL segment (bad magic)")
            self.offset = len(SEGMENT_MAGIC)
        while self.offset < len(data):
            offset = self.offset
            start = offset + _HEADER.size
            if start > len(data):
                self.torn = "torn record header"
                return
            crc, seq, op, n, cum, plen = _HEADER.unpack_from(data, offset)
            end = start + plen
            if end > len(data):
                self.torn = "torn record payload"
                return
            if zlib.crc32(data[offset + 4:end]) != crc:
                if end == len(data):
                    self.torn = "CRC mismatch in final record"
                    return
                raise ServiceError(
                    f"{path} @{offset}: CRC mismatch mid-segment (stored "
                    f"{crc:#010x}) — WAL is corrupt, refusing to read past it"
                )
            if op not in (OP_INSERT, OP_DELETE):
                raise ServiceError(f"{path} @{offset}: unknown WAL op {op}")
            if plen != n * (24 if op == OP_INSERT else 16):
                raise ServiceError(
                    f"{path} @{offset}: payload length {plen} does not match "
                    f"the op/count header ({n} rows)"
                )
            src = np.frombuffer(data, dtype=np.int64, count=n, offset=start)
            dst = np.frombuffer(data, dtype=np.int64, count=n,
                                offset=start + 8 * n)
            if op == OP_INSERT:
                weights = np.frombuffer(data, dtype=np.float64, count=n,
                                        offset=start + 16 * n).copy()
            else:
                weights = np.ones(n, dtype=np.float64)
            self.offset = end
            yield WalRecord(seq=seq, op=op, edges=np.column_stack([src, dst]),
                            weights=weights, cum_edges=cum)


def scan_segment(path: str | Path, tolerate_torn_tail: bool = False,
                 ) -> tuple[list[WalRecord], int | None]:
    """Decode one segment; returns ``(records, torn_offset)``.

    ``torn_offset`` is the byte offset of a torn final record (``None``
    when the segment ends cleanly).  Only the *final* record may be torn,
    and only when ``tolerate_torn_tail`` is set — any other irregularity
    raises :class:`ServiceError`.
    """
    path = Path(path)
    scan = RecordScan(path.read_bytes(), 0, path)
    records = list(scan)
    if scan.torn is None:
        return records, None
    if not tolerate_torn_tail:
        raise ServiceError(f"{path} @{scan.offset}: {scan.torn}")
    return records, scan.offset


def iter_records(directory: str | Path, tolerate_torn_tail: bool = True,
                 prefix: str = SEGMENT_PREFIX) -> Iterator[WalRecord]:
    """Yield every record across all segments in sequence order.

    Enforces contiguous sequence numbering across records; a gap raises
    :class:`ServiceError`.  A torn tail in the **last** segment is
    dropped (when tolerated); torn data anywhere else is corruption.
    """
    segments = list_segments(directory, prefix=prefix)
    last_seq: int | None = None
    for i, path in enumerate(segments):
        is_last = i == len(segments) - 1
        records, _ = scan_segment(path, tolerate_torn_tail=tolerate_torn_tail
                                  and is_last)
        for rec in records:
            if last_seq is not None and rec.seq != last_seq + 1:
                raise ServiceError(
                    f"{path}: WAL sequence gap ({last_seq} -> {rec.seq}); "
                    f"a segment is missing or was pruned incorrectly"
                )
            last_seq = rec.seq
            yield rec


def truncate_torn_tail(directory: str | Path,
                       prefix: str = SEGMENT_PREFIX) -> int | None:
    """Physically drop a torn final record from the last segment.

    Returns the truncation byte offset, or ``None`` if the tail was
    clean.  Makes recovery idempotent on disk: a second scan sees a
    clean log.
    """
    segments = list_segments(directory, prefix=prefix)
    if not segments:
        return None
    last = segments[-1]
    records, torn_offset = scan_segment(last, tolerate_torn_tail=True)
    if torn_offset is None:
        return None
    if torn_offset == 0 and not records:
        # Died before even the magic was durable: drop the file.
        last.unlink()
        return 0
    with open(last, "r+b") as f:
        f.truncate(torn_offset)
        f.flush()
        os.fsync(f.fileno())
    return torn_offset


class WriteAheadLog:
    """Appender over a WAL directory (single writer).

    Opening an existing directory resumes sequence numbering after the
    last durable record (scanning drops a torn tail, exactly as recovery
    would).
    """

    def __init__(self, directory: str | Path, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 sync: str = "batch",
                 min_last_seq: int = 0,
                 min_cum_edges: int = 0,
                 prefix: str = SEGMENT_PREFIX):
        if sync not in SYNC_POLICIES:
            raise ServiceError(
                f"unknown WAL sync policy {sync!r} (choose from {SYNC_POLICIES})")
        if segment_bytes < _HEADER.size + len(SEGMENT_MAGIC):
            raise ServiceError("segment_bytes is smaller than one record header")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.sync_policy = sync
        self.prefix = prefix
        self._file = None
        self._segment_size = 0
        self.last_seq = 0
        self.cum_edges = 0
        self.n_rotations = 0
        # A writer must not leave torn bytes mid-log: once we append a new
        # segment after them, the tear would no longer be "the tail" and
        # readers would (rightly) call it corruption.
        truncate_torn_tail(self.directory, prefix=prefix)
        for rec in iter_records(self.directory, prefix=prefix):
            self.last_seq = rec.seq
            self.cum_edges = rec.cum_edges
        # A checkpoint may have pruned the whole log away; the cursor the
        # caller recovered (checkpoint header) still rules numbering.
        if min_last_seq > self.last_seq:
            self.last_seq = min_last_seq
            self.cum_edges = max(min_cum_edges, self.cum_edges)

    # ------------------------------------------------------------------ #
    @property
    def next_seq(self) -> int:
        return self.last_seq + 1

    def _registry(self):
        from repro.obs import hooks
        if not hooks.enabled:
            return None
        from repro.obs.metrics import get_registry
        return get_registry()

    def _open_segment(self) -> None:
        path = segment_path(self.directory, self.next_seq, prefix=self.prefix)
        self._file = open(path, "ab")
        if self._file.tell() == 0:
            self._file.write(SEGMENT_MAGIC)
            self._file.flush()
        self._segment_size = self._file.tell()

    def append(self, op: int, edges: np.ndarray,
               weights: np.ndarray | None = None) -> int:
        """Append one record; returns its sequence number.

        The record is flushed to the OS before returning (fsynced too
        under the ``"always"`` policy), so a killed process never loses
        an append that returned.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ServiceError("WAL records hold (n, 2) edge arrays")
        if self._file is None:
            self._open_segment()
        seq = self.next_seq
        cum = self.cum_edges + edges.shape[0]
        blob = _encode(seq, op, edges, weights, cum)
        start = self._file.tell()
        try:
            self._write_blob(blob)
        except OSError:
            # A transient I/O error may have landed part of the record;
            # truncate back to the boundary so the log stays record-
            # aligned and the append can simply be retried.  (Simulated
            # *crashes* are not OSErrors and keep their torn bytes — a
            # dead process cannot clean up after itself.)
            self._rollback(start)
            raise
        self.last_seq = seq
        self.cum_edges = cum
        self._segment_size += len(blob)
        registry = self._registry()
        if registry is not None:
            registry.counter("service.wal.appends").inc()
            registry.counter("service.wal.bytes").inc(len(blob))
            if self.sync_policy == "always":
                registry.counter("service.wal.syncs").inc()
        if self._segment_size >= self.segment_bytes:
            self._rotate()
        return seq

    def _write_blob(self, blob: bytes) -> None:
        """Write one encoded record (the fault-injection seam)."""
        self._file.write(blob)
        self._file.flush()
        if self.sync_policy == "always":
            os.fsync(self._file.fileno())

    def _rollback(self, offset: int) -> None:
        """Erase a partially written record after a failed append."""
        try:
            self._file.truncate(offset)
            self._file.flush()
            os.fsync(self._file.fileno())
        except OSError:
            # The segment is unusable right now; recovery's torn-tail
            # truncation still covers the partial record on disk.
            pass

    def sync(self) -> None:
        """fsync the active segment (the ``"batch"`` policy's commit point)."""
        if self._file is not None:
            registry = self._registry()
            self._file.flush()
            t0 = time.perf_counter() if registry is not None else 0.0
            os.fsync(self._file.fileno())
            if registry is not None:
                registry.counter("service.wal.syncs").inc()
                registry.quantile(
                    "service.wal.fsync_ms", "WAL fsync wall latency (ms)"
                ).record((time.perf_counter() - t0) * 1e3)

    def _rotate(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        self.n_rotations += 1
        registry = self._registry()
        if registry is not None:
            registry.counter("service.wal.rotations").inc()

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def prune_segments(directory: str | Path, upto_seq: int,
                   prefix: str = SEGMENT_PREFIX) -> list[Path]:
    """Delete segments made obsolete by a checkpoint at ``upto_seq``.

    A segment is obsolete when every record in it has ``seq <= upto_seq``
    — equivalently, when the *next* segment's first sequence is
    ``<= upto_seq + 1``.  The last segment is always kept (it is the
    active append target).  Returns the deleted paths.
    """
    segments = list_segments(directory, prefix=prefix)
    deleted: list[Path] = []
    for path, nxt in zip(segments, segments[1:]):
        first_of_next = int(nxt.name[len(prefix):-len(SEGMENT_SUFFIX)])
        if first_of_next <= upto_seq + 1:
            path.unlink()
            deleted.append(path)
        else:
            break
    return deleted


class ShardedWriteAheadLog:
    """K independent per-shard WALs behind the single-writer interface.

    A sharded service routes every edge row to the shard its ``src``
    hashes to (:func:`repro.core.hashing.partition_of_array`, the same
    router :class:`repro.core.sharded.ShardedStore` uses), and logs each
    shard's rows in that shard's own segment chain
    (``wal-shard<k>-<seq>.seg``).  Each inner log keeps its own
    contiguous sequence space, so on recovery the K chains replay
    independently — and, because interval partitioning makes their key
    spaces disjoint, in parallel.

    The cursor the service tracks stays a single scalar: the *global*
    sequence is ``base_seq + sum_k shard_last_seq_k``, where ``base_seq``
    covers any plain-prefix (unsharded) history the directory carried
    before sharding — every append advances exactly one inner sequence
    per shard it touches, so the sum is monotonic and crash-recoverable
    from the segment chains alone.  ``cum_edges`` sums the same way and
    keeps its stream-resume meaning (rows are partitioned disjointly).

    :meth:`checkpoint_meta` exposes the per-shard cursors; the checkpoint
    manager embeds them so recovery can skip each shard's already-
    snapshotted records independently and pruning can drop each shard's
    obsolete segments.
    """

    def __init__(self, directory: str | Path, n_shards: int, *,
                 seed: int = 0,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 sync: str = "batch",
                 min_last_seq: int = 0,
                 min_cum_edges: int = 0):
        if n_shards < 1:
            raise ServiceError("n_shards must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n_shards = n_shards
        self.seed = seed
        self.sync_policy = sync
        # Plain-prefix history: a directory that started life unsharded
        # keeps its old records under the plain prefix (nothing appends
        # there once sharded, and pruning always retains the last
        # segment, so the base cursor is recoverable from disk).
        truncate_torn_tail(self.directory)
        self.base_seq = 0
        self.base_cum = 0
        for rec in iter_records(self.directory):
            self.base_seq = rec.seq
            self.base_cum = rec.cum_edges
        self.shards = [
            WriteAheadLog(self.directory, segment_bytes=segment_bytes,
                          sync=sync, prefix=shard_prefix(k))
            for k in range(n_shards)
        ]
        # A checkpoint may have pruned everything; the recovered cursor
        # still rules numbering (same contract as the plain log).
        if min_last_seq > self.last_seq:
            self.base_seq += min_last_seq - self.last_seq
            self.base_cum = max(min_cum_edges, self.cum_edges) - sum(
                log.cum_edges for log in self.shards)
        # Retry bookkeeping: which shards already landed the record that
        # a transient OSError interrupted (see append()).
        self._resume: tuple[tuple, set[int]] | None = None

    # ------------------------------------------------------------------ #
    @property
    def last_seq(self) -> int:
        return self.base_seq + sum(log.last_seq for log in self.shards)

    @property
    def cum_edges(self) -> int:
        return self.base_cum + sum(log.cum_edges for log in self.shards)

    @property
    def n_rotations(self) -> int:
        return sum(log.n_rotations for log in self.shards)

    def checkpoint_meta(self) -> dict:
        """Per-shard cursors for embedding in a checkpoint header."""
        return {
            "n_shards": self.n_shards,
            "shard_seed": self.seed,
            "shard_seqs": [log.last_seq for log in self.shards],
            "shard_cum": [log.cum_edges for log in self.shards],
            "base_seq": self.base_seq,
            "base_cum": self.base_cum,
        }

    def append(self, op: int, edges: np.ndarray,
               weights: np.ndarray | None = None) -> int:
        """Route one record's rows to their shards; append per shard.

        Returns the global sequence after the append (the durability
        cursor a ticket resolves with).  Each owning shard gets exactly
        one record holding its rows in stream order; shards that own no
        rows are untouched.

        A transient ``OSError`` can interrupt the loop after some shards
        already landed their sub-record; those records are durable and
        cannot be rolled back.  The log remembers which shards succeeded
        and a *retry of the identical append* (the service's per-append
        retry loop) skips them, so retries never duplicate rows.  A batch
        abandoned mid-append (no retry, e.g. breaker trip) stays
        partially logged — replay then applies only the landed shards'
        rows, which is the documented cross-shard non-atomicity
        (``docs/sharding.md``); the ticket never resolved, so no
        durability promise is broken.
        """
        from repro.core.hashing import partition_of_array

        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ServiceError("WAL records hold (n, 2) edge arrays")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        token = (op, edges.shape[0], zlib.crc32(edges.tobytes()))
        done: set[int] = set()
        if self._resume is not None and self._resume[0] == token:
            done = self._resume[1]
        shard_ids = partition_of_array(edges[:, 0], self.n_shards, self.seed)
        try:
            for k in range(self.n_shards):
                if k in done:
                    continue
                mask = shard_ids == k
                if not mask.any():
                    continue
                self.shards[k].append(
                    op, edges[mask],
                    weights[mask] if weights is not None else None)
                done.add(k)
        except OSError:
            self._resume = (token, done)
            raise
        self._resume = None
        return self.last_seq

    def sync(self) -> None:
        for log in self.shards:
            log.sync()

    def close(self) -> None:
        for log in self.shards:
            log.close()

    def __enter__(self) -> "ShardedWriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
