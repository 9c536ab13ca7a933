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

One chain of segments, whatever the store: a sharded service logs each
flush as one record and replay hands it to the store's batch path,
which scatters the rows to the shard workers (docs/sharding.md).

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

Sync
----
One flush is one record and one fsync: :meth:`WriteAheadLog.append`
writes a record and flushes it to the OS (a killed *process* loses no
append that returned), and :meth:`WriteAheadLog.sync` fsyncs it (an OS
crash loses nothing synced).  A writer's flush calls ``sync`` once,
before it applies the record and resolves its tickets.
"""

from __future__ import annotations

import os
import re
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


_SEGMENT_NAME = re.compile(
    rf"{SEGMENT_PREFIX}(shard\d+-)?(\d+){re.escape(SEGMENT_SUFFIX)}")


def segment_first_seq(path: Path) -> int:
    """The first sequence number a segment file's name declares."""
    return int(path.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])


def segment_path(directory: Path, first_seq: int) -> Path:
    return directory / f"{SEGMENT_PREFIX}{first_seq:020d}{SEGMENT_SUFFIX}"


def list_segments(directory: str | Path) -> list[Path]:
    """The log's segment files, ordered by first sequence number.

    Every reader and the writer list segments here, so a directory that
    still holds an older layout's per-shard segment
    (``wal-shard<k>-<seq>.seg``) is refused with :class:`ServiceError`
    naming the file, rather than its records being silently skipped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for p in directory.iterdir():
        m = _SEGMENT_NAME.fullmatch(p.name)
        if m is None:
            continue
        if m[1]:
            raise ServiceError(
                f"{p}: per-shard WAL segment from an older log layout; this "
                f"build keeps one chain and cannot replay it (see "
                f"docs/sharding.md, 'One log and recovery')")
        out.append((int(m[2]), p))
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


def iter_records(directory: str | Path,
                 tolerate_torn_tail: bool = True) -> Iterator[WalRecord]:
    """Yield every record across all segments in sequence order.

    Enforces contiguous sequence numbering across records; a gap raises
    :class:`ServiceError`.  A torn tail in the **last** segment is
    dropped (when tolerated); torn data anywhere else is corruption.
    """
    segments = list_segments(directory)
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


def truncate_torn_tail(directory: str | Path) -> int | None:
    """Physically drop a torn final record from the last segment.

    Returns the truncation byte offset, or ``None`` if the tail was
    clean.  Makes recovery idempotent on disk: a second scan sees a
    clean log.
    """
    segments = list_segments(directory)
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


def _registry():
    from repro.obs import hooks
    if not hooks.enabled:
        return None
    from repro.obs.metrics import get_registry
    return get_registry()


class WriteAheadLog:
    """Appender over a service directory's segment chain (single writer).

    Opening an existing directory resumes numbering after the last
    durable record (scanning drops a torn tail, exactly as recovery
    would).  Every byte it writes, the segment magic included, goes
    through :meth:`_write_blob`, which is where an ``injector``
    (:mod:`repro.service.faults`) makes writes fail on its schedule.
    """

    def __init__(self, directory: str | Path, *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 sync: str = "batch",
                 min_last_seq: int = 0,
                 min_cum_edges: int = 0,
                 injector=None):
        # "batch" (append flushes, sync() fsyncs) is the one policy; the
        # keyword stays only because perf/probes.py still passes it.
        if sync != "batch":
            raise ServiceError(
                f"unknown WAL sync policy {sync!r} (the one policy is 'batch')")
        if segment_bytes < _HEADER.size + len(SEGMENT_MAGIC):
            raise ServiceError("segment_bytes is smaller than one record header")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.injector = injector
        self._file = None
        self._segment_size = 0
        self.last_seq = 0
        self.cum_edges = 0
        self.n_rotations = 0
        # A writer must not leave torn bytes mid-log: once we append a new
        # segment after them, the tear would no longer be "the tail" and
        # readers would (rightly) call it corruption.
        truncate_torn_tail(self.directory)
        for rec in iter_records(self.directory):
            self.last_seq = rec.seq
            self.cum_edges = rec.cum_edges
        # A checkpoint may have pruned the whole log away; the cursor the
        # caller recovered (checkpoint header) still rules numbering.
        if min_last_seq > self.last_seq:
            self.last_seq = min_last_seq
            self.cum_edges = max(min_cum_edges, self.cum_edges)

    @property
    def next_seq(self) -> int:
        return self.last_seq + 1

    def _open_segment(self) -> None:
        self._file = open(segment_path(self.directory, self.next_seq), "ab")
        if self._file.tell() == 0:
            self._write_blob(SEGMENT_MAGIC)
        self._segment_size = self._file.tell()

    def append(self, op: int, edges: np.ndarray,
               weights: np.ndarray | None = None) -> int:
        """Append one record; returns its sequence number.

        The record is flushed to the OS before returning, so a killed
        process never loses an append that returned; :meth:`sync` makes
        it survive an OS crash too.
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
        registry = _registry()
        if registry is not None:
            registry.counter("service.wal.appends").inc()
            registry.counter("service.wal.bytes").inc(len(blob))
        if self._segment_size >= self.segment_bytes:
            self._rotate()
        return seq

    def _write_blob(self, blob: bytes) -> None:
        """Write and flush one record or segment magic.

        With an injector, its ``fault(seq, data)`` is asked first: it
        returns ``None`` (the write goes through) or ``(landed, exc)``,
        that many leading bytes reach the file, then ``exc`` is raised.
        ``seq`` is the record's sequence, ``None`` for the segment magic
        (the write at offset 0).
        """
        if self.injector is not None:
            seq = self.next_seq if self._file.tell() else None
            fault = self.injector.fault(seq, blob)
            if fault is not None:
                landed, exc = fault
                self._file.write(blob[:landed])
                self._file.flush()
                raise exc
        self._file.write(blob)
        self._file.flush()

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
        """fsync the open segment: a flush's commit point, once per flush."""
        if self._file is not None:
            registry = _registry()
            self._file.flush()
            t0 = time.perf_counter() if registry is not None else 0.0
            os.fsync(self._file.fileno())
            if registry is not None:
                registry.counter("service.wal.syncs").inc()
                registry.quantile(
                    "service.wal.fsync_ms", "WAL fsync wall latency (ms)"
                ).record((time.perf_counter() - t0) * 1e3)

    def _rotate(self) -> None:
        self.close()
        self.n_rotations += 1
        registry = _registry()
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


def apply(store, op: int, edges: np.ndarray,
          weights: np.ndarray | None) -> None:
    """Apply one logged batch to ``store``: the one path from an op code
    to a store, for recovery, a writer's flush and a follower's record."""
    if op == OP_INSERT:
        store.insert_batch(edges, weights)
    else:
        store.delete_batch(edges)


def prune_segments(directory: str | Path, upto_seq: int) -> list[Path]:
    """Delete the segments a checkpoint made obsolete.

    A segment is obsolete when every record in it has ``seq <= upto_seq``
    — equivalently, when the *next* segment's first sequence is
    ``<= upto_seq + 1``.  The last segment is always kept (it is the
    active append target).  Returns the deleted paths.
    """
    segments = list_segments(directory)
    deleted: list[Path] = []
    for path, nxt in zip(segments, segments[1:]):
        if segment_first_seq(nxt) > upto_seq + 1:
            break
        path.unlink()
        deleted.append(path)
    return deleted
