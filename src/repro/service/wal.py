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

That is the *base* chain.  A sharded service (``--shards N``) adds one
independent chain per shard in the same directory,
``wal-shard<k>-<seq>.seg``; each chain has its own contiguous sequence
space and replays independently on recovery (docs/sharding.md).  One
class, :class:`WriteAheadLog`, owns all of them: its cursor is the
vector ``[base, shard_0 … shard_{K-1}]`` (summing to the scalar
``last_seq`` the service tracks), and a plain log is the ``K = 0`` case.

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


def chain_prefix(chain: int) -> str:
    """Segment-name prefix of one chain, by cursor-vector index.

    Chain 0 is the base chain (``wal-``); chain ``k + 1`` is shard
    ``k``'s (``wal-shard<k>-``).
    """
    return SEGMENT_PREFIX if chain == 0 else f"{SEGMENT_PREFIX}shard{chain - 1}-"


def shard_prefix(shard: int) -> str:
    """Segment-name prefix of one shard's chain (``wal-shard<k>-``)."""
    return chain_prefix(shard + 1)


_SEGMENT_NAME = re.compile(
    rf"{SEGMENT_PREFIX}(?:shard(\d+)-)?(\d+){re.escape(SEGMENT_SUFFIX)}")


def parse_segment_name(name: str) -> tuple[int, int] | None:
    """``(chain, first_seq)`` a segment file name declares, else ``None``.

    The one parser of ``wal-[shard<k>-]<digits>.seg``.  ``chain`` indexes
    the cursor vector (:func:`chain_prefix`).
    """
    m = _SEGMENT_NAME.fullmatch(name)
    if m is None:
        return None
    return (0 if m[1] is None else int(m[1]) + 1), int(m[2])


def segment_first_seq(path: Path) -> int:
    """The first sequence number a segment file's name declares."""
    return parse_segment_name(path.name)[1]


def segment_path(directory: Path, first_seq: int,
                 prefix: str = SEGMENT_PREFIX) -> Path:
    return directory / f"{prefix}{first_seq:020d}{SEGMENT_SUFFIX}"


def list_segments(directory: str | Path,
                  prefix: str = SEGMENT_PREFIX) -> list[Path]:
    """One chain's segment files, ordered by first sequence number."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for p in directory.iterdir():
        parsed = parse_segment_name(p.name)
        if parsed is not None and chain_prefix(parsed[0]) == prefix:
            out.append((parsed[1], p))
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


def _registry():
    from repro.obs import hooks
    if not hooks.enabled:
        return None
    from repro.obs.metrics import get_registry
    return get_registry()


class _Chain:
    """Appender over one segment chain of a :class:`WriteAheadLog`.

    Private to the log that owns it (``self.log`` supplies the directory,
    segment size and sync policy); :meth:`_open_segment` and
    :meth:`_write_blob` are the fault-injection seams.
    """

    def __init__(self, log: "WriteAheadLog", prefix: str):
        self.log = log
        self.prefix = prefix
        self._file = None
        self._segment_size = 0
        self.last_seq = 0
        self.cum_edges = 0
        self.n_rotations = 0
        # A writer must not leave torn bytes mid-log: once we append a new
        # segment after them, the tear would no longer be "the tail" and
        # readers would (rightly) call it corruption.
        truncate_torn_tail(log.directory, prefix=prefix)
        for rec in iter_records(log.directory, prefix=prefix):
            self.last_seq = rec.seq
            self.cum_edges = rec.cum_edges

    @property
    def next_seq(self) -> int:
        return self.last_seq + 1

    def _open_segment(self) -> None:
        path = segment_path(self.log.directory, self.next_seq,
                            prefix=self.prefix)
        self._file = open(path, "ab")
        if self._file.tell() == 0:
            self._file.write(SEGMENT_MAGIC)
            self._file.flush()
        self._segment_size = self._file.tell()

    def append(self, op: int, edges: np.ndarray,
               weights: np.ndarray | None = None) -> int:
        """Append one record; returns its sequence number in this chain."""
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
            if self.log.sync_policy == "always":
                registry.counter("service.wal.syncs").inc()
        if self._segment_size >= self.log.segment_bytes:
            self._rotate()
        return seq

    def _write_blob(self, blob: bytes) -> None:
        """Write one encoded record (the fault-injection seam)."""
        self._file.write(blob)
        self._file.flush()
        if self.log.sync_policy == "always":
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


class WriteAheadLog:
    """Appender over a service directory's segment chains (single writer).

    The log owns the *base* chain (``wal-<seq>.seg``) plus ``n_shards``
    shard chains (``wal-shard<k>-<seq>.seg``); ``n_shards=0`` is a plain
    log, whose appends go straight to the base chain.  With shards, every
    edge row is logged in the chain of the shard its ``src`` hashes to
    (:func:`repro.core.hashing.partition_of_array`, the router
    :class:`repro.core.sharded.ShardedStore` uses), so on recovery the
    chains replay independently — and, their key spaces being disjoint,
    in parallel.  The base chain then only holds the history a directory
    carried before it went sharded; nothing appends to it afterwards.

    Each chain has its own contiguous sequence space.  The log's
    :attr:`cursor` is the vector ``[base, shard_0 … shard_{K-1}]`` of
    chain positions and the scalar ``last_seq`` the service tracks is its
    sum: every append advances exactly one chain per shard it touches, so
    the sum is monotonic and recoverable from the segment files alone.
    ``cum_edges`` sums the same way and keeps its stream-resume meaning
    (rows are partitioned disjointly).

    Opening an existing directory resumes numbering after the last
    durable record of every chain (scanning drops a torn tail, exactly as
    recovery would).
    """

    #: Per-chain appender class (the fault-injecting logs swap it).
    chain_cls = _Chain

    def __init__(self, directory: str | Path, *,
                 n_shards: int = 0,
                 seed: int = 0,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 sync: str = "batch",
                 min_last_seq: int = 0,
                 min_cum_edges: int = 0):
        if sync not in SYNC_POLICIES:
            raise ServiceError(
                f"unknown WAL sync policy {sync!r} (choose from {SYNC_POLICIES})")
        if segment_bytes < _HEADER.size + len(SEGMENT_MAGIC):
            raise ServiceError("segment_bytes is smaller than one record header")
        if n_shards < 0:
            raise ServiceError("n_shards must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n_shards = n_shards
        self.seed = seed
        self.segment_bytes = segment_bytes
        self.sync_policy = sync
        self._chains = [self.chain_cls(self, chain_prefix(c))
                        for c in range(n_shards + 1)]
        self._base, self.shards = self._chains[0], self._chains[1:]
        # A checkpoint may have pruned the whole log away; the cursor the
        # caller recovered (checkpoint header) still rules numbering.
        if min_last_seq > self.last_seq:
            self._base.last_seq += min_last_seq - self.last_seq
            self._base.cum_edges += max(min_cum_edges - self.cum_edges, 0)
        # Retry bookkeeping: which shards already landed the record that
        # a transient OSError interrupted (see append()).
        self._resume: tuple[tuple, set[int]] | None = None

    # ------------------------------------------------------------------ #
    @property
    def cursor(self) -> list[int]:
        """Chain positions ``[base, shard_0 … shard_{K-1}]``."""
        return [chain.last_seq for chain in self._chains]

    @property
    def last_seq(self) -> int:
        return sum(self.cursor)

    @property
    def next_seq(self) -> int:
        return self.last_seq + 1

    @property
    def cum_edges(self) -> int:
        return sum(chain.cum_edges for chain in self._chains)

    @property
    def n_rotations(self) -> int:
        return sum(chain.n_rotations for chain in self._chains)

    def checkpoint_meta(self) -> dict:
        """The cursor vector as checkpoint-header keys.

        A plain log adds nothing: the checkpoint's own ``last_seq`` /
        ``cum_edges`` *are* its base cursor (:func:`checkpoint_cursors`
        reads both forms back).
        """
        if not self.shards:
            return {}
        return {
            "n_shards": self.n_shards,
            "shard_seed": self.seed,
            "shard_seqs": [chain.last_seq for chain in self.shards],
            "shard_cum": [chain.cum_edges for chain in self.shards],
            "base_seq": self._base.last_seq,
            "base_cum": self._base.cum_edges,
        }

    def append(self, op: int, edges: np.ndarray,
               weights: np.ndarray | None = None) -> int:
        """Append one record; returns the log's sequence after it.

        The record is flushed to the OS before returning (fsynced too
        under the ``"always"`` policy), so a killed process never loses
        an append that returned.

        With shards, each owning shard's chain gets exactly one record
        holding its rows in stream order; shards that own no rows are
        untouched.  A transient ``OSError`` can interrupt that loop after
        some chains already landed their sub-record; those records are
        durable and cannot be rolled back.  The log remembers which
        shards succeeded and a *retry of the identical append* (the
        service's per-append retry loop) skips them, so retries never
        duplicate rows.  A batch abandoned mid-append (no retry, e.g.
        breaker trip) stays partially logged — replay then applies only
        the landed shards' rows, which is the documented cross-shard
        non-atomicity (``docs/sharding.md``); the ticket never resolved,
        so no durability promise is broken.
        """
        if not self.shards:
            return self._base.append(op, edges, weights)
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
            for k, chain in enumerate(self.shards):
                if k in done:
                    continue
                mask = shard_ids == k
                if not mask.any():
                    continue
                chain.append(op, edges[mask],
                             weights[mask] if weights is not None else None)
                done.add(k)
        except OSError:
            self._resume = (token, done)
            raise
        self._resume = None
        return self.last_seq

    def sync(self) -> None:
        """fsync every open chain (the ``"batch"`` policy's commit point)."""
        for chain in self._chains:
            chain.sync()

    def close(self) -> None:
        for chain in self._chains:
            chain.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def checkpoint_cursors(meta: dict | None) -> tuple[list[int], list[int]]:
    """``(seqs, cums)`` cursor vectors a checkpoint's meta header covers.

    The inverse of :meth:`WriteAheadLog.checkpoint_meta`, and the only
    reader of its keys.  Both vectors are ``[base, shard_0 … shard_{K-1}]``
    with ``K`` as the checkpoint recorded it.  A meta without shard keys
    is a plain checkpoint — its snapshot covers exactly the base chain up
    to ``last_seq`` — so old checkpoints, and a directory that flipped
    from plain to sharded, need no migration.  No checkpoint at all
    (``None``) is the zero cursor.
    """
    if meta is None:
        return [0], [0]
    if "shard_seqs" not in meta:
        return [int(meta["last_seq"])], [int(meta.get("cum_edges", 0))]
    seqs = [int(s) for s in meta["shard_seqs"]]
    cums = [int(c) for c in meta.get("shard_cum", [0] * len(seqs))]
    return ([int(meta.get("base_seq", 0)), *seqs],
            [int(meta.get("base_cum", 0)), *cums])


def prune_segments(directory: str | Path, upto_seq: int,
                   prefix: str = SEGMENT_PREFIX) -> list[Path]:
    """Delete one chain's segments made obsolete by a checkpoint.

    A segment is obsolete when every record in it has ``seq <= upto_seq``
    — equivalently, when the *next* segment's first sequence is
    ``<= upto_seq + 1``.  The last segment is always kept (it is the
    active append target).  Returns the deleted paths.
    """
    segments = list_segments(directory, prefix=prefix)
    deleted: list[Path] = []
    for path, nxt in zip(segments, segments[1:]):
        if segment_first_seq(nxt) > upto_seq + 1:
            break
        path.unlink()
        deleted.append(path)
    return deleted
