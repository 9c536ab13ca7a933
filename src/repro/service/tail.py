"""WAL tail-follow: cursor-based streaming reads of a live log.

Replication ships the writer's WAL to replicas (docs/network.md,
"Replication"), which needs something :func:`repro.service.wal.
iter_records` cannot do: read the log *while it is being written*, from
an arbitrary ``{seq, cum_edges}`` cursor, and keep following it across
segment rotations and torn tails.  :class:`WalTailer` is that reader.

Semantics, in the order they matter:

* **Cursor positioning** — a tailer starts *after* ``after_seq``: the
  first record it yields is ``after_seq + 1``.  Positioning finds the
  segment whose name (its first sequence) is the greatest one at or
  below the cursor and skips already-consumed records inside it.  If
  checkpoint pruning has deleted that segment — the oldest surviving
  segment starts beyond the cursor — the cursor is unservable and
  :class:`~repro.errors.CursorGapError` is raised; the subscriber's
  recovery is a full resync, not a replay.
* **Torn tails are pending, not errors** — the writer appends records
  with a flush per append, so a reader can observe a half-written final
  record.  What counts as a valid record, a torn tail or corruption is
  decided by :class:`repro.service.wal.RecordScan`, the same decoder
  recovery drives; the tailer only stops *before* the torn bytes and
  re-reads from the same boundary on the next poll: if the writer
  finishes the record the bytes complete; if the writer crashed, its
  restart truncates them and appends fresh records at the very same
  offset.  Either way the tailer never consumed garbage.
* **Rotation mid-stream** — a segment that ends cleanly is final (the
  writer never reopens rotated segments), so when a successor segment
  named ``last_seq + 1`` exists the tailer moves into it.  No successor
  yet means the tailer is at the live head: poll again later.
* **Contiguity** — yielded sequences are strictly contiguous.  A jump
  (missing segment, mis-pruned log) raises :class:`ServiceError` rather
  than silently diverging the subscriber.

The tailer holds no file handles between polls — every poll re-reads
its current segment from the saved byte offset — so it never blocks a
writer-side prune and always observes truncations.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import CursorGapError, ServiceError
from repro.service.wal import (
    RecordScan,
    WalRecord,
    list_segments,
    segment_first_seq,
)

#: Default record cap per poll (bounds one WAL_BATCH frame).
DEFAULT_POLL_RECORDS = 256


class WalTailer:
    """Streaming reader over a (possibly live) WAL directory.

    One tailer = one subscriber cursor.  :meth:`poll` returns the next
    complete records (possibly none) and never blocks; ``last_seq`` /
    ``cum_edges`` always name the cursor *after* everything yielded so
    far, which is exactly what a replica persists and resubscribes
    with.
    """

    def __init__(self, directory: str | Path, after_seq: int = 0,
                 cum_edges: int = 0):
        self.directory = Path(directory)
        if after_seq < 0:
            raise ServiceError(f"WAL cursor must be >= 0, got {after_seq}")
        self.last_seq = int(after_seq)
        self.cum_edges = int(cum_edges)
        self._segment: Path | None = None
        self._offset = 0  # 0 = segment magic not yet verified
        # Validate the cursor eagerly so a subscriber learns about a
        # pruned cursor at subscribe time, not on its first poll.
        self._locate()

    @property
    def position(self) -> dict:
        """The cursor as a wire-safe dict (``{seq, cum_edges}``)."""
        return {"seq": self.last_seq, "cum_edges": self.cum_edges}

    # ------------------------------------------------------------------ #
    # segment selection
    # ------------------------------------------------------------------ #
    def _locate(self) -> bool:
        """Bind the current segment for ``last_seq + 1``; False = no log yet.

        Raises :class:`CursorGapError` when the cursor predates the
        oldest surviving segment (checkpoint pruning won the race).
        """
        segments = list_segments(self.directory)
        if not segments:
            if self.last_seq > 0:
                raise CursorGapError(
                    f"{self.directory}: cursor {self.last_seq} names pruned "
                    f"(or foreign) history — the directory holds no WAL "
                    f"segments; subscriber must resync"
                )
            return False
        want = self.last_seq + 1
        chosen: Path | None = None
        for path in segments:
            if segment_first_seq(path) <= want:
                chosen = path
            else:
                break
        if chosen is None:
            raise CursorGapError(
                f"{self.directory}: cursor {self.last_seq} is below the "
                f"oldest surviving segment "
                f"(first seq {segment_first_seq(segments[0])}) — records in "
                f"between were pruned by a checkpoint; subscriber must resync"
            )
        self._segment = chosen
        self._offset = 0
        return True

    def _next_segment(self) -> Path | None:
        """The successor segment after a clean EOF (None at the live head)."""
        current_first = segment_first_seq(self._segment)
        following = [p for p in list_segments(self.directory)
                     if segment_first_seq(p) > current_first]
        if not following:
            return None
        nxt = following[0]
        first = segment_first_seq(nxt)
        if first > self.last_seq + 1:
            raise ServiceError(
                f"{self.directory}: WAL sequence gap while tailing — "
                f"cursor at {self.last_seq} but the next segment starts at "
                f"{first}; a segment is missing"
            )
        return nxt

    # ------------------------------------------------------------------ #
    # record scan
    # ------------------------------------------------------------------ #
    def _scan(self, data: bytes, out: list[WalRecord],
              max_records: int) -> bool:
        """Decode complete records from the saved offset into ``out``.

        Returns True when the scan consumed the buffer to a clean EOF
        (the segment may be rotated past), False when it stopped early —
        on the record cap or on a torn tail, which for a live log means
        *pending*: the writer finishes the record, or its restart
        truncates it and appends at the very same offset.
        """
        scan = RecordScan(data, self._offset, self._segment)
        for record in scan:
            if record.seq > self.last_seq:
                if record.seq != self.last_seq + 1:
                    raise ServiceError(
                        f"{self._segment} @{self._offset}: WAL sequence gap "
                        f"while tailing ({self.last_seq} -> {record.seq})"
                    )
                out.append(record)
                self.last_seq = record.seq
                self.cum_edges = record.cum_edges
            self._offset = scan.offset
            if len(out) >= max_records:
                return False
        self._offset = scan.offset
        return scan.torn is None

    # ------------------------------------------------------------------ #
    # public read
    # ------------------------------------------------------------------ #
    def poll(self, max_records: int = DEFAULT_POLL_RECORDS) -> list[WalRecord]:
        """Next complete records after the cursor (possibly empty).

        Never blocks.  Advances the cursor past everything returned.
        Raises :class:`CursorGapError` if the log was pruned out from
        under the cursor, :class:`ServiceError` on real corruption or a
        sequence gap.
        """
        if max_records < 1:
            raise ServiceError(f"max_records must be >= 1, got {max_records}")
        out: list[WalRecord] = []
        while len(out) < max_records:
            if self._segment is None and not self._locate():
                break
            try:
                data = self._segment.read_bytes()
            except FileNotFoundError:
                # Pruned while we were tailing it; re-locate (raises
                # CursorGapError when our cursor went with it).
                self._segment = None
                continue
            clean_eof = self._scan(data, out, max_records)
            if not clean_eof:
                break
            nxt = self._next_segment()
            if nxt is None:
                break
            self._segment = nxt
            self._offset = 0
        return out
