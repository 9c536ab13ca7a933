"""Tests for the WAL tailer: cursor binding, rotation, torn tails, pruning.

:class:`~repro.service.tail.WalTailer` is the replication stream's read
side — it must follow a *live* segmented log that rotates, gets pruned
by checkpoints, and can carry a torn tail after a crash.  These tests
drive it against a real :class:`~repro.service.wal.WriteAheadLog` on
disk; tiny ``segment_bytes`` values force rotation and pruning with a
handful of records.
"""

import numpy as np
import pytest

from repro.errors import CursorGapError, ServiceError
from repro.service.checkpoint import CheckpointManager
from repro.service.tail import WalTailer, segment_first_seq
from repro.service.wal import (
    OP_INSERT,
    SEGMENT_MAGIC,
    WriteAheadLog,
    _encode,
    list_segments,
    scan_segment,
)

#: Small enough that every few single-edge records rotate the segment.
TINY_SEGMENT = 256


def append_n(wal: WriteAheadLog, n: int, start: int = 0) -> None:
    """Append ``n`` single-edge insert records (one edge per record)."""
    for i in range(n):
        wal.append(OP_INSERT, np.array([[start + i, start + i + 1]],
                                       dtype=np.int64))


def drain(tailer: WalTailer, max_polls: int = 100) -> list:
    """Poll until a poll comes back empty; return all records."""
    out = []
    for _ in range(max_polls):
        batch = tailer.poll()
        if not batch:
            return out
        out.extend(batch)
    raise AssertionError("tailer never drained")


class TestBasicTailing:
    def test_reads_all_records_in_order(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            append_n(wal, 10)
            tailer = WalTailer(tmp_path)
            records = drain(tailer)
            assert [r.seq for r in records] == list(range(1, 11))
            assert tailer.position == {"seq": wal.last_seq,
                                       "cum_edges": wal.cum_edges}

    def test_follows_live_appends(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            append_n(wal, 4)
            tailer = WalTailer(tmp_path)
            assert len(drain(tailer)) == 4
            assert tailer.poll() == []  # caught up: poll never blocks
            append_n(wal, 3, start=100)
            fresh = drain(tailer)
            assert [r.seq for r in fresh] == [5, 6, 7]

    def test_mid_log_cursor_skips_applied_prefix(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            append_n(wal, 12)
            cursor_cum = 5  # one edge per record: cum_edges == seq
            tailer = WalTailer(tmp_path, after_seq=5, cum_edges=cursor_cum)
            records = drain(tailer)
            assert [r.seq for r in records] == list(range(6, 13))
            # cum_edges parity is preserved record by record
            for r in records:
                assert r.cum_edges == r.seq

    def test_records_round_trip_payloads(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            edges = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64)
            weights = np.array([0.5, 1.5, 2.5])
            wal.append(OP_INSERT, edges, weights)
            (record,) = drain(WalTailer(tmp_path))
            np.testing.assert_array_equal(record.edges, edges)
            np.testing.assert_allclose(record.weights, weights)


class TestRotation:
    def test_tails_across_segment_rotation(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=TINY_SEGMENT) as wal:
            append_n(wal, 40)
            assert len(list_segments(tmp_path)) > 2  # rotation happened
            records = drain(WalTailer(tmp_path))
            assert [r.seq for r in records] == list(range(1, 41))

    def test_rotation_mid_tail_is_followed(self, tmp_path):
        """Records appended *after* the tailer reached a clean EOF land
        in later segments; the tailer must hop segments to find them."""
        with WriteAheadLog(tmp_path, segment_bytes=TINY_SEGMENT) as wal:
            append_n(wal, 3)
            tailer = WalTailer(tmp_path)
            assert len(drain(tailer)) == 3
            append_n(wal, 30, start=50)  # forces several rotations
            assert [r.seq for r in drain(tailer)] == list(range(4, 34))

    def test_cursor_binds_inside_later_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=TINY_SEGMENT) as wal:
            append_n(wal, 30)
            segments = list_segments(tmp_path)
            # pick a cursor in the middle of the last segment
            first = segment_first_seq(segments[-1])
            cursor = first + 1
            tailer = WalTailer(tmp_path, after_seq=cursor, cum_edges=cursor)
            assert [r.seq for r in tailer.poll()][0] == cursor + 1


class TestPrunedCursor:
    def _pruned_log(self, tmp_path, n: int = 40):
        """A rotated log checkpoint-pruned so early segments are gone."""
        from repro.core.graphtinker import GraphTinker

        wal = WriteAheadLog(tmp_path, segment_bytes=TINY_SEGMENT)
        append_n(wal, n)
        store = GraphTinker()
        CheckpointManager(tmp_path, keep=1).write(
            store, wal.last_seq, wal.cum_edges)
        return wal

    def test_pruned_cursor_raises_typed_gap(self, tmp_path):
        wal = self._pruned_log(tmp_path)
        surviving = segment_first_seq(list_segments(tmp_path)[0])
        assert surviving > 1  # pruning actually happened
        with pytest.raises(CursorGapError):
            WalTailer(tmp_path, after_seq=1, cum_edges=1)
        wal.close()

    def test_cursor_at_surviving_segment_still_works(self, tmp_path):
        wal = self._pruned_log(tmp_path)
        first = segment_first_seq(list_segments(tmp_path)[0])
        tailer = WalTailer(tmp_path, after_seq=first, cum_edges=first)
        records = drain(tailer)
        assert records[0].seq == first + 1
        assert records[-1].seq == wal.last_seq
        wal.close()

    def test_gap_error_is_replication_error(self, tmp_path):
        from repro.errors import ReplicationError

        self._pruned_log(tmp_path).close()
        with pytest.raises(ReplicationError):  # typed for resync routing
            WalTailer(tmp_path, after_seq=1, cum_edges=1)


class TestTornTail:
    def _tear_last_record(self, tmp_path, nbytes: int = 4) -> None:
        segment = list_segments(tmp_path)[-1]
        data = segment.read_bytes()
        segment.write_bytes(data[:-nbytes])

    def test_torn_tail_is_pending_not_fatal(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        append_n(wal, 5)
        wal.close()
        self._tear_last_record(tmp_path)
        tailer = WalTailer(tmp_path)
        assert [r.seq for r in drain(tailer)] == [1, 2, 3, 4]
        assert tailer.poll() == []  # still pending, still not fatal

    def test_writer_restart_after_torn_tail_continues_stream(self, tmp_path):
        """The live-subscriber crash story: a writer dies mid-append,
        restarts (recovery truncates the torn record), and re-appends.
        A tailer that watched the torn bytes must pick up the rewritten
        record without error or duplication."""
        wal = WriteAheadLog(tmp_path)
        append_n(wal, 5)
        wal.close()
        self._tear_last_record(tmp_path)
        tailer = WalTailer(tmp_path)
        assert len(drain(tailer)) == 4  # seq 5 torn away

        # writer restart: recovery truncates the tail, seq 5 is reused
        wal = WriteAheadLog(tmp_path)
        assert wal.last_seq == 4
        append_n(wal, 2, start=200)
        records = drain(tailer)
        assert [r.seq for r in records] == [5, 6]
        np.testing.assert_array_equal(records[0].edges,
                                      [[200, 201]])
        wal.close()

    def test_mid_log_corruption_is_fatal(self, tmp_path):
        """Corruption *followed by more data* is damage, not a torn
        tail — the tailer must refuse to resynchronize past it."""
        wal = WriteAheadLog(tmp_path)
        append_n(wal, 5)
        wal.close()
        segment = list_segments(tmp_path)[-1]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip a bit well before EOF
        segment.write_bytes(bytes(data))
        tailer = WalTailer(tmp_path)
        with pytest.raises(ServiceError):
            drain(tailer)


class TestReaderParity:
    """Recovery (``scan_segment``) and replication (``WalTailer``) drive
    one record decoder: on any segment they must return the same records
    and refuse at the same place."""

    N_RECORDS = 3
    EDGES_PER = 2

    def _segment(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for i in range(self.N_RECORDS):
                edges = np.array([[10 * i, 10 * i + 1], [10 * i, 10 * i + 2]],
                                 dtype=np.int64)
                wal.append(OP_INSERT, edges, np.array([0.5 + i, 1.5 + i]))
        (segment,) = list_segments(tmp_path)
        data = segment.read_bytes()
        record_len = (len(data) - len(SEGMENT_MAGIC)) // self.N_RECORDS
        return segment, data, record_len

    @staticmethod
    def _outcome(read):
        """``read()``'s records as comparable tuples, or its refusal."""
        try:
            records = read()
        except ServiceError as exc:
            return ("refused", str(exc))
        return [(r.seq, r.op, r.cum_edges, r.edges.tolist(),
                 r.weights.tolist()) for r in records]

    def _both(self, tmp_path, segment):
        scanned = self._outcome(
            lambda: scan_segment(segment, tolerate_torn_tail=True)[0])
        tailed = self._outcome(lambda: WalTailer(tmp_path).poll())
        assert tailed == scanned
        return scanned

    def test_truncation_at_every_byte_of_the_final_record(self, tmp_path):
        segment, data, record_len = self._segment(tmp_path)
        for cut in range(len(data) - record_len, len(data) + 1):
            segment.write_bytes(data[:cut])
            records = self._both(tmp_path, segment)
            whole = self.N_RECORDS if cut == len(data) else self.N_RECORDS - 1
            assert [r[0] for r in records] == list(range(1, whole + 1))

    def test_bit_flip_at_every_byte_of_the_first_record(self, tmp_path):
        segment, data, record_len = self._segment(tmp_path)
        refusals = 0
        for i in range(len(SEGMENT_MAGIC), len(SEGMENT_MAGIC) + record_len):
            damaged = bytearray(data)
            damaged[i] ^= 0x01
            segment.write_bytes(bytes(damaged))
            outcome = self._both(tmp_path, segment)
            if isinstance(outcome, tuple):
                assert f"@{len(SEGMENT_MAGIC)}" in outcome[1]
                refusals += 1
            else:
                # the only survivable flip makes the record overrun the
                # file (a longer declared payload): a torn tail, no records
                assert outcome == []
        assert refusals >= record_len - 4

    def test_unknown_op_with_valid_crc_is_refused_by_both(self, tmp_path):
        segment, data, _ = self._segment(tmp_path)
        alien = _encode(self.N_RECORDS + 1, 7,
                        np.array([[1, 2]], dtype=np.int64), None,
                        self.N_RECORDS * self.EDGES_PER + 1)
        segment.write_bytes(data + alien)
        outcome = self._both(tmp_path, segment)
        assert outcome[0] == "refused" and "unknown WAL op 7" in outcome[1]
