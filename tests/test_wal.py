"""Tests for the write-ahead log: format, rotation, torn tails, corruption."""

import numpy as np
import pytest

from repro.core.config import ShardedConfig
from repro.errors import ServiceError
from repro.service import GraphService, WalTailer, recover
from repro.service.wal import (
    OP_DELETE,
    OP_INSERT,
    SEGMENT_MAGIC,
    WriteAheadLog,
    iter_records,
    list_segments,
    prune_segments,
    scan_segment,
    segment_first_seq,
    truncate_torn_tail,
)


def edges_of(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, 50, n), rng.integers(0, 99, n)])


class TestRoundtrip:
    def test_insert_and_delete_records(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            e1, e2 = edges_of(10, 1), edges_of(4, 2)
            w1 = np.linspace(0.5, 2.0, 10)
            assert wal.append(OP_INSERT, e1, w1) == 1
            assert wal.append(OP_DELETE, e2) == 2
        records = list(iter_records(tmp_path))
        assert [r.seq for r in records] == [1, 2]
        assert [r.op for r in records] == [OP_INSERT, OP_DELETE]
        np.testing.assert_array_equal(records[0].edges, e1)
        np.testing.assert_allclose(records[0].weights, w1)
        np.testing.assert_array_equal(records[1].edges, e2)
        assert records[0].cum_edges == 10
        assert records[1].cum_edges == 14

    def test_default_weights_are_ones(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(OP_INSERT, edges_of(5))
        (rec,) = iter_records(tmp_path)
        np.testing.assert_array_equal(rec.weights, np.ones(5))

    def test_reopen_resumes_numbering(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(OP_INSERT, edges_of(3))
        with WriteAheadLog(tmp_path) as wal:
            assert wal.append(OP_INSERT, edges_of(2)) == 2
            assert wal.cum_edges == 5
        assert [r.seq for r in iter_records(tmp_path)] == [1, 2]

    def test_reopen_resumes_every_chains_numbering(self, tmp_path):
        """A sharded service logs each flush as one record of the
        one chain, and a reopen numbers on after it."""
        cfg = ShardedConfig(n_shards=2, seed=7)
        for seq in (1, 2):
            svc, rec = GraphService.open(tmp_path, config=cfg)
            try:
                assert svc.submit_insert(edges_of(30, seq)).wait(30) == seq
                assert svc.cum_input_edges == 30 * seq
            finally:
                svc.close()
                rec.store.close()
        assert [(r.seq, r.cum_edges) for r in iter_records(tmp_path)] \
            == [(1, 30), (2, 60)]
        assert not list(tmp_path.glob("wal-shard*"))

    def test_min_last_seq_rules_after_full_prune(self, tmp_path):
        wal = WriteAheadLog(tmp_path, min_last_seq=7, min_cum_edges=100)
        assert wal.next_seq == 8
        wal.append(OP_INSERT, edges_of(3))
        wal.close()
        (rec,) = iter_records(tmp_path)
        assert rec.seq == 8
        assert rec.cum_edges == 103

    def test_rejects_bad_shapes_and_policies(self, tmp_path):
        for policy in ("sometimes", "always", "never"):
            with pytest.raises(ServiceError):
                WriteAheadLog(tmp_path, sync=policy)
        with WriteAheadLog(tmp_path) as wal:
            with pytest.raises(ServiceError):
                wal.append(OP_INSERT, np.arange(6))


class TestRotation:
    def test_segment_names_have_one_parser(self, tmp_path):
        for name in ("wal-00000000000000000042.seg", "wal-3.seg", "wal-.seg",
                     "wal-12.seg.tmp", "xwal-12.seg", "wal-shardx-3.seg",
                     "checkpoint-12.npz"):
            (tmp_path / name).write_bytes(SEGMENT_MAGIC)
        segments = list_segments(tmp_path)
        assert [p.name for p in segments] == [
            "wal-3.seg", "wal-00000000000000000042.seg"]
        assert [segment_first_seq(p) for p in segments] == [3, 42]

    def test_old_per_shard_segment_is_refused(self, tmp_path):
        """Every reader and the writer list segments through one
        function, which names an older layout's per-shard segment
        instead of skipping its records."""
        with WriteAheadLog(tmp_path) as wal:
            wal.append(OP_INSERT, edges_of(4))
        old = tmp_path / "wal-shard0-00000000000000000001.seg"
        old.write_bytes(SEGMENT_MAGIC)
        readers = (list_segments, lambda d: list(iter_records(d)),
                   truncate_torn_tail, WriteAheadLog, recover,
                   GraphService.open, lambda d: WalTailer(d, 0, 0).poll(10),
                   lambda d: prune_segments(d, 1))
        for read in readers:
            with pytest.raises(ServiceError, match=old.name):
                read(tmp_path)

    def test_rotates_into_multiple_segments(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=256) as wal:
            for i in range(6):
                wal.append(OP_INSERT, edges_of(8, i))
            assert wal.n_rotations >= 2
        segments = list_segments(tmp_path)
        assert len(segments) >= 3
        assert [r.seq for r in iter_records(tmp_path)] == list(range(1, 7))

    def test_prune_keeps_active_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=256) as wal:
            for i in range(6):
                wal.append(OP_INSERT, edges_of(8, i))
        n_before = len(list_segments(tmp_path))
        prune_segments(tmp_path, upto_seq=6)
        remaining = list_segments(tmp_path)
        assert len(remaining) == 1
        assert n_before > 1
        # Records past the prune point still replay.
        tail = [r.seq for r in iter_records(tmp_path)]
        assert tail and tail[-1] == 6

    def test_prune_respects_upto_seq(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=256) as wal:
            for i in range(6):
                wal.append(OP_INSERT, edges_of(8, i))
        prune_segments(tmp_path, upto_seq=0)
        assert [r.seq for r in iter_records(tmp_path)] == list(range(1, 7))


class TestTornTail:
    def _write_two(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(OP_INSERT, edges_of(6, 1))
            wal.append(OP_INSERT, edges_of(6, 2))
        (segment,) = list_segments(tmp_path)
        return segment

    def test_torn_final_record_is_dropped(self, tmp_path):
        segment = self._write_two(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-20])  # tear the second record
        records, torn = scan_segment(segment, tolerate_torn_tail=True)
        assert [r.seq for r in records] == [1]
        assert torn is not None
        assert [r.seq for r in iter_records(tmp_path)] == [1]

    def test_torn_header_is_dropped(self, tmp_path):
        segment = self._write_two(tmp_path)
        with open(segment, "ab") as f:
            f.write(b"\x01\x02\x03")  # 3 bytes of a would-be header
        assert [r.seq for r in iter_records(tmp_path)] == [1, 2]

    def test_truncate_torn_tail_makes_log_clean(self, tmp_path):
        segment = self._write_two(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-20])
        offset = truncate_torn_tail(tmp_path)
        assert offset is not None
        # Second pass: nothing torn, scan without tolerance succeeds.
        records, torn = scan_segment(segment, tolerate_torn_tail=False)
        assert [r.seq for r in records] == [1]
        assert torn is None
        assert truncate_torn_tail(tmp_path) is None  # idempotent

    def test_torn_magic_of_fresh_segment(self, tmp_path):
        (tmp_path / "wal-00000000000000000001.seg").write_bytes(SEGMENT_MAGIC[:3])
        assert list(iter_records(tmp_path)) == []
        assert truncate_torn_tail(tmp_path) == 0
        assert list_segments(tmp_path) == []

    def test_empty_segment_is_fine(self, tmp_path):
        (tmp_path / "wal-00000000000000000001.seg").write_bytes(SEGMENT_MAGIC)
        assert list(iter_records(tmp_path)) == []
        records, torn = scan_segment(
            tmp_path / "wal-00000000000000000001.seg", tolerate_torn_tail=False)
        assert records == [] and torn is None

    def test_empty_directory(self, tmp_path):
        assert list(iter_records(tmp_path)) == []
        assert truncate_torn_tail(tmp_path) is None

    def test_writer_reopen_truncates_tear(self, tmp_path):
        segment = self._write_two(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[:-20])
        with WriteAheadLog(tmp_path) as wal:
            assert wal.last_seq == 1
            wal.append(OP_INSERT, edges_of(2, 3))
        assert [r.seq for r in iter_records(tmp_path)] == [1, 2]

    def test_writer_reopen_truncates_a_shard_chains_tear(self, tmp_path):
        """A sharded service's tear is the one chain's: the reopened
        writer truncates it and numbers on from the last whole record."""
        cfg = ShardedConfig(n_shards=2, seed=7)
        svc, rec = GraphService.open(tmp_path, config=cfg)
        try:
            for i in (1, 2):
                svc.submit_insert(edges_of(30, i)).wait(30)
        finally:
            svc.close()
            rec.store.close()
        (segment,) = list_segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-20])
        with WriteAheadLog(tmp_path) as wal:
            assert (wal.last_seq, wal.cum_edges) == (1, 30)
            assert wal.append(OP_INSERT, edges_of(30, 3)) == 2
        assert [r.seq for r in iter_records(tmp_path)] == [1, 2]


class TestCorruption:
    def test_crc_mismatch_mid_segment_raises(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(OP_INSERT, edges_of(6, 1))
            wal.append(OP_INSERT, edges_of(6, 2))
        (segment,) = list_segments(tmp_path)
        data = bytearray(segment.read_bytes())
        # Flip a payload byte of the FIRST record (mid-segment damage).
        data[len(SEGMENT_MAGIC) + 40] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(ServiceError, match="CRC mismatch mid-segment"):
            list(iter_records(tmp_path))
        # Even tolerant single-segment scans refuse mid-segment damage.
        with pytest.raises(ServiceError):
            scan_segment(segment, tolerate_torn_tail=True)

    def test_crc_mismatch_in_final_record_is_torn(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append(OP_INSERT, edges_of(6, 1))
            wal.append(OP_INSERT, edges_of(6, 2))
        (segment,) = list_segments(tmp_path)
        data = bytearray(segment.read_bytes())
        data[-5] ^= 0xFF
        segment.write_bytes(bytes(data))
        assert [r.seq for r in iter_records(tmp_path)] == [1]

    def test_bad_magic_raises(self, tmp_path):
        (tmp_path / "wal-00000000000000000001.seg").write_bytes(
            b"NOTAWAL!" + b"\x00" * 64)
        with pytest.raises(ServiceError, match="bad magic"):
            list(iter_records(tmp_path))

    def test_sequence_gap_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=64) as wal:
            for i in range(3):
                wal.append(OP_INSERT, edges_of(4, i))  # one record per segment
        segments = list_segments(tmp_path)
        assert len(segments) == 3
        segments[1].unlink()  # lose sequence 2
        with pytest.raises(ServiceError, match="sequence gap"):
            list(iter_records(tmp_path))

    def test_non_final_segment_with_tear_raises(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_bytes=64) as wal:
            wal.append(OP_INSERT, edges_of(4, 1))
            wal.append(OP_INSERT, edges_of(4, 2))
        first, second = list_segments(tmp_path)
        first.write_bytes(first.read_bytes()[:-10])
        with pytest.raises(ServiceError):
            list(iter_records(tmp_path))
