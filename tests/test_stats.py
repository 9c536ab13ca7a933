"""Unit tests for AccessStats instrumentation bookkeeping."""

import pytest

from repro.core.stats import AccessStats


class TestAccessStats:
    def test_starts_zeroed(self):
        s = AccessStats()
        assert all(v == 0 for v in s.as_dict().values())

    def test_snapshot_is_independent(self):
        s = AccessStats()
        s.workblock_fetches = 3
        snap = s.snapshot()
        s.workblock_fetches = 10
        assert snap.workblock_fetches == 3

    def test_delta(self):
        s = AccessStats()
        s.random_block_reads = 5
        before = s.snapshot()
        s.random_block_reads = 12
        s.rhh_swaps = 2
        d = s.delta(before)
        assert d.random_block_reads == 7
        assert d.rhh_swaps == 2
        assert d.workblock_fetches == 0

    def test_merge_accumulates(self):
        a, b = AccessStats(), AccessStats()
        a.cells_scanned = 4
        b.cells_scanned = 6
        b.hash_lookups = 1
        a.merge(b)
        assert a.cells_scanned == 10
        assert a.hash_lookups == 1

    def test_reset(self):
        s = AccessStats()
        s.seq_block_reads = 9
        s.reset()
        assert s.seq_block_reads == 0

    def test_total_block_accesses(self):
        s = AccessStats()
        s.workblock_fetches = 1
        s.workblock_writebacks = 2
        s.branch_descents = 3
        s.random_block_reads = 4
        s.seq_block_reads = 5
        s.cal_updates = 6
        assert s.total_block_accesses == 21
        s.cells_scanned = 100  # CPU-side: not a block access
        assert s.total_block_accesses == 21

    def test_delta_of_fresh_snapshot_is_all_zero(self):
        s = AccessStats()
        snap = s.snapshot()
        assert all(v == 0 for v in s.delta(snap).as_dict().values())

    def test_snapshot_delta_merge_round_trip(self):
        """merge(snapshot) + merge(delta) reconstructs the current counts."""
        s = AccessStats()
        s.workblock_fetches = 3
        snap = s.snapshot()
        s.workblock_fetches = 11
        s.cal_updates = 2
        rebuilt = AccessStats()
        rebuilt.merge(snap)
        rebuilt.merge(s.delta(snap))
        assert rebuilt.as_dict() == s.as_dict()

    def test_add_returns_merged_copy(self):
        a, b = AccessStats(), AccessStats()
        a.rhh_swaps = 2
        b.rhh_swaps = 3
        b.hash_lookups = 1
        c = a + b
        assert c.rhh_swaps == 5 and c.hash_lookups == 1
        assert a.rhh_swaps == 2 and b.rhh_swaps == 3  # operands untouched

    def test_iadd_accumulates_in_place(self):
        a, b = AccessStats(), AccessStats()
        a.cells_scanned = 4
        b.cells_scanned = 6
        a += b
        assert a.cells_scanned == 10
        assert b.cells_scanned == 6

    def test_sum_with_start(self):
        deltas = []
        for n in (1, 2, 3):
            d = AccessStats()
            d.edges_inserted = n
            deltas.append(d)
        total = sum(deltas, start=AccessStats())
        assert total.edges_inserted == 6

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            AccessStats() + 1

    def test_reset_then_merge_restores_snapshot(self):
        """The audit-path idiom: reset + merge(snapshot) is a restore."""
        s = AccessStats()
        s.edges_inserted = 7
        s.rhh_swaps = 3
        snap = s.snapshot()
        s.edges_inserted = 99
        s.reset()
        s.merge(snap)
        assert s.as_dict() == snap.as_dict()
