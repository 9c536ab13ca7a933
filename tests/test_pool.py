"""Unit + property tests for the BlockPool growable structured pool."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.pool import (
    EMPTY,
    EDGE_CELL_DTYPE,
    BlockPool,
    blank_edge_cells,
)


def make_pool(width=8, initial=2):
    return BlockPool(width, EDGE_CELL_DTYPE, blank_edge_cells, initial)


class TestBlankCells:
    def test_blank_state(self):
        arr = blank_edge_cells((3, 4))
        assert (arr["dst"] == EMPTY).all()
        assert (arr["cal_block"] == -1).all()
        assert (arr["cal_slot"] == -1).all()
        assert (arr["weight"] == 0).all()
        assert (arr["probe"] == 0).all()


class TestAllocation:
    def test_sequential_indices(self):
        pool = make_pool()
        assert [pool.allocate() for _ in range(5)] == [0, 1, 2, 3, 4]
        assert pool.n_used == 5

    def test_growth_doubles(self):
        pool = make_pool(initial=2)
        for _ in range(9):
            pool.allocate()
        assert pool.capacity >= 9
        assert pool.n_used == 9

    def test_growth_preserves_contents(self):
        pool = make_pool(initial=2)
        a = pool.allocate()
        pool.row(a)["dst"][3] = 77
        for _ in range(20):
            pool.allocate()
        assert pool.row(a)["dst"][3] == 77

    def test_free_and_reuse_is_blank(self):
        pool = make_pool()
        a = pool.allocate()
        pool.row(a)["dst"][:] = 9
        pool.free(a)
        b = pool.allocate()
        assert b == a  # LIFO reuse
        assert (pool.row(b)["dst"] == EMPTY).all()

    def test_allocate_hands_out_blank_rows(self):
        """Fresh, recycled and first-after-growth rows are all blank —
        capacity itself is only reserved (zeroed), never pre-blanked."""
        pool = make_pool(initial=2)
        blank = blank_edge_cells(pool.block_width)
        fresh = pool.allocate()
        assert np.array_equal(pool.row(fresh), blank)
        pool.row(fresh)["dst"][:] = 9
        pool.row(fresh)["cal_block"][:] = 5
        pool.free(fresh)
        recycled = pool.allocate()
        assert recycled == fresh
        assert np.array_equal(pool.row(recycled), blank)
        pool.allocate()
        assert pool.capacity == 2
        grown = pool.allocate()  # the allocation that grows the array
        assert pool.capacity == 8
        assert np.array_equal(pool.row(grown), blank)

    def test_growth_leaves_raw_bit_identical(self):
        pool = make_pool(initial=2)
        for i in range(2):
            pool.row(pool.allocate())["dst"][:] = 10 + i
        before = pool.raw().copy()
        pool.allocate()
        assert pool.capacity == 8
        assert pool.raw()[:2].tobytes() == before.tobytes()

    def test_handed_out_rows_are_blank_byte_for_byte(self):
        """Rows move as bytes: whatever a row held, ``allocate`` and both
        halves of ``allocate_many`` (free list, fresh) leave exactly the
        blank row's bytes and touch no other row."""
        pool = make_pool(initial=2)
        blank = blank_edge_cells(pool.block_width).tobytes()
        pool.allocate_many(6)
        pool.raw().view(np.uint8)[:] = 0xAB
        for idx in (4, 1, 3):
            pool.free(idx)
        handed = [pool.allocate()] + pool.allocate_many(4)
        assert handed == [3, 1, 4, 6, 7]
        for idx in handed:
            assert pool.row(idx).tobytes() == blank
        for idx in (0, 2, 5):
            assert pool.row(idx).tobytes() == b"\xab" * len(blank)

    def test_growth_copies_used_rows_and_reserves_zero(self):
        pool = make_pool(initial=2)
        pool.allocate_many(2)
        pool.raw().view(np.uint8)[:] = np.arange(2 * 8 * EDGE_CELL_DTYPE.itemsize).reshape(2, -1) % 251
        before = pool.raw().tobytes()
        pool.allocate_many(7)
        assert pool.capacity == 32 and pool.high_water == 9
        assert pool.raw()[:2].tobytes() == before
        assert not pool._data[pool.high_water:].view(np.uint8).any()

    def test_free_unallocated_raises(self):
        pool = make_pool()
        with pytest.raises(IndexError):
            pool.free(0)

    def test_row_out_of_range_raises(self):
        pool = make_pool()
        with pytest.raises(IndexError):
            pool.row(0)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            BlockPool(0, EDGE_CELL_DTYPE, blank_edge_cells)
        with pytest.raises(ValueError):
            BlockPool(4, EDGE_CELL_DTYPE, blank_edge_cells, initial_blocks=0)


class TestViews:
    def test_row_is_view(self):
        pool = make_pool()
        a = pool.allocate()
        pool.row(a)["dst"][0] = 5
        assert pool.row(a)["dst"][0] == 5

    def test_view_slice(self):
        pool = make_pool(width=8)
        a = pool.allocate()
        pool.view(a, 2, 6)["dst"][:] = 3
        row = pool.row(a)["dst"]
        assert (row[2:6] == 3).all()
        assert row[0] == EMPTY and row[6] == EMPTY

    def test_iter_used_skips_freed(self):
        pool = make_pool()
        ids = [pool.allocate() for _ in range(4)]
        pool.free(ids[1])
        assert list(pool.iter_used()) == [0, 2, 3]

    def test_len_counts_live_blocks(self):
        pool = make_pool()
        ids = [pool.allocate() for _ in range(4)]
        pool.free(ids[0])
        assert len(pool) == 3
        assert pool.high_water == 4


class TestBulkAccess:
    def test_allocate_many(self):
        pool = make_pool()
        ids = pool.allocate_many(5)
        assert ids == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("count", [0, 2, 3, 9])
    def test_allocate_many_equals_repeated_allocate(self, count):
        """Same ids, same free-list left behind, every row blank."""
        pools = [make_pool(initial=2), make_pool(initial=2)]
        for pool in pools:
            for idx in [pool.allocate() for _ in range(5)]:
                pool.row(idx)["dst"][:] = 7
            for idx in (1, 4, 2):
                pool.free(idx)
        bulk, one_by_one = pools
        ids = bulk.allocate_many(count)
        assert ids == [one_by_one.allocate() for _ in range(count)]
        assert bulk._free == one_by_one._free
        assert bulk.high_water == one_by_one.high_water
        assert bulk.raw().tobytes() == one_by_one.raw().tobytes()
        for idx in ids:
            assert (bulk.row(idx)["dst"] == EMPTY).all()

    def test_raw_covers_used_rows(self):
        pool = make_pool()
        a = pool.allocate()
        pool.allocate()
        pool.row(a)["dst"][0] = 42
        raw = pool.raw()
        assert raw.shape[0] == 2
        assert raw["dst"][a][0] == 42

    def test_raw_excludes_unused_capacity(self):
        pool = make_pool(initial=8)
        pool.allocate()
        assert pool.raw().shape[0] == 1


class TestNothingReadsPastHighWater:
    def test_poisoned_spare_capacity_changes_nothing(self, monkeypatch):
        """Rows at or past ``high_water`` are reserved, not initialised:
        a store whose spare capacity is filled with garbage after every
        growth must behave bit-identically to an untouched one."""
        from repro import GraphTinker, GTConfig
        from repro.core.store import store_digest
        from repro.workloads import rmat_edges

        def run():
            gt = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2,
                                      initial_vertices=4, compact_on_delete=True))
            edges = rmat_edges(8, 4000, seed=5)
            for lo in range(0, 4000, 500):
                gt.insert_batch(edges[lo:lo + 500])
                gt.delete_batch(edges[max(0, lo - 300):lo + 100])
                gt.insert_edge(int(edges[lo, 1]), int(edges[lo, 0]), 2.0)
            streamed = [a.tobytes() for a in gt.analytics_edges()]
            assert gt.fsck().ok
            return store_digest(gt), streamed, gt.stats.as_dict()

        clean = run()
        grow = BlockPool._grow_to

        def grow_then_poison(pool, min_rows):
            grow(pool, min_rows)
            pool._data[pool.high_water:].view(np.uint8)[...] = 0x5A

        monkeypatch.setattr(BlockPool, "_grow_to", grow_then_poison)
        assert run() == clean


class TestEdgeLocation:
    def test_fields_and_tuple_behaviour(self):
        from repro.core.edgeblock_array import MAIN, OVERFLOW, EdgeLocation

        loc = EdgeLocation(OVERFLOW, 3, 17)
        assert loc.region == OVERFLOW
        assert loc.block == 3
        assert loc.slot == 17
        assert tuple(loc) == (OVERFLOW, 3, 17)
        assert loc == (OVERFLOW, 3, 17)  # tuple equality for test ergonomics


@given(st.lists(st.sampled_from(["alloc", "free"]), min_size=1, max_size=200))
def test_pool_alloc_free_fuzz(ops):
    """Allocation/free sequences never corrupt bookkeeping."""
    pool = make_pool()
    live: list[int] = []
    for op in ops:
        if op == "alloc" or not live:
            idx = pool.allocate()
            assert idx not in live
            live.append(idx)
        else:
            pool.free(live.pop())
        assert pool.n_used == len(live)
        assert pool.high_water >= pool.n_used
    assert sorted(pool.iter_used()) == sorted(live)
