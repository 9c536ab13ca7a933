"""Unit + property tests for the BlockPool growable per-field pool."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.pool import (
    EMPTY,
    CAL_CELL_DTYPE,
    EDGE_CELL_DTYPE,
    STINGER_CELL_DTYPE,
    BlockPool,
    blank_edge_cells,
)
from tests.reference import pool_bytes


def make_pool(width=8, initial=2):
    return BlockPool(width, EDGE_CELL_DTYPE, blank_edge_cells, initial)


def blank_bytes(width):
    """One blank edgeblock row as :func:`pool_bytes` lays it out."""
    blank = blank_edge_cells(width)
    return b"".join(blank[name].tobytes() for name in EDGE_CELL_DTYPE.names)


def poison(pool, rows=slice(None), byte=0xAB):
    """Overwrite every field of ``rows`` (all capacity by default) with
    ``byte``."""
    for arr in pool.fields.values():
        arr[rows].view(np.uint8)[...] = byte


class TestBlankCells:
    def test_blank_state(self):
        arr = blank_edge_cells((3, 4))
        assert (arr["dst"] == EMPTY).all()
        assert (arr["cal"] == -1).all()
        assert (arr["weight"] == 0).all()
        assert (arr["probe"] == 0).all()


class TestLayout:
    """One C-contiguous ``(capacity, width)`` array per cell field, all
    views into the one buffer the pool owns, before and after growth."""

    @pytest.mark.parametrize("dtype", [EDGE_CELL_DTYPE, CAL_CELL_DTYPE, STINGER_CELL_DTYPE])
    def test_one_contiguous_array_per_field_in_one_buffer(self, dtype):
        pool = BlockPool(8, dtype, lambda shape: np.zeros(shape, dtype), 2)
        for rows in (1, 2, 9):
            pool.allocate_many(rows)
            assert list(pool.fields) == list(dtype.names)
            for name, arr in pool.fields.items():
                assert arr.dtype == dtype[name] and arr.dtype.names is None
                assert arr.shape == (pool.capacity, 8)
                assert arr.flags.c_contiguous
                assert arr.base is pool._buffer
            arrays = list(pool.fields.values())
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)


class TestAllocation:
    def test_sequential_indices(self):
        pool = make_pool()
        assert [pool.allocate() for _ in range(5)] == [0, 1, 2, 3, 4]
        assert pool.n_used == 5

    def test_growth_quadruples(self):
        pool = make_pool(initial=2)
        for _ in range(9):
            pool.allocate()
        assert pool.capacity == 32  # 2 -> 8 -> 32
        assert pool.n_used == 9

    def test_growth_preserves_contents(self):
        pool = make_pool(initial=2)
        a = pool.allocate()
        pool.fields["dst"][a, 3] = 77
        for _ in range(20):
            pool.allocate()
        assert pool.fields["dst"][a, 3] == 77

    def test_free_and_reuse_is_blank(self):
        pool = make_pool()
        a = pool.allocate()
        pool.fields["dst"][a] = 9
        pool.free(a)
        b = pool.allocate()
        assert b == a  # LIFO reuse
        assert (pool.fields["dst"][b] == EMPTY).all()

    def test_allocate_hands_out_blank_rows(self):
        """Fresh, recycled and first-after-growth rows are all blank in
        every field — capacity itself is only reserved (zeroed), never
        pre-blanked."""
        pool = make_pool(initial=2)
        blank = blank_bytes(pool.block_width)
        fresh = pool.allocate()
        assert pool_bytes(pool, fresh) == blank
        pool.fields["dst"][fresh] = 9
        pool.fields["cal"][fresh] = 5
        pool.fields["probe"][fresh] = 3
        pool.free(fresh)
        recycled = pool.allocate()
        assert recycled == fresh
        assert pool_bytes(pool, recycled) == blank
        pool.allocate()
        assert pool.capacity == 2
        grown = pool.allocate()  # the allocation that grows the arrays
        assert pool.capacity == 8
        assert pool_bytes(pool, grown) == blank

    def test_growth_leaves_raw_bit_identical(self):
        pool = make_pool(initial=2)
        for i in range(2):
            idx = pool.allocate()
            for arr in pool.fields.values():
                arr[idx] = 10 + i
        before = pool_bytes(pool)
        pool.allocate()
        assert pool.capacity == 8
        assert pool_bytes(pool, slice(2)) == before

    def test_handed_out_rows_are_blank_byte_for_byte(self):
        """Every field is blanked on hand-out: whatever a row held,
        ``allocate`` and both halves of ``allocate_many`` (free list,
        fresh) leave exactly the blank row's bytes in each field and
        touch no other row."""
        pool = make_pool(initial=2)
        blank = blank_bytes(pool.block_width)
        pool.allocate_many(6)
        poison(pool)
        for idx in (4, 1, 3):
            pool.free(idx)
        handed = [pool.allocate()] + pool.allocate_many(4)
        assert handed == [3, 1, 4, 6, 7]
        for idx in handed:
            assert pool_bytes(pool, idx) == blank
        for idx in (0, 2, 5):
            assert pool_bytes(pool, idx) == b"\xab" * len(blank)

    def test_growth_copies_used_rows_and_reserves_zero(self):
        """Growth copies each field's used rows bit for bit and leaves the
        new reserve of every field zero."""
        pool = make_pool(initial=2)
        pool.allocate_many(2)
        for k, arr in enumerate(pool.fields.values()):
            raw = arr[:2].view(np.uint8)
            raw[...] = (np.arange(raw.size).reshape(raw.shape) * (k + 3)) % 251
        before = pool_bytes(pool)
        pool.allocate_many(7)
        assert pool.capacity == 32 and pool.high_water == 9
        assert pool_bytes(pool, slice(2)) == before
        for arr in pool.fields.values():
            assert not arr[pool.high_water:].view(np.uint8).any()

    def test_free_unallocated_raises(self):
        pool = make_pool()
        with pytest.raises(IndexError):
            pool.free(0)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            BlockPool(0, EDGE_CELL_DTYPE, blank_edge_cells)
        with pytest.raises(ValueError):
            BlockPool(4, EDGE_CELL_DTYPE, blank_edge_cells, initial_blocks=0)


class TestViews:
    def test_row_is_view(self):
        pool = make_pool()
        a = pool.allocate()
        row = pool.fields["dst"][a]
        row[0] = 5
        assert pool.fields["dst"][a, 0] == 5

    def test_view_slice(self):
        pool = make_pool(width=8)
        a = pool.allocate()
        pool.fields["dst"][a, 2:6] = 3
        row = pool.fields["dst"][a]
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
                pool.fields["dst"][idx] = 7
                pool.fields["weight"][idx] = 2.5
            for idx in (1, 4, 2):
                pool.free(idx)
        bulk, one_by_one = pools
        ids = bulk.allocate_many(count)
        assert ids == [one_by_one.allocate() for _ in range(count)]
        assert bulk._free == one_by_one._free
        assert bulk.high_water == one_by_one.high_water
        assert pool_bytes(bulk) == pool_bytes(one_by_one)
        for idx in ids:
            assert pool_bytes(bulk, idx) == blank_bytes(bulk.block_width)

    def test_raw_covers_used_rows(self):
        pool = make_pool()
        a = pool.allocate()
        pool.allocate()
        pool.fields["dst"][a, 0] = 42
        dst = pool.fields["dst"][: pool.high_water]
        assert dst.shape == (2, pool.block_width)
        assert dst[a, 0] == 42

    def test_raw_excludes_unused_capacity(self):
        """Capacity past ``high_water`` is reserved, not handed out: it
        stays zero, never blank."""
        pool = make_pool(initial=8)
        pool.allocate()
        assert pool.high_water == 1 and pool.capacity == 8
        assert len(pool_bytes(pool)) == len(blank_bytes(pool.block_width))
        for arr in pool.fields.values():
            assert not arr[1:].view(np.uint8).any()


class TestNothingReadsPastHighWater:
    def test_poisoned_spare_capacity_changes_nothing(self, monkeypatch):
        """Rows at or past ``high_water`` are reserved, not initialised:
        a store whose spare capacity is filled with garbage, in every
        field of every pool, after every growth must behave
        bit-identically to an untouched one."""
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
            poison(pool, slice(pool.high_water, None), 0x5A)

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
