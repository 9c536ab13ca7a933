"""Unit tests for the Coarse Adjacency List EdgeblockArray."""

import numpy as np
import pytest

from repro.core.cal import CAL_INVALID, CoarseAdjacencyList
from repro.core.config import GTConfig


def make(group_width=4, block_size=4):
    return CoarseAdjacencyList(
        GTConfig(cal_group_width=group_width, cal_block_size=block_size)
    )


class TestGrouping:
    def test_group_of(self):
        cal = make(group_width=4)
        assert cal.group_of(0) == 0
        assert cal.group_of(3) == 0
        assert cal.group_of(4) == 1
        assert cal.group_of(1023) == 255

    def test_groups_created_on_demand(self):
        cal = make(group_width=4)
        cal.append(9, 1, 1.0)  # group 2
        assert cal.n_groups == 3

    def test_sources_in_same_group_share_blocks(self):
        """The 'coarse' in CAL: several sources pack into one block."""
        cal = make(group_width=4, block_size=8)
        for src in range(4):
            cal.append(src, src * 10, 1.0)
        assert cal.n_blocks == 1


class TestAppend:
    def test_append_returns_address(self):
        cal = make()
        block, slot = cal.append(0, 7, 2.0)
        assert cal.read_slot(block, slot) == (0, 7, 2.0)

    def test_chain_extension_when_block_full(self):
        cal = make(group_width=4, block_size=2)
        addrs = [cal.append(0, d, 1.0) for d in range(5)]
        blocks = {b for b, _ in addrs}
        assert len(blocks) == 3  # ceil(5/2)
        assert cal.n_edges == 5

    def test_groups_have_independent_chains(self):
        cal = make(group_width=2, block_size=2)
        cal.append(0, 1, 1.0)   # group 0
        cal.append(5, 1, 1.0)   # group 2
        cal.append(1, 2, 1.0)   # group 0 again
        src, dst, w = cal.stream_edges()
        # stream is group-ordered: group 0's two edges first
        assert src.tolist() == [0, 1, 5]


class TestUpdateInvalidate:
    def test_update_weight(self):
        cal = make()
        b, s = cal.append(0, 7, 1.0)
        cal.update_weight(b, s, 9.0)
        assert cal.read_slot(b, s)[2] == 9.0

    def test_invalidate(self):
        cal = make()
        b, s = cal.append(0, 7, 1.0)
        cal.invalidate(b, s)
        assert cal.n_edges == 0
        assert cal.read_slot(b, s)[0] == CAL_INVALID

    def test_invalidate_idempotent(self):
        cal = make()
        b, s = cal.append(0, 7, 1.0)
        cal.invalidate(b, s)
        cal.invalidate(b, s)
        assert cal.n_edges == 0

    def test_maintenance_is_o1_no_traversal(self):
        """CAL updates never traverse edges: no block *reads* counted."""
        cal = make(block_size=4)
        for d in range(100):
            cal.append(0, d, 1.0)
        assert cal.stats.seq_block_reads == 0
        assert cal.stats.random_block_reads == 0
        assert cal.stats.cal_updates == 100


def _cal_state(cal):
    """Everything an append can write: cells, free list, every table."""
    used, groups = cal.pool.high_water, cal.n_groups
    state = {name: getattr(cal, name)._data[:used].tolist()
             for name in ("_next", "_prev", "_valid_count")}
    state.update({name: getattr(cal, name)._data[:groups].tolist()
                  for name in ("_group_head", "_group_tail", "_tail_fill")})
    return state | {"cells": cal.pool.raw().tobytes(), "free": list(cal.pool._free),
                    "groups": groups, "n_edges": cal.n_edges,
                    "cal_updates": cal.stats.cal_updates}


class TestInvalidateMany:
    @staticmethod
    def _loaded_pair():
        """Two identical CALs: three groups, several blocks each."""
        rng = np.random.default_rng(5)
        srcs = rng.integers(0, 12, 90)
        pair = (make(), make())
        addrs = [[cal.append(int(s), d, 1.0) for d, s in enumerate(srcs)]
                 for cal in pair]
        assert addrs[0] == addrs[1]
        return pair, np.array(addrs[0], dtype=np.int64)

    def test_state_identical_to_invalidate_loop(self):
        (looped, bulk), addrs = self._loaded_pair()
        picks = np.random.default_rng(6).permutation(addrs)[:50]
        # One address twice and one already-invalid address: both no-ops.
        picks = np.vstack([picks, picks[:1]])
        for cal in (looped, bulk):
            cal.invalidate(*picks[7].tolist())
        for b, s in picks.tolist():
            looped.invalidate(b, s)
        bulk.invalidate_many(picks[:, 0], picks[:, 1])
        assert _cal_state(bulk) == _cal_state(looped)
        assert bulk.n_edges == 40

    def test_idempotent_and_empty(self):
        (_, cal), addrs = self._loaded_pair()
        cal.invalidate_many(addrs[:10, 0], addrs[:10, 1])
        state = _cal_state(cal)
        cal.invalidate_many(addrs[:10, 0], addrs[:10, 1])
        cal.invalidate_many(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert _cal_state(cal) == state

    @pytest.mark.parametrize("bad", [(10_000, 0), (-1, 0), (0, 4), (0, -1)])
    def test_bad_address_raises_before_mutating(self, bad):
        (_, cal), addrs = self._loaded_pair()
        state = _cal_state(cal)
        picks = np.vstack([addrs[:10], [bad]])
        with pytest.raises(IndexError):
            cal.invalidate_many(picks[:, 0], picks[:, 1])
        assert _cal_state(cal) == state


class TestAppendMany:
    """``append_many`` against its specification: a loop of ``append`` on
    a twin — returned addresses and every byte of state equal."""

    @staticmethod
    def _append_both(pair, srcs):
        looped, bulk = pair
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = 1000 + looped.n_edges + np.arange(srcs.shape[0])
        weights = dsts * 0.25
        want = [looped.append(s, d, w)
                for s, d, w in zip(srcs.tolist(), dsts.tolist(), weights.tolist())]
        blocks, slots = bulk.append_many(srcs, dsts, weights)
        assert blocks.dtype == slots.dtype == np.int64
        assert list(zip(blocks.tolist(), slots.tolist())) == want
        assert _cal_state(bulk) == _cal_state(looped)

    def test_empty_batch(self):
        pair = (make(), make())
        self._append_both(pair, [])
        self._append_both(pair, [0, 5, 0])
        self._append_both(pair, [])
        assert pair[1].n_edges == 3

    @pytest.mark.parametrize("first", [0, 1, 3, 4, 8])
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 13])
    def test_one_group(self, first, count):
        """The tail absent, part-filled (1, 3) and exactly full (4, 8)
        when the batch arrives; the batch ending inside or on a block."""
        pair = (make(block_size=4), make(block_size=4))
        self._append_both(pair, [1] * first)
        self._append_both(pair, [2, 0, 3, 1] * 4 + [1])
        self._append_both(pair, np.arange(count) % 4)

    @pytest.mark.parametrize("group_width,block_size", [(4, 4), (1, 2), (3, 1), (32, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_many_groups_over_batches(self, group_width, block_size, seed):
        """Interleaved groups, new groups appearing late and out of order,
        tails left anywhere by the batch before."""
        rng = np.random.default_rng(seed)
        pair = (make(group_width, block_size), make(group_width, block_size))
        for hi, n in ((12, 50), (12, 1), (40, 200), (7, 33), (90, 64)):
            self._append_both(pair, rng.integers(0, hi, n))
        assert pair[1].n_groups == pair[0].n_groups > 1

    def test_every_tail_exactly_full(self):
        pair = (make(group_width=1, block_size=4), make(group_width=1, block_size=4))
        self._append_both(pair, np.repeat([5, 0, 3], [4, 8, 4]))
        assert pair[1]._tail_fill._data[[0, 3, 5]].tolist() == [4, 4, 4]
        self._append_both(pair, [3, 0, 5, 5, 0, 9])

    @pytest.mark.parametrize("seed", [3, 4])
    def test_free_list_reuse_in_stream_order(self, seed):
        """Blocks freed by ``compact_delete`` come back LIFO to whichever
        group asks first *in the stream*, not first in group order; once
        the free list is dry the rest are fresh rows."""
        rng = np.random.default_rng(seed)
        pair = (make(group_width=2, block_size=2), make(group_width=2, block_size=2))
        self._append_both(pair, rng.integers(0, 8, 60))
        for cal in pair:
            for group in (3, 0, 2):   # empty three chains, tail first
                while (tail := cal._group_tail[group]) >= 0:
                    cal.compact_delete(tail, cal._tail_fill[group] - 1)
        assert len(pair[1].pool._free) >= 6 and pair[1].pool._free == pair[0].pool._free
        self._append_both(pair, rng.permutation(np.repeat([7, 6, 1, 0, 4, 11], 9)))
        assert not pair[1].pool._free and pair[1].pool.high_water > 30


class TestStreaming:
    def test_stream_edges_roundtrip(self):
        cal = make(group_width=8, block_size=4)
        expected = []
        for i in range(50):
            src, dst, w = i % 20, i * 3, float(i)
            cal.append(src, dst, w)
            expected.append((src, dst, w))
        src, dst, w = cal.stream_edges()
        got = sorted(zip(src.tolist(), dst.tolist(), w.tolist()))
        assert got == sorted(expected)

    def test_stream_skips_invalidated(self):
        cal = make()
        addrs = [cal.append(0, d, 1.0) for d in range(10)]
        for b, s in addrs[::2]:
            cal.invalidate(b, s)
        src, dst, _ = cal.stream_edges()
        assert sorted(dst.tolist()) == list(range(1, 10, 2))

    def test_stream_counts_sequential_reads(self):
        cal = make(block_size=4)
        for d in range(20):
            cal.append(0, d, 1.0)
        cal.stats.reset()
        cal.stream_edges()
        assert cal.stats.seq_block_reads == cal.n_blocks
        assert cal.stats.random_block_reads == 0

    def test_stream_empty(self):
        cal = make()
        src, dst, w = cal.stream_edges()
        assert src.size == dst.size == w.size == 0

    def test_stream_edges_yields_live_slots_in_slot_order(self):
        cal = make(block_size=4)
        cal.append(0, 1, 1.0)
        cal.append(0, 2, 2.0)
        addr = cal.append(0, 3, 3.0)
        cal.append(0, 4, 4.0)
        cal.invalidate(*addr)
        src, dst, w = cal.stream_edges()
        assert dst.tolist() == [1, 2, 4]
        assert w.tolist() == [1.0, 2.0, 4.0]
        # copies, not views: the pool is untouched by writes to the stream
        dst[:] = 99
        assert cal.pool.row(0)["dst"].tolist() == [1, 2, 3, 4]


def reference_stream(cal):
    """The per-block chain walk ``stream_edges`` must equal: arrays in
    group / chain / slot order, one sequential read of ``cal_block_size``
    cells charged for every block on a chain, live or not."""
    srcs = [np.empty(0, np.int64)]
    dsts = [np.empty(0, np.int64)]
    weights = [np.empty(0, np.float64)]
    reads = 0
    for group in range(cal.n_groups):
        block = cal._group_head[group]
        while block >= 0:
            reads += 1
            row = cal.pool.row(block)
            chunk = row[row["src"] != CAL_INVALID]
            srcs.append(chunk["src"])
            dsts.append(chunk["dst"])
            weights.append(chunk["weight"])
            block = cal._next[block]
    arrays = np.concatenate(srcs), np.concatenate(dsts), np.concatenate(weights)
    return arrays, reads, reads * cal.config.cal_block_size


def assert_stream_matches_reference(cal):
    want, reads, cells = reference_stream(cal)
    before = cal.stats.snapshot()
    got = cal.stream_edges()
    charged = cal.stats.delta(before)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert charged.seq_block_reads == reads
    assert charged.cells_scanned == cells
    assert sum(charged.as_dict().values()) == reads + cells  # nothing else moved
    return got


class TestStreamOracle:
    """``stream_edges`` against the independent per-block reference."""

    def test_empty(self):
        src, dst, w = assert_stream_matches_reference(make())
        assert (src.dtype, dst.dtype, w.dtype) == (np.int64, np.int64, np.float64)

    def test_group_with_every_block_invalidated_is_still_charged(self):
        cal = make(group_width=4, block_size=2)
        dead = [cal.append(0, d, 1.0) for d in range(5)]    # group 0: 3 blocks
        cal.append(4, 7, 2.0)                               # group 1
        for addr in dead:
            cal.invalidate(*addr)
        cal.stats.reset()
        src, dst, _ = assert_stream_matches_reference(cal)
        assert (src.tolist(), dst.tolist()) == ([4], [7])
        assert cal.stats.seq_block_reads == 4  # three of them hold nothing live

    def test_interleaved_groups(self):
        cal = make(group_width=2, block_size=2)
        for i in range(40):
            cal.append((i * 5) % 11, i, float(i))
        src, _, _ = assert_stream_matches_reference(cal)
        groups = (src // 2).tolist()
        assert groups == sorted(groups)

    def test_free_list_reuse_after_compact_delete(self):
        cal = make(group_width=4, block_size=2)
        addrs = [cal.append(0, d, 1.0) for d in range(6)]   # blocks 0,1,2
        for addr in reversed(addrs[2:]):
            cal.compact_delete(*addr)                       # frees 2 then 1
        for d in range(3):
            cal.append(8, 100 + d, 2.0)                     # group 2 reuses 1, 2
        cal.append(0, 50, 3.0)                              # group 0 gets a fresh row
        assert cal._group_head[2] < cal._group_tail[0]      # chain order != row order
        _, dst, _ = assert_stream_matches_reference(cal)
        assert dst.tolist() == [0, 1, 50, 100, 101, 102]

    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rmat_churn_through_graphtinker(self, compact, seed):
        from repro import GraphTinker
        from repro.workloads import rmat_edges

        gt = GraphTinker(GTConfig(cal_group_width=8, cal_block_size=4,
                                  compact_on_delete=compact))
        edges = rmat_edges(8, 3000, seed=seed)
        for lo in range(0, 3000, 500):
            gt.insert_batch(edges[lo:lo + 500])
            gt.delete_batch(edges[max(0, lo - 250):lo + 125])
            assert_stream_matches_reference(gt.cal)
        assert gt.cal.n_edges == gt.cal.stream_edges()[0].size > 0


class TestCompactDelete:
    def test_delete_tail_slot_shrinks(self):
        cal = make(group_width=4, block_size=4)
        addrs = [cal.append(0, d, 1.0) for d in range(3)]
        assert cal.compact_delete(*addrs[-1]) is None  # tail: no move
        assert cal.n_edges == 2

    def test_delete_inner_slot_moves_tail(self):
        cal = make(group_width=4, block_size=4)
        addrs = [cal.append(0, d, float(d)) for d in range(3)]
        moved = cal.compact_delete(*addrs[0])
        assert moved is not None
        src, dst, old_block, old_slot = moved
        assert (src, dst) == (0, 2)
        assert (old_block, old_slot) == addrs[2]
        # the moved copy now lives at the deleted slot
        assert cal.read_slot(*addrs[0]) == (0, 2, 2.0)

    def test_emptied_tail_block_freed_and_unlinked(self):
        cal = make(group_width=4, block_size=2)
        addrs = [cal.append(0, d, 1.0) for d in range(4)]  # two blocks
        blocks_before = cal.n_blocks
        cal.compact_delete(*addrs[3])
        cal.compact_delete(*addrs[2])
        assert cal.n_blocks == blocks_before - 1
        # chain still streams the surviving copies
        _, dst, _ = cal.stream_edges()
        assert sorted(dst.tolist()) == [0, 1]

    def test_group_fully_emptied(self):
        cal = make(group_width=4, block_size=2)
        addrs = [cal.append(0, d, 1.0) for d in range(3)]
        for addr in reversed(addrs):
            cal.compact_delete(*addr)
        assert cal.n_edges == 0
        assert cal.stream_edges()[0].size == 0
        # the group accepts fresh appends afterwards
        cal.append(0, 9, 1.0)
        assert cal.n_edges == 1

    def test_idempotent_on_invalid_slot(self):
        cal = make()
        addr = cal.append(0, 1, 1.0)
        cal.compact_delete(*addr)
        assert cal.compact_delete(*addr) is None

    def test_dense_chain_invariant_under_churn(self, rng):
        from repro.core.cal import CAL_INVALID

        cal = make(group_width=4, block_size=4)
        live = {}
        for i in range(2000):
            if rng.random() < 0.6 or not live:
                src, dst = int(rng.integers(0, 12)), i
                live[(src, dst)] = cal.append(src, dst, 1.0)
                # appends may invalidate stored addresses of later moves,
                # so refresh nothing: moves only happen on delete below.
            else:
                key = next(iter(live))
                addr = live.pop(key)
                moved = cal.compact_delete(*addr)
                if moved is not None:
                    m_src, m_dst, *_ = moved
                    live[(m_src, m_dst)] = addr
        for g in range(cal.n_groups):
            b = cal._group_head[g]
            while b >= 0:
                valid = cal.pool.row(b)["src"] != CAL_INVALID
                if b == cal._group_tail[g]:
                    fill = cal._tail_fill[g]
                    assert valid[:fill].all() and not valid[fill:].any()
                else:
                    assert valid.all()
                b = cal._next[b]


class TestFillFraction:
    def test_full_blocks(self):
        cal = make(block_size=4)
        for d in range(8):
            cal.append(0, d, 1.0)
        assert cal.fill_fraction() == 1.0

    def test_after_invalidation(self):
        cal = make(block_size=4)
        addrs = [cal.append(0, d, 1.0) for d in range(4)]
        cal.invalidate(*addrs[0])
        assert cal.fill_fraction() == 0.75

    def test_empty_structure(self):
        assert make().fill_fraction() == 1.0
