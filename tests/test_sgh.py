"""Unit + property tests for the Scatter-Gather Hashing unit."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.hashing import mix64
from repro.core.sgh import ScatterGatherHash
from repro.errors import VertexNotFoundError


class TestDenseAssignment:
    def test_ids_assigned_from_zero_in_arrival_order(self):
        sgh = ScatterGatherHash()
        assert sgh.hash_id(34) == 0
        assert sgh.hash_id(22789) == 1
        assert sgh.hash_id(5) == 2

    def test_repeat_returns_same_id(self):
        sgh = ScatterGatherHash()
        first = sgh.hash_id(99)
        assert sgh.hash_id(99) == first
        assert len(sgh) == 1

    def test_lookup_without_assign(self):
        sgh = ScatterGatherHash()
        sgh.hash_id(7)
        assert sgh.lookup(7) == 0
        with pytest.raises(VertexNotFoundError):
            sgh.lookup(8)
        assert len(sgh) == 1  # lookup never assigns

    def test_try_lookup(self):
        sgh = ScatterGatherHash()
        assert sgh.try_lookup(1) is None
        sgh.hash_id(1)
        assert sgh.try_lookup(1) == 0

    def test_contains(self):
        sgh = ScatterGatherHash()
        sgh.hash_id(42)
        assert 42 in sgh
        assert 43 not in sgh


class TestInverse:
    def test_roundtrip(self):
        sgh = ScatterGatherHash()
        originals = [100, 2, 999999, 5]
        for o in originals:
            sgh.hash_id(o)
        for o in originals:
            assert sgh.original_id(sgh.lookup(o)) == o

    def test_original_id_out_of_range(self):
        sgh = ScatterGatherHash()
        with pytest.raises(VertexNotFoundError):
            sgh.original_id(0)

    def test_vectorised_inverse(self):
        sgh = ScatterGatherHash()
        for o in (10, 20, 30):
            sgh.hash_id(o)
        got = sgh.original_ids(np.array([2, 0, 1]))
        assert got.tolist() == [30, 10, 20]

    def test_reverse_view_read_only(self):
        sgh = ScatterGatherHash()
        sgh.hash_id(5)
        view = sgh.reverse_view()
        assert view.tolist() == [5]
        with pytest.raises(ValueError):
            view[0] = 1


class TestGrowthAndBatch:
    def test_growth_beyond_initial_capacity(self):
        sgh = ScatterGatherHash(initial_capacity=2)
        for o in range(1000):
            sgh.hash_id(o * 7 + 3)
        assert len(sgh) == 1000
        assert sgh.original_id(999) == 999 * 7 + 3

    def test_stats_counted(self):
        sgh = ScatterGatherHash()
        sgh.hash_id(1)
        sgh.lookup(1)
        sgh.try_lookup(2)
        assert sgh.stats.hash_lookups == 3

    def test_try_lookup_array_is_a_loop_of_try_lookup(self):
        bulk, loop = ScatterGatherHash(), ScatterGatherHash()
        for sgh in (bulk, loop):
            for original in (50, 60, 50, 70, 1 << 40):
                sgh.hash_id(original)
        for ids in ([60, 7, 1 << 40, 60, -1, 50], []):
            got = bulk.try_lookup_array(np.array(ids, dtype=np.int64))
            want = [loop.try_lookup(o) for o in ids]
            assert got.dtype == np.int64
            assert got.tolist() == [-1 if w is None else w for w in want]
            assert bulk.stats.hash_lookups == loop.stats.hash_lookups


    @pytest.mark.parametrize("counts", [(0,), (1,), (3, 0, 5), (2, 1, 30, 4)])
    def test_hash_new_ids_is_a_loop_of_hash_id(self, counts):
        """Same ids, forward and reverse tables (capacity included: growth
        doubles the same number of times) and charges, batch after batch."""
        bulk, loop = (ScatterGatherHash(initial_capacity=2) for _ in range(2))
        fresh = iter(range(7, 10**6, 13))
        for count in counts:
            originals = np.array([next(fresh) for _ in range(count)], dtype=np.int64)
            got = bulk.hash_new_ids(originals)
            assert got.dtype == np.int64
            assert got.tolist() == [loop.hash_id(o) for o in originals.tolist()]
            assert bulk._forward == loop._forward and len(bulk) == len(loop)
            assert bulk._reverse.tolist() == loop._reverse.tolist()
            assert bulk.stats.hash_lookups == loop.stats.hash_lookups


def assert_index_is_the_dict(sgh, ids):
    """``peek_array`` is a loop of ``dict.get`` (uncharged) and
    ``try_lookup_array`` a loop of ``try_lookup``, charges included."""
    ids = np.asarray(ids, dtype=np.int64)
    want = [sgh._forward.get(i, -1) for i in ids.tolist()]
    before = sgh.stats.hash_lookups
    got = sgh.peek_array(ids)
    assert got.dtype == np.int64 and got.tolist() == want
    assert sgh.stats.hash_lookups == before
    assert sgh.try_lookup_array(ids).tolist() == want
    charged = sgh.stats.hash_lookups - before
    loop = [sgh.try_lookup(i) for i in ids.tolist()]
    assert [-1 if w is None else w for w in loop] == want
    assert sgh.stats.hash_lookups - before == 2 * charged == 2 * ids.shape[0]


class TestBatchIndex:
    """The NumPy index ``peek_array`` reads resolves exactly as the dict."""

    def test_sparse_ids_up_to_2_62(self):
        rng = np.random.default_rng(3)
        sgh = ScatterGatherHash()
        ids = np.unique(rng.integers(0, 2**62, 3000, dtype=np.int64))
        ids = ids[rng.permutation(ids.shape[0])]
        sgh.hash_new_ids(ids[:1000])
        for i in ids[1000:1500].tolist():
            sgh.hash_id(i)
        sgh.hash_new_ids(ids[1500:2000])
        probe = np.concatenate([ids, [0, 2**62, 2**63 - 1], ids[::7]])
        assert_index_is_the_dict(sgh, probe[rng.permutation(probe.shape[0])])

    def test_negative_ids_miss(self):
        """A free slot holds -1 in both columns: probing for -1 ends there."""
        negatives = [-1, -2, -1, -(2**63), -12345]
        empty = ScatterGatherHash()
        assert_index_is_the_dict(empty, negatives)
        sgh = ScatterGatherHash()
        sgh.hash_new_ids(np.arange(0, 600, 3, dtype=np.int64))
        assert_index_is_the_dict(sgh, negatives + [0, 3, 4])
        assert (sgh.peek_array(np.full(50, -1)) == -1).all()

    def test_scalar_ids_are_absorbed_on_the_next_batch_call(self):
        sgh = ScatterGatherHash()
        sgh.hash_new_ids(np.array([10, 20, 30]))
        assert sgh._covered == 3
        assert [sgh.hash_id(i) for i in (40, 20, 50)] == [3, 1, 4]
        assert sgh._covered == 3 and len(sgh) == 5   # lazy: not yet indexed
        assert_index_is_the_dict(sgh, [50, 40, 30, 20, 10, 60])
        assert sgh._covered == 5
        sgh.hash_id(60)
        assert sgh.hash_new_ids(np.array([70, 80])).tolist() == [6, 7]
        assert_index_is_the_dict(sgh, [60, 70, 80, 90])

    def test_ten_growth_rebuilds(self):
        sgh = ScatterGatherHash(initial_capacity=2)
        fresh = iter(range(5, 10**9, 7919))
        capacities = {sgh._keys.shape[0]}
        for step in range(14):
            batch = np.array([next(fresh) for _ in range(1 << step)], dtype=np.int64)
            if step % 3:
                sgh.hash_new_ids(batch)
            else:
                for i in batch.tolist():
                    sgh.hash_id(i)
            assert_index_is_the_dict(sgh, np.append(batch, batch + 1))
            capacities.add(sgh._keys.shape[0])
            assert 8 * len(sgh) <= sgh._keys.shape[0]
        assert len(capacities) >= 11
        assert_index_is_the_dict(sgh, np.fromiter(sgh._forward, np.int64))

    def test_chain_wraps_past_the_table_end(self):
        """Keys brute-forced to share the last slot as home: the chain
        crosses the end of the table and continues at slot 0."""
        cap = 32   # the table four ids at load <= 1/8 take
        last = [k for k in range(200_000) if mix64(k) & (cap - 1) == cap - 1][:6]
        sgh = ScatterGatherHash()
        sgh.hash_new_ids(np.array(last[:4]))
        assert sgh._keys.shape[0] == cap
        assert sgh._keys[cap - 1] in last and sgh._keys[0] in last
        assert_index_is_the_dict(sgh, last + [-1, 0])


_ids = st.integers(min_value=0, max_value=2**62)


@given(st.lists(st.tuples(st.sampled_from(["hash_id", "hash_new_ids", "peek_array"]),
                          st.lists(_ids | st.integers(-3, 40), max_size=20)),
                max_size=25))
def test_index_tracks_the_dict_under_interleaved_calls(ops):
    """Property: whatever mix of scalar assignment, bulk assignment and
    batch lookups, the index resolves every id as the dict does."""
    sgh = ScatterGatherHash(initial_capacity=1)
    for op, ids in ops:
        if op == "hash_id":
            for i in ids:
                if i >= 0:
                    sgh.hash_id(i)
        elif op == "hash_new_ids":
            fresh = [i for i in dict.fromkeys(ids) if i >= 0 and i not in sgh]
            sgh.hash_new_ids(np.array(fresh, dtype=np.int64))
        else:
            assert_index_is_the_dict(sgh, ids)
    assert_index_is_the_dict(sgh, list(sgh._forward) + [-1])


@given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=500))
def test_sgh_is_a_bijection_onto_dense_prefix(originals):
    """Property: the mapping is a bijection distinct-originals <-> [0, n)."""
    sgh = ScatterGatherHash()
    for o in originals:
        sgh.hash_id(o)
    distinct = list(dict.fromkeys(originals))
    assert len(sgh) == len(distinct)
    dense = [sgh.lookup(o) for o in distinct]
    assert sorted(dense) == list(range(len(distinct)))
    assert [sgh.original_id(i) for i in dense] == distinct
