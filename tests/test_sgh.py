"""Unit + property tests for the Scatter-Gather Hashing unit."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
