"""Interval-partitioned parallel instances (Sec. III.D) on ShardedStore.

The paper's parallelisation hash-partitions source vertices into
independent instances; :class:`~repro.core.sharded.ShardedStore` is that
design, and its ``last_batch_partitions`` is Fig. 10's charging oracle.
These tests pin the partition contracts Fig. 10 relies on; the
sharding-specific ones (routing, merge, lockstep charges) live in
``tests/test_sharded.py``.
"""

import numpy as np
import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
from repro.core.config import ShardedConfig
from repro.core.sharded import ShardedStore
from repro.core.stats import AccessStats
from repro.errors import ConfigError
from tests.reference import ReferenceGraph


@pytest.fixture
def sharded():
    stores: list[ShardedStore] = []

    def make(n_shards: int, **kwargs) -> ShardedStore:
        store = ShardedStore(ShardedConfig(n_shards=n_shards, **kwargs))
        stores.append(store)
        return store

    yield make
    for store in stores:
        store.close()


def _per_shard_edges(store: ShardedStore) -> list[int]:
    return [store._call(k, ("n_edges", (), ()))[0] for k in range(store.config.n_shards)]


class TestPartitioning:
    def test_partition_is_by_source(self, sharded, random_edges):
        """All edges of one source land in one partition (no cross-talk)."""
        store = sharded(4)
        store.insert_batch(random_edges)
        for s in np.unique(random_edges[:, 0]).tolist():
            holders = [k for k in range(4)
                       if store._call(k, ("rows", ([s],), ()))[0][0].shape[0]]
            assert holders == [store._shard_of(s)]

    def test_rejects_bad_partition_count(self):
        with pytest.raises(ConfigError):
            ShardedConfig(n_shards=0)


class TestSemantics:
    @pytest.mark.parametrize("nparts", [1, 2, 4, 8])
    def test_content_independent_of_partition_count(self, sharded, random_edges, nparts):
        store = sharded(nparts)
        store.insert_batch(random_edges)
        ref = ReferenceGraph()
        for s, d in random_edges.tolist():
            ref.insert_edge(s, d)
        assert store.n_edges == ref.n_edges
        for s, d in random_edges[:200].tolist():
            assert store.has_edge(s, d)
        for s in np.unique(random_edges[:100, 0]).tolist():
            assert store.degree(s) == ref.degree(s)
        store.check_invariants()

    def test_delete_batch(self, sharded, random_edges):
        store = sharded(3)
        store.insert_batch(random_edges)
        before = store.n_edges
        store.delete_batch(random_edges[:100])
        distinct = len({(s, d) for s, d in random_edges[:100].tolist()})
        assert store.n_edges == before - distinct


class TestMeasurement:
    def test_insert_batch_returns_per_partition_deltas(self, sharded, random_edges):
        store = sharded(4)
        store.insert_batch(random_edges)
        deltas = store.last_batch_partitions
        assert len(deltas) == 4
        assert sum(d.edges_inserted for d in deltas) == store.n_edges

    def test_merged_stats(self, sharded, random_edges):
        """Every batch's per-shard deltas sum to the store's own stats."""
        store = sharded(2)
        total = AccessStats()
        for batch in np.array_split(random_edges, 3):
            store.insert_batch(batch)
            for delta in store.last_batch_partitions:
                total.merge(delta)
        assert total.as_dict() == store.stats.as_dict()
        assert store.stats.edges_inserted == store.n_edges

    def test_more_partitions_smaller_makespan(self, sharded, random_edges):
        """The Fig. 10 mechanism: per-partition max cost falls with cores."""
        makespans = {}
        for nparts in (1, 8):
            store = sharded(nparts)
            store.insert_batch(random_edges)
            makespans[nparts] = max(MODEL.cost(d)
                                    for d in store.last_batch_partitions)
        assert makespans[8] < makespans[1]


class TestPartitionSeeds:
    """The interval hash is explicitly seedable; the seed moves vertices
    between partitions but never changes the logical graph."""

    @pytest.mark.parametrize("seed", [0, 11, 0xDEAD])
    def test_seed_is_deterministic(self, sharded, random_edges, seed):
        a = sharded(4, seed=seed)
        b = sharded(4, seed=seed)
        a.insert_batch(random_edges)
        b.insert_batch(random_edges)
        assert [d.as_dict() for d in a.last_batch_partitions] == \
            [d.as_dict() for d in b.last_batch_partitions]
        assert _per_shard_edges(a) == _per_shard_edges(b)

    def test_different_seeds_same_logical_graph(self, sharded, random_edges):
        stores = [sharded(4, seed=s) for s in (0, 11)]
        for store in stores:
            store.insert_batch(random_edges)
        a, b = stores
        assert a.n_edges == b.n_edges
        for s, d in random_edges[:200].tolist():
            assert a.has_edge(s, d) and b.has_edge(s, d)
        # ...but the placement genuinely differs between the two seeds
        assert _per_shard_edges(a) != _per_shard_edges(b)


class TestPartitionedMachine:
    """Stateful property test: the partitioned store behaves like one
    logical graph regardless of partition count."""

    def test_machine(self):
        from hypothesis import settings
        from hypothesis import strategies as st
        from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

        class Machine(RuleBasedStateMachine):
            def __init__(self):
                super().__init__()
                self.store = ShardedStore(ShardedConfig(n_shards=3))
                self.ref = ReferenceGraph()

            @rule(batch=st.lists(
                st.tuples(st.integers(0, 15), st.integers(0, 40)),
                min_size=1, max_size=20))
            def insert_batch(self, batch):
                edges = np.asarray(batch, dtype=np.int64)
                self.store.insert_batch(edges)
                for s, d in batch:
                    self.ref.insert_edge(s, d)

            @rule(batch=st.lists(
                st.tuples(st.integers(0, 15), st.integers(0, 40)),
                min_size=1, max_size=10))
            def delete_batch(self, batch):
                edges = np.asarray(batch, dtype=np.int64)
                self.store.delete_batch(edges)
                for s, d in batch:
                    self.ref.delete_edge(s, d)

            @rule(src=st.integers(0, 15), dst=st.integers(0, 40))
            def query(self, src, dst):
                assert self.store.has_edge(src, dst) == self.ref.has_edge(src, dst)

            @invariant()
            def counts(self):
                assert self.store.n_edges == self.ref.n_edges

            def teardown(self):
                try:
                    self.store.check_invariants()
                finally:
                    self.store.close()

        Machine.TestCase.settings = settings(
            max_examples=25, stateful_step_count=40, deadline=None
        )
        state = Machine.TestCase()
        state.runTest()


class TestStingerShards:
    def test_basic(self, sharded, random_edges):
        store = sharded(4, backend="stinger")
        store.insert_batch(random_edges)
        distinct = len({(s, d) for s, d in random_edges.tolist()})
        assert store.n_edges == distinct
        store.check_invariants()
