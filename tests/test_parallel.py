"""Tests for interval-partitioned parallel instances (Sec. III.D)."""

import numpy as np
import pytest

from repro import GTConfig, StingerConfig
from repro.bench.partitioned import (
    PartitionedGraphTinker,
    PartitionedStinger,
    PartitionedStore,
)
from repro.errors import ConfigError
from tests.reference import ReferenceGraph


@pytest.fixture
def cfg():
    return GTConfig(pagewidth=16, subblock=4, workblock=2)


class TestPartitioning:
    def test_partition_batch_covers_everything(self, cfg, random_edges):
        store = PartitionedGraphTinker(4, cfg)
        parts = store.partition_batch(random_edges)
        assert sum(p.shape[0] for p in parts) == random_edges.shape[0]

    def test_partition_is_by_source(self, cfg, random_edges):
        """All edges of one source land in one partition (no cross-talk)."""
        store = PartitionedGraphTinker(4, cfg)
        parts = store.partition_batch(random_edges)
        seen: dict[int, int] = {}
        for pid, part in enumerate(parts):
            for s in np.unique(part[:, 0]).tolist():
                assert seen.setdefault(s, pid) == pid

    def test_partition_preserves_stream_order(self, cfg):
        store = PartitionedGraphTinker(2, cfg)
        edges = np.array([[0, 1], [0, 2], [0, 3]])
        parts = store.partition_batch(edges)
        nonempty = [p for p in parts if p.shape[0]]
        assert len(nonempty) == 1
        assert nonempty[0][:, 1].tolist() == [1, 2, 3]

    def test_rejects_bad_partition_count(self, cfg):
        with pytest.raises(ConfigError):
            PartitionedGraphTinker(0, cfg)


class TestSemantics:
    @pytest.mark.parametrize("nparts", [1, 2, 4, 8])
    def test_content_independent_of_partition_count(self, cfg, random_edges, nparts):
        store = PartitionedGraphTinker(nparts, cfg)
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

    def test_delete_batch(self, cfg, random_edges):
        store = PartitionedGraphTinker(3, cfg)
        store.insert_batch(random_edges)
        before = store.n_edges
        store.delete_batch(random_edges[:100])
        distinct = len({(s, d) for s, d in random_edges[:100].tolist()})
        assert store.n_edges == before - distinct

    def test_vertices_sum_is_duplicate_free(self, cfg, random_edges):
        store = PartitionedGraphTinker(4, cfg)
        store.insert_batch(random_edges)
        assert store.n_vertices == np.unique(random_edges[:, 0]).shape[0]


class TestMeasurement:
    def test_insert_batch_returns_per_partition_deltas(self, cfg, random_edges):
        store = PartitionedGraphTinker(4, cfg)
        deltas = store.insert_batch(random_edges)
        assert len(deltas) == 4
        assert sum(d.edges_inserted for d in deltas) == store.n_edges

    def test_merged_stats(self, cfg, random_edges):
        store = PartitionedGraphTinker(2, cfg)
        store.insert_batch(random_edges)
        merged = store.merged_stats()
        assert merged.edges_inserted == store.n_edges

    def test_more_partitions_smaller_makespan(self, cfg, random_edges):
        """The Fig. 10 mechanism: per-partition max cost falls with cores."""
        from repro.bench.costmodel import DEFAULT_COST_MODEL as M

        makespans = {}
        for nparts in (1, 8):
            store = PartitionedGraphTinker(nparts, cfg)
            deltas = store.insert_batch(random_edges)
            makespans[nparts] = max(M.cost(d) for d in deltas)
        assert makespans[8] < makespans[1]


class TestPartitionSeeds:
    """The interval hash is explicitly seedable; the seed moves vertices
    between partitions but never changes the logical graph."""

    @pytest.mark.parametrize("seed", [0, 11, 0xDEAD])
    def test_seed_is_deterministic(self, cfg, random_edges, seed):
        a = PartitionedGraphTinker(4, cfg, seed=seed)
        b = PartitionedGraphTinker(4, cfg, seed=seed)
        pa = a.partition_batch(random_edges)
        pb = b.partition_batch(random_edges)
        for x, y in zip(pa, pb):
            assert np.array_equal(x, y)

    def test_different_seeds_same_logical_graph(self, cfg, random_edges):
        stores = [PartitionedGraphTinker(4, cfg, seed=s) for s in (0, 11)]
        for store in stores:
            store.insert_batch(random_edges)
        a, b = stores
        assert a.n_edges == b.n_edges
        for s, d in random_edges[:200].tolist():
            assert a.has_edge(s, d) and b.has_edge(s, d)
        # ...but the placement genuinely differs between the two seeds
        sizes = [
            tuple(p.shape[0] for p in store.partition_batch(random_edges))
            for store in stores
        ]
        assert sizes[0] != sizes[1]


class TestPartitionedMachine:
    """Stateful property test: the partitioned store behaves like one
    logical graph regardless of partition count."""

    def test_machine(self):
        from hypothesis import settings
        from hypothesis import strategies as st
        from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

        from tests.reference import ReferenceGraph

        cfg = GTConfig(pagewidth=16, subblock=4, workblock=2)

        class Machine(RuleBasedStateMachine):
            def __init__(self):
                super().__init__()
                self.store = PartitionedGraphTinker(3, cfg)
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
                self.store.check_invariants()

        Machine.TestCase.settings = settings(
            max_examples=25, stateful_step_count=40, deadline=None
        )
        state = Machine.TestCase()
        state.runTest()


class TestPartitionedStinger:
    def test_basic(self, random_edges):
        store = PartitionedStinger(4, StingerConfig(edgeblock_size=4))
        store.insert_batch(random_edges)
        distinct = len({(s, d) for s, d in random_edges.tolist()})
        assert store.n_edges == distinct
        store.check_invariants()
