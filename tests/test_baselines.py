"""Tests for the Sec. II baselines: adjacency matrix and CSR-rebuild."""

import numpy as np
import pytest

from repro.baselines import AdjacencyMatrixStore, CSRRebuildStore
from repro.errors import CapacityError, VertexNotFoundError, WorkloadError
from tests.reference import ReferenceGraph, assert_store_matches


class TestAdjacencyMatrix:
    def test_basic_operations(self):
        m = AdjacencyMatrixStore(capacity=64)
        assert m.insert_edge(1, 2, 3.0)
        assert not m.insert_edge(1, 2, 5.0)
        assert m.edge_weight(1, 2) == 5.0
        assert m.delete_edge(1, 2)
        assert not m.has_edge(1, 2)
        m.check_invariants()

    def test_o1_insert_accounting(self):
        m = AdjacencyMatrixStore(capacity=64)
        m.insert_edge(3, 4)
        assert m.stats.random_block_reads == 1  # exactly one cell touch

    def test_capacity_hard_limit(self):
        m = AdjacencyMatrixStore(capacity=8)
        with pytest.raises(CapacityError):
            m.insert_edge(8, 0)

    def test_negative_ids_rejected(self):
        m = AdjacencyMatrixStore(capacity=8)
        with pytest.raises(ValueError):
            m.insert_edge(-1, 0)

    def test_retrieval_scans_quadratically(self):
        m = AdjacencyMatrixStore(capacity=128)
        m.insert_edge(99, 99)  # one edge, but a 100x100 used sub-matrix
        m.stats.reset()
        m.analytics_edges()
        assert m.stats.cells_scanned == 100 * 100

    def test_matches_reference(self, rng):
        m = AdjacencyMatrixStore(capacity=40)
        ref = ReferenceGraph()
        for _ in range(1500):
            s, d = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            if rng.random() < 0.7:
                w = float(rng.random())
                assert m.insert_edge(s, d, w) == ref.insert_edge(s, d, w)
            else:
                assert m.delete_edge(s, d) == ref.delete_edge(s, d)
        m.check_invariants()
        assert_store_matches(m, ref)

    def test_neighbors(self):
        m = AdjacencyMatrixStore(capacity=16)
        m.insert_edge(2, 5, 1.5)
        m.insert_edge(2, 9, 2.5)
        dst, w = m.neighbors(2)
        assert dst.tolist() == [5, 9]
        assert w.tolist() == [1.5, 2.5]
        with pytest.raises(VertexNotFoundError):
            m.neighbors(15)


class TestCSRRebuild:
    def test_basic_operations(self):
        c = CSRRebuildStore()
        assert c.insert_edge(1, 2, 3.0)
        assert not c.insert_edge(1, 2, 5.0)
        assert c.edge_weight(1, 2) == 5.0
        assert c.delete_edge(1, 2)
        assert c.n_edges == 0
        c.check_invariants()

    def test_rebuild_only_when_dirty(self):
        c = CSRRebuildStore()
        c.insert_batch(np.array([[0, 1], [1, 2]]))
        c.analytics_edges()
        assert c.rebuilds == 1
        c.analytics_edges()
        assert c.rebuilds == 1  # clean: no second rebuild
        c.insert_edge(2, 3)
        c.analytics_edges()
        assert c.rebuilds == 2

    def test_csr_slices_sorted_per_source(self):
        c = CSRRebuildStore()
        c.insert_batch(np.array([[5, 9], [0, 3], [5, 1], [0, 7], [5, 4]]))
        src, dst, _ = c.analytics_edges()
        assert src.tolist() == sorted(src.tolist())
        dst5, _ = c.neighbors(5)
        assert dst5.tolist() == sorted(dst5.tolist())

    def test_rebuild_cost_scales_with_edges(self):
        small, big = CSRRebuildStore(), CSRRebuildStore()
        small.insert_batch(np.column_stack([np.arange(100), np.arange(100) + 1]))
        big.insert_batch(np.column_stack([np.arange(10000), np.arange(10000) + 1]))
        small.stats.reset(); big.stats.reset()
        small.rebuild(); big.rebuild()
        assert big.stats.cells_scanned > 50 * small.stats.cells_scanned

    def test_matches_reference(self, rng):
        c = CSRRebuildStore()
        ref = ReferenceGraph()
        for _ in range(2000):
            s, d = int(rng.integers(0, 30)), int(rng.integers(0, 90))
            if rng.random() < 0.7:
                w = float(rng.random())
                assert c.insert_edge(s, d, w) == ref.insert_edge(s, d, w)
            else:
                assert c.delete_edge(s, d) == ref.delete_edge(s, d)
        c.check_invariants()
        assert_store_matches(c, ref)

    def test_degree_and_unknown_vertex(self):
        c = CSRRebuildStore()
        c.insert_batch(np.array([[3, 1], [3, 2]]))
        assert c.degree(3) == 2
        assert c.degree(99) == 0
        with pytest.raises(VertexNotFoundError):
            c.neighbors(99)

    def test_empty_store(self):
        c = CSRRebuildStore()
        src, dst, w = c.analytics_edges()
        assert src.size == 0
        c.check_invariants()


@pytest.mark.parametrize("make", [lambda: AdjacencyMatrixStore(capacity=16),
                                  CSRRebuildStore], ids=["matrix", "csr"])
@pytest.mark.parametrize("bad", [[1, 2], [[1, 2, 3]]], ids=["1d", "n_by_3"])
def test_malformed_batches_raise_workload_error(make, bad):
    store = make()
    with pytest.raises(WorkloadError):
        store.insert_batch(bad)
    with pytest.raises(WorkloadError):
        store.delete_batch(bad)
    assert store.n_edges == 0 and store.stats.as_dict() == make().stats.as_dict()


# The matrix's misses are uncharged; CSR's probe its (unbounded) rows.
@pytest.mark.parametrize("make,uncharged", [(lambda: AdjacencyMatrixStore(capacity=16), True),
                                            (CSRRebuildStore, False)], ids=["matrix", "csr"])
def test_out_of_range_ids_are_misses(make, uncharged):
    store = make()
    store.insert_edge(15, 15, 2.0)
    store.insert_edge(0, 1)
    before = store.stats.as_dict()
    for src, dst in [(-1, 0), (0, -1), (16, 0), (0, 16), (-1, 99)]:
        assert store.has_edge(src, dst) is False
        assert store.edge_weight(src, dst) is None
        assert store.delete_edge(src, dst) is False
    assert store.degree(-1) == 0
    with pytest.raises(VertexNotFoundError):
        store.neighbors(-1)
    if uncharged:
        assert store.stats.as_dict() == before
    assert store.n_edges == 2 and store.edge_weight(15, 15) == 2.0


class TestEngineOnBaselines:
    """The engine must run unmodified on any conforming store."""

    def test_bfs_identical_across_all_four_stores(self, rng):
        import networkx as nx

        from repro import GraphTinker, GTConfig, StingerConfig
        from repro.engine import BFS, HybridEngine
        from repro.stinger import Stinger

        edges = np.column_stack([rng.integers(0, 60, 1200),
                                 rng.integers(0, 60, 1200)])
        edges = edges[edges[:, 0] != edges[:, 1]]
        root = int(edges[0, 0])
        results = {}
        stores = {
            "gt": GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2)),
            "stinger": Stinger(StingerConfig(edgeblock_size=4)),
            "matrix": AdjacencyMatrixStore(capacity=64),
            "csr": CSRRebuildStore(),
        }
        for name, store in stores.items():
            store.insert_batch(edges)
            engine = HybridEngine(store, BFS(), policy="full")
            engine.reset(roots=[root])
            engine.compute()
            results[name] = engine.values
        G = nx.DiGraph(); G.add_edges_from(edges.tolist())
        expected = nx.single_source_shortest_path_length(G, root)
        for name, values in results.items():
            for v, level in expected.items():
                assert values[v] == level, (name, v)
