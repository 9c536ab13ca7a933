"""Engine correctness against networkx, across all policies and stores.

These are the system-level oracles: BFS levels, SSSP distances, CC labels
and PageRank scores computed through the hybrid engine must agree with
networkx on random graphs, for every execution policy and both stores.
"""

import networkx as nx
import numpy as np
import pytest

from repro import GraphTinker, GTConfig, StingerConfig
from repro.engine import BFS, SSSP, ConnectedComponents, HybridEngine, PageRank
from repro.stinger import Stinger
from repro.workloads import rmat_edges
from repro.workloads.streams import symmetrize

POLICIES = ["full", "incremental", "hybrid"]


def build_store(kind):
    if kind == "gt":
        return GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
    return Stinger(StingerConfig(edgeblock_size=4))


@pytest.fixture(scope="module")
def graph_data():
    edges = rmat_edges(9, 2500, seed=21)
    edges = edges[edges[:, 0] != edges[:, 1]]
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.1, 3.0, edges.shape[0])
    G = nx.DiGraph()
    for (s, d), w in zip(edges.tolist(), weights.tolist()):
        G.add_edge(s, d, weight=w)  # duplicates: last weight wins (store semantics)
    return edges, weights, G


@pytest.mark.parametrize("store_kind", ["gt", "stinger"])
@pytest.mark.parametrize("policy", POLICIES)
class TestBFS:
    def test_levels_match_networkx(self, graph_data, store_kind, policy):
        edges, weights, G = graph_data
        store = build_store(store_kind)
        store.insert_batch(edges, weights)
        engine = HybridEngine(store, BFS(), policy=policy)
        root = int(edges[0, 0])
        engine.reset(roots=[root])
        engine.compute()
        expected = nx.single_source_shortest_path_length(G, root)
        for v, level in expected.items():
            assert engine.value_of(v) == level
        # unreachable vertices stay at +inf
        reachable = set(expected)
        for v in range(engine.values.shape[0]):
            if v not in reachable:
                assert np.isinf(engine.value_of(v))


@pytest.mark.parametrize("policy", POLICIES)
class TestSSSP:
    def test_distances_match_dijkstra(self, graph_data, policy):
        edges, weights, G = graph_data
        store = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
        store.insert_batch(edges, weights)
        engine = HybridEngine(store, SSSP(), policy=policy)
        root = int(edges[0, 0])
        engine.reset(roots=[root])
        engine.compute()
        expected = nx.single_source_dijkstra_path_length(G, root)
        for v, dist in expected.items():
            assert engine.value_of(v) == pytest.approx(dist)


@pytest.mark.parametrize("store_kind", ["gt", "stinger"])
@pytest.mark.parametrize("policy", POLICIES)
class TestCC:
    def test_labels_match_networkx_components(self, graph_data, store_kind, policy):
        edges, _, _ = graph_data
        sym = symmetrize(edges)
        store = build_store(store_kind)
        store.insert_batch(sym)
        engine = HybridEngine(store, ConnectedComponents(), policy=policy)
        engine.reset()
        engine.mark_inconsistent(sym)
        engine.compute()
        G = nx.Graph()
        G.add_edges_from(edges.tolist())
        for comp in nx.connected_components(G):
            labels = {engine.value_of(v) for v in comp}
            assert labels == {float(min(comp))}

    def test_isolated_vertices_keep_own_label(self, graph_data, store_kind, policy):
        edges, _, _ = graph_data
        sym = symmetrize(edges)
        store = build_store(store_kind)
        store.insert_batch(sym)
        engine = HybridEngine(store, ConnectedComponents(), policy=policy)
        engine.reset()
        engine.mark_inconsistent(sym)
        engine.compute()
        touched = set(np.unique(sym).tolist())
        for v in range(engine.values.shape[0]):
            if v not in touched:
                assert engine.value_of(v) == v


class TestPageRank:
    def test_matches_networkx(self, graph_data):
        edges, _, _ = graph_data
        store = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
        store.insert_batch(edges)
        program = PageRank(tol=1e-12)
        engine = HybridEngine(store, program, policy="full")
        engine.reset()
        n = engine.values.shape[0]
        engine.values = program.init_state(n)
        engine._active = np.arange(n)
        engine.compute()
        G = nx.DiGraph()
        G.add_edges_from(edges.tolist())
        G.add_nodes_from(range(n))
        expected = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=1000)
        for v, p in expected.items():
            assert engine.value_of(v) == pytest.approx(p, abs=1e-7)

    def test_incremental_policy_rejected(self, graph_data):
        from repro.errors import EngineError

        edges, _, _ = graph_data
        store = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
        store.insert_batch(edges[:100])
        with pytest.raises(EngineError):
            HybridEngine(store, PageRank(), policy="incremental")
