"""Tests for the SSWP (widest path) extension program."""

import networkx as nx
import numpy as np
import pytest

from repro import GraphTinker, GTConfig
from repro.engine import HybridEngine
from repro.engine.algorithms import SSWP
from repro.workloads import rmat_edges


def widest_paths_reference(edges, weights, root):
    """Dijkstra-style max-bottleneck reference on a DiGraph."""
    adj: dict[int, dict[int, float]] = {}
    for (s, d), w in zip(edges.tolist(), weights.tolist()):
        adj.setdefault(s, {})[d] = w  # last weight wins (store semantics)
    import heapq

    width = {root: float("inf")}
    heap = [(-float("inf"), root)]
    done = set()
    while heap:
        neg_w, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, w in adj.get(v, {}).items():
            cand = min(width[v], w)
            if cand > width.get(u, 0.0):
                width[u] = cand
                heapq.heappush(heap, (-cand, u))
    return width


@pytest.fixture(scope="module")
def graph():
    edges = rmat_edges(9, 2500, seed=77)
    edges = edges[edges[:, 0] != edges[:, 1]]
    weights = np.random.default_rng(3).uniform(0.5, 10.0, edges.shape[0])
    return edges, weights


class TestProgramUnits:
    def test_messages_are_bottlenecks(self):
        p = SSWP()
        msgs = p.edge_messages(np.array([5.0, 2.0]), np.array([3.0, 7.0]))
        assert msgs.tolist() == [3.0, 2.0]

    def test_root_seeded_infinite(self):
        p = SSWP()
        values = p.init_state(3)
        p.seed(values, np.array([1]))
        assert np.isinf(values[1]) and values[0] == 0.0

    def test_apply_commits_increases_only(self):
        p = SSWP()
        values = np.array([3.0, 5.0])
        vtemp = np.array([4.0, 2.0])
        changed = p.apply(values, vtemp)
        assert changed.tolist() == [0]
        assert values.tolist() == [4.0, 5.0]


@pytest.mark.parametrize("policy", ["full", "incremental", "hybrid"])
class TestAgainstReference:
    def test_matches_max_bottleneck_dijkstra(self, graph, policy):
        edges, weights = graph
        root = int(edges[0, 0])
        store = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
        store.insert_batch(edges, weights)
        engine = HybridEngine(store, SSWP(), policy=policy)
        engine.reset(roots=[root])
        engine.compute()
        expected = widest_paths_reference(edges, weights, root)
        for v, w in expected.items():
            assert engine.value_of(v) == pytest.approx(w), v
        # unreached vertices stay at width 0
        for v in range(engine.values.shape[0]):
            if v not in expected:
                assert engine.value_of(v) == 0.0


class TestDynamic:
    def test_new_edges_only_widen(self, graph):
        edges, weights = graph
        root = int(edges[0, 0])
        store = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
        engine = HybridEngine(store, SSWP(), policy="hybrid")
        engine.reset(roots=[root])
        half = edges.shape[0] // 2
        store.insert_batch(edges[:half], weights[:half])
        engine.mark_inconsistent(edges[:half])
        engine.compute()
        before = engine.values.copy()
        store.insert_batch(edges[half:], weights[half:])
        engine.mark_inconsistent(edges[half:])
        engine.compute()
        n = before.shape[0]
        assert (engine.values[:n] >= before).all()
