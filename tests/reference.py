"""A trivially-correct reference dynamic graph (the test oracle).

Dict-of-dicts: ``adj[src][dst] = weight``.  Used as the model in
hypothesis stateful tests and as the expected state in randomized
integration tests — if GraphTinker or STINGER ever disagree with this,
the data structure is wrong.
"""

from __future__ import annotations

import numpy as np


class ReferenceGraph:
    """Minimal correct dynamic directed multigraph-without-duplicates."""

    def __init__(self) -> None:
        self.adj: dict[int, dict[int, float]] = {}

    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> bool:
        nbrs = self.adj.setdefault(int(src), {})
        is_new = int(dst) not in nbrs
        nbrs[int(dst)] = float(weight)
        return is_new

    def delete_edge(self, src: int, dst: int) -> bool:
        nbrs = self.adj.get(int(src))
        if not nbrs or int(dst) not in nbrs:
            return False
        del nbrs[int(dst)]
        return True

    def has_edge(self, src: int, dst: int) -> bool:
        return int(dst) in self.adj.get(int(src), {})

    def edge_weight(self, src: int, dst: int) -> float | None:
        return self.adj.get(int(src), {}).get(int(dst))

    def degree(self, src: int) -> int:
        return len(self.adj.get(int(src), {}))

    @property
    def n_edges(self) -> int:
        return sum(len(n) for n in self.adj.values())

    def edge_set(self) -> set[tuple[int, int]]:
        return {(s, d) for s, nbrs in self.adj.items() for d in nbrs}

    def weighted_edges(self) -> dict[tuple[int, int], float]:
        return {
            (s, d): w for s, nbrs in self.adj.items() for d, w in nbrs.items()
        }

    def neighbors(self, src: int) -> set[int]:
        return set(self.adj.get(int(src), {}))


def reference_bfs(ref: ReferenceGraph, root: int) -> dict[int, float]:
    """Hop distances from ``root`` over the directed reference graph."""
    dist = {int(root): 0.0}
    frontier = [int(root)]
    while frontier:
        nxt = []
        for v in frontier:
            for d in ref.adj.get(v, {}):
                if d not in dist:
                    dist[d] = dist[v] + 1.0
                    nxt.append(d)
        frontier = nxt
    return dist


def reference_sssp(ref: ReferenceGraph, root: int) -> dict[int, float]:
    """Dijkstra distances from ``root`` (non-negative weights).

    Distances are accumulated root-outward (``dist[u] + w``), the same
    left-to-right float summation order as the engine's Bellman-Ford
    relaxations, so agreement is exact, not approximate.
    """
    import heapq

    dist: dict[int, float] = {}
    heap = [(0.0, int(root))]
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for nbr, w in ref.adj.get(v, {}).items():
            if nbr not in dist:
                heapq.heappush(heap, (d + w, nbr))
    return dist


def reference_cc(ref: ReferenceGraph) -> dict[int, int]:
    """Min-id weakly-connected component labels (union-find).

    Every vertex appearing as an endpoint gets the smallest vertex id of
    its undirected component; other ids are absent (label = own id).
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        for v in (a, b):
            parent.setdefault(v, v)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for s, d in ref.edge_set():
        union(s, d)
    return {v: find(v) for v in parent}


def assert_store_matches(store, ref: ReferenceGraph) -> None:
    """Assert a store's full edge content equals the reference's."""
    assert store.n_edges == ref.n_edges
    got = {}
    for s, d, w in store.edges():
        assert (s, d) not in got, f"store yielded duplicate edge {(s, d)}"
        got[(s, d)] = w
    expected = ref.weighted_edges()
    assert set(got) == set(expected)
    for key, w in expected.items():
        assert abs(got[key] - w) < 1e-12, key


def assert_gather_matches_loop(store, active):
    """``store.neighbors_many(active)`` against the per-vertex reference
    loop on the same store (reads mutate nothing): the three arrays equal
    *in order*, and the full ``AccessStats`` delta of each call equal.
    Returns ``(triple, delta)`` of the ``neighbors_many`` call.
    """
    from repro.engine.snapshot import gather_active_scalar, sanitize_active

    active = np.asarray(active, dtype=np.int64)
    before = store.stats.snapshot()
    got = store.neighbors_many(active)
    charged = store.stats.delta(before).as_dict()
    before = store.stats.snapshot()
    want = gather_active_scalar(store, sanitize_active(active))
    loop_charged = store.stats.delta(before).as_dict()
    assert charged == loop_charged, {
        k: (charged[k], loop_charged[k]) for k in charged if charged[k] != loop_charged[k]}
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()
    return got, charged
