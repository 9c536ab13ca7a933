"""Point reads are reader-independent.

``EdgeblockArray._locate`` runs one probe core, ``rhh_find``, over two
cell readers: a point read reads the pool one cell at a time, insert's
FIND reads Subblock lists (``_locate(s, d, {}, [])``).  Every probe, hit
or miss, must find the same cell and charge the same ``AccessStats``
either way.  ``neighbors(row)`` walks a row's tree the way
``neighbors_rows([row])`` gathers it: same cells, same order, and as
many blocks charged as the bulk gather counts.  The stores are seeded
power-law graphs (hub rows with overflow trees) and uniform graphs after
churn (tombstones), under each configuration whose probe rule differs.
"""

import numpy as np
import pytest

from repro.core.config import GTConfig
from repro.core.graphtinker import GraphTinker
from repro.workloads import rmat_edges

GEOMETRY = dict(pagewidth=16, subblock=4, workblock=2, initial_vertices=2)
CONFIGS = {
    "rhh": {},
    "no_rhh": {"enable_rhh": False},
    "compact_on_delete": {"compact_on_delete": True},
    "no_sgh": {"enable_sgh": False},
}
SCALE = 9


def build(name, graph, seed):
    """A loaded store with a third of its edges deleted."""
    rng = np.random.default_rng(seed)
    if graph == "powerlaw":
        edges = rmat_edges(SCALE, 6_000, seed=seed)
    else:
        edges = rng.integers(0, 1 << SCALE, (6_000, 2))
    store = GraphTinker(GTConfig(**GEOMETRY, **CONFIGS[name]))
    store.insert_batch(edges, rng.random(edges.shape[0]))
    unique = np.unique(edges, axis=0)
    store.delete_batch(unique[rng.permutation(unique.shape[0])[: unique.shape[0] // 3]])
    return store


def live_pairs(eba):
    """Every live ``(dense src, dst)`` of the store."""
    rows = np.arange(eba.n_vertices)
    counts, _, dst, _ = eba.neighbors_rows(rows)
    return np.column_stack([np.repeat(rows, counts), dst])


def depth(eba, row):
    """Edgeblocks on the longest root-to-leaf path of ``row``'s tree."""
    level, n = [c for c in eba._main_children._data[row].tolist() if c >= 0], 1
    while level:
        n += 1
        level = [c for b in level for c in eba._overflow_children._data[b].tolist() if c >= 0]
    return n


@pytest.mark.parametrize("graph", ["powerlaw", "uniform"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_locate_is_reader_independent(name, graph):
    store = build(name, graph, 5)
    eba, stats = store.eba, store.stats
    rng = np.random.default_rng(17)
    hits = live_pairs(eba)
    misses = np.column_stack([rng.integers(-1, eba.n_vertices + 2, 3_000),
                              rng.integers(0, 1 << SCALE, 3_000)])
    found = 0
    for s, d in np.concatenate([hits, misses]).tolist():
        before = stats.snapshot()
        point = eba._locate(s, d)
        point_charge = stats.delta(before).as_dict()
        before = stats.snapshot()
        listed = eba._locate(s, d, {}, [])
        assert (point, point_charge) == (listed, stats.delta(before).as_dict()), (s, d)
        found += point is not None
    assert found >= hits.shape[0]
    if graph == "powerlaw":
        assert stats.branch_descents > 0


@pytest.mark.parametrize("graph", ["powerlaw", "uniform"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_neighbors_is_neighbors_rows(name, graph):
    store = build(name, graph, 9)
    eba, stats, pw = store.eba, store.stats, store.config.pagewidth
    depths = {row: depth(eba, row) for row in range(eba.n_vertices)}
    if graph == "powerlaw":  # no child, one child, a deep tree
        assert {1, 2} <= set(depths.values()) and max(depths.values()) >= 3
    for row in depths:
        counts, n_blocks, dst, weight = eba.neighbors_rows([row])
        before = stats.snapshot()
        got_dst, got_weight = eba.neighbors(row)
        charge = stats.delta(before)
        assert counts.tolist() == [got_dst.shape[0]]
        assert got_dst.tolist() == dst.tolist() and got_weight.tolist() == weight.tolist()
        assert (got_dst.dtype, got_weight.dtype) == (np.int64, np.float64)
        assert charge.random_block_reads == n_blocks[0]
        assert charge.cells_scanned == n_blocks[0] * pw
