"""Vector-kernel equivalence tests (``repro.core.kernels``).

The vector batch-ingest kernel is licensed to change *nothing* but
wall-clock time: for any input stream it must leave bit-identical store
state and bit-identical :class:`AccessStats` versus the scalar
reference.  Every test here drives the same operation stream through a
scalar store and a vector store and asserts total equality — contents,
counters, block layout, and a clean full fsck.

``tests/test_differential.py`` extends the same idea to randomized
streams against external oracles (STINGER, dict-of-dicts).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import GTConfig
from repro.core.edgeblock_array import MAIN, OVERFLOW
from repro.core.graphtinker import GraphTinker
from repro.core.hashing import (
    initial_bucket,
    initial_bucket_array,
    subblock_index,
    subblock_index_array,
)
from repro.errors import CapacityError
from repro.workloads import rmat_edges
from tests.reference import assert_gather_matches_loop

SMALL = dict(pagewidth=16, subblock=8, workblock=4, max_generations=64)


def assert_equivalent(scalar: GraphTinker, vector: GraphTinker) -> None:
    """Total-state equality: counters, contents, layout, invariants."""
    sa, sb = scalar.stats.as_dict(), vector.stats.as_dict()
    assert sa == sb, {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]}
    assert scalar.n_edges == vector.n_edges
    assert scalar.memory_blocks() == vector.memory_blocks()
    s1, d1, w1 = scalar.edge_arrays()
    s2, d2, w2 = vector.edge_arrays()
    assert (sorted(zip(s1.tolist(), d1.tolist(), w1.tolist()))
            == sorted(zip(s2.tolist(), d2.tolist(), w2.tolist())))
    report = vector.fsck(level="full")
    assert report.ok, report.summary()
    assert scalar.fsck(level="full").ok


def run_pair(cfg: GTConfig, ops) -> tuple[GraphTinker, GraphTinker]:
    """Apply ``ops`` (list of ("insert"|"delete", edges[, weights])) to a
    scalar-kernel store and a vector-kernel store; return both."""
    stores = []
    for kernel in ("scalar", "vector"):
        gt = GraphTinker(cfg.with_(kernel=kernel))
        for op in ops:
            if op[0] == "insert":
                _, edges, weights = op
                gt.insert_batch(edges, weights)
            else:
                gt.delete_batch(op[1])
        stores.append(gt)
    return stores[0], stores[1]


def churn_ops(seed: int, rounds: int = 4, nv: int = 150):
    """A duplicate-heavy insert/delete stream (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(rounds):
        n = int(rng.integers(80, 400))
        batch = np.column_stack(
            [rng.integers(0, nv, n), rng.integers(0, nv // 3, n)]
        ).astype(np.int64)
        ops.append(("insert", batch, rng.random(n)))
        nd = int(rng.integers(40, 200))
        ops.append(("delete", np.column_stack(
            [rng.integers(0, nv, nd), rng.integers(0, nv // 3, nd)]
        ).astype(np.int64)))
    return ops


class TestStreamEquivalence:
    @pytest.mark.parametrize("nbatches", [1, 4])
    def test_rmat_insert(self, nbatches):
        edges = rmat_edges(12, 8_000, seed=11)
        weights = np.random.default_rng(5).random(edges.shape[0])
        step = edges.shape[0] // nbatches
        ops = [("insert", edges[i:i + step], weights[i:i + step])
               for i in range(0, edges.shape[0], step)]
        assert_equivalent(*run_pair(GTConfig(), ops))

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_churn(self, seed):
        assert_equivalent(*run_pair(GTConfig(**SMALL), churn_ops(seed)))

    @pytest.mark.parametrize("flag", ["enable_sgh", "enable_cal", "enable_rhh"])
    def test_churn_with_feature_off(self, flag):
        cfg = GTConfig(**{**SMALL, flag: False})
        assert_equivalent(*run_pair(cfg, churn_ops(3)))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_long_churn(self, seed):
        """Tier-2 stress: a much longer churn stream over a wider id
        space, at the paper's default geometry (deep CAL groups, many
        generations).  Deselected by default; run with ``-m slow``."""
        assert_equivalent(
            *run_pair(GTConfig(), churn_ops(seed, rounds=25, nv=800))
        )

    def test_self_loop_heavy(self):
        rng = np.random.default_rng(9)
        v = rng.integers(0, 50, 300)
        ops = [
            ("insert", np.column_stack([v, v]).astype(np.int64), rng.random(300)),
            ("delete", np.column_stack([v[:100], v[:100]]).astype(np.int64)),
        ]
        assert_equivalent(*run_pair(GTConfig(**SMALL), ops))


class TestEdgeCases:
    def test_empty_batch(self):
        empty = np.empty((0, 2), dtype=np.int64)
        gt = GraphTinker(GTConfig(kernel="vector"))
        assert gt.insert_batch(empty) == 0
        assert gt.delete_batch(empty) == 0
        assert gt.stats.as_dict() == GraphTinker(GTConfig()).stats.as_dict()

    def test_all_duplicates_last_weight_wins(self):
        """One edge repeated through a batch: CAL weight must be the last."""
        edges = np.array([[3, 5]] * 40, dtype=np.int64)
        weights = np.linspace(0.0, 1.0, 40)
        scalar, vector = run_pair(GTConfig(), [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        assert vector.n_edges == 1
        assert vector.edge_weight(3, 5) == pytest.approx(weights[-1])

    def test_in_batch_duplicates_of_in_batch_inserts(self):
        """Pending-pointer stress: duplicates of edges *placed by this very
        batch* must update the pending CAL record, not append a new one."""
        rng = np.random.default_rng(21)
        base = np.column_stack(
            [rng.integers(0, 20, 120), rng.integers(0, 30, 120)]
        ).astype(np.int64)
        tripled = np.repeat(base, 3, axis=0)
        weights = rng.random(tripled.shape[0])
        scalar, vector = run_pair(GTConfig(**SMALL), [("insert", tripled, weights)])
        assert_equivalent(scalar, vector)
        expect = {}
        for (s, d), w in zip(tripled.tolist(), weights.tolist()):
            expect[(s, d)] = w
        for (s, d), w in expect.items():
            assert vector.edge_weight(s, d) == pytest.approx(w)

    def test_batch_spanning_workblock_full_rehash(self):
        """One source, far more distinct dsts than a page holds: the batch
        must branch out across generations (descents, congestion, rehash)
        identically under both kernels."""
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4, max_generations=512)
        n = 400
        edges = np.column_stack(
            [np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.int64)]
        )
        weights = np.random.default_rng(2).random(n)
        scalar, vector = run_pair(cfg, [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        assert vector.stats.branch_descents > 0
        assert vector.n_edges == n

    def test_weights_round_trip(self):
        rng = np.random.default_rng(31)
        edges = np.column_stack(
            [rng.integers(0, 40, 500), rng.integers(0, 60, 500)]
        ).astype(np.int64)
        weights = rng.random(500)
        scalar, vector = run_pair(GTConfig(), [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        last = {}
        for (s, d), w in zip(edges.tolist(), weights.tolist()):
            last[(s, d)] = w
        for (s, d), w in last.items():
            assert vector.edge_weight(s, d) == pytest.approx(w)
            assert scalar.edge_weight(s, d) == pytest.approx(w)

    def test_delete_with_misses_and_double_deletes(self):
        rng = np.random.default_rng(13)
        edges = np.column_stack(
            [rng.integers(0, 40, 600), rng.integers(0, 50, 600)]
        ).astype(np.int64)
        doomed = np.vstack([edges[:150], edges[:150],          # double deletes
                            np.array([[999, 999], [0, 10_000]])])  # misses
        ops = [("insert", edges, rng.random(600)), ("delete", doomed)]
        scalar, vector = run_pair(GTConfig(**SMALL), ops)
        assert_equivalent(scalar, vector)
        a = GraphTinker(GTConfig(kernel="scalar"))
        b = GraphTinker(GTConfig(kernel="vector"))
        a.insert_batch(edges)
        b.insert_batch(edges)
        assert a.delete_batch(doomed) == b.delete_batch(doomed)

    def test_compact_on_delete_stays_equivalent(self):
        """Compacting deletes couple sources through shared CAL tails, so
        the vector path must delegate — and stay bit-identical."""
        cfg = GTConfig(**SMALL, compact_on_delete=True, cal_block_size=4)
        assert_equivalent(*run_pair(cfg, churn_ops(17)))

    def test_short_weights_truncate_batch(self):
        """The scalar loop zips edges with weights; vector must mirror the
        silent truncation."""
        edges = np.column_stack(
            [np.arange(20, dtype=np.int64), np.arange(20, dtype=np.int64) + 100]
        )
        weights = np.ones(12)
        scalar, vector = run_pair(GTConfig(), [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        assert vector.n_edges == 12


def delete_state(gt: GraphTinker) -> dict:
    """Everything a delete may touch, down to the raw pool bytes."""
    state = {
        "main": gt.eba.main.raw().tobytes(),
        "overflow": gt.eba.overflow.raw().tobytes(),
        "degrees": gt.eba.degrees_view().tolist(),
        "vpa_degrees": gt.vpa.degrees.tolist(),
        "n_edges": gt.n_edges,
        "stats": gt.stats.as_dict(),
    }
    if gt.cal is not None:
        used = gt.cal.pool.high_water
        state["cal"] = gt.cal.pool.raw().tobytes()
        state["cal_valid_count"] = gt.cal._valid_count._data[:used].tolist()
        state["cal_n_edges"] = gt.cal.n_edges
    return state


def delete_pair(cfg: GTConfig, edges, batches, load=GraphTinker.insert_batch):
    """Load two stores identically (same pool rows, byte for byte), then
    run every delete batch per-op on one and through the level pass on the
    other, holding them equal after each batch."""
    scalar, vector = GraphTinker(cfg), GraphTinker(cfg)
    load(scalar, edges)
    load(vector, edges)
    for batch in batches:
        batch = np.asarray(batch, dtype=np.int64)
        assert (scalar.delete_batch(batch, kernel="scalar")
                == vector.delete_batch(batch, kernel="vector"))
        a, b = delete_state(scalar), delete_state(vector)
        assert a == b, [k for k in a if a[k] != b[k]]
    return scalar, vector


def hit_generation(gt: GraphTinker, src: int, dst: int) -> int | None:
    """Tree level holding edge ``(src, dst)`` (uncharged walk)."""
    eba, cfg = gt.eba, gt.config
    region, block = MAIN, gt.dense_id(src)
    for gen in range(cfg.max_generations):
        sb = subblock_index(dst, gen, cfg.subblocks_per_block, cfg.seed)
        if dst in eba._subblock_cells(region, block, sb)["dst"].tolist():
            return gen
        block = eba._children(region).get(block, sb)
        if block < 0:
            return None
        region = OVERFLOW
    return None


def hub_edges(n_hub: int = 400, seed: int = 4) -> np.ndarray:
    """One hub source with ``n_hub`` distinct dsts plus a shallow fringe."""
    rng = np.random.default_rng(seed)
    hub = np.column_stack([np.zeros(n_hub, dtype=np.int64), np.arange(n_hub)])
    fringe = np.column_stack([rng.integers(1, 40, 300), rng.integers(0, 60, 300)])
    return rng.permutation(np.vstack([hub, fringe]).astype(np.int64))


class TestLevelSynchronousDelete:
    """The vector delete runs a chunk level by level, not op by op; it
    must still leave the bytes and counters of the per-op driver."""

    def test_hub_hits_at_deep_generations(self):
        edges = hub_edges()
        probe = GraphTinker(GTConfig(**SMALL))
        probe.insert_batch(edges)
        depths = [hit_generation(probe, 0, d) for d in range(400)]
        assert max(depths) >= 2 and min(depths) == 0
        doomed = np.random.default_rng(8).permutation(edges)
        _, vector = delete_pair(GTConfig(**SMALL), edges,
                                [doomed[:350], doomed[350:]])
        assert vector.n_edges == 0
        vector.check_invariants()

    def test_same_pair_three_times_in_one_batch(self):
        edges = hub_edges()
        probe = GraphTinker(GTConfig(**SMALL))
        probe.insert_batch(edges)
        by_depth = {hit_generation(probe, 0, d): d for d in range(400)}
        pairs = [[0, by_depth[0]],             # first hit in the main region
                 [0, by_depth[1]],             # ... in the overflow region
                 [0, by_depth[max(by_depth)]],
                 [0, 10_000], [7, 10_000]]     # a miss, deleted again
        batch = np.random.default_rng(3).permutation(np.repeat(pairs, 3, axis=0))
        scalar, vector = delete_pair(GTConfig(**SMALL), edges, [batch, batch])
        assert scalar.stats.edges_deleted == 3
        vector.check_invariants()

    def test_one_pair_repeated_through_the_batch(self):
        """Hundreds of repeats must not cost hundreds of rounds — and must
        still charge every repeat its own (identical) miss."""
        edges = hub_edges()
        batch = np.vstack([edges[:50], np.repeat(edges[:1], 600, axis=0),
                           np.repeat([[3, 10_000]], 400, axis=0), edges[:50]])
        _, vector = delete_pair(GTConfig(**SMALL), edges, [batch])
        assert vector.stats.edges_deleted == np.unique(edges[:50], axis=0).shape[0]
        vector.check_invariants()

    def test_repeats_straddle_chunk_boundary(self, monkeypatch):
        from repro.core import kernels
        monkeypatch.setattr(kernels, "CHUNK_EDGES", 64)
        edges = hub_edges()
        # Every pair twice: some repeats share a 64-row chunk, most do not.
        batch = np.vstack([edges[:200], edges[150:200], edges[:150]])
        _, vector = delete_pair(GTConfig(**SMALL), edges, [batch])
        assert vector.stats.edges_deleted == np.unique(edges[:200], axis=0).shape[0]
        vector.check_invariants()

    @pytest.mark.parametrize("flag", ["enable_rhh", "enable_sgh", "enable_cal"])
    def test_feature_off(self, flag):
        edges = hub_edges()
        doomed = np.vstack([
            np.random.default_rng(6).permutation(edges)[:500],
            edges[:40],                                # double deletes
            [[41, 3], [10_000, 3], [1 << 40, 3]],      # unknown / out-of-range sources
        ])
        cfg = GTConfig(**{**SMALL, flag: False})
        _, vector = delete_pair(cfg, edges, [doomed])
        vector.check_invariants()

    def test_chain_reaches_max_generations(self):
        """One Subblock per block and two generations: the insert that
        overflows both leaves a child pointer on the last level, which a
        missing delete follows (and is charged for) before giving up."""
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4, max_generations=2)

        def load(gt, edges):
            with pytest.raises(CapacityError):
                for s, d in edges.tolist():
                    gt.insert_edge(s, d)

        edges = np.column_stack([np.zeros(17, dtype=np.int64), np.arange(17)])
        batch = np.column_stack([np.zeros(30, dtype=np.int64), np.arange(30)])
        _, vector = delete_pair(cfg, edges, [batch], load=load)
        assert vector.stats.edges_deleted == 16
        before = vector.stats.branch_descents
        assert vector.delete_batch(np.array([[0, 99]], dtype=np.int64)) == 0
        # Two charged descents: the second one off the end of the chain.
        assert vector.stats.branch_descents - before == 2

    def test_negative_dst_is_a_miss_with_no_charge(self):
        edges = np.array([[1, 2], [1, 3]], dtype=np.int64)
        batch = [[1, -1], [1, -2], [-1, 2], [-1, -1], [9, -1]]
        scalar, vector = delete_pair(GTConfig(), edges, [batch])
        assert vector.n_edges == 2
        assert vector.stats.hash_lookups == scalar.stats.hash_lookups
        vector.check_invariants()


def tree_shape(gt: GraphTinker, src: int) -> tuple[int, int]:
    """``(levels, most children under one block)`` of ``src``'s edgeblock
    tree (uncharged walk)."""
    eba = gt.eba
    level, region = [gt.dense_id(src)], MAIN
    levels = fanout = 0
    while level:
        levels += 1
        kids = [eba._children(region).row(b) for b in level]
        fanout = max([fanout] + [int((k >= 0).sum()) for k in kids])
        level = [int(c) for k in kids for c in k[k >= 0]]
        region = OVERFLOW
    return levels, fanout


class TestLevelSynchronousGather:
    """A snapshot-less ``neighbors_many`` walks a frontier's trees level
    by level, not vertex by vertex; it must still return the triples of
    the per-vertex loop in the loop's order, and charge what it charges."""

    @pytest.mark.parametrize("cfg, n_hub", [(GTConfig(**SMALL), 400),
                                            (GTConfig(), 3000)])
    def test_hub_tree_with_siblings(self, cfg, n_hub):
        gt = GraphTinker(cfg)
        gt.insert_batch(hub_edges(n_hub), np.random.default_rng(1).random(n_hub + 300))
        levels, fanout = tree_shape(gt, 0)
        assert levels >= 3 and fanout >= 2
        (src, dst, _), charged = assert_gather_matches_loop(gt, np.arange(40))
        assert src.shape[0] == gt.n_edges
        assert charged["random_block_reads"] > 40

    def test_rows_full_of_tombstones(self):
        edges = hub_edges()
        gt = GraphTinker(GTConfig(**SMALL))
        gt.insert_batch(edges)
        gt.delete_batch(edges[(edges[:, 0] % 3 == 1) | (edges[:, 1] % 4 != 0)])
        assert 0 < gt.n_edges < 200 and gt.degree(1) == 0
        (src, _, _), _ = assert_gather_matches_loop(gt, np.arange(40))
        assert src.shape[0] == gt.n_edges
        gt.delete_batch(edges)
        (src, _, _), charged = assert_gather_matches_loop(gt, np.arange(40))
        assert src.shape[0] == 0 and charged["random_block_reads"] == 0

    def test_compaction_freed_blocks_and_cleared_child_pointers(self):
        edges = hub_edges()
        gt = GraphTinker(GTConfig(**SMALL, compact_on_delete=True))
        gt.insert_batch(edges)
        grown = gt.eba.overflow_blocks_in_use()
        gt.delete_batch(np.random.default_rng(2).permutation(edges)[:550])
        assert 0 < gt.eba.overflow_blocks_in_use() < grown
        (src, _, _), _ = assert_gather_matches_loop(gt, np.arange(40))
        assert src.shape[0] == gt.n_edges
        # Freed overflow rows handed out again, under other parents.
        gt.insert_batch(np.column_stack([np.full(200, 5), np.arange(1000, 1200)]))
        assert_gather_matches_loop(gt, np.arange(40))

    def test_one_subblock_per_block_is_a_deep_chain(self):
        gt = GraphTinker(GTConfig(pagewidth=8, subblock=8, workblock=4))
        gt.insert_batch(hub_edges())
        levels, fanout = tree_shape(gt, 0)
        assert levels >= 30 and fanout == 1
        assert_gather_matches_loop(gt, np.arange(40))

    def test_sgh_off_takes_raw_ids(self):
        gt = GraphTinker(GTConfig(**SMALL, enable_sgh=False))
        gt.insert_batch(hub_edges())
        n = gt.eba.n_vertices
        (src, _, _), charged = assert_gather_matches_loop(
            gt, [n + 5, 0, n, 3, 1 << 40, n - 1, -1])
        assert charged["hash_lookups"] == 0
        assert set(src.tolist()) <= {0, 3, n - 1}

    def test_unknown_negative_repeated_ids_and_empty_frontiers(self):
        gt = GraphTinker(GTConfig(**SMALL))
        for active in ([], [3], [-1, 7, 7]):          # an empty store
            (src, _, _), _ = assert_gather_matches_loop(gt, active)
            assert src.shape[0] == 0
        gt.insert_batch(hub_edges())
        (src, dst, weight), charged = assert_gather_matches_loop(gt, [])
        assert (src.dtype, dst.dtype, weight.dtype) == (np.int64, np.int64, np.float64)
        assert not any(charged.values())
        assert_gather_matches_loop(gt, [9, -4, 0, 9, 10_000, 0, 1 << 40, -1, 9])
        assert_gather_matches_loop(gt, np.array([[3, 0], [0, 3]]))

    def test_sgh_id_without_a_row(self):
        gt = GraphTinker(GTConfig(**SMALL))
        gt.insert_batch(hub_edges())
        assert gt.sgh.hash_id(77_000) == gt.eba.n_vertices   # renamed, never stored
        (src, _, _), charged = assert_gather_matches_loop(gt, [77_000])
        assert src.shape[0] == 0
        assert {k: v for k, v in charged.items() if v} == {"hash_lookups": 1}

    def test_more_rows_than_one_slab(self):
        from repro.core.edgeblock_array import GATHER_SLAB_ROWS as slab
        hubs = [3, slab - 1, slab, slab + 400]
        rng = np.random.default_rng(5)
        fringe = np.column_stack([np.repeat(np.arange(slab + 500), 2),
                                  rng.integers(0, 50, 2 * (slab + 500))])
        edges = np.vstack([fringe] + [np.column_stack([np.full(300, h), np.arange(100, 400)])
                                      for h in hubs])
        gt = GraphTinker(GTConfig(**SMALL))
        gt.insert_batch(edges)
        # Sources arrived in ascending order, so dense row == original id.
        assert [gt.dense_id(h) for h in hubs] == hubs
        assert all(tree_shape(gt, h)[0] >= 3 for h in hubs)
        (src, _, _), _ = assert_gather_matches_loop(gt, np.arange(slab + 600))
        assert src.shape[0] == gt.n_edges
        assert_gather_matches_loop(gt, rng.permutation(slab + 500)[:slab + 100])


def tree_rows(gt: GraphTinker) -> list[bytes]:
    """Every edgeblock row of every tree, named by its path instead of its
    pool row: main rows in dense order, children in Subblock order.  Equal
    lists mean equal stores up to overflow-row names."""
    eba, out = gt.eba, []
    stack = [(MAIN, row) for row in reversed(range(eba.n_vertices))]
    while stack:
        region, block = stack.pop()
        out.append(eba._pool(region).row(block).tobytes())
        kids = eba._children(region).row(block)
        stack.extend((OVERFLOW, int(c)) for c in kids[kids >= 0][::-1])
    return out


def insert_pair(cfg: GTConfig, ops) -> tuple[GraphTinker, GraphTinker]:
    """:func:`run_pair`, holding the two stores equal after *every* batch:
    counters, edges and fsck, then cells path by path, degrees and the
    CAL byte for byte."""
    scalar = GraphTinker(cfg.with_(kernel="scalar"))
    vector = GraphTinker(cfg.with_(kernel="vector"))
    for op in ops:
        for gt in (scalar, vector):
            if op[0] == "insert":
                gt.insert_batch(op[1], op[2])
            else:
                gt.delete_batch(op[1])
        assert_equivalent(scalar, vector)
        assert tree_rows(scalar) == tree_rows(vector)
        assert scalar.eba.degrees_view().tolist() == vector.eba.degrees_view().tolist()
        assert scalar.vpa.degrees.tolist() == vector.vpa.degrees.tolist()
        if scalar.cal is not None:
            assert scalar.cal.n_edges == vector.cal.n_edges
            assert scalar.cal.pool.raw().tobytes() == vector.cal.pool.raw().tobytes()
    return scalar, vector


def hubs_stream(n_hubs: int, per_hub: int, seed: int = 0):
    """``n_hubs`` sources with ``per_hub`` distinct dsts each, shuffled:
    ``(edges, weights)``."""
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n_hubs), per_hub)
    dst = np.tile(np.arange(per_hub), n_hubs) + 1000 * src
    edges = rng.permutation(np.column_stack([src, dst]).astype(np.int64))
    return edges, rng.random(edges.shape[0])


def in_batches(edges, weights, k: int):
    return [("insert", e, w) for e, w in zip(np.array_split(edges, k),
                                             np.array_split(weights, k))]


def count_walks(monkeypatch) -> list[str]:
    """Record every closed-form walk the rounds make, as the pool whose
    cell fields it edited in place: ``"main"`` at generation 0,
    ``"overflow"`` below it.  Told apart by array identity — both pools
    are ``pagewidth`` wide — so a walk on a copy of either fails here."""
    from repro.core import kernels
    calls: list[str] = []
    walk, chunk = kernels._rhh_walk, kernels._insert_chunk
    running = []

    def chunked(gt, *rest):
        running[:] = [gt.eba]
        return chunk(gt, *rest)

    def counted(fields, *rest):
        (pool,) = [name for name in ("main", "overflow")
                   if all(f.base is getattr(running[0], name)._data for f in fields)]
        calls.append(pool)
        return walk(fields, *rest)
    monkeypatch.setattr(kernels, "_insert_chunk", chunked)
    monkeypatch.setattr(kernels, "_rhh_walk", counted)
    return calls


def no_sentinel_left(gt: GraphTinker) -> bool:
    from repro.core.kernels import PENDING_CAL
    return not any((pool.raw()["cal_block"] == PENDING_CAL).any()
                   for pool in (gt.eba.main, gt.eba.overflow))


class TestLevelSynchronousInsert:
    """Insert rounds run every group's r-th op level by level, whatever
    its shape — hits, descents, Robin-Hood walks, branch-outs — and hand
    the thin tail to the per-op loop; either way the store must be the
    per-op driver's, up to overflow-row names."""

    @pytest.mark.parametrize("n_hubs", [64, 1])
    def test_hub_trees_grown_over_batches(self, n_hubs, monkeypatch):
        """64 hubs keep the rounds going; one hub (two groups) never
        starts one.  Both must pass: the floor is not a correctness
        switch."""
        walks = count_walks(monkeypatch)
        edges, weights = hubs_stream(n_hubs, 70)
        _, vector = insert_pair(GTConfig(**SMALL), in_batches(edges, weights, 5))
        assert tree_shape(vector, 0)[0] >= 3
        assert max(hit_generation(vector, 0, d) for d in range(70)) >= 2
        # Rounds ran, and walked below generation 0 — or never started.
        assert set(walks) == ({"main", "overflow"} if n_hubs == 64 else set())

    def test_rounds_alone_are_exact(self, monkeypatch):
        """With the floor at one group nothing is left for the residue
        loop: every op — hit, descent, swap, branch-out — runs in a round
        and reaches neither the probe core nor the list cache."""
        from repro.core import kernels
        edges, weights = hubs_stream(5, 70, seed=1)
        ops = in_batches(edges, weights, 3) + [("insert", edges[:200], weights[:200] + 1.0)]
        scalar = GraphTinker(GTConfig(**SMALL, kernel="scalar"))
        for op in ops:
            scalar.insert_batch(op[1], op[2])

        def unreachable(*args, **kwargs):
            raise AssertionError("a round op reached the per-op path")
        monkeypatch.setattr(kernels, "MIN_ROUND_GROUPS", 1)
        monkeypatch.setattr(kernels.rhh, "rhh_insert", unreachable)
        monkeypatch.setattr(kernels.rhh, "rhh_find", unreachable)
        monkeypatch.setattr(kernels._SubblockCache, "load", unreachable)
        vector = GraphTinker(GTConfig(**SMALL, kernel="vector"))
        for op in ops:
            vector.insert_batch(op[1], op[2])
        monkeypatch.undo()
        assert_equivalent(scalar, vector)
        assert tree_rows(scalar) == tree_rows(vector)
        assert scalar.cal.pool.raw().tobytes() == vector.cal.pool.raw().tobytes()

    def test_duplicate_of_an_edge_displaced_in_the_same_chunk(self, monkeypatch):
        """Every edge again, in the chunk that placed it: by then its cell
        has been swapped or pushed down a level, and its CAL record is
        still pending — the last weight must be the one appended."""
        walks = count_walks(monkeypatch)
        edges, weights = hubs_stream(64, 40, seed=3)
        twice = np.vstack([edges, edges[::-1]])
        w2 = np.concatenate([weights, weights[::-1] + 1.0])
        scalar, vector = insert_pair(GTConfig(**SMALL), [("insert", twice, w2)])
        assert walks and vector.stats.rhh_swaps > 0 and vector.stats.branch_descents > 0
        assert vector.stats.edges_found == edges.shape[0]
        src, dst, w = vector.cal.stream_edges()
        got = dict(zip(zip(vector.original_ids(src).tolist(), dst.tolist()), w.tolist()))
        assert got == {(s, d): x + 1.0 for (s, d), x in zip(edges.tolist(), weights.tolist())}

    def test_duplicates_through_real_cal_pointers_at_depth(self, monkeypatch):
        walks = count_walks(monkeypatch)
        edges, weights = hubs_stream(64, 60, seed=5)
        ops = [("insert", edges, weights), ("insert", edges[::-1], weights[::-1] + 2.0)]
        _, vector = insert_pair(GTConfig(**SMALL), ops)
        assert walks
        deep = [d for d in range(60) if hit_generation(vector, 0, d) >= 2]
        assert deep
        _, dst, w = vector.cal.stream_edges()
        assert w.min() >= 2.0 and dst.shape[0] == edges.shape[0]
        assert vector.edge_weight(0, deep[0]) >= 2.0

    def test_insert_into_tombstoned_chains(self, monkeypatch):
        """Delete-only deletes leave vacancies mid-chain whose probe field
        is stale; fresh edges and re-inserts must land as per-op."""
        walks = count_walks(monkeypatch)
        edges, weights = hubs_stream(64, 60, seed=7)
        rng = np.random.default_rng(8)
        doomed = rng.permutation(edges)[:2400]
        fresh, fresh_w = hubs_stream(64, 30, seed=9)
        fresh[:, 1] += 500
        again = np.vstack([fresh, doomed[:900]])
        ops = [("insert", edges, weights), ("delete", doomed),
               ("insert", again, np.concatenate([fresh_w, rng.random(900)])),
               ("delete", doomed[:300])]
        _, vector = insert_pair(GTConfig(**SMALL), ops)
        assert walks and vector.stats.tombstones_set == 2400 + 300

    @pytest.mark.parametrize("flag", ["enable_sgh", "enable_cal", "enable_rhh"])
    def test_feature_off(self, flag, monkeypatch):
        walks = count_walks(monkeypatch)
        edges, weights = hubs_stream(64, 50, seed=11)
        edges[:, 0] = edges[:, 0] * 3 + 1       # sparse raw ids for the SGH-less store
        ops = in_batches(edges, weights, 3) + [("insert", edges[:500], weights[:500] + 1.0)]
        insert_pair(GTConfig(**{**SMALL, flag: False}), ops)
        assert bool(walks) == (flag != "enable_rhh")   # no RHH: the residue loop only

    def test_one_subblock_per_block_is_a_chain(self, monkeypatch):
        walks = count_walks(monkeypatch)
        edges, weights = hubs_stream(40, 60, seed=13)
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4)
        _, vector = insert_pair(cfg, in_batches(edges, weights, 4))
        levels, fanout = tree_shape(vector, 0)
        assert walks and levels >= 6 and fanout == 1

    def test_stream_straddles_chunks(self, monkeypatch):
        from repro.core import kernels
        monkeypatch.setattr(kernels, "CHUNK_EDGES", 64)
        walks = count_walks(monkeypatch)
        # Round-robin over 64 hubs: every 64-row chunk is 64 one-op groups.
        edges, weights = hubs_stream(64, 30, seed=15)
        order = np.lexsort((edges[:, 0], edges[:, 1] % 1000))
        ops = [("insert", edges[order], weights[order]),
               ("insert", edges[order][100:1000], weights[:900])]
        _, vector = insert_pair(GTConfig(**SMALL), ops)
        assert walks.count("main") >= 30 and "overflow" in walks

    @pytest.mark.parametrize("n_hubs", [64, 1])
    def test_capacity_error_leaves_no_sentinel(self, n_hubs):
        """Two generations of one Subblock hold 16 edges a source; the
        17th raises from a round (64 hubs) or from the residue loop (one
        hub), on either kernel, with every completed op applied and no
        ``PENDING_CAL`` sentinel left in either pool."""
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4, max_generations=2)
        edges, weights = hubs_stream(n_hubs, 20, seed=17)
        for kernel in ("scalar", "vector"):
            gt = GraphTinker(cfg.with_(kernel=kernel))
            gt.insert_batch(edges[:10 * n_hubs], weights[:10 * n_hubs])
            with pytest.raises(CapacityError):
                gt.insert_batch(edges[10 * n_hubs:], weights[10 * n_hubs:])
            assert no_sentinel_left(gt)
            cells = sum(int((pool.raw()["dst"] >= 0).sum())
                        for pool in (gt.eba.main, gt.eba.overflow))
            assert gt.n_edges == gt.vpa.degrees.sum() == gt.stats.edges_inserted == cells
            assert 10 * n_hubs < gt.n_edges <= 16 * n_hubs

    def test_closed_form_walk_matches_rhh_insert(self):
        """The level pass's Robin-Hood walk against the probe core, on
        arbitrary Subblocks: empty to full, a tenth of the cells
        tombstoned (probe field stale), real and pending CAL pointers."""
        from repro.core import robin_hood as rhh
        from repro.core.kernels import PENDING_CAL, _probe_order, _rhh_walk
        rng = np.random.default_rng(23)
        n, size = 6000, 8
        fill = rng.integers(0, size + 1, n)
        live = rng.random((n, size)).argsort(axis=1) < fill[:, None]
        tomb = rng.random((n, size)) < 0.1
        D = np.where(live, rng.permutation(n * size).reshape(n, size), -1)
        D[tomb] = -2
        W = rng.random((n, size))
        P = np.where(D == -1, 0, rng.integers(0, size, (n, size))).astype(np.int16)
        CB = np.where(D >= 0, rng.choice([PENDING_CAL, 4, 9], (n, size)), -1).astype(np.int32)
        CS = np.where(D >= 0, rng.integers(0, 64, (n, size)), -1).astype(np.int32)
        ib = rng.integers(0, size, n)
        edge = [n * size + np.arange(n), rng.random(n),
                rng.choice([PENDING_CAL, 7], n), np.arange(n)]
        want = []
        for i in range(n):
            cells = [m[i].tolist() for m in (D, W, P, CB, CS)]
            out = rhh.rhh_insert(*cells, int(edge[0][i]), float(edge[1][i]), int(ib[i]),
                                 True, int(edge[2][i]), int(edge[3][i]))
            want.append((cells, out))
        fields = (D, W, P, CB, CS)
        rows = np.arange(n)
        cols, t_hit, t_emp, t_vac = _probe_order(D, rows, 0, ib, edge[0], size)
        assert (t_hit == size).all()
        find_len, steps, swaps, wrote, full, floating = _rhh_walk(
            fields, rows, cols, t_emp, t_vac, edge)
        congested = dict(zip(full.tolist(), zip(*(f.tolist() for f in floating))))
        assert 0 < len(congested) < n and swaps.max() >= 3
        for i, (cells, out) in enumerate(want):
            status, _, lengths, w_flag, n_swaps, *o = out
            assert [m[i].tolist() for m in fields] == cells, i
            assert (status == rhh.CONGESTED) == (i in congested), i
            assert lengths == (find_len[i], steps[i]), i
            assert (w_flag, n_swaps) == (wrote[i], swaps[i]), i
            if status == rhh.CONGESTED:
                assert tuple(o) == congested[i], i


class TestHashArrays:
    """The vectorized hash mirrors must agree with the scalar hashes the
    residue loop (and the scalar kernel) use — a disagreement would send
    the rounds' ops to the wrong Subblock/bucket."""

    @pytest.mark.parametrize("generation", [0, 1, 5, 63])
    def test_subblock_index_array(self, generation):
        dsts = np.random.default_rng(generation).integers(0, 1 << 40, 200)
        got = subblock_index_array(dsts, generation, 8, seed=0xBEEF)
        for d, g in zip(dsts.tolist(), got.tolist()):
            assert g == subblock_index(d, generation, 8, 0xBEEF)

    @pytest.mark.parametrize("generation", [0, 1, 5, 63])
    def test_initial_bucket_array(self, generation):
        dsts = np.random.default_rng(100 + generation).integers(0, 1 << 40, 200)
        got = initial_bucket_array(dsts, generation, 16, seed=0xBEEF)
        for d, g in zip(dsts.tolist(), got.tolist()):
            assert g == initial_bucket(d, generation, 16, 0xBEEF)
