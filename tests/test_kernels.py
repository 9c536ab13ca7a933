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

from itertools import count

import numpy as np
import pytest

from repro.core.config import GTConfig
from repro.core.edgeblock_array import MAIN, OVERFLOW, EdgeblockArray
from repro.core.graphtinker import GraphTinker
from repro.core.hashing import (
    initial_bucket,
    initial_bucket_array,
    subblock_index,
    subblock_index_array,
)
from repro.workloads import rmat_edges
from tests.reference import KernelGraphTinker, assert_gather_matches_loop, fail_on, pool_bytes

SMALL = dict(pagewidth=16, subblock=8, workblock=4)


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
        gt = KernelGraphTinker(cfg, kernel)
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
        gt = GraphTinker(GTConfig())
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
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4)
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
        a = KernelGraphTinker(GTConfig(), "scalar")
        b = KernelGraphTinker(GTConfig(), "vector")
        a.insert_batch(edges)
        b.insert_batch(edges)
        assert a.delete_batch(doomed) == b.delete_batch(doomed)

    def test_compact_on_delete_stays_equivalent(self):
        """Compacting deletes couple sources through shared CAL tails, so
        the vector path must delegate — and stay bit-identical."""
        cfg = GTConfig(**SMALL, compact_on_delete=True, cal_block_size=4)
        assert_equivalent(*run_pair(cfg, churn_ops(17)))

    def test_short_weights_truncate_batch(self, monkeypatch):
        """The scalar loop zips edges with weights; vector must mirror the
        silent truncation — inside the kernel, which sees only the first
        ``len(weights)`` edges."""
        edges = np.column_stack(
            [np.arange(60, dtype=np.int64), np.arange(60, dtype=np.int64) + 100]
        )
        weights = np.ones(40)
        entered = kernel_chunks(monkeypatch)
        scalar, vector = run_pair(GTConfig(), [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        assert entered == [40]
        assert vector.n_edges == 40


def delete_state(gt: GraphTinker) -> dict:
    """Everything a delete may touch, down to the raw pool bytes."""
    state = {
        "main": pool_bytes(gt.eba.main),
        "overflow": pool_bytes(gt.eba.overflow),
        "degrees": gt.eba.degrees_view().tolist(),
        "n_edges": gt.n_edges,
        "stats": gt.stats.as_dict(),
    }
    if gt.cal is not None:
        used = gt.cal.pool.high_water
        state["cal"] = pool_bytes(gt.cal.pool)
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
    for gen in count():  # to the leaf
        sb = subblock_index(dst, gen, cfg.subblocks_per_block, cfg.seed)
        lo = sb * cfg.subblock
        if dst in eba._pool(region).fields["dst"][block, lo:lo + cfg.subblock].tolist():
            return gen
        block = eba._children(region).get(block, sb)
        if block < 0:
            return None
        region = OVERFLOW


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

    def test_repeats_cost_one_pass_per_level(self, monkeypatch):
        """Repeats of one pair hit one cell; the pass deletes it once and
        re-probes the rest past its tombstone.  A hub pair stored in an
        overflow row 600 times over and a missing pair 400 times cost one
        probe pass per level plus that re-probe, never a pass per repeat."""
        from repro.core import kernels
        edges = hub_edges()
        probe = GraphTinker(GTConfig(**SMALL))
        probe.insert_batch(edges)
        deep = next(d for d in range(400) if (hit_generation(probe, 0, d) or 0) >= 1)
        levels, _ = tree_shape(probe, 0)
        calls: list[int] = []
        rolled = kernels._rolled_probe

        def counted(*args):
            calls.append(args[1].shape[0])
            return rolled(*args)

        def load(gt, edges):
            gt.insert_batch(edges)
            calls.clear()  # count the vector delete only
        monkeypatch.setattr(kernels, "_rolled_probe", counted)
        batch = np.random.default_rng(9).permutation(np.vstack([
            edges[:50], np.repeat([[0, deep]], 600, axis=0),
            np.repeat([[3, 10_000]], 400, axis=0)]))
        _, vector = delete_pair(GTConfig(**SMALL), edges, [batch], load=load)
        assert 0 < len(calls) <= 2 * levels
        doomed = np.vstack([edges[:50], [[0, deep]]])
        assert vector.stats.edges_deleted == np.unique(doomed, axis=0).shape[0]
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

    def test_deep_chain_walks_to_the_leaf(self):
        """One Subblock per block: 40 edges of one source, inserted one
        by one, fill a chain five generations deep.  A delete batch finds
        every edge at every depth, and a missing delete follows (and is
        charged for) all four descents to the leaf."""
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4)

        def load(gt, edges):
            assert all(gt.insert_edge(s, d) for s, d in edges.tolist())

        edges = np.column_stack([np.zeros(40, dtype=np.int64), np.arange(40)])
        batch = np.column_stack([np.zeros(60, dtype=np.int64), np.arange(60)])
        _, vector = delete_pair(cfg, edges, [batch], load=load)
        assert vector.stats.edges_deleted == 40
        assert vector.stats.branch_allocations == 4
        before = vector.stats.branch_descents
        assert vector.delete_batch(np.array([[0, 99]], dtype=np.int64)) == 0
        assert vector.stats.branch_descents - before == 4
        assert vector.fsck(level="full").ok

    def test_grouping_key_cannot_overflow(self):
        """No id overflows the delete pass: dsts near 2**62, dense
        sources past 2**16, pairs repeated up to 5 times.  The last batch
        puts a miss in front of a present pair repeated behind it, on the
        same dst from sources whose dense ids agree mod 4: the pairs a key
        multiplying dense ids by ``max(dst) + 1`` would wrap onto one
        value."""
        top, n_src = 1 << 62, (1 << 16) + 64
        idx = np.arange(n_src)
        src = 10 * idx + 3                           # dense id == index
        edges = np.vstack([np.column_stack([src, top - idx % 5]),
                           np.column_stack([src[-64:], top - 7 - np.arange(64)])])
        a, b = n_src - 4, n_src - 8                  # equal mod 4
        assert (a - b) % 4 == 0 and min(a, b) >= 1 << 16
        present = [src[b], top - b % 5]
        rng = np.random.default_rng(12)
        late = edges[(edges[:, 0] > src[1 << 16]) & (edges[:, 0] != src[b])]
        picks = late[rng.integers(0, late.shape[0], 150)]
        mixed = np.vstack([np.repeat(picks, rng.integers(1, 6, 150), axis=0),
                           [[src[-1], top - 999], [src[-2], 5]]])
        crafted = [[src[a], present[1]]] + [present] * 5
        _, vector = delete_pair(GTConfig(**SMALL), edges,
                                [rng.permutation(mixed), crafted])
        assert vector.stats.edges_deleted == np.unique(picks, axis=0).shape[0] + 1
        vector.check_invariants()

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
        out.append(pool_bytes(eba._pool(region), block))
        kids = eba._children(region).row(block)
        stack.extend((OVERFLOW, int(c)) for c in kids[kids >= 0][::-1])
    return out


def insert_pair(cfg: GTConfig, ops) -> tuple[GraphTinker, GraphTinker]:
    """:func:`run_pair`, holding the two stores equal after *every* batch:
    counters, edges and fsck, then cells path by path, degrees and the
    CAL byte for byte."""
    scalar = KernelGraphTinker(cfg, "scalar")
    vector = KernelGraphTinker(cfg, "vector")
    for op in ops:
        for gt in (scalar, vector):
            if op[0] == "insert":
                gt.insert_batch(op[1], op[2])
            else:
                gt.delete_batch(op[1])
        assert_equivalent(scalar, vector)
        assert tree_rows(scalar) == tree_rows(vector)
        assert scalar.eba.degrees_view().tolist() == vector.eba.degrees_view().tolist()
        if scalar.cal is not None:
            assert scalar.cal.n_edges == vector.cal.n_edges
            assert pool_bytes(scalar.cal.pool) == pool_bytes(vector.cal.pool)
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
                   if all(f.base is getattr(running[0], name)._buffer for f in fields)]
        calls.append(pool)
        return walk(fields, *rest)
    monkeypatch.setattr(kernels, "_insert_chunk", chunked)
    monkeypatch.setattr(kernels, "_rhh_walk", counted)
    return calls


def kernel_chunks(monkeypatch) -> list[int]:
    """Record the size of every chunk the insert kernel runs (a batch too
    small to start a round never gets that far)."""
    from repro.core import kernels
    sizes: list[int] = []
    chunk = kernels._insert_chunk

    def entered(gt, edges, weights):
        sizes.append(edges.shape[0])
        return chunk(gt, edges, weights)
    monkeypatch.setattr(kernels, "_insert_chunk", entered)
    return sizes


def no_sentinel_left(gt: GraphTinker) -> bool:
    from repro.core.kernels import PENDING_CAL
    return not any((pool.fields["cal"][:pool.high_water] <= PENDING_CAL).any()
                   for pool in (gt.eba.main, gt.eba.overflow))


class TestLevelSynchronousInsert:
    """Insert rounds run every group's r-th op level by level, whatever
    its shape — hits, descents, Robin-Hood walks, branch-outs — and hand
    the thin tail to ``EdgeblockArray.insert``; either way the store must
    be the scalar path's, up to overflow-row names."""

    @pytest.mark.parametrize("n_hubs", [64, 1])
    def test_hub_trees_grown_over_batches(self, n_hubs, monkeypatch):
        """64 hubs keep the rounds going; one hub (two groups) never
        starts one, in batches wide enough to reach the kernel all the
        same.  Both must pass: the floor is not a correctness switch."""
        entered = kernel_chunks(monkeypatch)
        walks = count_walks(monkeypatch)
        edges, weights = hubs_stream(n_hubs, 70)
        ops = in_batches(edges, weights, 5 if n_hubs > 1 else 2)
        _, vector = insert_pair(GTConfig(**SMALL), ops)
        assert entered == [op[1].shape[0] for op in ops]
        assert tree_shape(vector, 0)[0] >= 3
        assert max(hit_generation(vector, 0, d) for d in range(70)) >= 2
        # Rounds ran, and walked below generation 0 — or never started.
        assert set(walks) == ({"main", "overflow"} if n_hubs == 64 else set())

    def test_rounds_alone_are_exact(self, monkeypatch):
        """With the floor at one group nothing is left for the residue:
        every op — hit, descent, swap, branch-out — runs in a round and
        reaches neither ``EdgeblockArray.insert`` nor the probe core."""
        from repro.core import kernels
        from repro.core.edgeblock_array import EdgeblockArray
        edges, weights = hubs_stream(5, 70, seed=1)
        ops = in_batches(edges, weights, 3) + [("insert", edges[:200], weights[:200] + 1.0)]
        scalar = KernelGraphTinker(GTConfig(**SMALL), "scalar")
        for op in ops:
            scalar.insert_batch(op[1], op[2])

        def unreachable(*args, **kwargs):
            raise AssertionError("a round op reached the per-op path")
        monkeypatch.setattr(kernels, "MIN_ROUND_GROUPS", 1)
        monkeypatch.setattr(kernels.rhh, "rhh_insert", unreachable)
        monkeypatch.setattr(kernels.rhh, "rhh_find", unreachable)
        monkeypatch.setattr(EdgeblockArray, "insert", unreachable)
        vector = KernelGraphTinker(GTConfig(**SMALL), "vector")
        for op in ops:
            vector.insert_batch(op[1], op[2])
        monkeypatch.undo()
        assert_equivalent(scalar, vector)
        assert tree_rows(scalar) == tree_rows(vector)
        assert pool_bytes(scalar.cal.pool) == pool_bytes(vector.cal.pool)

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
        assert bool(walks) == (flag != "enable_rhh")   # no RHH: the residue only

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

    def test_residue_pushes_round_placed_cells_below_the_rounds(self, monkeypatch):
        """41 groups for three rounds, then one hub group's 60 remaining
        ops in the residue: they fill the hub's one Subblock and push the
        cells the rounds placed there, CAL pointers still pending, down
        into overflow rows no round stored into.  The sentinel patch must
        find them there."""
        walks = count_walks(monkeypatch)
        rng = np.random.default_rng(0)
        light = np.column_stack([np.repeat(np.arange(1, 41), 3), rng.integers(0, 1000, 120)])
        hub = np.column_stack([np.zeros(63, dtype=np.int64), rng.permutation(5000)[:63]])
        edges = rng.permutation(np.vstack([light, hub]).astype(np.int64))
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4)   # one Subblock a row
        _, vector = insert_pair(cfg, [("insert", edges, rng.random(edges.shape[0]))])
        assert set(walks) == {"main"}
        round_placed = edges[edges[:, 0] == 0, 1][:3]
        assert min(hit_generation(vector, 0, int(d)) for d in round_placed) >= 1
        assert no_sentinel_left(vector)

    @pytest.mark.parametrize("enable_rhh", [True, False])
    def test_residue_runs_group_by_group(self, enable_rhh, monkeypatch):
        """Three hubs, two gen-0 Subblocks each: six groups whose residue
        ops interleave in one chunk behind 40 light groups that keep three
        rounds going (Robin Hood on; with it off every op is residue).
        The residue runs group by group on one set of Subblock lists per
        group, and duplicates at the chunk's end meet a pending record
        placed in a round, one placed earlier in the residue (its cell
        still only in the group's lists) and a real CAL pointer from the
        batch before.  Cells, CAL bytes, degrees and every counter must
        be the scalar path's."""
        from repro.core.edgeblock_array import EdgeblockArray
        cfg = GTConfig(**SMALL, enable_rhh=enable_rhh)
        nsb, rng = cfg.subblocks_per_block, np.random.default_rng(31)
        hub_rows = lambda dsts: np.column_stack(  # noqa: E731
            [np.repeat([0, 1, 2], len(dsts)), np.tile(dsts, 3)]).astype(np.int64)
        earlier = hub_rows(np.arange(20))
        same_sb = [d for d in range(1000) if subblock_index(d, 0, nsb, cfg.seed) == 0]
        light = np.column_stack([np.repeat(np.arange(10, 50), 3), same_sb[:120]])
        hubs = rng.permutation(hub_rows(np.arange(100, 160)))
        group = hubs[:, 0] * nsb + [subblock_index(int(d), 0, nsb, cfg.seed) for d in hubs[:, 1]]
        firsts = [np.flatnonzero(group == g)[:10] for g in np.unique(group)]
        round_placed = hubs[[at[0] for at in firsts]]
        residue_placed = hubs[[at[-1] for at in firsts]]
        again = np.vstack([round_placed, residue_placed, earlier[::7]])
        chunk = np.vstack([light, hubs, again])
        weights = rng.random(chunk.shape[0])

        assert np.count_nonzero(np.diff(group)) > 6   # the stream interleaves them

        # The group key of every op the last vector chunk ran per op.
        from repro.core import kernels
        residue: list[int] = []
        in_chunk: list[bool] = []  # only the vector store runs chunks
        insert, chunk_of = EdgeblockArray.insert, kernels._insert_chunk

        def recorded(self, src, dst, weight=1.0, cal=-1, lists=None, hashes=()):
            if in_chunk:
                residue.append(src * nsb + subblock_index(dst, 0, nsb, cfg.seed))
            return insert(self, src, dst, weight, cal, lists, hashes)

        def entered(*args):
            residue.clear()
            in_chunk.append(True)
            try:
                return chunk_of(*args)
            finally:
                in_chunk.pop()
        monkeypatch.setattr(EdgeblockArray, "insert", recorded)
        monkeypatch.setattr(kernels, "_insert_chunk", entered)
        _, vector = insert_pair(cfg, [("insert", earlier, rng.random(60)),
                                      ("insert", chunk, weights)])
        runs = [key for at, key in enumerate(residue) if at == 0 or residue[at - 1] != key]
        assert len(runs) == len(set(runs)) == (6 if enable_rhh else 46)
        # Robin Hood on: each group's first three ops ran in the rounds.
        assert len(residue) == chunk.shape[0] - (120 + 3 * 6 if enable_rhh else 0)
        assert vector.stats.edges_found == again.shape[0]
        src, dst, w = vector.cal.stream_edges()
        got = dict(zip(zip(vector.original_ids(src).tolist(), dst.tolist()), w.tolist()))
        for (s, d), x in zip(again.tolist(), weights[-again.shape[0]:].tolist()):
            assert got[(s, d)] == x
        assert no_sentinel_left(vector)

    @pytest.mark.parametrize("n_hubs", [64, 1])
    def test_capacity_error_leaves_no_sentinel(self, n_hubs, monkeypatch):
        """The second batch raises mid-cascade: in a round's INSERT walk
        below generation 0 (64 hubs, vector kernel) or in a branch-out of
        ``EdgeblockArray.insert`` (the per-op path, and the residue of one
        hub's batches, each repeated until it is wide enough to reach the
        kernel).  Every completed op is applied and no ``PENDING_CAL`` sentinel is
        left in either pool.  (The raise once was the descent cap's
        ``CapacityError``; insert is total now, so it is injected.)"""
        from repro.core import kernels
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4)
        edges, weights = hubs_stream(n_hubs, 20, seed=17)
        reps = -(-kernels.MIN_ROUND_GROUPS // (10 * n_hubs))
        batches = [(np.tile(edges[part], (reps, 1)), np.tile(weights[part], reps))
                   for part in (slice(0, 10 * n_hubs), slice(10 * n_hubs, None))]
        entered = kernel_chunks(monkeypatch)
        for kernel in ("scalar", "vector"):
            gt = KernelGraphTinker(cfg, kernel)
            gt.insert_batch(*batches[0])
            with monkeypatch.context() as patch:
                # The 4th walk is round 2's at generation 1; the 4th
                # branch-out is the 4th op's, after its level 0 was written.
                fail_on(patch, *((kernels, "_rhh_walk") if kernel == "vector" and n_hubs > 1
                                 else (EdgeblockArray, "_descend")), 4)
                with pytest.raises(RuntimeError):
                    gt.insert_batch(*batches[1])
            assert no_sentinel_left(gt)
            cells = sum(int((pool.fields["dst"][:pool.high_water] >= 0).sum())
                        for pool in (gt.eba.main, gt.eba.overflow))
            assert gt.n_edges == gt.eba.degrees_view().sum() == gt.stats.edges_inserted == cells
            assert 10 * n_hubs < gt.n_edges <= 16 * n_hubs
        assert entered == [batch.shape[0] for batch, _ in batches]

    @pytest.mark.parametrize("n_hubs, per_hub", [(1, 40), (1, 1000), (64, 40)],
                             ids=["one-40", "one-1k", "hubs-64x40"])
    def test_deep_tree_is_total(self, n_hubs, per_hub):
        """One Subblock per edgeblock, so every 8 edges of a source open
        one more generation: 40 edges of one source (five deep), 1,000 of
        one source (125 deep), both through the residue, and 64 sources
        of 40, which the rounds walk to the leaf.  Both kernels keep every
        edge: stores equal, full fsck clean, no ``PENDING_CAL`` sentinel,
        counters equal to cells."""
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4)
        edges, weights = hubs_stream(n_hubs, per_hub, seed=23)
        for gt in insert_pair(cfg, [("insert", edges, weights)]):
            assert [gt.degree(h) for h in range(n_hubs)] == [per_hub] * n_hubs
            assert gt.eba.overflow.n_used == n_hubs * (-(-per_hub // 8) - 1)
            assert no_sentinel_left(gt)
            cells = sum(int((pool.fields["dst"][:pool.high_water] >= 0).sum())
                        for pool in (gt.eba.main, gt.eba.overflow))
            assert gt.n_edges == gt.stats.edges_inserted == cells == edges.shape[0]

    @pytest.mark.parametrize("enable_rhh", [True, False])
    def test_pending_records_at_both_ends_of_a_chunk(self, enable_rhh, monkeypatch):
        """One ``CHUNK_EDGES`` chunk in which duplicates meet pending cells
        at both ends of the record range: record 0 (the chunk's first op,
        duplicated twice, the last time three ops before the end) and
        record ``CHUNK_EDGES - 2`` (duplicated by the chunk's last op, so
        the highest record a duplicate can meet).  The ops run in rounds
        with Robin Hood on and in the residue with it off.  Each CAL copy
        must hold the last weight written, and no pending pointer may
        survive."""
        from repro.core.kernels import CHUNK_EDGES
        entered = kernel_chunks(monkeypatch)
        rng = np.random.default_rng(29)
        edges = np.column_stack([rng.integers(0, 4096, CHUNK_EDGES),
                                 rng.integers(0, 1 << 20, CHUNK_EDGES)])
        weights = rng.random(CHUNK_EDGES)
        low, high = (5000, 11), (5001, 13)      # sources no other op uses
        at = {0: (low, 1.0), CHUNK_EDGES // 2: (low, 4.5),
              CHUNK_EDGES - 3: (low, 7.5), CHUNK_EDGES - 2: (high, 2.0),
              CHUNK_EDGES - 1: (high, 9.25)}
        for i, (edge, w) in at.items():
            edges[i], weights[i] = edge, w
        gt = GraphTinker(GTConfig(enable_rhh=enable_rhh))
        gt.insert_batch(edges, weights)
        assert entered == [CHUNK_EDGES]
        assert no_sentinel_left(gt)
        for (src, dst), w in ((low, 7.5), (high, 9.25)):
            dense = gt.dense_id(src)
            ptr = gt.eba.get_cal_pointer(gt.eba.find(dense, dst))
            assert gt.cal.read_slot(ptr) == (dense, dst, w)
        assert gt.cal.n_edges == gt.n_edges

    def test_round_rolls_only_the_ops_their_first_cell_leaves_open(self, monkeypatch):
        """One round over 200 sparse rows, each op its own group: the ops
        whose initial-bucket cell holds their own edge (a duplicate) or
        ``EMPTY`` settle there, and no rolled Subblock is gathered for
        them — the FIND rolls exactly the ops whose first cell holds
        another edge or a tombstone, and the INSERT stage rolls nothing
        again.  The store still ends as the per-op path leaves it."""
        from repro.core import kernels
        rng = np.random.default_rng(37)
        srcs = np.repeat(np.arange(200), 3)
        loaded = np.column_stack([srcs, rng.permutation(5000)[:600]]).astype(np.int64)
        doomed = loaded[rng.random(600) < 0.2]
        batch = np.column_stack([np.arange(200), np.where(
            rng.random(200) < 0.3, loaded[::3, 1], rng.integers(5000, 9000, 200))])
        stores = []
        for kernel in ("scalar", "vector"):
            gt = KernelGraphTinker(GTConfig(**SMALL), kernel)
            gt.insert_batch(loaded)
            gt.delete_batch(doomed)
            stores.append(gt)
        cfg, vector = stores[1].config, stores[1]
        dense = vector.sgh.peek_array(batch[:, 0])  # uncharged
        srow = dense * cfg.subblocks_per_block + subblock_index_array(
            batch[:, 1], 0, cfg.subblocks_per_block, cfg.seed)
        at = srow * cfg.subblock + initial_bucket_array(batch[:, 1], 0, cfg.subblock, cfg.seed)
        c0 = vector.eba.main.fields["dst"].reshape(-1)[at]
        open_ = (c0 != batch[:, 1]) & (c0 != -1)
        assert np.unique(srow).shape[0] == 200 and 0 < open_.sum() < 100
        assert (c0 == -2).any() and (c0 == batch[:, 1]).any()
        columns: list[int] = []
        rolled = kernels._rolled_probe

        def counted(*args):
            columns.append(args[1].shape[0])
            return rolled(*args)
        monkeypatch.setattr(kernels, "_rolled_probe", counted)
        for gt in stores:
            gt.insert_batch(batch)
        assert sum(columns) == int(open_.sum())
        assert_equivalent(*stores)

    def test_closed_form_walk_matches_rhh_insert(self):
        """The level pass's Robin-Hood walk against the probe core, on
        arbitrary Subblocks: empty to full, a tenth of the cells
        tombstoned (probe field stale), real and pending CAL pointers,
        and an eighth of the initial buckets each forced ``EMPTY`` and
        ``TOMBSTONE`` — the direct placements, whose INSERT scan length
        is the FIND's."""
        from repro.core import robin_hood as rhh
        from repro.core.kernels import PENDING_CAL, _probe, _rhh_walk
        rng = np.random.default_rng(23)
        n, size = 6000, 8
        fill = rng.integers(0, size + 1, n)
        live = rng.random((n, size)).argsort(axis=1) < fill[:, None]
        tomb = rng.random((n, size)) < 0.1
        D = np.where(live, rng.permutation(n * size).reshape(n, size), -1)
        D[tomb] = -2
        ib = rng.integers(0, size, n)
        eighth = np.arange(n) // (n // 8)
        D[eighth == 0, ib[eighth == 0]] = -1
        D[eighth == 1, ib[eighth == 1]] = -2
        W = rng.random((n, size))
        P = np.where(D == -1, 0, rng.integers(0, size, (n, size))).astype(np.int16)

        def pointer(block, slot):
            """(block, slot) as a CAL-pointer: record ``slot`` when pending."""
            return np.where(block == PENDING_CAL, PENDING_CAL - slot, block * 64 + slot)
        CB = np.where(D >= 0, rng.choice([PENDING_CAL, 4, 9], (n, size)), -1)
        CS = np.where(D >= 0, rng.integers(0, 64, (n, size)), -1)
        C = np.where(D >= 0, pointer(CB, CS), -1)
        edge = [n * size + np.arange(n), rng.random(n),
                pointer(rng.choice([PENDING_CAL, 7], n), np.arange(n))]
        want = []
        for i in range(n):
            cells = [m[i].tolist() for m in (D, W, P, C)]
            out = rhh.rhh_insert(*cells, int(edge[0][i]), float(edge[1][i]), int(ib[i]),
                                 True, int(edge[2][i]))
            want.append((cells, out))
        fields = (D, W, P, C)
        roll = rhh.subblock_tables(size, 4)[0]
        hit, find_len, at, c0, rolled = _probe(D.reshape(-1), np.arange(n), ib, edge[0],
                                               roll, True)
        assert not hit.any()
        assert (c0[eighth == 0] == -1).all() and (c0[eighth == 1] == -2).all()
        steps, swaps, wrote, full, floating, _ = _rhh_walk(
            tuple(f.reshape(-1) for f in fields), at, c0, rolled, edge)
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


@pytest.mark.parametrize("rhh_on", [True, False])
def test_first_cell_probe_matches_rhh_find(rhh_on):
    """The level passes' FIND, initial bucket first, against the probe
    core on arbitrary Subblocks: a quarter each of the initial buckets
    hold the sought edge, ``EMPTY``, ``TOMBSTONE`` or another live edge,
    and the sought edge is elsewhere in the Subblock or absent.  Hit,
    scan length and hit cell must be ``rhh_find``'s, Robin-Hood mode on
    (an ``EMPTY`` first cell settles a miss) and off (it settles
    nothing)."""
    from repro.core import robin_hood as rhh
    from repro.core.kernels import _probe
    rng = np.random.default_rng(31)
    n, size = 8000, 8
    rows = np.arange(n)
    D = np.where(rng.random((n, size)) < 0.6, rng.permutation(n * size).reshape(n, size), -1)
    D[rng.random((n, size)) < 0.15] = -2
    ib = rng.integers(0, size, n)
    kind = rows % 4
    elsewhere = D[rows, (ib + rng.integers(1, size, n)) % size]
    dst = np.where((kind > 0) & (elsewhere >= 0) & (rng.random(n) < 0.5),
                   elsewhere, n * size + rows)
    D[rows, ib] = np.select([kind == 0, kind == 1, kind == 2], [dst, -1, -2], 2 * n * size + rows)
    roll = rhh.subblock_tables(size, 4)[0]
    hit, scanned, at, c0, _ = _probe(D.reshape(-1), rows, ib, dst, roll, rhh_on)
    flat = D.item
    for i in range(n):
        slot, length = rhh.rhh_find(flat, i * size, size, int(dst[i]), int(ib[i]), rhh_on)
        assert (hit[i], scanned[i]) == (slot >= 0, length), i
        if slot >= 0:
            assert at[i] == i * size + slot, i
    assert hit[kind == 0].all() and (scanned[kind == 0] == 1).all()
    assert (scanned[kind == 1] == 1).all() == rhh_on
    for k in (2, 3):
        assert hit[kind == k].any() and not hit[kind == k].all()


def test_batch_too_small_for_a_round_takes_the_per_edge_path(monkeypatch):
    """Fewer edges than ``MIN_ROUND_GROUPS`` cannot start a round, so a
    ``kernel="vector"`` batch that small runs per edge without running a
    kernel chunk: the store is the scalar one byte for byte, the attached
    snapshot marks every row the batch touched, and the ingest metrics
    keep the kernel the caller asked for."""
    import repro.obs as obs
    from repro.core import kernels
    from repro.obs.metrics import MetricsRegistry
    edges, weights = hubs_stream(8, 30, seed=19)
    batch = np.vstack([edges[:8], edges[8:16] + [0, 500]])   # 8 duplicates, 8 new
    assert batch.shape[0] < kernels.MIN_ROUND_GROUPS
    scalar, vector = (GraphTinker(GTConfig(**SMALL)) for _ in range(2))
    for gt in (scalar, vector):
        gt.insert_batch(edges, weights)
        gt.enable_snapshot()
        gt.neighbors_many(np.arange(8))
        assert gt.analytics_snapshot.pending_rows == 0
    scalar.insert_batch(batch, np.arange(16.0), kernel="scalar")
    entered = kernel_chunks(monkeypatch)
    registry = MetricsRegistry()
    prior = obs.set_registry(registry)
    obs.enable()
    try:
        vector.insert_batch(batch, np.arange(16.0), kernel="vector")
    finally:
        obs.disable()
        obs.set_registry(prior)
    assert entered == []
    a, b = delete_state(scalar), delete_state(vector)
    assert a == b, [k for k in a if a[k] != b[k]]
    assert vector.analytics_snapshot.pending_rows == np.unique(batch[:, 0]).shape[0]
    assert_gather_matches_loop(vector, np.arange(8))
    assert registry.get("ingest.insert.vector.edges").value == 16
    assert "ingest.insert.scalar.batches" not in registry


@pytest.mark.parametrize("hi", [1, 1 << 16, (1 << 16) + 1, 1 << 40])
def test_stream_order_is_a_stable_sort(hi):
    """Keys that fit in 16 bits take the radix sort, wider ones the
    tie-broken default sort; both must be ``argsort(kind="stable")``."""
    from repro.core.kernels import _stream_order
    key = np.random.default_rng(hi % 97).integers(0, hi, 5000)
    key[:50] = hi - 1      # ties at the top of the range
    assert np.array_equal(_stream_order(key), np.argsort(key, kind="stable"))
    assert _stream_order(key[:0]).shape == (0,)


def test_small_vector_batch_marks_its_rows_once(monkeypatch):
    """The per-edge path a batch below ``MIN_ROUND_GROUPS`` takes marks
    each row it touches itself (also when it raises): the batch-wide mark
    must not run on top of it, and the rows left pending are the ones the
    per-edge marks leave — those of a ``kernel="scalar"`` batch."""
    from repro.core import kernels
    edges, weights = hubs_stream(8, 30, seed=19)
    batch = np.vstack([edges[:8], edges[8:16] + [0, 500]])
    assert batch.shape[0] < kernels.MIN_ROUND_GROUPS
    scalar, vector = (GraphTinker(GTConfig(**SMALL)) for _ in range(2))
    for gt in (scalar, vector):
        gt.insert_batch(edges, weights)
        gt.enable_snapshot()
        gt.neighbors_many(np.arange(8))
    scalar.insert_batch(batch, np.arange(16.0), kernel="scalar")
    snapshot = type(vector.analytics_snapshot)
    bulk_marks = []
    mark_many = snapshot.mark_dirty_many

    def spy(snap, rows):
        bulk_marks.append(rows)
        mark_many(snap, rows)
    monkeypatch.setattr(snapshot, "mark_dirty_many", spy)
    vector.insert_batch(batch, np.arange(16.0), kernel="vector")
    assert bulk_marks == []
    assert (vector.analytics_snapshot.pending_rows
            == scalar.analytics_snapshot.pending_rows
            == np.unique(batch[:, 0]).shape[0])


class TestHashArrays:
    """The vectorized hash mirrors must agree with the scalar hashes
    ``EdgeblockArray`` uses — a disagreement would send the rounds' ops to the
    wrong Subblock/bucket."""

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


def overflow_growth(monkeypatch, gt: GraphTinker) -> list[float]:
    """Record by what factor each bulk allocation grew ``gt``'s overflow
    pool.  Only the insert rounds allocate in bulk there; the per-op path
    takes one row at a time."""
    from repro.core.pool import BlockPool
    factors: list[float] = []
    allocate_many = BlockPool.allocate_many

    def logged(pool, count):
        before = pool.capacity
        ids = allocate_many(pool, count)
        if pool is gt.eba.overflow:
            factors.append(pool.capacity / before)
        return ids
    monkeypatch.setattr(BlockPool, "allocate_many", logged)
    return factors


class TestOverflowRegrowth:
    """A round that allocates past the overflow pool's capacity moves the
    pool into a new buffer while deeper levels of the same round are
    still to walk; every level must read and write the new one."""

    @staticmethod
    def assert_same(scalar: GraphTinker, vector: GraphTinker) -> None:
        assert_equivalent(scalar, vector)
        assert tree_rows(scalar) == tree_rows(vector)
        assert scalar.eba.degrees_view().tolist() == vector.eba.degrees_view().tolist()
        assert pool_bytes(scalar.cal.pool) == pool_bytes(vector.cal.pool)
        assert no_sentinel_left(vector)

    def test_insert_round_regrows_the_pool(self, monkeypatch):
        """A hub burst into a fresh store: 64 hubs' gen-0 Subblocks
        congest in the same rounds and one allocation grows the pool ×4
        or more, then the round walks the children it just made."""
        edges, weights = hubs_stream(64, 60, seed=21)
        scalar = KernelGraphTinker(GTConfig(**SMALL), "scalar")
        vector = KernelGraphTinker(GTConfig(**SMALL), "vector")
        growth = overflow_growth(monkeypatch, vector)
        walks = count_walks(monkeypatch)
        for gt in (scalar, vector):
            gt.insert_batch(edges, weights)
        assert max(growth) >= 4 and "overflow" in walks
        self.assert_same(scalar, vector)

    def test_delete_pass_right_after_a_regrowth(self, monkeypatch):
        """Each delete pass follows a burst that regrew the pool ×4 or
        more inside a round, and reaches the deepest generations the
        burst built."""
        edges, weights = hubs_stream(64, 60, seed=22)
        more, more_w = hubs_stream(64, 240, seed=23)
        more[:, 1] += 500
        doomed = np.random.default_rng(24).permutation(edges)
        scalar = KernelGraphTinker(GTConfig(**SMALL), "scalar")
        vector = KernelGraphTinker(GTConfig(**SMALL), "vector")
        growth = overflow_growth(monkeypatch, vector)
        for burst, w, gone in [(edges, weights, doomed[:3000]),
                               (more, more_w, np.vstack([doomed[3000:], more]))]:
            del growth[:]
            for gt in (scalar, vector):
                gt.insert_batch(burst, w)
            assert max(growth) >= 4
            for gt in (scalar, vector):  # hit_generation charges a lookup
                assert max(hit_generation(gt, 0, int(d)) for d in burst[burst[:, 0] == 0, 1]) >= 2
                gt.delete_batch(gone)
            self.assert_same(scalar, vector)
        assert vector.n_edges == 0
        assert vector.stats.tombstones_set == edges.shape[0] + more.shape[0]


def test_dataset_load_is_kernel_independent():
    """``hollywood_like``'s first 8,000 edges in 3 batches into
    ``graphtinker`` and ``gt_plain``, once with each per-call kernel: the
    per-batch modeled throughput, the block accesses, the final edge
    count and the content digest must all be equal (only wall-clock may
    differ)."""
    from functools import partial

    from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
    from repro.bench.metrics import run_batched
    from repro.core.store import create_store, store_digest
    from repro.workloads import load_dataset
    from repro.workloads.streams import EdgeStream

    edges = load_dataset("hollywood_like")[1][:8_000]
    batches = list(EdgeStream(edges, -(-edges.shape[0] // 3)).insert_batches())
    assert len(batches) == 3
    for backend in ("graphtinker", "gt_plain"):
        reports = []
        for kernel in ("scalar", "vector"):
            store = create_store(backend)
            ms = run_batched(batches, partial(store.insert_batch, kernel=kernel),
                             store.stats)
            reports.append({
                "modeled_throughput": [m.modeled_throughput(MODEL) for m in ms],
                "block_accesses": store.stats.total_block_accesses,
                "final_edges": store.n_edges,
                "digest": store_digest(store),
            })
        assert reports[0] == reports[1], backend
