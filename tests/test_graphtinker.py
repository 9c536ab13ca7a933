"""Unit + integration tests for the GraphTinker facade."""

import numpy as np
import pytest

from repro import GraphTinker, GTConfig
from repro.errors import VertexNotFoundError

from tests.reference import ReferenceGraph, assert_store_matches


class TestBasicOperations:
    def test_insert_new_edge(self, small_config):
        gt = GraphTinker(small_config)
        assert gt.insert_edge(1, 2, 3.0)
        assert gt.has_edge(1, 2)
        assert gt.edge_weight(1, 2) == 3.0
        assert gt.n_edges == 1

    def test_duplicate_is_weight_update(self, small_config):
        gt = GraphTinker(small_config)
        gt.insert_edge(1, 2, 3.0)
        assert not gt.insert_edge(1, 2, 5.0)
        assert gt.edge_weight(1, 2) == 5.0
        assert gt.n_edges == 1
        assert gt.degree(1) == 1

    def test_delete(self, small_config):
        gt = GraphTinker(small_config)
        gt.insert_edge(1, 2)
        assert gt.delete_edge(1, 2)
        assert not gt.has_edge(1, 2)
        assert gt.n_edges == 0
        assert not gt.delete_edge(1, 2)  # already gone

    def test_delete_unknown_vertex(self, small_config):
        gt = GraphTinker(small_config)
        assert not gt.delete_edge(99, 1)

    def test_queries_on_unknown_vertex(self, small_config):
        gt = GraphTinker(small_config)
        assert not gt.has_edge(4, 5)
        assert gt.edge_weight(4, 5) is None
        assert gt.degree(4) == 0
        with pytest.raises(VertexNotFoundError):
            gt.neighbors(4)

    def test_self_loop_allowed(self, small_config):
        gt = GraphTinker(small_config)
        assert gt.insert_edge(3, 3)
        assert gt.has_edge(3, 3)

    def test_neighbors(self, small_config):
        gt = GraphTinker(small_config)
        for d in (5, 9, 13):
            gt.insert_edge(2, d, float(d))
        dst, w = gt.neighbors(2)
        assert sorted(dst.tolist()) == [5, 9, 13]
        assert dict(zip(dst.tolist(), w.tolist())) == {5: 5.0, 9: 9.0, 13: 13.0}


class TestSGHIntegration:
    def test_sparse_source_ids_stay_dense_internally(self, small_config):
        """The paper's motivating example: sources 34 and 22789 must land
        in adjacent main-region rows, not 22755 rows apart."""
        gt = GraphTinker(small_config)
        gt.insert_edge(34, 1)
        gt.insert_edge(22789, 1)
        assert gt.eba.main.n_used == 2
        assert gt.dense_id(34) == 0
        assert gt.dense_id(22789) == 1
        assert gt.original_id(1) == 22789

    def test_sgh_disabled_uses_raw_ids(self):
        gt = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2,
                                  enable_sgh=False))
        gt.insert_edge(0, 1)
        gt.insert_edge(37, 1)
        assert gt.eba.main.n_used == 38  # sparse rows: the cost SGH avoids
        assert gt.has_edge(37, 1)

    def test_dense_id_unknown_raises(self, small_config):
        gt = GraphTinker(small_config)
        with pytest.raises(VertexNotFoundError):
            gt.dense_id(5)


class TestCALIntegration:
    def test_cal_tracks_inserts_and_deletes(self, small_config):
        gt = GraphTinker(small_config)
        for d in range(20):
            gt.insert_edge(0, d)
        for d in range(0, 20, 2):
            gt.delete_edge(0, d)
        assert gt.cal.n_edges == gt.n_edges == 10
        src, dst, _ = gt.edge_arrays()
        assert sorted(dst.tolist()) == list(range(1, 20, 2))

    def test_cal_weight_follows_update(self, small_config):
        gt = GraphTinker(small_config)
        gt.insert_edge(3, 4, 1.0)
        gt.insert_edge(3, 4, 8.0)
        _, dst, w = gt.edge_arrays()
        assert w.tolist() == [8.0]

    def test_cal_disabled_falls_back_to_eba_sweep(self):
        gt = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2,
                                  enable_cal=False))
        for d in range(10):
            gt.insert_edge(1, d)
        assert gt.cal is None
        src, dst, _ = gt.edge_arrays()
        assert sorted(dst.tolist()) == list(range(10))

    def test_analytics_edges_original_ids(self, small_config):
        gt = GraphTinker(small_config)
        gt.insert_edge(500, 2)
        gt.insert_edge(900, 3)
        src, dst, _ = gt.analytics_edges()
        assert sorted(src.tolist()) == [500, 900]


class TestCompactModeCAL:
    """Delete-and-compact must keep the CAL dense and pointers coherent."""

    def _compact_gt(self):
        return GraphTinker(
            GTConfig(pagewidth=16, subblock=4, workblock=2,
                     compact_on_delete=True, cal_group_width=8, cal_block_size=8)
        )

    def test_cal_blocks_shrink_under_deletion(self):
        gt = self._compact_gt()
        for d in range(200):
            gt.insert_edge(0, d)
        blocks_before = gt.cal.n_blocks
        for d in range(200):
            gt.delete_edge(0, d)
        assert gt.cal.n_blocks == 0
        assert blocks_before > 0

    def test_pointers_remain_coherent_under_churn(self, rng):
        gt = self._compact_gt()
        ref = {}
        for i in range(3000):
            s, d = int(rng.integers(0, 20)), int(rng.integers(0, 80))
            if rng.random() < 0.6:
                gt.insert_edge(s, d, float(i))
                ref[(s, d)] = float(i)
            else:
                gt.delete_edge(s, d)
                ref.pop((s, d), None)
        gt.check_invariants()
        for (s, d), w in list(ref.items())[:300]:
            dense = gt.dense_id(s)
            loc = gt.eba.find(dense, d)
            assert gt.cal.read_slot(gt.eba.get_cal_pointer(loc)) == (dense, d, w)

    def test_streaming_matches_contents_after_deletions(self, rng):
        gt = self._compact_gt()
        edges = np.column_stack([rng.integers(0, 15, 800), rng.integers(0, 50, 800)])
        gt.insert_batch(edges)
        gt.delete_batch(edges[::2])
        src, dst, _ = gt.edge_arrays()
        got = set(zip(gt.original_ids(src).tolist(), dst.tolist()))
        expected = {tuple(e) for e in edges.tolist()} - {tuple(e) for e in edges[::2].tolist()}
        assert got == expected


class TestBatchOperations:
    def test_insert_batch_counts_new(self, small_config, random_edges):
        gt = GraphTinker(small_config)
        new = gt.insert_batch(random_edges)
        distinct = len({(s, d) for s, d in random_edges.tolist()})
        assert new == distinct == gt.n_edges

    def test_insert_batch_shape_check(self, small_config):
        gt = GraphTinker(small_config)
        with pytest.raises(ValueError):
            gt.insert_batch(np.zeros((3, 3), dtype=np.int64))

    def test_delete_batch(self, small_config, random_edges):
        gt = GraphTinker(small_config)
        gt.insert_batch(random_edges)
        deleted = gt.delete_batch(random_edges[:500])
        distinct = len({(s, d) for s, d in random_edges[:500].tolist()})
        assert deleted == distinct

    def test_batch_with_weights(self, small_config):
        gt = GraphTinker(small_config)
        edges = np.array([[0, 1], [0, 2]])
        gt.insert_batch(edges, np.array([2.0, 4.0]))
        assert gt.edge_weight(0, 1) == 2.0
        assert gt.edge_weight(0, 2) == 4.0


class TestAgainstReference:
    @pytest.mark.parametrize("compact", [False, True])
    def test_randomized_mixed_workload(self, compact, rng):
        cfg = GTConfig(pagewidth=16, subblock=4, workblock=2,
                       compact_on_delete=compact,
                       cal_group_width=8, cal_block_size=8)
        gt = GraphTinker(cfg)
        ref = ReferenceGraph()
        for _ in range(4000):
            op = rng.random()
            s = int(rng.integers(0, 40))
            d = int(rng.integers(0, 120))
            if op < 0.65:
                w = float(rng.random())
                assert gt.insert_edge(s, d, w) == ref.insert_edge(s, d, w)
            else:
                assert gt.delete_edge(s, d) == ref.delete_edge(s, d)
        gt.check_invariants()
        assert_store_matches(gt, ref)

    def test_paper_geometry_workload(self, rng):
        gt = GraphTinker(GTConfig())
        ref = ReferenceGraph()
        src = rng.integers(0, 100, 5000)
        dst = rng.integers(0, 1000, 5000)
        for s, d in zip(src.tolist(), dst.tolist()):
            assert gt.insert_edge(s, d) == ref.insert_edge(s, d)
        gt.check_invariants()
        assert_store_matches(gt, ref)


class TestDiagnostics:
    def test_memory_blocks_keys(self, small_config):
        gt = GraphTinker(small_config)
        gt.insert_edge(0, 1)
        blocks = gt.memory_blocks()
        assert set(blocks) == {"main_edgeblocks", "overflow_edgeblocks", "cal_blocks"}

    def test_check_invariants_preserves_stats(self, small_config):
        gt = GraphTinker(small_config)
        for d in range(50):
            gt.insert_edge(0, d)
        before = gt.stats.as_dict()
        gt.check_invariants()
        assert gt.stats.as_dict() == before

    def test_stats_count_inserts(self, small_config):
        gt = GraphTinker(small_config)
        for d in range(10):
            gt.insert_edge(0, d)
        assert gt.stats.edges_inserted == 10
        assert gt.stats.workblock_fetches > 0
        assert gt.stats.cal_updates == 10
