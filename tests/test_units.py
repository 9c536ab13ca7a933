"""Tests for the Fig. 2 interface-component pipeline (units.py).

The traced driver must be behaviourally identical to the plain facade and
must exercise the documented unit sequence.
"""

import numpy as np
import pytest

from repro import GraphTinker, GTConfig
from repro.core.store import create_store
from repro.core.units import GraphTinkerUnits


@pytest.fixture
def gt(small_config):
    return GraphTinker(small_config)


class TestTracedInsertEquivalence:
    def test_matches_plain_facade_on_random_stream(self, small_config, rng):
        gt_a = GraphTinker(small_config)
        gt_b = GraphTinker(small_config)
        units = GraphTinkerUnits(gt_b)
        src = rng.integers(0, 30, 2000)
        dst = rng.integers(0, 90, 2000)
        w = rng.random(2000)
        for s, d, x in zip(src.tolist(), dst.tolist(), w.tolist()):
            new_a = gt_a.insert_edge(s, d, x)
            new_b, _ = units.insert_edge_traced(s, d, x)
            assert new_a == new_b
        assert gt_a.n_edges == gt_b.n_edges
        gt_b.check_invariants()
        # tracing peeks at the structure but refunds every charge
        assert gt_a.stats.as_dict() == gt_b.stats.as_dict()
        ea = sorted(gt_a.edges())
        eb = sorted(gt_b.edges())
        assert ea == eb

    def test_duplicate_weight_update_traced(self, gt):
        units = GraphTinkerUnits(gt)
        units.insert_edge_traced(1, 2, 1.0)
        is_new, trace = units.insert_edge_traced(1, 2, 9.0)
        assert not is_new
        assert gt.edge_weight(1, 2) == 9.0
        assert any(u == "find-edge" and "hit" in d for u, d in trace.steps)


    def test_traced_updates_reach_the_analytics_snapshot(self):
        """A traced op is the facade op, snapshot dirty-marking included."""
        store = create_store("graphtinker", snapshot=True)
        store.insert_batch(np.array([[1, 2], [1, 3], [4, 5]]))
        store.neighbors_many(np.array([1, 4]))  # sync the CSR view
        units = GraphTinkerUnits(store)

        is_new, _ = units.insert_edge_traced(1, 9, 2.5)
        assert is_new and store.has_edge(1, 9)
        src, dst, weight = store.neighbors_many(np.array([1]))
        assert sorted(zip(dst.tolist(), weight.tolist())) == [(2, 1.0), (3, 1.0), (9, 2.5)]

        deleted, _ = units.delete_edge_traced(1, 2)
        assert deleted
        _, dst, _ = store.neighbors_many(np.array([1]))
        assert sorted(dst.tolist()) == [3, 9]
        src, dst, _ = store.analytics_edges()
        assert sorted(zip(src.tolist(), dst.tolist())) == [(1, 3), (1, 9), (4, 5)]


class TestTraceContents:
    def test_fresh_insert_unit_sequence(self, gt):
        units = GraphTinkerUnits(gt)
        _, trace = units.insert_edge_traced(5, 7)
        used = trace.units_used()
        assert used[0] == "sgh"
        assert "load" in used
        assert "insert-edge" in used
        assert "writeback" in used

    def test_sgh_bypass_recorded(self):
        gt = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2,
                                  enable_sgh=False))
        units = GraphTinkerUnits(gt)
        _, trace = units.insert_edge_traced(3, 4)
        assert ("sgh", "bypassed") in trace.steps

    def test_inference_unit_on_congestion(self, gt):
        units = GraphTinkerUnits(gt)
        # saturate vertex 0 so a branch-out (inference decision) occurs
        traces = [units.insert_edge_traced(0, d)[1] for d in range(200)]
        assert any(
            any(u == "inference" for u, _ in t.steps) for t in traces
        )

    def test_cal_copy_recorded(self, gt):
        units = GraphTinkerUnits(gt)
        _, trace = units.insert_edge_traced(2, 9)
        assert any("CAL copy" in d for _, d in trace.steps)


class TestTracedDelete:
    def test_matches_plain_facade(self, small_config, rng):
        gt_a = GraphTinker(small_config)
        gt_b = GraphTinker(small_config)
        units = GraphTinkerUnits(gt_b)
        edges = np.column_stack([rng.integers(0, 25, 800), rng.integers(0, 60, 800)])
        gt_a.insert_batch(edges)
        gt_b.insert_batch(edges)
        for s, d in edges[::2].tolist():
            deleted_a = gt_a.delete_edge(s, d)
            deleted_b, _ = units.delete_edge_traced(s, d)
            assert deleted_a == deleted_b
        assert gt_a.stats.as_dict() == gt_b.stats.as_dict()
        assert sorted(gt_a.edges()) == sorted(gt_b.edges())
        gt_b.check_invariants()

    def test_trace_records_tombstone_and_cal(self, gt):
        units = GraphTinkerUnits(gt)
        units.insert_edge_traced(1, 2)
        deleted, trace = units.delete_edge_traced(1, 2)
        assert deleted
        assert ("writeback", "tombstone") in trace.steps
        assert any("CAL" in d for u, d in trace.steps if u == "writeback")

    def test_unknown_vertex_short_circuits_at_sgh(self, gt):
        units = GraphTinkerUnits(gt)
        deleted, trace = units.delete_edge_traced(99, 1)
        assert not deleted
        assert trace.steps == [("sgh", "99 unknown")]

    def test_miss_recorded(self, gt):
        units = GraphTinkerUnits(gt)
        units.insert_edge_traced(1, 2)
        deleted, trace = units.delete_edge_traced(1, 3)
        assert not deleted
        assert ("find-edge", "miss (all generations)") in trace.steps

    def test_compact_mode_traced(self, rng):
        cfg = GTConfig(pagewidth=16, subblock=4, workblock=2,
                       compact_on_delete=True, cal_group_width=4, cal_block_size=4)
        gt = GraphTinker(cfg)
        units = GraphTinkerUnits(gt)
        for d in range(30):
            gt.insert_edge(0, d)
        deleted, trace = units.delete_edge_traced(0, 5)
        assert deleted
        assert any("compact-delete" in d for _, d in trace.steps)
        gt.check_invariants()
