"""Tests for the memory-access cost model."""

import pytest

from repro.bench.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.core.stats import AccessStats


class TestCost:
    def test_zero_stats_zero_cost(self):
        assert DEFAULT_COST_MODEL.cost(AccessStats()) == 0.0

    def test_linear_in_each_counter(self):
        model = CostModel(random_block=2.0, seq_block=0.5, workblock=0.25,
                          cal_update=0.3, hash_op=0.1, cell_op=0.05)
        s = AccessStats()
        s.random_block_reads = 3
        s.branch_descents = 1
        s.cal_updates = 1
        s.seq_block_reads = 4
        s.workblock_fetches = 2
        s.workblock_writebacks = 2
        s.hash_lookups = 10
        s.cells_scanned = 20
        expected = 2.0 * 4 + 0.5 * 4 + 0.25 * 4 + 0.3 * 1 + 0.1 * 10 + 0.05 * 20
        assert model.cost(s) == pytest.approx(expected)

    def test_sequential_cheaper_than_random(self):
        """The model's load-bearing assumption, asserted explicitly."""
        assert DEFAULT_COST_MODEL.seq_block < DEFAULT_COST_MODEL.random_block


class TestThroughput:
    def test_throughput_ratio_independent_of_scale(self):
        s = AccessStats()
        s.random_block_reads = 10
        t1 = DEFAULT_COST_MODEL.throughput(100, s)
        s2 = AccessStats()
        s2.random_block_reads = 20
        t2 = DEFAULT_COST_MODEL.throughput(200, s2)
        assert t1 == pytest.approx(t2)

    def test_zero_cost_edge_cases(self):
        assert DEFAULT_COST_MODEL.throughput(0, AccessStats()) == 0.0
        assert DEFAULT_COST_MODEL.throughput(5, AccessStats()) == float("inf")

    def test_more_accesses_lower_throughput(self):
        a, b = AccessStats(), AccessStats()
        a.random_block_reads = 10
        b.random_block_reads = 100
        assert DEFAULT_COST_MODEL.throughput(50, a) > DEFAULT_COST_MODEL.throughput(50, b)


class TestOrderingStability:
    """The cost-model conclusions must be robust to coefficient choice."""

    def make_gt_vs_stinger_deltas(self):
        import numpy as np

        from repro.bench.harness import insertion_run
        from repro.core.store import create_store
        from repro.workloads import rmat_edges
        from repro.workloads.streams import EdgeStream

        edges = rmat_edges(10, 20000, seed=1)
        edges = edges[edges[:, 0] != edges[:, 1]]
        stream = EdgeStream(edges, 5000)
        out = {}
        for kind in ("graphtinker", "stinger"):
            store = create_store(kind)
            measurements = insertion_run(store, stream)
            out[kind] = measurements[-1]  # last (most loaded) batch
        return out

    @pytest.mark.parametrize("random_cost", [0.5, 1.0, 2.0, 4.0])
    def test_graphtinker_beats_stinger_under_coefficient_sweep(self, random_cost):
        deltas = self.make_gt_vs_stinger_deltas()
        model = CostModel(random_block=random_cost)
        gt = deltas["graphtinker"].modeled_throughput(model)
        st = deltas["stinger"].modeled_throughput(model)
        assert gt > st
