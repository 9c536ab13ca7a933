"""Tests for the shared experiment harness."""

import numpy as np
import pytest

from repro.bench.harness import (
    AnalyticsMeasurement,
    analytics_after_each_batch,
    analytics_once,
    deletion_run,
    insertion_run,
    make_store,
    parallel_insertion_run,
)
from repro.bench.partitioned import PartitionedGraphTinker
from repro.core.config import GTConfig
from repro.engine.algorithms import BFS
from repro.workloads import rmat_edges
from repro.workloads.streams import EdgeStream


@pytest.fixture(scope="module")
def edges():
    e = rmat_edges(9, 6000, seed=8)
    return e[e[:, 0] != e[:, 1]]


class TestMakeStore:
    def test_feature_toggles(self):
        assert make_store("graphtinker").cal is not None
        assert make_store("gt_nocal").cal is None
        assert make_store("gt_nosgh").sgh is None
        plain = make_store("gt_plain")
        assert plain.cal is None and plain.sgh is None
        from repro.stinger import Stinger

        assert isinstance(make_store("stinger"), Stinger)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_store("bogus")


class TestInsertionRun:
    def test_measurements_per_batch(self, edges):
        store = make_store("graphtinker", GTConfig(pagewidth=16, subblock=4, workblock=2))
        stream = EdgeStream(edges, 1500)
        ms = insertion_run(store, stream)
        assert len(ms) == stream.n_batches
        assert sum(m.n_edges for m in ms) == edges.shape[0]
        assert store.n_edges > 0
        assert all(m.stats_delta.workblock_fetches > 0 for m in ms)


class TestDeletionRun:
    def test_empties_store(self, edges):
        store = make_store("graphtinker", GTConfig(pagewidth=16, subblock=4, workblock=2))
        store.insert_batch(edges)
        stream = EdgeStream(edges, 2000)
        ms = deletion_run(store, stream)
        assert store.n_edges == 0
        assert len(ms) == stream.n_batches


class TestAnalyticsProtocols:
    def test_after_each_batch(self, edges):
        store = make_store("graphtinker", GTConfig(pagewidth=16, subblock=4, workblock=2))
        stream = EdgeStream(edges[:3000], 1000)
        root = int(edges[0, 0])
        ms = analytics_after_each_batch(store, stream, BFS, "hybrid", roots=[root])
        assert len(ms) == 3
        assert all(isinstance(m, AnalyticsMeasurement) for m in ms)
        assert ms[-1].edges_processed > 0
        assert ms[-1].iterations > 0

    def test_analytics_once_policies_agree_on_work_shape(self, edges):
        store = make_store("graphtinker", GTConfig(pagewidth=16, subblock=4, workblock=2))
        store.insert_batch(edges)
        root = int(edges[0, 0])
        fp = analytics_once(store, BFS, "full", roots=[root])
        ip = analytics_once(store, BFS, "incremental", roots=[root])
        # FP processes all edges every iteration; IP only frontier edges.
        assert fp.edges_processed > ip.edges_processed
        # FP loads are sequential (CAL); IP loads are random (EBA).
        assert fp.stats_delta.seq_block_reads > 0
        assert ip.stats_delta.seq_block_reads == 0
        assert ip.stats_delta.random_block_reads > 0


class TestParallelRun:
    def test_partition_makespan_monotone_in_cores(self, edges):
        stream = EdgeStream(edges, 2000)
        makespans = {}
        for cores in (1, 4):
            store = PartitionedGraphTinker(
                cores, GTConfig(pagewidth=16, subblock=4, workblock=2)
            )
            ms = parallel_insertion_run(store, stream)
            makespans[cores] = sum(m.makespan_cost() for m in ms)
        assert makespans[4] < makespans[1]
