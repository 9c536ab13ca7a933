"""End-to-end observability tests over the real hot paths.

The acceptance contract: with instrumentation disabled (the default) the
AccessStats counts — and therefore every modeled-throughput number — are
bit-identical to an uninstrumented run; with it enabled, the trace
tree's per-batch deltas sum to the store's own totals, the engine
publishes one mode decision per iteration, and the stores publish their
counters under the documented prefixes.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.bench.harness import deletion_run, insertion_run
from repro.core.config import ShardedConfig
from repro.core.sharded import ShardedStore
from repro.core.store import create_store
from repro.engine import HybridEngine
from repro.engine.algorithms import BFS
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.workloads.rmat import rmat_edges
from repro.workloads.streams import EdgeStream


@pytest.fixture
def fresh_obs():
    """Isolated tracer + registry, enabled for the test body."""
    tracer, registry = Tracer(), MetricsRegistry()
    prior_t, prior_r = obs.set_tracer(tracer), obs.set_registry(registry)
    obs.enable()
    yield tracer, registry
    obs.disable()
    obs.set_tracer(prior_t)
    obs.set_registry(prior_r)


def _edges(n=3000, scale=9, seed=7):
    return rmat_edges(scale, n, seed=seed)


class TestDisabledParity:
    """Instrumentation off (default) must not perturb the cost model."""

    @pytest.mark.parametrize("kind", ["graphtinker", "stinger"])
    def test_access_counts_identical_with_obs_off_and_on(self, kind):
        edges = _edges()

        def run(enabled):
            tracer, registry = Tracer(), MetricsRegistry()
            prior_t, prior_r = obs.set_tracer(tracer), obs.set_registry(registry)
            if enabled:
                obs.enable()
            try:
                store = create_store(kind)
                insertion_run(store, EdgeStream(edges, 1000))
                return store.stats.as_dict()
            finally:
                obs.disable()
                obs.set_tracer(prior_t)
                obs.set_registry(prior_r)

        assert run(False) == run(True)

    def test_no_spans_or_metrics_recorded_by_default(self):
        tracer, registry = Tracer(), MetricsRegistry()
        prior_t, prior_r = obs.set_tracer(tracer), obs.set_registry(registry)
        try:
            store = create_store("graphtinker")
            insertion_run(store, EdgeStream(_edges(500), 250))
            assert tracer.roots == []
            assert registry.collect() == {}
        finally:
            obs.set_tracer(prior_t)
            obs.set_registry(prior_r)


class TestTraceTreeSumsToStoreTotals:
    def test_insertion_spans_sum_to_store_stats(self, fresh_obs):
        tracer, _ = fresh_obs
        store = create_store("graphtinker")
        insertion_run(store, EdgeStream(_edges(), 600))
        spans = tracer.find("insert_batch")
        assert len(spans) == 5
        merged = sum((s.stats_delta for s in spans), start=type(store.stats)())
        assert merged.as_dict() == store.stats.as_dict()

    def test_deletion_spans_carry_deltas(self, fresh_obs):
        tracer, _ = fresh_obs
        edges = _edges(1000)
        store = create_store("graphtinker")
        store.insert_batch(edges)
        before = store.stats.snapshot()
        deletion_run(store, EdgeStream(edges, 500))
        spans = tracer.find("delete_batch")
        assert len(spans) == 2
        merged = sum((s.stats_delta for s in spans), start=type(store.stats)())
        assert merged.as_dict() == store.stats.delta(before).as_dict()
        assert merged.edges_deleted > 0


class TestEngineSpansAndMetrics:
    def test_one_span_per_mode_decision(self, fresh_obs):
        tracer, registry = fresh_obs
        store = create_store("graphtinker")
        store.insert_batch(_edges())
        engine = HybridEngine(store, BFS(), policy="hybrid")
        engine.reset(roots=[int(_edges()[0, 0])])
        result = engine.compute()

        compute_spans = tracer.find("engine.compute")
        assert len(compute_spans) == 1
        iteration_spans = compute_spans[0].children
        assert len(iteration_spans) == result.n_iterations
        assert [s.name for s in iteration_spans] == [
            f"engine.{m}" for m in result.modes_used()
        ]

        n_full = sum(1 for m in result.modes_used() if m == "FP")
        n_incr = result.n_iterations - n_full
        snap = registry.collect()
        assert snap.get("engine.mode.full", 0) == n_full
        assert snap.get("engine.mode.incremental", 0) == n_incr
        assert snap["engine.iterations"] == result.n_iterations

    def test_iteration_span_deltas_sum_to_compute_delta(self, fresh_obs):
        tracer, _ = fresh_obs
        store = create_store("graphtinker")
        store.insert_batch(_edges())
        engine = HybridEngine(store, BFS(), policy="full")
        engine.reset(roots=[int(_edges()[0, 0])])
        engine.compute()
        compute = tracer.find("engine.compute")[0]
        child_sum = sum((c.stats_delta for c in compute.children),
                        start=type(store.stats)())
        assert child_sum.as_dict() == compute.stats_delta.as_dict()


class TestStorePublication:
    def test_graphtinker_publishes_gt_prefixed_counters(self, fresh_obs):
        _, registry = fresh_obs
        store = create_store("graphtinker")
        store.insert_batch(_edges())
        snap = registry.collect()
        assert snap["gt.edges.inserted"] == store.stats.edges_inserted
        assert snap["gt.workblock.fetches"] == store.stats.workblock_fetches
        assert snap["gt.sgh.lookups"] == store.stats.hash_lookups

    def test_stinger_publishes_stinger_prefixed_counters(self, fresh_obs):
        _, registry = fresh_obs
        store = create_store("stinger")
        store.insert_batch(_edges(800))
        snap = registry.collect()
        assert snap["stinger.edges.inserted"] == store.stats.edges_inserted
        assert snap["stinger.block.random_reads"] == store.stats.random_block_reads

    def test_stinger_batches_publish_ingest_like_tiered(self, fresh_obs):
        _, registry = fresh_obs
        for kind in ("stinger", "tiered"):
            store = create_store(kind)
            edges = _edges(800)
            store.insert_batch(edges)
            store.delete_batch(edges[:300])
            snap = registry.collect()
            assert snap[f"ingest.insert.{kind}.batches"] == 1
            assert snap[f"ingest.insert.{kind}.edges"] == 800
            assert snap[f"ingest.delete.{kind}.edges"] == 300
            assert snap[f"{kind}.edges.inserted"] == store.stats.edges_inserted
            assert snap[f"{kind}.edges.deleted"] == store.stats.edges_deleted

    def test_sharded_store_publishes_sharded_prefix_and_shard_gauges(
            self, fresh_obs):
        _, registry = fresh_obs
        store = ShardedStore(ShardedConfig(n_shards=4))
        try:
            store.insert_batch(_edges(1200))
            snap = registry.collect()
            assert snap["sharded.edges.inserted"] == store.stats.edges_inserted
            assert snap["ingest.insert.sharded.edges"] == 1200
            for k in range(4):
                assert store.last_batch_partitions[k].edges_inserted > 0
                assert snap[f"store.shard{k}.queue_depth"] == 0
                assert snap[f"store.shard{k}.edges_per_s"] > 0
                assert snap[f"store.shard{k}.rss_kb"] > 0
        finally:
            store.close()
