"""Randomized differential oracle: six implementations, one truth.

Each case replays one seeded operation stream — duplicate-heavy inserts,
deletes (including misses and double-deletes), and self-loop bursts —
through six systems in lockstep:

* GraphTinker with the **scalar** kernel,
* GraphTinker with the **vector** kernel,
* the STINGER baseline,
* the degree-tiered :class:`~repro.core.tiered.TieredStore` (small
  thresholds, so the stream forces promotions and demotions),
* the process-per-shard :class:`~repro.core.sharded.ShardedStore`
  (3 worker processes, so every stream scatters across shard
  boundaries and merges back through the pipes),
* the dict-of-dicts :class:`~tests.reference.ReferenceGraph`.

After every operation the batch return values must agree, and probe
rounds cross-check ``has_edge`` / ``degree`` / ``neighbors`` /
``edge_weight`` on all four.  Any disagreement is reported with the
config name, stream seed, and op index so the exact failing stream can
be replayed::

    ops = make_stream(seed)          # in this module
    # re-apply ops[:op_index + 1] to the implicated store

The two GraphTinker kernels additionally finish with bit-identical
``AccessStats`` and a clean full fsck — the vector kernel's contract
(see ``repro/core/kernels.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import GTConfig, ShardedConfig, StingerConfig, TieredConfig
from repro.core.graphtinker import GraphTinker
from repro.core.sharded import ShardedStore
from repro.core.store import store_digest
from repro.core.tiered import TIER_INLINE, TIER_LARGE, TieredStore
from repro.engine.algorithms import BFS, SSSP, ConnectedComponents
from repro.engine.hybrid import HybridEngine
from repro.errors import VertexNotFoundError
from repro.obs.metrics import MetricsRegistry
from repro.stinger import Stinger
from repro.workloads.rmat import rmat_edges
from tests.reference import (
    KernelGraphTinker,
    ReferenceGraph,
    reference_bfs,
    reference_cc,
    reference_sssp,
)

#: Small tier thresholds so the 120-vertex differential streams cross
#: both promotion and demotion boundaries many times per run.
TIERED_CFG = TieredConfig(tau1=2, tau2=6, hysteresis=1)

# ≥5 configurations, chosen to exercise every feature combination the
# kernels branch on: tiny geometry (fast branch-outs), each feature
# toggled off, and compacting deletes (vector delete must delegate).
CONFIGS = [
    ("default", GTConfig()),
    ("small-geom", GTConfig(pagewidth=16, subblock=8, workblock=4)),
    ("no-sgh", GTConfig(pagewidth=16, subblock=4, workblock=2,
                        enable_sgh=False)),
    ("no-cal", GTConfig(pagewidth=16, subblock=4, workblock=2,
                        enable_cal=False)),
    ("no-rhh", GTConfig(pagewidth=16, subblock=4, workblock=2,
                        enable_rhh=False)),
    ("compact-delete", GTConfig(pagewidth=16, subblock=8, workblock=4,
                                compact_on_delete=True, cal_block_size=4)),
]
SEEDS = [2, 23, 4242]

N_VERTICES = 120
N_SEGMENTS = 5


@pytest.fixture
def sharded_factory():
    """Build :class:`ShardedStore` instances and close them (killing the
    worker processes) at teardown, pass or fail."""
    stores: list[ShardedStore] = []

    def make(**kwargs) -> ShardedStore:
        store = ShardedStore(ShardedConfig(**kwargs))
        stores.append(store)
        return store

    yield make
    for store in stores:
        store.close()


def make_stream(seed: int):
    """The seeded op stream: a list of ("insert", edges, weights),
    ("delete", edges), or ("probe", vertices) segments."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(N_SEGMENTS):
        n = int(rng.integers(60, 300))
        edges = np.column_stack(
            [rng.integers(0, N_VERTICES, n),
             rng.integers(0, N_VERTICES // 4, n)]  # duplicate-heavy dst range
        ).astype(np.int64)
        ops.append(("insert", edges, rng.random(n)))

        sl = rng.integers(0, N_VERTICES, 25)
        ops.append(("insert", np.column_stack([sl, sl]).astype(np.int64),
                    rng.random(25)))

        nd = int(rng.integers(30, 150))
        dels = np.column_stack(
            [rng.integers(0, N_VERTICES, nd),
             rng.integers(0, N_VERTICES // 4, nd)]
        ).astype(np.int64)
        # double-delete half of them and aim a few at never-inserted ids
        dels = np.vstack([dels, dels[: nd // 2],
                          np.array([[N_VERTICES + 5, 0], [0, 10_000]])])
        ops.append(("delete", dels))

        ops.append(("probe", rng.integers(0, N_VERTICES + 2, 40)))
    return ops


def _probe(systems, ref: ReferenceGraph, vertices, ctx: str) -> None:
    for v in vertices.tolist():
        want_deg = ref.degree(v)
        want_nbrs = ref.neighbors(v)
        for name, store in systems:
            assert store.degree(v) == want_deg, f"{ctx} degree({v}) [{name}]"
            try:
                dsts, weights = store.neighbors(v)
            except VertexNotFoundError:
                # GraphTinker raises for a never-seen source; the oracle
                # must agree it has no neighbours.
                assert not want_nbrs, f"{ctx} neighbors({v}) raised [{name}]"
                continue
            assert set(dsts.tolist()) == want_nbrs, f"{ctx} neighbors({v}) [{name}]"
            for d, w in zip(dsts.tolist(), weights.tolist()):
                assert ref.has_edge(v, d), f"{ctx} phantom edge ({v},{d}) [{name}]"
                assert w == pytest.approx(ref.edge_weight(v, d)), \
                    f"{ctx} edge_weight({v},{d}) [{name}]"
            # spot-check has_edge on hits and a guaranteed miss
            for d in list(want_nbrs)[:3]:
                assert store.has_edge(v, d), f"{ctx} has_edge({v},{d}) [{name}]"
            assert not store.has_edge(v, 10_000), f"{ctx} has_edge miss [{name}]"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,cfg", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_differential(name, cfg, seed, sharded_factory):
    systems = [
        ("gt-scalar", KernelGraphTinker(cfg, "scalar")),
        ("gt-vector", GraphTinker(cfg)),
        ("stinger", Stinger(StingerConfig(edgeblock_size=4))),
        ("tiered", TieredStore(TIERED_CFG)),
        ("sharded", sharded_factory(n_shards=3, seed=seed)),
    ]
    ref = ReferenceGraph()

    for op_index, op in enumerate(make_stream(seed)):
        ctx = f"config={name} seed={seed} op_index={op_index}"
        if op[0] == "insert":
            _, edges, weights = op
            want = sum(ref.insert_edge(s, d, w) for (s, d), w
                       in zip(edges.tolist(), weights.tolist()))
            for sys_name, store in systems:
                got = store.insert_batch(edges, weights)
                assert got == want, f"{ctx}: insert_batch [{sys_name}]"
        elif op[0] == "delete":
            edges = op[1]
            want = sum(ref.delete_edge(s, d) for s, d in edges.tolist())
            for sys_name, store in systems:
                got = store.delete_batch(edges)
                assert got == want, f"{ctx}: delete_batch [{sys_name}]"
        else:
            _probe(systems, ref, op[1], ctx)
        for sys_name, store in systems:
            assert store.n_edges == ref.n_edges, f"{ctx}: n_edges [{sys_name}]"

    # Kernel contract: scalar and vector finish bit-identical and clean.
    scalar, vector = systems[0][1], systems[1][1]
    sa, sb = scalar.stats.as_dict(), vector.stats.as_dict()
    assert sa == sb, (f"config={name} seed={seed}: stats diverge "
                      f"{ {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]} }")
    assert scalar.memory_blocks() == vector.memory_blocks()
    for label, store in systems[:2]:
        report = store.fsck(level="full")
        assert report.ok, f"config={name} seed={seed} [{label}]: {report.summary()}"

    # The tiered store rode the same stream: it must have actually tiered
    # (the duplicate-heavy stream pushes degrees through both thresholds)
    # and still be structurally clean.
    tiered = systems[3][1]
    assert tiered.promotions >= 1, f"seed={seed}: no promotions observed"
    tiered.check_invariants()
    assert tiered.fsck(level="full").ok

    # The sharded store rode the same stream through three worker
    # processes: placement and per-shard structure must both be clean.
    sharded = systems[4][1]
    sharded.check_invariants()
    assert sharded.fsck(level="full").ok, f"seed={seed}: sharded fsck"


# --------------------------------------------------------------------- #
# Analytics lockstep oracle: every engine configuration, one truth.
#
# After every churn batch (symmetrized inserts + deletes, so CC's
# weak-connectivity contract holds), BFS / SSSP / CC are run from scratch
# in every fixed mode (FP, IP, FP-VC) plus hybrid, over GT-scalar,
# GT-vector, GT-vector+snapshot, STINGER, and STINGER+snapshot, and the
# resulting vertex properties must equal the dict-reference answers
# (BFS levels, Dijkstra distances, union-find component labels) —
# exactly, not approximately: the monotone programs are min-reductions
# over identical float path sums.  Iteration traces must agree across
# stores, and the snapshot-on store must reproduce its snapshot-off
# twin's modeled AccessStats bit-for-bit (the charge-mirror contract).
# Failures name the config, stream seed, and batch index so the exact
# stream can be replayed with ``make_churn_stream(seed)``.
# --------------------------------------------------------------------- #
ENGINE_POLICIES = ["full", "incremental", "full_vc", "hybrid"]
N_AV = 48  # small vertex universe: the oracle runs many engine passes
N_CHURN_BATCHES = 2


def make_churn_stream(seed: int):
    """Symmetrized (insert_edges, weights, delete_edges) churn batches."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(N_CHURN_BATCHES):
        n = int(rng.integers(80, 160))
        fwd = np.column_stack(
            [rng.integers(0, N_AV, n), rng.integers(0, N_AV, n)]
        ).astype(np.int64)
        ins = np.vstack([fwd, fwd[:, ::-1]])
        w = rng.random(n)
        weights = np.concatenate([w, w])
        nd = int(rng.integers(20, 60))
        victim = ins[rng.integers(0, ins.shape[0], nd)]
        dels = np.vstack([victim, victim[:, ::-1]])
        batches.append((ins, weights, dels))
    return batches


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,cfg", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_analytics_lockstep(name, cfg, seed, sharded_factory):
    systems = [
        ("gt-scalar", KernelGraphTinker(cfg, "scalar")),
        ("gt-vector", GraphTinker(cfg)),
        ("gt-snapshot", GraphTinker(cfg.with_(snapshot=True))),
        ("stinger", Stinger(StingerConfig(edgeblock_size=4))),
        ("stinger-snapshot",
         Stinger(StingerConfig(edgeblock_size=4, snapshot=True))),
        ("tiered", TieredStore(TIERED_CFG)),
        ("tiered-snapshot", TieredStore(TIERED_CFG.with_(snapshot=True))),
        ("sharded", sharded_factory(n_shards=3, seed=seed)),
        ("sharded-snapshot",
         sharded_factory(n_shards=3, seed=seed, snapshot=True)),
    ]
    # (off-store, on-store) pairs whose modeled stats must match exactly.
    snapshot_pairs = [("gt-vector", "gt-snapshot"),
                      ("stinger", "stinger-snapshot"),
                      ("tiered", "tiered-snapshot"),
                      ("sharded", "sharded-snapshot")]
    ref = ReferenceGraph()

    for b, (ins, weights, dels) in enumerate(make_churn_stream(seed)):
        ctx = f"config={name} seed={seed} batch={b}"
        for s, d, w in zip(ins[:, 0].tolist(), ins[:, 1].tolist(),
                           weights.tolist()):
            ref.insert_edge(s, d, w)
        for s, d in dels.tolist():
            ref.delete_edge(s, d)
        for _, store in systems:
            store.insert_batch(ins, weights)
            store.delete_batch(dels)

        root = int(ins[0, 0])
        expected = {
            "bfs": reference_bfs(ref, root),
            "sssp": reference_sssp(ref, root),
            "cc": reference_cc(ref),
        }
        for algo in ("bfs", "sssp", "cc"):
            program_cls = {"bfs": BFS, "sssp": SSSP,
                           "cc": ConnectedComponents}[algo]
            for policy in ENGINE_POLICIES:
                actx = f"{ctx} algo={algo} policy={policy}"
                baseline = None  # (values, trace) of the first store
                stats_by_store = {}
                for sys_name, store in systems:
                    engine = HybridEngine(store, program_cls(), policy=policy)
                    if algo == "cc":
                        engine.reset()
                    else:
                        engine.reset(roots=[root])
                    before = store.stats.snapshot()
                    result = engine.compute()
                    stats_by_store[sys_name] = store.stats.delta(before).as_dict()
                    values = engine.values.copy()
                    trace = [(r.mode, r.n_active, r.edges_processed,
                              r.n_changed) for r in result.iterations]
                    # 1) against the dict reference
                    want = expected[algo]
                    for v in range(values.shape[0]):
                        if algo == "cc":
                            exp = float(want.get(v, v))
                        else:
                            exp = want.get(v, np.inf)
                        assert values[v] == exp, \
                            (f"{actx} [{sys_name}]: vertex {v} = {values[v]}, "
                             f"reference says {exp}")
                    # 2) against the other stores (same modes, same work)
                    if baseline is None:
                        baseline = (values, trace, sys_name)
                    else:
                        assert np.array_equal(values, baseline[0]), \
                            f"{actx}: values diverge [{sys_name} vs {baseline[2]}]"
                        assert trace == baseline[1], \
                            f"{actx}: traces diverge [{sys_name} vs {baseline[2]}]"
                # 3) charge-mirror contract: snapshot on == snapshot off
                for off, on in snapshot_pairs:
                    assert stats_by_store[on] == stats_by_store[off], (
                        f"{actx}: snapshot changed modeled stats "
                        f"[{off} vs {on}]: "
                        f"{ {k: (stats_by_store[off][k], stats_by_store[on][k]) for k in stats_by_store[off] if stats_by_store[off][k] != stats_by_store[on][k]} }"
                    )
        # GT kernel contract holds through engine traffic too.
        assert systems[0][1].stats.as_dict() == systems[1][1].stats.as_dict(), \
            f"{ctx}: scalar/vector stats diverge"


# --------------------------------------------------------------------- #
# TieredStore acceptance oracle: RMAT streams, both degree shapes.
#
# Power-law (Graph500 parameters) streams concentrate edges on hub
# vertices — the workload the large tier exists for; uniform streams
# (a=b=c=d=0.25) spread degrees thinly — the inline tier's home turf.
# Either way the tiered store must agree with the dict reference
# bit-for-bit (store_digest over the sorted edge list), and the obs
# counters must witness real tier traffic: promotions during ingest, and
# demotions during the mass-delete phase that drags hub degrees back
# down through the hysteresis band.
# --------------------------------------------------------------------- #
RMAT_SCALE = 7          # 128-vertex id space, same ballpark as the oracle
RMAT_EDGES = 1_500      # enough duplicates to build real hubs
UNIFORM = dict(a=0.25, b=0.25, c=0.25, d=0.25, noise=0.0)


@pytest.mark.parametrize("shape", ["power-law", "uniform"])
@pytest.mark.parametrize("seed", SEEDS)
def test_tiered_rmat_transitions_and_digest(shape, seed):
    kwargs = UNIFORM if shape == "uniform" else {}
    edges = rmat_edges(RMAT_SCALE, RMAT_EDGES, seed=seed, **kwargs)
    rng = np.random.default_rng(seed)
    weights = rng.random(edges.shape[0])

    registry = MetricsRegistry()
    prior = obs.set_registry(registry)
    obs.enable()
    try:
        store = TieredStore(TIERED_CFG)
        ref = ReferenceGraph()
        # Ingest in a few batches (exercises the batch path under obs).
        for lo in range(0, edges.shape[0], 500):
            chunk, w = edges[lo:lo + 500], weights[lo:lo + 500]
            store.insert_batch(chunk, w)
            for (s, d), x in zip(chunk.tolist(), w.tolist()):
                ref.insert_edge(s, d, x)
        promotions = registry.counter("store.tier.promotions").value
        assert promotions >= 1, f"{shape} seed={seed}: no promotions"
        assert store.promotions == promotions

        # Mass-delete phase: drain every edge of the hottest vertices so
        # their rows fall back down through the hysteresis band.
        by_degree = sorted(range(2 ** RMAT_SCALE), key=store.degree)
        for v in by_degree[-12:]:
            dsts, _ = store.neighbors(v)
            dels = np.column_stack(
                [np.full(dsts.shape[0], v, dtype=np.int64), dsts])
            store.delete_batch(dels)
            for d in dsts.tolist():
                ref.delete_edge(v, d)
        demotions = registry.counter("store.tier.demotions").value
        assert demotions >= 1, f"{shape} seed={seed}: no demotions"
        assert store.demotions == demotions

        # Bit-equal content against the dict reference.
        items = sorted(ref.weighted_edges().items())
        rsrc = np.array([s for (s, _), _ in items], dtype=np.int64)
        rdst = np.array([d for (_, d), _ in items], dtype=np.int64)
        rw = np.array([w for _, w in items], dtype=np.float64)
        twin = TieredStore(TIERED_CFG)
        twin.insert_batch(np.column_stack([rsrc, rdst]), rw)
        assert store_digest(store) == store_digest(twin), \
            f"{shape} seed={seed}: digest diverges from reference"

        # The occupancy report and the structure itself are consistent.
        occupancy = store.tier_occupancy()
        assert occupancy["promotions"] == store.promotions
        assert occupancy["demotions"] == store.demotions
        if shape == "power-law":
            # Hubs exist: someone must have reached the large tier.
            assert any(store.tier_of(v) == TIER_LARGE
                       for v in range(2 ** RMAT_SCALE)) or demotions > 0
        store.check_invariants()
        assert store.fsck(level="full").ok
    finally:
        obs.disable()
        obs.set_registry(prior)


# --------------------------------------------------------------------- #
# Property-based tier-transition invariants (hypothesis).
#
# Random op interleavings, adversarially shrunk: after every operation
# the tiered store must agree with a dict model on degree and neighbour
# sets, and ``check_invariants`` must hold — degrees match live content,
# no duplicates, every row's tier is legal for its degree under the
# hysteresis bands, and the per-tier occupancy counts are exact.  This
# is the "no edge is lost or invented by a migration" property: every
# promotion/demotion rebuilds the row, so any migration bug surfaces as
# a model divergence within a few shrunk ops.
# --------------------------------------------------------------------- #
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

N_PROP_VERTICES = 8  # tiny universe: every vertex crosses tiers often

_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "delete_vertex"]),
              st.integers(0, N_PROP_VERTICES - 1),
              st.integers(0, N_PROP_VERTICES - 1)),
    min_size=1, max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_tiered_transitions_preserve_content(ops):
    cfg = TieredConfig(tau1=1, tau2=3, hysteresis=1, initial_vertices=2)
    store = TieredStore(cfg)
    model: dict[int, dict[int, float]] = {}
    for i, (op, a, b) in enumerate(ops):
        if op == "insert":
            w = float(i)  # distinct weights make value mix-ups visible
            store.insert_edge(a, b, w)
            model.setdefault(a, {})[b] = w
        elif op == "delete":
            got = store.delete_edge(a, b)
            want = model.get(a, {}).pop(b, None) is not None
            assert got == want, f"op {i}: delete_edge returned {got}"
        else:
            got = store.delete_vertex(a)
            assert got == len(model.pop(a, {})), f"op {i}: delete_vertex"
        store.check_invariants()
        for v, row in model.items():
            assert store.degree(v) == len(row), f"op {i}: degree({v})"
            if row:
                dsts, ws = store.neighbors(v)
                assert dict(zip(dsts.tolist(), ws.tolist())) == row, \
                    f"op {i}: neighbors({v})"
            deg = len(row)
            tier = store.tier_of(v)
            if deg > cfg.tau2:
                assert tier == TIER_LARGE, f"op {i}: hub {v} in tier {tier}"
            elif deg <= cfg.tau1 - cfg.hysteresis:
                assert tier == TIER_INLINE, f"op {i}: cold {v} in tier {tier}"
    assert store.n_edges == sum(len(r) for r in model.values())
