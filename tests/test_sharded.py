"""ShardedStore unit oracle: routing, merge equivalence, placement.

The conformance suite already holds :class:`~repro.core.sharded.ShardedStore`
to the full Store protocol and the differential suite runs it in lockstep
against the reference; this module pins the sharding-*specific* contracts:

* **routing determinism** — vertex placement is a pure function of
  ``(src, n_shards, seed)``: it matches
  :func:`repro.core.hashing.partition_of`, two same-seed stores place
  identically, and every inserted source's edges live on exactly the
  shard the router names (no leaks onto non-owner shards);
* **shard-count invariance** — ``store_digest`` of the same stream is
  identical at every shard count and equals the unsharded backend's;
* **scatter-gather merge** — ``neighbors_many`` returns exactly the
  triples of the serial per-vertex gather loop, in the same global
  sorted-source order, and charges exactly the serial loop's modeled
  ``AccessStats`` (the charging-oracle contract, bit-for-bit);
* **lockstep charging** — every batch's per-shard delta
  (``last_batch_partitions``, Fig. 10's charging oracle) equals what a
  fresh in-process backend charges for that shard's sub-batch, and an
  empty batch reports no shard delta at all;
* a **hypothesis** interleaving oracle that shrinks random op sequences
  against a dict model and the cross-shard placement invariant.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.core.config import ShardedConfig
from repro.core.graphtinker import GraphTinker
from repro.core.hashing import partition_of, partition_of_array
from repro.core.sharded import ShardedStore
from repro.core.stats import AccessStats
from repro.core.store import create_store, store_digest
from repro.engine.snapshot import gather_active_scalar, sanitize_active
from repro.workloads.rmat import rmat_edges

N_SHARDS = 3
SEED = 7


@pytest.fixture
def factory():
    stores: list[ShardedStore] = []

    def make(**kwargs) -> ShardedStore:
        store = ShardedStore(ShardedConfig(**kwargs))
        stores.append(store)
        return store

    yield make
    for store in stores:
        store.close()


def _stream(n_edges: int = 900, seed: int = 5) -> np.ndarray:
    return rmat_edges(7, n_edges, seed=seed)


# --------------------------------------------------------------------- #
# routing determinism
# --------------------------------------------------------------------- #
def test_routing_matches_partition_of(factory):
    store = factory(n_shards=N_SHARDS, seed=SEED)
    for src in list(range(64)) + [1_000, 123_456, 2**31]:
        assert store._shard_of(src) == partition_of(src, N_SHARDS, SEED)
    srcs = np.arange(200, dtype=np.int64)
    assert np.array_equal(
        partition_of_array(srcs, N_SHARDS, SEED),
        np.array([store._shard_of(int(s)) for s in srcs]))


def test_same_seed_places_identically(factory):
    edges = _stream()
    a = factory(n_shards=N_SHARDS, seed=SEED)
    b = factory(n_shards=N_SHARDS, seed=SEED)
    a.insert_batch(edges)
    b.insert_batch(edges)
    per_shard_a = [a._call(k, ("n_edges",)) for k in range(N_SHARDS)]
    per_shard_b = [b._call(k, ("n_edges",)) for k in range(N_SHARDS)]
    assert per_shard_a == per_shard_b
    assert sum(per_shard_a) == a.n_edges
    # Every shard holds something on this stream — the router spreads.
    assert all(n > 0 for n in per_shard_a)


def test_seed_changes_placement_not_content(factory):
    edges = _stream()
    a = factory(n_shards=N_SHARDS, seed=0)
    b = factory(n_shards=N_SHARDS, seed=99)
    a.insert_batch(edges)
    b.insert_batch(edges)
    assert [a._call(k, ("n_edges",)) for k in range(N_SHARDS)] != \
        [b._call(k, ("n_edges",)) for k in range(N_SHARDS)]
    assert store_digest(a) == store_digest(b)


def test_no_edge_leaks_to_non_owner_shard(factory):
    store = factory(n_shards=N_SHARDS, seed=SEED)
    edges = _stream()
    store.insert_batch(edges)
    for src in np.unique(edges[:, 0])[:40].tolist():
        owner = store._shard_of(src)
        for k in range(N_SHARDS):
            dsts, _, _ = store._call(k, ("neighbors", src))
            if k == owner:
                assert dsts.shape[0] == store.degree(src)
            else:
                assert dsts.shape[0] == 0, \
                    f"src {src} leaked onto shard {k} (owner {owner})"


# --------------------------------------------------------------------- #
# shard-count invariance
# --------------------------------------------------------------------- #
def test_digest_invariant_under_shard_count(factory):
    edges = _stream(1_200)
    rng = np.random.default_rng(3)
    weights = rng.random(edges.shape[0])
    dels = edges[rng.integers(0, edges.shape[0], 300)]

    plain = create_store("graphtinker")
    plain.insert_batch(edges, weights)
    plain.delete_batch(dels)
    want = store_digest(plain)

    for n_shards in (1, 2, 3, 5):
        store = factory(n_shards=n_shards, seed=SEED)
        store.insert_batch(edges, weights)
        store.delete_batch(dels)
        assert store_digest(store) == want, f"n_shards={n_shards}"
        assert store.n_edges == plain.n_edges


# --------------------------------------------------------------------- #
# scatter-gather merge equivalence (triples AND modeled charges)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("active_raw", [
    np.arange(128, dtype=np.int64),                      # full sweep
    np.array([5, 3, 5, 3, 90, -2, 4_000], dtype=np.int64),  # dirty input
    np.array([], dtype=np.int64),                        # empty frontier
    np.array([9], dtype=np.int64),                       # single source
], ids=["sweep", "dirty", "empty", "single"])
def test_neighbors_many_matches_serial_gather(factory, active_raw):
    edges = _stream()
    sharded = factory(n_shards=N_SHARDS, seed=SEED)
    twin = factory(n_shards=N_SHARDS, seed=SEED)
    serial = GraphTinker()
    for store in (sharded, twin, serial):
        store.insert_batch(edges)

    # Values: the scatter-gather merge must reproduce the serial
    # per-vertex gather over an *unsharded* backend holding the same
    # edges (cross-backend equivalence of the triples).
    got = sharded.neighbors_many(active_raw.copy())
    want = gather_active_scalar(serial, sanitize_active(active_raw.copy()))
    for g, w, label in zip(got, want, ("src", "dst", "weight")):
        assert np.array_equal(g, w), f"{label} arrays diverge"

    # Charges: bit-identical to the serial per-vertex loop driven over an
    # identically-loaded sharded twin — the charging-oracle contract.
    # (An unsharded instance is *not* the charge oracle: three small
    # per-shard structures legally charge differently than one big one.)
    before_sh = sharded.stats.snapshot()
    before_tw = twin.stats.snapshot()
    again = sharded.neighbors_many(active_raw.copy())
    slow = gather_active_scalar(twin, sanitize_active(active_raw.copy()))
    for g, w in zip(again, slow):
        assert np.array_equal(g, w)
    assert sharded.stats.delta(before_sh).as_dict() == \
        twin.stats.delta(before_tw).as_dict()


def test_neighbors_many_merge_is_sorted_and_grouped(factory):
    sharded = factory(n_shards=N_SHARDS, seed=SEED)
    sharded.insert_batch(_stream())
    src, dst, weight = sharded.neighbors_many(
        np.arange(128, dtype=np.int64))
    assert np.all(np.diff(src) >= 0), "sources not in sorted order"
    assert src.shape == dst.shape == weight.shape
    for v in np.unique(src).tolist():
        row = dst[src == v]
        d, w = sharded.neighbors(v)
        assert np.array_equal(row, d)


# --------------------------------------------------------------------- #
# lockstep charging: the Fig. 10 per-partition deltas
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["graphtinker", "stinger"])
def test_partition_deltas_match_serial_lockstep(factory, backend):
    """Shard *k*'s delta is a fresh backend's charge for sub-batch *k*
    (the sub-batch keeps stream order), batch after batch."""
    store = factory(n_shards=N_SHARDS, seed=SEED, backend=backend)
    twins = [create_store(backend) for _ in range(N_SHARDS)]
    edges = _stream(1_500)
    ops = [("insert_batch", batch) for batch in np.array_split(edges, 3)]
    ops.append(("delete_batch", edges[::4]))
    for op, batch in ops:
        getattr(store, op)(batch)
        owner = partition_of_array(batch[:, 0], N_SHARDS, SEED)
        for k, twin in enumerate(twins):
            before = twin.stats.snapshot()
            getattr(twin, op)(batch[owner == k])
            assert store.last_batch_partitions[k].as_dict() == \
                twin.stats.delta(before).as_dict(), f"{op}, shard {k}"


@pytest.mark.parametrize("op", ["insert_batch", "delete_batch"])
def test_empty_batch_reports_no_shard_deltas(factory, op):
    store = factory(n_shards=2, seed=SEED)
    store.insert_batch(np.array([[1, 2], [1, 3], [1, 4]]))
    assert sum(d.edges_inserted for d in store.last_batch_partitions) == 3
    getattr(store, op)(np.empty((0, 2), dtype=np.int64))
    assert [d.as_dict() for d in store.last_batch_partitions] == \
        [AccessStats().as_dict()] * 2


def test_close_is_bounded_on_a_stopped_worker():
    """A worker that never answers ``close`` (here: SIGSTOPped) is
    terminated and killed within the budget; none is left alive."""
    store = ShardedStore(ShardedConfig(n_shards=2, seed=SEED))
    store.insert_batch(np.array([[1, 2], [2, 3], [3, 4]]))
    victim = store.worker_pids[0]
    os.kill(victim, signal.SIGSTOP)
    closer = threading.Thread(target=store.close, daemon=True)
    closer.start()
    closer.join(timeout=15.0)
    hung = closer.is_alive()
    if hung:  # unstick the worker so the thread and the process end
        os.kill(victim, signal.SIGKILL)
        closer.join()
    assert not hung, "close() blocked on a stopped worker"
    assert not any(proc.is_alive() for proc in store._procs)


# --------------------------------------------------------------------- #
# hypothesis: shrink op interleavings against placement + content
# --------------------------------------------------------------------- #
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

N_PROP_VERTICES = 12

_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "delete_vertex"]),
              st.integers(0, N_PROP_VERTICES - 1),
              st.integers(0, N_PROP_VERTICES - 1)),
    min_size=1, max_size=60,
)


@settings(max_examples=25, deadline=None)
@given(ops=_ops)
def test_sharded_interleavings_preserve_content(ops):
    """Random op interleavings against a dict model, shrunk to minimal
    failures; on top of content equality, every touched source must sit
    on exactly the shard the router assigns it (cross-shard placement)."""
    store = ShardedStore(ShardedConfig(n_shards=N_SHARDS, seed=SEED))
    try:
        model: dict[int, dict[int, float]] = {}
        for i, (op, a, b) in enumerate(ops):
            if op == "insert":
                w = float(i + 1)
                got = store.insert_edge(a, b, w)
                want = b not in model.get(a, {})
                model.setdefault(a, {})[b] = w
            elif op == "delete":
                got = store.delete_edge(a, b)
                want = model.get(a, {}).pop(b, None) is not None
            else:
                got = store.delete_vertex(a)
                want = len(model.pop(a, {}))
            assert got == want, f"op {i} ({op} {a} {b}): returned {got}"
            assert store.n_edges == sum(len(r) for r in model.values())
            for v, row in model.items():
                assert store.degree(v) == len(row), f"op {i}: degree({v})"
        # Content + placement, checked once over the final state.
        for v in range(N_PROP_VERTICES):
            row = model.get(v, {})
            if row:
                dsts, ws = store.neighbors(v)
                assert dict(zip(dsts.tolist(), ws.tolist())) == row
            owner = store._shard_of(v)
            for k in range(N_SHARDS):
                dsts, _, _ = store._call(k, ("neighbors", v))
                expect = len(row) if k == owner else 0
                assert dsts.shape[0] == expect, \
                    f"vertex {v}: shard {k} holds {dsts.shape[0]} edges"
        store.check_invariants()
    finally:
        store.close()
