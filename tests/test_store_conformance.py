"""Backend conformance suite: every registered store, one contract.

Each test here is parameterized over **every** backend registered in
:mod:`repro.core.store` (one fixture list — ``backend_names()``), so a
new backend registers once and inherits the whole suite: mutator
semantics (insert/delete/duplicate/self-loop), degree and
``neighbors_many`` agreement against the dict reference, empty-store and
max-vertex edge cases, snapshot attach/detach round-trips, checkpoint /
restore identity, fsck, and batch-vs-scalar equivalence.

The suite asserts the *documented* contract of
``docs/store_protocol.md`` — not any backend's incidental behaviour —
which is exactly what lets the differential oracle treat backends as
interchangeable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.store import (
    STORE_PROTOCOL_MEMBERS,
    Store,
    backend_names,
    create_store,
    register_backend,
    store_digest,
    validate_store,
)
from repro.errors import StoreProtocolError, VertexNotFoundError
from tests.reference import ReferenceGraph

BACKENDS = backend_names()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def _stream(seed: int, n: int = 400, n_vertices: int = 64):
    """A duplicate-heavy seeded edge stream with weights."""
    rng = np.random.default_rng(seed)
    edges = np.column_stack([
        rng.integers(0, n_vertices, n),
        rng.integers(0, n_vertices // 4, n),
    ]).astype(np.int64)
    return edges, rng.random(n)


def _ref_digest(ref: ReferenceGraph) -> dict:
    """The dict reference hashed exactly like ``store_digest``."""
    items = sorted(ref.weighted_edges().items())
    src = np.array([s for (s, _), _ in items], dtype=np.int64)
    dst = np.array([d for (_, d), _ in items], dtype=np.int64)
    weight = np.array([w for _, w in items], dtype=np.float64)
    h = hashlib.sha256()
    h.update(src.tobytes())
    h.update(dst.tobytes())
    h.update(weight.tobytes())
    return {"sha256": h.hexdigest(), "n_edges": int(src.shape[0])}


class TestProtocolSurface:
    def test_backend_is_protocol_complete(self, backend):
        store = create_store(backend)
        validate_store(store, name=backend)
        assert isinstance(store, Store)
        for member in STORE_PROTOCOL_MEMBERS:
            assert hasattr(store, member), f"{backend} lacks {member}"

    def test_incomplete_backend_raises_typed_error(self):
        class Incomplete:
            """Has a few members, misses most of the contract."""

            n_edges = 0

            def insert_edge(self, src, dst, weight=1.0):
                return True

        with pytest.raises(StoreProtocolError) as err:
            validate_store(Incomplete(), name="incomplete")
        # The error names what is missing, so a backend author can act.
        assert "delete_edge" in str(err.value)
        assert "neighbors_many" in str(err.value)

        register_backend("conftest-incomplete", lambda config=None, *,
                         kernel=None, snapshot=None: Incomplete())
        try:
            with pytest.raises(StoreProtocolError):
                create_store("conftest-incomplete")
        finally:
            # Keep the registry clean for the other parameterized tests.
            from repro.core import store as store_mod

            store_mod._BACKENDS.pop("conftest-incomplete", None)

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValueError):
            register_backend("graphtinker", lambda config=None, *,
                             kernel=None, snapshot=None: None)

    def test_unknown_backend_name(self):
        with pytest.raises(ValueError):
            create_store("no-such-backend")


class TestMutatorSemantics:
    def test_insert_delete_dup_selfloop(self, backend):
        store = create_store(backend)
        assert store.insert_edge(1, 2, 0.5) is True
        assert store.insert_edge(1, 2, 0.75) is False  # dup: weight update
        assert store.edge_weight(1, 2) == pytest.approx(0.75)
        assert store.n_edges == 1

        assert store.insert_edge(3, 3, 1.5) is True  # self-loop is ordinary
        assert store.has_edge(3, 3)
        assert store.degree(3) == 1

        assert store.delete_edge(1, 2) is True
        assert store.delete_edge(1, 2) is False      # double delete
        assert store.delete_edge(99, 0) is False     # unknown source
        assert store.delete_edge(1, 99) is False     # unknown destination
        assert store.n_edges == 1                     # the self-loop survives

    def test_negative_ids_rejected_on_insert_miss_on_delete(self, backend):
        store = create_store(backend)
        with pytest.raises(ValueError):
            store.insert_edge(-1, 2)
        with pytest.raises(ValueError):
            store.insert_edge(2, -1)
        with pytest.raises(ValueError):
            store.insert_batch(np.array([[0, 1], [-3, 4]], dtype=np.int64))
        # Reads and deletes treat negative ids as a miss — they must not
        # alias the stores' negative EMPTY/TOMBSTONE cell sentinels, and
        # must not wrap around via Python negative indexing.
        store.insert_edge(3, 5)
        for bad_src, bad_dst in [(-1, 2), (3, -1), (3, -2), (-1, -1)]:
            assert store.delete_edge(bad_src, bad_dst) is False
            assert store.has_edge(bad_src, bad_dst) is False
            assert store.edge_weight(bad_src, bad_dst) is None
        assert store.degree(-1) == 0
        assert store.n_edges == 1
        store.check_invariants()
        # The batch form of the same misses.  The second batch has no
        # negative source, so SGH-less stores keep it on the batch kernel.
        for rows in ([[3, -1], [3, -2], [-1, 2], [-1, -1]], [[3, -1], [3, -2]]):
            assert store.delete_batch(np.array(rows, dtype=np.int64)) == 0
            assert store.n_edges == 1
            store.check_invariants()

    def test_batches_equal_scalar_loop(self, backend):
        edges, weights = _stream(7)
        batched = create_store(backend)
        scalar = create_store(backend)
        got = batched.insert_batch(edges, weights)
        want = sum(scalar.insert_edge(s, d, w) for (s, d), w
                   in zip(edges.tolist(), weights.tolist()))
        assert got == want
        assert store_digest(batched) == store_digest(scalar)

        dels = edges[::2]
        got = batched.delete_batch(dels)
        want = sum(scalar.delete_edge(s, d) for s, d in dels.tolist())
        assert got == want
        assert store_digest(batched) == store_digest(scalar)

    def test_delete_vertex_drops_all_out_edges(self, backend):
        store = create_store(backend)
        for d in (1, 2, 3, 4, 5):
            store.insert_edge(7, d)
        store.insert_edge(2, 7)
        assert store.delete_vertex(7) == 5
        assert store.degree(7) == 0
        assert store.n_edges == 1        # in-edges of 7 are untouched
        assert store.delete_vertex(7) == 0
        assert store.delete_vertex(99_999) == 0


class TestQueriesAgainstReference:
    def test_degree_neighbors_weights_match_dict_reference(self, backend):
        edges, weights = _stream(23)
        store = create_store(backend)
        ref = ReferenceGraph()
        store.insert_batch(edges, weights)
        for (s, d), w in zip(edges.tolist(), weights.tolist()):
            ref.insert_edge(s, d, w)
        dels = edges[1::3]
        store.delete_batch(dels)
        for s, d in dels.tolist():
            ref.delete_edge(s, d)

        assert store.n_edges == ref.n_edges
        for v in range(70):
            assert store.degree(v) == ref.degree(v), f"degree({v})"
            want = ref.neighbors(v)
            try:
                dsts, ws = store.neighbors(v)
            except VertexNotFoundError:
                assert not want, f"neighbors({v}) raised with edges present"
                continue
            assert set(dsts.tolist()) == want, f"neighbors({v})"
            assert dsts.shape[0] == len(set(dsts.tolist())), \
                f"duplicate neighbors for {v}"
            for d, w in zip(dsts.tolist(), ws.tolist()):
                assert w == pytest.approx(ref.edge_weight(v, d))
        assert store_digest(store) == _ref_digest(ref)

    def test_neighbors_many_sanitizes_and_matches_scalar(self, backend):
        from repro.engine.snapshot import gather_active_scalar, sanitize_active

        edges, weights = _stream(3)
        store = create_store(backend)
        twin = create_store(backend)
        store.insert_batch(edges, weights)
        twin.insert_batch(edges, weights)
        # Duplicates, negatives, and out-of-range ids in one frontier.
        active = np.array([5, 5, -1, 2, 63, 2, 1_000], dtype=np.int64)
        src, dst, w = store.neighbors_many(active)
        src2, dst2, w2 = gather_active_scalar(twin, sanitize_active(active))
        assert np.array_equal(src, src2)
        assert np.array_equal(dst, dst2)
        assert np.array_equal(w, w2)
        assert store.stats.as_dict() == twin.stats.as_dict()

    def test_edges_iterator_consistent_with_edge_arrays(self, backend):
        edges, weights = _stream(11, n=120)
        store = create_store(backend)
        store.insert_batch(edges, weights)
        from_iter = {(s, d): w for s, d, w in store.edges()}
        src, dst, w = store.edge_arrays()
        src = store.original_ids(src)
        from_arrays = dict(zip(zip(src.tolist(), dst.tolist()), w.tolist()))
        assert from_iter == from_arrays
        assert len(from_arrays) == store.n_edges


class TestEdgeCases:
    def test_empty_store(self, backend):
        store = create_store(backend)
        assert store.n_edges == 0
        assert store.degree(0) == 0
        assert not store.has_edge(0, 1)
        assert store.edge_weight(0, 1) is None
        src, dst, w = store.edge_arrays()
        assert src.size == dst.size == w.size == 0
        src, dst, w = store.neighbors_many(np.array([0, 5], dtype=np.int64))
        assert src.size == 0
        assert list(store.edges()) == []
        store.check_invariants()
        assert store.fsck(level="full").ok

    def test_empty_digest_is_backend_independent(self):
        digests = {name: store_digest(create_store(name))["sha256"]
                   for name in BACKENDS}
        assert len(set(digests.values())) == 1, digests

    def test_max_vertex_growth(self, backend):
        store = create_store(backend)
        big = 4_099  # far beyond every backend's initial allocation
        assert store.insert_edge(big, 1) is True
        assert store.insert_edge(1, big) is True
        assert store.degree(big) == 1
        assert store.n_vertices >= 1
        dsts, _ = store.neighbors(big)
        assert dsts.tolist() == [1]
        assert store.delete_edge(big, 1) is True
        assert store.degree(big) == 0
        store.check_invariants()


class TestSnapshotRoundTrip:
    def test_attach_detach_preserves_content_and_results(self, backend):
        edges, weights = _stream(42)
        plain = create_store(backend)
        snapped = create_store(backend)
        plain.insert_batch(edges, weights)
        snapped.insert_batch(edges, weights)

        assert snapped.analytics_snapshot is None
        snap = snapped.enable_snapshot()
        assert snapped.enable_snapshot() is snap  # idempotent attach
        assert snapped.analytics_snapshot is snap

        active = np.arange(0, 64, dtype=np.int64)
        before_p = plain.stats.snapshot()
        before_s = snapped.stats.snapshot()
        triple_p = plain.neighbors_many(active)
        triple_s = snapped.neighbors_many(active)
        for a, b in zip(triple_p, triple_s):
            assert np.array_equal(a, b)
        # The charge mirror: identical modeled deltas, snapshot on or off.
        assert (plain.stats.delta(before_p).as_dict()
                == snapped.stats.delta(before_s).as_dict())
        assert store_digest(plain) == store_digest(snapped)

        snapped.disable_snapshot()
        assert snapped.analytics_snapshot is None
        # Mutations after detach must not notify a dead view.
        snapped.insert_edge(1, 60)
        snapped.delete_edge(1, 60)
        assert store_digest(plain) == store_digest(snapped)

    def test_snapshot_config_flag_matches_manual_attach(self, backend):
        store = create_store(backend, snapshot=True)
        assert store.analytics_snapshot is not None
        edges, weights = _stream(9, n=100)
        store.insert_batch(edges, weights)
        twin = create_store(backend)
        twin.insert_batch(edges, weights)
        assert store_digest(store) == store_digest(twin)


class TestPersistenceRoundTrip:
    def test_checkpoint_restore_identity(self, backend, tmp_path):
        from repro.workloads.persistence import restore_store, save_snapshot

        edges, weights = _stream(5)
        store = create_store(backend)
        store.insert_batch(edges, weights)
        store.delete_batch(edges[::4])
        path = tmp_path / "conformance.npz"
        n = save_snapshot(store, path)
        assert n == store.n_edges

        restored = restore_store(path)
        # v2 snapshots embed the writer's config: the restored store is
        # the same backend class with the same configuration.
        assert type(restored) is type(store)
        assert restored.config == store.config
        assert store_digest(restored) == store_digest(store)
        restored.check_invariants()

    def test_fsck_clean_and_repair_noop(self, backend):
        edges, weights = _stream(31)
        store = create_store(backend)
        store.insert_batch(edges, weights)
        report = store.fsck(level="full")
        assert report.ok, report.violations
        digest = store_digest(store)
        repair = store.fsck(level="full", repair=True)
        assert repair.ok
        assert store_digest(store) == digest  # repairing a clean store is a no-op
