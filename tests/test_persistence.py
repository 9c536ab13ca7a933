"""Tests for snapshot save/restore."""

import dataclasses
import json

import numpy as np
import pytest

from repro import GraphTinker, GTConfig, StingerConfig
from repro.errors import WorkloadError
from repro.stinger import Stinger
from repro.workloads import rmat_edges
from repro.workloads.persistence import (
    read_snapshot,
    restore_store,
    save_snapshot,
)


@pytest.fixture
def populated(rng):
    gt = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
    edges = rmat_edges(9, 3000, seed=4)
    edges = edges[edges[:, 0] != edges[:, 1]]
    gt.insert_batch(edges, rng.uniform(0.5, 2.0, edges.shape[0]))
    gt.delete_batch(edges[::5])
    return gt


class TestRoundtrip:
    def test_restore_preserves_graph(self, populated, tmp_path):
        path = tmp_path / "snap.npz"
        n = save_snapshot(populated, path)
        assert n == populated.n_edges
        restored = restore_store(path)
        assert restored.n_edges == populated.n_edges
        assert sorted(restored.edges()) == sorted(populated.edges())
        restored.check_invariants()

    def test_restore_into_different_config(self, populated, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(populated, path)
        restored = restore_store(
            path, GTConfig(pagewidth=32, compact_on_delete=True)
        )
        assert sorted(restored.edges()) == sorted(populated.edges())
        restored.check_invariants()

    def test_stinger_snapshot_into_graphtinker(self, tmp_path, rng):
        st = Stinger(StingerConfig(edgeblock_size=4))
        edges = np.column_stack([rng.integers(0, 30, 500), rng.integers(0, 90, 500)])
        st.insert_batch(edges)
        path = tmp_path / "snap.npz"
        save_snapshot(st, path)
        gt = restore_store(path, GTConfig())
        assert sorted(gt.edges()) == sorted(st.edges())

    def test_empty_store(self, tmp_path):
        gt = GraphTinker(GTConfig(pagewidth=16, subblock=4, workblock=2))
        path = tmp_path / "snap.npz"
        assert save_snapshot(gt, path) == 0
        snap = read_snapshot(path)
        edges, weights = snap.edges, snap.weights
        assert edges.shape == (0, 2)
        assert weights.shape == (0,)
        restored = restore_store(path)
        assert restored.n_edges == 0
        restored.check_invariants()


class TestFormatV2:
    def test_writes_v2_with_writer_config(self, populated, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(populated, path)
        snap = read_snapshot(path)
        assert snap.version == 2
        assert snap.writer_config == populated.config
        assert snap.repro_version
        assert snap.meta is None

    def test_meta_roundtrip(self, populated, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(populated, path, meta={"last_seq": 17, "note": "x"})
        snap = read_snapshot(path)
        assert snap.meta == {"last_seq": 17, "note": "x"}

    def test_restore_with_writer_config(self, populated, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(populated, path)
        restored = restore_store(path)
        assert restored.config == populated.config
        # An explicit config wins: receiving-store semantics.
        assert restore_store(path, GTConfig()).config == GTConfig()

    def test_stinger_config_embedded(self, tmp_path, rng):
        st = Stinger(StingerConfig(edgeblock_size=4))
        st.insert_batch(np.array([[1, 2], [3, 4]]))
        path = tmp_path / "snap.npz"
        save_snapshot(st, path)
        snap = read_snapshot(path)
        assert snap.writer_config == StingerConfig(edgeblock_size=4)

    def test_reads_v1_snapshots(self, tmp_path):
        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path,
            format=np.array("repro-graph-snapshot-v1"),
            src=np.array([1, 2], dtype=np.int64),
            dst=np.array([3, 4], dtype=np.int64),
            weight=np.array([1.0, 2.5]),
        )
        snap = read_snapshot(path)
        assert snap.version == 1
        assert snap.writer_config is None and snap.repro_version is None
        gt = restore_store(path)
        assert sorted(gt.edges()) == [(1, 3, 1.0), (2, 4, 2.5)]

    def test_unknown_format_raises_actionably(self, tmp_path):
        path = tmp_path / "v9.npz"
        np.savez(path, format=np.array("repro-graph-snapshot-v9"),
                 src=np.empty(0, np.int64), dst=np.empty(0, np.int64),
                 weight=np.empty(0))
        with pytest.raises(WorkloadError, match="unknown snapshot format"):
            read_snapshot(path)


class TestValidation:
    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(WorkloadError):
            read_snapshot(path)

    def test_load_returns_edges_and_weights(self, populated, tmp_path):
        path = tmp_path / "snap.npz"
        save_snapshot(populated, path)
        snap = read_snapshot(path)
        edges, weights = snap.edges, snap.weights
        assert edges.shape[0] == weights.shape[0] == populated.n_edges
        assert edges.shape[1] == 2

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format=np.array("repro-graph-snapshot-v1"),
                 src=np.array([1, 2], np.int64), dst=np.array([3, 4], np.int64),
                 weight=np.array([1.0]))
        with pytest.raises(WorkloadError, match="length mismatch"):
            read_snapshot(path)


class TestKernelFieldCheckpoints:
    """``GTConfig`` once had a ``kernel`` field, so every v2 checkpoint
    written then carries ``"kernel": "vector"`` among the embedded
    config's fields.  Such a file, written here by hand, still opens."""

    CONFIG = GTConfig(pagewidth=16, subblock=4, workblock=2)
    EDGES = [(1, 3, 1.0), (2, 4, 2.5), (2, 5, 0.5)]
    RETIRED = {"kernel": "vector"}

    def write(self, path):
        fields = {**dataclasses.asdict(self.CONFIG), **self.RETIRED}
        src, dst, weight = (np.array(col) for col in zip(*self.EDGES))
        np.savez_compressed(
            path,
            format=np.array("repro-graph-snapshot-v2"),
            repro_version=np.array("0.1.0"),
            config_json=np.array(json.dumps({"class": "GTConfig",
                                             "fields": fields})),
            meta_json=np.array(json.dumps({"last_seq": 3, "cum_edges": 3})),
            src=src.astype(np.int64),
            dst=dst.astype(np.int64),
            weight=weight.astype(np.float64),
        )

    def test_restore_store(self, tmp_path):
        path = tmp_path / "snap.npz"
        self.write(path)
        assert read_snapshot(path).writer_config == self.CONFIG
        store = restore_store(path)
        assert type(store) is GraphTinker and store.config == self.CONFIG
        assert sorted(store.edges()) == self.EDGES
        store.check_invariants()

    def test_recover(self, tmp_path):
        from repro.service.checkpoint import checkpoint_path
        from repro.service.recovery import recover

        self.write(checkpoint_path(tmp_path, 3))
        result = recover(tmp_path, verify="full")
        assert type(result.store) is GraphTinker
        assert result.store.config == self.CONFIG
        assert sorted(result.store.edges()) == self.EDGES
        assert result.last_seq == 3 and result.fsck.ok


class TestMaxGenerationsFieldCheckpoints(TestKernelFieldCheckpoints):
    """``GTConfig`` capped the tree descent with ``max_generations``
    until insert became total; a checkpoint that embeds it still opens."""

    RETIRED = {"max_generations": 4096}
