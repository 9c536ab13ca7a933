"""Unit tests for the EdgeblockArray (Tree-Based Hashing, regions, compaction)."""

import numpy as np
import pytest

from repro.core.config import GTConfig
from repro.core.edgeblock_array import MAIN, OVERFLOW, EdgeblockArray


def make(compact=False, **kw):
    defaults = dict(pagewidth=16, subblock=4, workblock=2, initial_vertices=2)
    defaults.update(kw)
    return EdgeblockArray(GTConfig(compact_on_delete=compact, **defaults))


class TestVertexRows:
    def test_rows_allocated_densely(self):
        eba = make()
        eba.ensure_vertex(0)
        eba.ensure_vertex(3)
        assert eba.n_vertices == 4
        assert eba.main.n_used == 4

    def test_degree_of_unallocated_vertex(self):
        eba = make()
        assert eba.degree(7) == 0


class TestInsertFind:
    def test_insert_then_find(self):
        eba = make()
        is_new, loc = eba.insert(0, 42, 2.5)
        assert is_new
        assert loc.region == MAIN
        found = eba.find(0, 42)
        assert found == loc
        assert eba.get_weight(found) == 2.5

    def test_duplicate_updates_in_place(self):
        eba = make()
        eba.insert(0, 42, 1.0)
        is_new, loc = eba.insert(0, 42, 7.0)
        assert not is_new
        assert eba.get_weight(loc) == 7.0
        assert eba.degree(0) == 1

    def test_find_absent(self):
        eba = make()
        eba.insert(0, 1)
        assert eba.find(0, 2) is None
        assert eba.find(5, 1) is None  # vertex never seen

    def test_branch_out_to_overflow(self):
        """Inserting many edges for one vertex must spill to overflow."""
        eba = make()
        n = 200
        for d in range(n):
            eba.insert(0, d)
        assert eba.degree(0) == n
        assert eba.overflow.n_used > 0
        assert eba.stats.branch_allocations == eba.overflow.n_used
        for d in range(n):
            assert eba.find(0, d) is not None

    def test_deep_descent_multiple_generations(self):
        eba = make()
        # 16-cell blocks, 4 subblocks: 2000 edges needs several generations
        for d in range(2000):
            eba.insert(0, d)
        assert eba.degree(0) == 2000
        dsts, _ = eba.neighbors(0)
        assert sorted(dsts.tolist()) == list(range(2000))

    def test_deep_tree_is_total(self):
        """One Subblock per edgeblock: every 4 edges of the source open
        one more generation, a chain 50 deep, and each insert's descent
        ends at a fresh child."""
        eba = EdgeblockArray(GTConfig(pagewidth=4, subblock=4, workblock=2,
                                      initial_vertices=1))
        for d in range(200):
            assert eba.insert(0, d)[0]
        assert eba.degree(0) == 200
        assert eba.stats.branch_allocations == eba.overflow.n_used == 49
        assert sorted(eba.neighbors(0)[0].tolist()) == list(range(200))
        assert all(eba.find(0, d) is not None for d in range(200))

    def test_duplicate_found_at_deep_generation(self):
        """Regression: a duplicate whose copy lives in a child edgeblock
        must be updated there, never re-inserted at a shallower level."""
        eba = make()
        for d in range(500):
            eba.insert(0, d)
        # every one of these is a duplicate, possibly deep in the tree
        for d in range(500):
            is_new, _ = eba.insert(0, d, weight=float(d) + 0.5)
            assert not is_new
        assert eba.degree(0) == 500
        for d in range(0, 500, 37):
            loc = eba.find(0, d)
            assert eba.get_weight(loc) == d + 0.5


class TestDelete:
    def test_delete_only_tombstones(self):
        eba = make()
        eba.insert(0, 5, cal=3 * 64 + 1)
        cal_ptr = eba.delete(0, 5)
        assert cal_ptr == 3 * 64 + 1
        assert eba.find(0, 5) is None
        assert eba.degree(0) == 0
        assert eba.stats.tombstones_set == 1

    def test_delete_absent(self):
        eba = make()
        eba.insert(0, 5)
        assert eba.delete(0, 6) is None
        assert eba.delete(9, 5) is None

    def test_delete_then_reinsert(self):
        eba = make()
        eba.insert(0, 5, 1.0)
        eba.delete(0, 5)
        is_new, _ = eba.insert(0, 5, 2.0)
        assert is_new
        assert eba.degree(0) == 1
        assert eba.get_weight(eba.find(0, 5)) == 2.0

    def test_delete_deep_edge(self):
        eba = make()
        for d in range(300):
            eba.insert(0, d)
        for d in range(0, 300, 3):
            assert eba.delete(0, d) is not None
        assert eba.degree(0) == 200
        for d in range(300):
            present = eba.find(0, d) is not None
            assert present == (d % 3 != 0)


class TestDeleteAndCompact:
    def test_compaction_pulls_up_and_frees(self):
        eba = make(compact=True)
        for d in range(400):
            eba.insert(0, d)
        blocks_before = eba.overflow.n_used
        for d in range(400):
            assert eba.delete(0, d) is not None
        assert eba.degree(0) == 0
        assert eba.overflow.n_used == 0
        assert blocks_before > 0
        assert eba.stats.compaction_moves > 0

    def test_compaction_preserves_remaining_edges(self):
        eba = make(compact=True)
        rng = np.random.default_rng(5)
        dsts = rng.permutation(600)
        for d in dsts[:500]:
            eba.insert(0, int(d))
        expected = set(int(x) for x in dsts[:500])
        for d in dsts[:250]:
            eba.delete(0, int(d))
            expected.discard(int(d))
        got, _ = eba.neighbors(0)
        assert set(got.tolist()) == expected
        for d in expected:
            assert eba.find(0, d) is not None

    def test_compaction_moves_cal_pointer_with_edge(self):
        eba = make(compact=True)
        for d in range(100):
            eba.insert(0, d, cal=d * 64 + d % 7)
        # delete half; survivors must still report their own CAL pointers
        for d in range(0, 100, 2):
            eba.delete(0, d)
        for d in range(1, 100, 2):
            loc = eba.find(0, d)
            assert eba.get_cal_pointer(loc) == d * 64 + d % 7


class TestRetrieval:
    def test_neighbors_empty_vertex(self):
        eba = make()
        dst, w = eba.neighbors(0)
        assert dst.size == 0 and w.size == 0

    def test_iter_all_edges(self):
        eba = make()
        for s in range(5):
            for d in range(s + 1):
                eba.insert(s, d, weight=s * 10.0 + d)
        seen = {}
        for s, dsts, ws in eba.iter_all_edges():
            for d, w in zip(dsts.tolist(), ws.tolist()):
                seen[(s, d)] = w
        assert len(seen) == sum(range(1, 6))
        assert seen[(3, 2)] == 32.0

    def test_neighbors_counts_random_reads(self):
        eba = make()
        for d in range(200):
            eba.insert(0, d)
        assert eba.overflow.n_used > 0
        before = eba.stats.snapshot()
        eba.neighbors(0)
        delta = eba.stats.delta(before)
        n_blocks = 1 + eba.overflow.n_used  # single-vertex tree
        assert delta.random_block_reads == n_blocks
        assert delta.cells_scanned == n_blocks * eba.config.pagewidth

    @pytest.mark.parametrize("compact", [False, True])
    def test_neighbors_rows_is_neighbors_per_row(self, compact):
        eba = make(compact=compact)
        rng = np.random.default_rng(3)
        for s, n in enumerate([200, 0, 7, 90, 1, 0, 45]):
            eba.ensure_vertex(s)
            for d in rng.permutation(300)[:n].tolist():
                eba.insert(s, d, weight=s + d / 1000)
        for d in range(0, 300, 2):
            eba.delete(0, d)
            eba.delete(3, d)
        before = eba.stats.as_dict()
        for rows in (rng.permutation(7), [3, 0, 3, 3, 1, 0], [5], []):
            counts, n_blocks, dst, weight = eba.neighbors_rows(rows)
            assert eba.stats.as_dict() == before  # the caller charges
            want, visited = [], []
            for r in rows:
                mark = eba.stats.random_block_reads
                want.append(eba.neighbors(r))
                visited.append(eba.stats.random_block_reads - mark)
            assert counts.tolist() == [d.shape[0] for d, _ in want]
            assert dst.tolist() == [x for d, _ in want for x in d.tolist()]
            assert weight.tolist() == [x for _, w in want for x in w.tolist()]
            assert n_blocks.tolist() == visited
            before = eba.stats.as_dict()

    @pytest.mark.parametrize("name", ["default", "compact", "nosgh", "norhh", "narrow"])
    def test_neighbors_rows_is_neighbors_per_row_on_golden_configs(self, name):
        """The read-path golden stores: a request longer than one gather
        slab (every row twice, shuffled), and a slab of childless rows
        only — one gather, no pre-order scatter."""
        from repro.core.edgeblock_array import GATHER_SLAB_ROWS
        from tests.test_read_path_golden import build

        store, _ = build(name)
        eba = store.eba
        rows = np.random.default_rng(5).permutation(np.tile(np.arange(eba.n_vertices), 2))
        assert rows.shape[0] > GATHER_SLAB_ROWS
        childless = np.flatnonzero((eba._main_children._data[:eba.n_vertices] < 0).all(axis=1))
        assert 0 < childless.shape[0] < eba.n_vertices
        for request in (rows, childless[:GATHER_SLAB_ROWS]):
            before = eba.stats.as_dict()
            counts, n_blocks, dst, weight = eba.neighbors_rows(request)
            assert eba.stats.as_dict() == before  # the caller charges
            want, visited = [], []
            for r in request.tolist():
                mark = eba.stats.random_block_reads
                want.append(eba.neighbors(r))
                visited.append(eba.stats.random_block_reads - mark)
            assert counts.tolist() == [d.shape[0] for d, _ in want]
            assert n_blocks.tolist() == visited
            assert np.array_equal(dst, np.concatenate([d for d, _ in want]))
            assert np.array_equal(weight, np.concatenate([w for _, w in want]))
            assert (counts.dtype, n_blocks.dtype, dst.dtype, weight.dtype) == (
                np.int64, np.int64, np.int64, np.float64)

    def test_neighbors_rows_rejects_unallocated_rows(self):
        eba = make()
        eba.insert(1, 5)
        for rows in ([0, 2], [-1]):
            with pytest.raises(IndexError):
                eba.neighbors_rows(rows)


class TestCalPointerPlumbing:
    def test_set_get_cal_pointer(self):
        eba = make()
        _, loc = eba.insert(0, 9)
        eba.set_cal_pointer(loc, 4 * 64 + 6)
        assert eba.get_cal_pointer(loc) == 4 * 64 + 6

    def test_displacement_preserves_cal_pointers(self):
        """RHH swaps and branch-outs must carry CAL pointers with edges."""
        eba = make()
        for d in range(300):
            _, loc = eba.insert(0, d)
            eba.set_cal_pointer(loc, d * 64 + d % 5)
        for d in range(300):
            loc = eba.find(0, d)
            assert eba.get_cal_pointer(loc) == d * 64 + d % 5, d


class TestTreeHashMemo:
    """The per-store memo of the tree hashes changes no answer, cell or
    charge, whether it keeps everything or clears on every miss."""

    @staticmethod
    def run_mix(compact: bool):
        from repro.core.graphtinker import GraphTinker
        from repro.core.store import store_digest

        gt = GraphTinker(GTConfig(pagewidth=8, subblock=2, workblock=1,
                                  compact_on_delete=compact))
        rng = np.random.default_rng(11)
        answers, longest = [], 0
        for _ in range(3000):
            src, dst = int(rng.integers(0, 6)), int(rng.integers(0, 400))
            op = rng.random()
            if op < 0.4:
                answers.append(gt.insert_edge(src, dst, float(rng.random())))
            elif op < 0.55:
                answers.append(gt.delete_edge(src, dst))
            elif op < 0.75:
                answers.append(gt.has_edge(src, dst))
            elif op < 0.95:
                answers.append(gt.edge_weight(src, dst))
            else:  # a small batch: the vector kernel's rounds, then its residue
                edges = np.column_stack([rng.integers(0, 6, 40), rng.integers(0, 400, 40)])
                answers.append(gt.insert_batch(edges, rng.random(40), kernel="vector"))
            longest = max(longest, len(gt.eba._memo))
        return {"digest": store_digest(gt), "degrees": gt.eba.degrees_view().tolist(),
                "cal": [a.tolist() for a in gt.cal.stream_edges()], "answers": answers,
                "stats": gt.stats.as_dict()}, gt.eba._memo, longest

    @pytest.mark.parametrize("compact", [False, True], ids=["rhh", "compact"])
    def test_cap_changes_nothing(self, compact, monkeypatch):
        from repro.core import edgeblock_array

        full, memo, _ = self.run_mix(compact)
        gens = {key % 64 for key in memo}
        assert max(gens) >= 3 and len(memo) > 1
        monkeypatch.setattr(edgeblock_array, "TREE_HASH_MEMO_ENTRIES", 1)
        cleared, memo, longest = self.run_mix(compact)
        assert cleared == full
        assert len(memo) <= 1 and longest <= 1
