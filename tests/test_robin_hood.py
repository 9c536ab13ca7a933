"""Unit + property tests for the per-Subblock Robin Hood core.

The core works on four plain sequences (one per edge-cell field) and
reports its charges instead of applying them; ``insert``/``find`` below
are the thinnest possible driver so the cases can still assert on
``AccessStats``.  Deletion is not a core operation (it is a FIND plus a
tombstone store): cases that need a tombstone write one directly, and the
delete bookkeeping itself is exercised through ``EdgeblockArray.delete``.
"""

from collections import namedtuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import robin_hood as rhh
from repro.core.config import GTConfig
from repro.core.edgeblock_array import EdgeblockArray
from repro.core.pool import TOMBSTONE, blank_edge_cells
from repro.core.stats import AccessStats

SB = 8  # subblock size used throughout
WB = 4  # workblock size

Cells = namedtuple("Cells", rhh.CELL_FIELDS)
Result = namedtuple(
    "Result",
    "status slot lengths wrote swaps overflow_dst overflow_weight "
    "overflow_cal",
)


def fresh():
    """A blank Subblock as the four field lists, plus a stats sink."""
    blank = blank_edge_cells(SB)
    return Cells(*(blank[name].tolist() for name in rhh.CELL_FIELDS)), AccessStats()


FETCHES = rhh.subblock_tables(SB, WB)[2]


def insert(cells, stats, dst, weight, bucket, rhh_on=True, cal=-1):
    res = Result(*rhh.rhh_insert(*cells, dst, weight, bucket, rhh_on, cal))
    rhh._charge_scan(stats, FETCHES, bucket, res.lengths)
    stats.rhh_swaps += res.swaps
    stats.workblock_writebacks += res.wrote
    return res


def find(cells, stats, dst, bucket, rhh_on=True):
    slot, scanned = rhh.rhh_find(cells.dst.__getitem__, 0, SB, dst, bucket, rhh_on)
    rhh._charge_scan(stats, FETCHES, bucket, (scanned,))
    return slot


def tombstone(cells, slot):
    cells.dst[slot] = int(TOMBSTONE)
    cells.cal[slot] = -1


def live(cells):
    return {d: w for d, w in zip(cells.dst, cells.weight) if d >= 0}


class TestInsertBasics:
    def test_insert_into_empty(self):
        cells, stats = fresh()
        res = insert(cells, stats, 5, 1.5, 2)
        assert res.status == rhh.INSERTED
        assert cells.dst[res.slot] == 5
        assert cells.weight[res.slot] == 1.5
        assert cells.probe[res.slot] == 0

    def test_duplicate_updates_weight(self):
        cells, stats = fresh()
        insert(cells, stats, 5, 1.0, 2)
        res = insert(cells, stats, 5, 9.0, 2)
        assert res.status == rhh.UPDATED
        assert cells.weight[res.slot] == 9.0
        assert len(live(cells)) == 1

    def test_collision_probes_forward(self):
        cells, stats = fresh()
        insert(cells, stats, 1, 1.0, 3)
        res = insert(cells, stats, 2, 1.0, 3)
        assert res.status == rhh.INSERTED
        assert res.slot == 4
        assert cells.probe[4] == 1

    def test_wraps_within_subblock(self):
        cells, stats = fresh()
        insert(cells, stats, 1, 1.0, SB - 1)
        res = insert(cells, stats, 2, 1.0, SB - 1)
        assert res.status == rhh.INSERTED
        assert res.slot == 0  # wrapped

    def test_congestion_when_full(self):
        cells, stats = fresh()
        for d in range(SB):
            assert insert(cells, stats, d, 1.0, d).status == rhh.INSERTED
        res = insert(cells, stats, 99, 1.0, 0)
        assert res.status == rhh.CONGESTED
        # The edge population is conserved: the cells plus the floating
        # overflow edge hold exactly the original residents plus 99.
        assert set(live(cells)) | {res.overflow_dst} == set(range(SB)) | {99}
        assert len(live(cells)) == SB


class TestRobinHoodDisplacement:
    def test_poorer_edge_displaces_richer(self):
        """An edge far from home evicts an edge at its initial bucket."""
        cells, stats = fresh()
        # resident at slot 2 with probe 0
        insert(cells, stats, 10, 1.0, 2)
        # new edge hashes to 0, slots 0..1 occupied => arrives at 2 with probe 2
        insert(cells, stats, 20, 1.0, 0)
        insert(cells, stats, 30, 1.0, 0)  # probes to 1
        res = insert(cells, stats, 40, 1.0, 0)
        assert res.status == rhh.INSERTED
        # 40 had probe 2 at slot 2 vs resident 10's probe 0 -> swap
        assert cells.dst[2] == 40
        assert cells.dst[3] == 10  # displaced resident moved on
        assert stats.rhh_swaps >= 1

    def test_swap_preserves_all_edges(self):
        cells, stats = fresh()
        inserted = []
        rng = np.random.default_rng(3)
        for d in rng.permutation(100)[:SB]:
            r = insert(cells, stats, int(d), float(d), int(d) % SB)
            assert r.status == rhh.INSERTED
            inserted.append(int(d))
        assert sorted(live(cells)) == sorted(inserted)

    def test_congested_overflow_carries_cal_pointer(self):
        cells, stats = fresh()
        for d in range(SB):
            insert(cells, stats, d, 1.0, 0, cal=d)
        res = insert(cells, stats, 99, 2.0, 0, cal=77 * 64 + 8)
        assert res.status == rhh.CONGESTED
        # whoever floats out must carry its own CAL pointer
        if res.overflow_dst == 99:
            assert res.overflow_cal == 77 * 64 + 8
        else:
            assert res.overflow_cal == res.overflow_dst  # residents had cal=d


class TestFind:
    def test_find_present(self):
        cells, stats = fresh()
        insert(cells, stats, 7, 1.0, 4)
        assert find(cells, stats, 7, 4) >= 0

    def test_find_absent_stops_at_empty(self):
        cells, stats = fresh()
        before = stats.cells_scanned
        assert find(cells, stats, 7, 0) == -1
        assert stats.cells_scanned - before == 1  # stopped at first EMPTY

    def test_find_scans_past_tombstone(self):
        cells, stats = fresh()
        insert(cells, stats, 1, 1.0, 0)
        insert(cells, stats, 2, 1.0, 0)
        tombstone(cells, 0)
        assert find(cells, stats, 2, 0) == 1

    def test_find_non_rhh_mode_scans_whole_subblock(self):
        """Compact mode may relocate edges anywhere in the Subblock."""
        cells, stats = fresh()
        cells.dst[6] = 42  # placed by compaction, not by probing
        assert find(cells, stats, 42, 0, rhh_on=False) == 6


class TestDelete:
    """Tombstoning, driven through ``EdgeblockArray.delete``."""

    @staticmethod
    def store():
        return EdgeblockArray(GTConfig(pagewidth=16, subblock=SB, workblock=WB))

    def test_delete_sets_tombstone(self):
        eba = self.store()
        _, loc = eba.insert(0, 5)
        assert eba.delete(0, 5) is not None
        assert eba.main.fields["dst"][loc.block, loc.slot] == TOMBSTONE
        assert eba.stats.tombstones_set == 1

    def test_delete_absent(self):
        eba = self.store()
        eba.insert(0, 5)
        assert eba.delete(0, 6) is None
        assert eba.stats.tombstones_set == 0

    def test_tombstone_slot_reused_by_insert(self):
        cells, stats = fresh()
        slot = insert(cells, stats, 5, 1.0, 1).slot
        tombstone(cells, slot)
        res = insert(cells, stats, 6, 1.0, 1)
        assert res.status == rhh.INSERTED
        assert res.slot == 1

    def test_delete_clears_cal_pointer(self):
        eba = self.store()
        _, loc = eba.insert(0, 5, cal=3 * 64 + 4)
        assert eba.delete(0, 5) == 3 * 64 + 4
        assert eba.get_cal_pointer(loc) == -1


class TestAccounting:
    def test_workblock_fetches_counted_once_per_workblock(self):
        cells, stats = fresh()
        insert(cells, stats, 0, 1.0, 0)
        assert stats.workblock_fetches == 1  # slot 0 => one workblock
        stats.reset()
        # probe spanning both workblocks
        for d in range(1, SB):
            insert(cells, stats, d, 1.0, 0)
        assert stats.workblock_fetches >= 2

    def test_writeback_counted_on_mutation_only(self):
        cells, stats = fresh()
        find(cells, stats, 1, 0)
        assert stats.workblock_writebacks == 0
        insert(cells, stats, 1, 1.0, 0)
        assert stats.workblock_writebacks == 1

    def test_core_never_charges(self):
        """The core reports charges; applying them is the driver's job."""
        cells, _ = fresh()
        res = Result(*rhh.rhh_insert(*cells, 3, 1.0, 6, True))
        assert (res.status, res.lengths, res.wrote, res.swaps) == (rhh.INSERTED, (1, 1), True, 0)
        assert rhh.rhh_find(cells.dst.__getitem__, 0, SB, 3, 6, True) == (6, 1)
        assert rhh.rhh_find(cells.dst.__getitem__, 0, SB, 4, 6, True) == (-1, 2)


def test_circular_workblock_count_matches_bruteforce():
    """The Workblock-fetch table equals set-based dedup over the cells a
    scan covers, for every legal geometry up to 64 cells, every bucket and
    every scan length; its nested-list copy equals the array."""
    geometries = [(size, wb) for size in (1, 2, 4, 8, 16, 32, 64)
                  for wb in (1, 2, 4, 8, 16, 32, 64) if wb <= size]
    for size, workblock in geometries:
        _, fetches, fetch_rows = rhh.subblock_tables(size, workblock)
        assert fetches.shape == (size, size + 1)
        assert fetches.tolist() == fetch_rows
        for start in range(size):
            for length in range(size + 1):
                slots = [(start + i) % size for i in range(length)]
                expected = len({s // workblock for s in slots})
                assert fetches[start, length] == expected, (size, workblock, start, length)


def test_roll_is_the_order_rhh_find_visits():
    """``roll[b]`` lists the cells a probe from bucket ``b`` inspects, in
    order: on a Subblock of distinct values, searching for the value in
    ``roll[b][d]`` stops there after ``d + 1`` cells."""
    for size in (1, 2, 4, 8, 16):
        roll = rhh.subblock_tables(size, 1)[0]
        assert (roll == roll.T).all()  # the kernels read bucket b's order as column b
        cells = [100 + 7 * c for c in range(size)]
        for b in range(size):
            for d, cell in enumerate(roll[b].tolist()):
                assert rhh.rhh_find(cells.__getitem__, 0, size, cells[cell], b, False) == (cell, d + 1)
                assert rhh.rhh_find(cells.__getitem__, 0, size, cells[cell], b, True) == (cell, d + 1)


@settings(max_examples=200)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=SB - 1),
        ),
        max_size=40,
    ),
    rhh_mode=st.booleans(),
)
def test_subblock_model_equivalence(ops, rhh_mode):
    """Property: a Subblock behaves like a capacity-SB set of (dst, w).

    Initial buckets are arbitrary per-key but fixed within the sequence
    (hash determinism), modelled by bucket = dst % SB.
    """
    cells, stats = fresh()
    model: dict[int, float] = {}
    for op, dst, _ in ops:
        bucket = dst % SB
        if op == "insert":
            res = insert(cells, stats, dst, float(dst), bucket, rhh_mode)
            if res.status in (rhh.INSERTED, rhh.UPDATED):
                model[dst] = float(dst)
            else:
                assert len(model) == SB  # congestion only when full
                if res.slot >= 0:
                    # Argument placed via a swap; a resident floats out
                    # carrying its own weight (the caller re-inserts it
                    # in a child edgeblock).
                    assert res.overflow_dst in model
                    assert res.overflow_weight == model.pop(res.overflow_dst)
                    model[dst] = float(dst)
                else:
                    assert res.overflow_dst == dst
        else:
            slot = find(cells, stats, dst, bucket, rhh_mode)
            assert (slot >= 0) == (dst in model)
            if slot >= 0:
                tombstone(cells, slot)
            model.pop(dst, None)
        # full-content check
        assert live(cells) == model


@settings(max_examples=200)
@given(
    fill=st.lists(st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
                  max_size=12),
    dst=st.integers(min_value=32, max_value=40),
    bucket=st.integers(min_value=0, max_value=SB - 1),
    rhh_mode=st.booleans(),
)
def test_handed_in_find_scan_matches_the_core_scan(fill, dst, bucket, rhh_mode):
    """``rhh_insert`` given the length of a missed ``rhh_find`` scan (what
    ``EdgeblockArray.insert`` hands it on the levels its FIND read) returns
    the same outcome and leaves the same cells as when it scans itself."""
    cells, _ = fresh()
    for d, dead in fill:
        slot = rhh.rhh_insert(*cells, d, float(d), d % SB, rhh_mode)[1]
        if dead and slot >= 0:
            tombstone(cells, slot)
    twin = Cells(*(list(field) for field in cells))
    own = rhh.rhh_insert(*cells, dst, 0.5, bucket, rhh_mode, 7)
    slot, scanned = rhh.rhh_find(twin.dst.__getitem__, 0, SB, dst, bucket, rhh_mode)
    assert slot == -1
    assert rhh.rhh_insert(*twin, dst, 0.5, bucket, rhh_mode, 7, scanned) == own
    assert twin == cells
