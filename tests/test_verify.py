"""Tests for the store integrity checker (fsck) and self-healing repair.

Two properties anchor the suite:

* **Zero false positives** — a store built purely through the public API
  must audit clean, whatever the geometry, feature flags, seed, or churn
  history.  A checker that cries wolf is worse than no checker.
* **Detect and heal** — every corruption class the fault injector can
  produce must be flagged, and ``repair`` must bring the store back to a
  clean audit with the reference edge set intact (the CAL's redundant
  copies make lossless healing possible).
"""

import itertools
import re

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import GTConfig
from repro.core.graphtinker import GraphTinker
from repro.core.store import store_digest
from repro.core.verify import (
    RepairReport,
    VerifyReport,
    repair_graph,
    verify_graph,
)
from repro.service.faults import CorruptionError, StoreCorruptor
from repro.workloads import rmat_edges

CONFIGS = {
    "default": GTConfig(pagewidth=16, subblock=4, workblock=2,
                        initial_vertices=2, cal_group_width=8,
                        cal_block_size=8),
    "no_cal": GTConfig(pagewidth=16, subblock=4, workblock=2,
                       initial_vertices=2, enable_cal=False),
    "no_sgh": GTConfig(pagewidth=16, subblock=4, workblock=2,
                       initial_vertices=2, enable_sgh=False,
                       cal_group_width=8, cal_block_size=8),
    "no_rhh": GTConfig(pagewidth=16, subblock=4, workblock=2,
                       initial_vertices=2, enable_rhh=False,
                       cal_group_width=8, cal_block_size=8),
    "compact": GTConfig(pagewidth=16, subblock=4, workblock=2,
                        initial_vertices=2, compact_on_delete=True,
                        cal_group_width=8, cal_block_size=8),
}


def build(config: GTConfig, seed: int, n: int = 1500,
          churn: bool = True) -> GraphTinker:
    """A store with real history: inserts, deletes, re-inserts."""
    gt = GraphTinker(config)
    edges = rmat_edges(8, n, seed=seed)
    gt.insert_batch(edges)
    if churn:
        rng = np.random.default_rng(seed)
        doomed = edges[rng.permutation(edges.shape[0])[: n // 4]]
        gt.delete_batch(doomed)
        gt.insert_batch(edges[: n // 8])
    return gt


def edge_set(gt):
    src, dst, _ = gt.analytics_edges()
    return set(zip(src.tolist(), dst.tolist()))


def undecided(gt, repair: RepairReport) -> set:
    """``(source, kept, other)`` of every edge repair names undecided,
    sources in original ids; ``other`` is the CAL copy's destination, or
    ``None`` in a store without a CAL."""
    out = set()
    for v in repair.final.violations:
        if v.kind == "repair-undecided":
            other = re.search(r"copy says (\d+)", v.detail)
            out.add((int(gt.original_ids(np.array([v.vertex]))[0]),
                     int(re.search(r"kept destination (\d+)", v.detail)[1]),
                     int(other[1]) if other else None))
    return out


def flip_target(gt, alike):
    """The first live main-row cell ``(v, slot)``, holding ``old``, and
    a destination ``new`` its vertex does not hold, such that
    ``alike(_tree_hash(new, 0), _tree_hash(old, 0))``."""
    dst = gt.eba.main.fields["dst"]
    for v in range(gt.eba.n_vertices):
        held = set(gt.neighbors(int(gt.original_ids(np.array([v]))[0]))[0].tolist())
        for slot in np.flatnonzero(dst[v] >= 0).tolist():
            old = gt.eba._tree_hash(int(dst[v, slot]), 0)
            for new in range(1024):
                if new not in held and alike(gt.eba._tree_hash(new, 0), old):
                    return v, slot, new
    raise AssertionError("no target")


def same_bucket(a, b):
    return a == b


def same_subblock_other_bucket(a, b):
    return a[0] == b[0] and a[1] != b[1]


def other_subblock(a, b):
    return a[0] != b[0]


class TestNoFalsePositives:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_churned_store_audits_clean(self, name, seed):
        gt = build(CONFIGS[name], seed)
        report = verify_graph(gt, level="full")
        assert report.ok, report.summary()
        assert verify_graph(gt, level="quick").ok

    def test_empty_store_audits_clean(self):
        report = verify_graph(GraphTinker(CONFIGS["default"]))
        assert report.ok
        assert report.n_edges == 0

    def test_report_counts_match_store(self):
        gt = build(CONFIGS["default"], 3, churn=False)
        report = verify_graph(gt)
        assert report.n_edges == gt.n_edges
        assert report.n_vertices == gt.n_vertices

    def test_fsck_leaves_access_stats_untouched(self):
        gt = build(CONFIGS["default"], 1)
        before = gt.stats.as_dict()
        verify_graph(gt, level="full")
        verify_graph(gt, level="quick")
        assert gt.stats.as_dict() == before

    def test_facade_dispatch(self):
        gt = build(CONFIGS["default"], 2, churn=False)
        assert isinstance(gt.fsck(), VerifyReport)
        assert isinstance(gt.fsck(level="quick"), VerifyReport)
        assert isinstance(gt.fsck(repair=True), RepairReport)


class TestCorruptionClasses:
    """Every injectable corruption: detected at full level, then healed
    back to a clean audit with the reference edge set intact."""

    @pytest.mark.parametrize("kind", StoreCorruptor.KINDS)
    def test_detect_and_repair(self, kind):
        gt = build(CONFIGS["default"], 11)
        reference = edge_set(gt)
        n_ref = gt.n_edges
        StoreCorruptor(gt, seed=5).corrupt(kind)

        report = verify_graph(gt, level="full")
        assert not report.ok, f"{kind} went undetected"

        repair = repair_graph(gt, report)
        assert repair.ok, (f"{kind} not healed: "
                           f"{repair.final.summary()}")
        assert edge_set(gt) == reference
        assert gt.n_edges == n_ref

    def test_degree_drift_visible_at_quick_level(self):
        gt = build(CONFIGS["default"], 11)
        StoreCorruptor(gt, seed=5).corrupt("degree")
        report = verify_graph(gt, level="quick")
        assert not report.ok
        assert "degree-mismatch" in report.by_kind()

    def test_repair_is_idempotent(self):
        gt = build(CONFIGS["default"], 13)
        StoreCorruptor(gt, seed=1).corrupt("bitflip")
        assert repair_graph(gt).ok
        second = repair_graph(gt)
        assert second.ok
        assert not second.rebuilt_vertices
        assert not second.recounted_vertices

    def test_unviable_kind_raises_typed_error(self):
        gt = build(CONFIGS["no_cal"], 0, n=200, churn=False)
        with pytest.raises(CorruptionError):
            StoreCorruptor(gt, seed=0).corrupt("cal-src")

    def test_compact_store_repairs_via_rebuild(self):
        # A one-bit dst flip (16 -> 17) that keeps hash placement valid is
        # indistinguishable from a flipped CAL copy (both stories are
        # self-consistent): repair keeps the cell's 17, preserves the edge
        # count, and names both destinations instead of reporting ok.
        gt = build(CONFIGS["compact"], 17)
        n_ref = gt.n_edges
        StoreCorruptor(gt, seed=3).corrupt("bitflip")
        repair = repair_graph(gt)
        assert repair.final.by_kind() == {"repair-undecided": 1}
        assert repair.final.violations[0].vertex == 83
        assert undecided(gt, repair) == {(int(gt.original_ids(np.array([83]))[0]), 17, 16)}
        assert gt.n_edges == n_ref
        assert repair_graph(gt).ok  # the kept destination is now in place

    @pytest.mark.parametrize("name, alike", [
        ("default", same_bucket),
        ("compact", same_bucket),
        # Without Robin Hood the placement check reads the Subblock only.
        ("compact", same_subblock_other_bucket),
        # Without a CAL a misplaced cell has no second copy.
        ("no_cal", other_subblock),
    ])
    def test_cell_flip_no_evidence_decides_is_named_undecided(self, name, alike):
        """A main-row cell flipped to a destination that passes the
        placement check in that cell too (the cell and its CAL copy tell
        two self-consistent stories), or to any destination where there
        is no CAL: repair keeps the cell's destination and names the edge
        rather than report ok."""
        gt = build(CONFIGS[name], 11)
        reference = edge_set(gt)
        v, slot, new = flip_target(gt, alike)
        dst = gt.eba.main.fields["dst"]
        old, dst[v, slot] = int(dst[v, slot]), new
        src = int(gt.original_ids(np.array([v]))[0])
        repair = repair_graph(gt)
        assert not repair.ok
        assert repair.final.by_kind() == {"repair-undecided": 1}
        assert undecided(gt, repair) == {(src, new, old if gt.cal else None)}
        assert edge_set(gt) == reference - {(src, old)} | {(src, new)}

    @pytest.mark.parametrize("name, side, alike", [
        ("default", "cell", same_subblock_other_bucket),
        ("default", "cell", other_subblock),
        ("default", "copy", same_subblock_other_bucket),
        ("default", "copy", other_subblock),
        ("compact", "copy", other_subblock),
    ])
    def test_flip_that_cannot_place_there_heals(self, name, side, alike):
        """A cell or CAL-copy destination flipped to one that would fail
        the placement check in the cell: the evidence decides, and repair
        heals to the reference edge set with ok."""
        gt = build(CONFIGS[name], 11)
        reference = edge_set(gt)
        v, slot, new = flip_target(gt, alike)
        if side == "cell":
            gt.eba.main.fields["dst"][v, slot] = new
        else:
            addr = int(gt.eba.main.fields["cal"][v, slot])
            gt.cal.pool.fields["dst"].reshape(-1)[addr] = new
        assert not verify_graph(gt).ok
        repair = repair_graph(gt)
        assert repair.ok, repair.final.summary()
        assert edge_set(gt) == reference

    def test_cell_duplicating_an_agreeing_pair_heals_from_its_copy(self):
        """A main-row cell overwritten with the destination of another
        cell of its vertex that shares its gen-0 Subblock and initial
        bucket still places; the edge is stored once, so its CAL copy
        wins and the lost destination comes back."""
        gt = build(CONFIGS["default"], 11)
        reference = edge_set(gt)
        dst = gt.eba.main.fields["dst"]
        v, a, b = next(
            (v, a, b) for v in range(gt.eba.n_vertices)
            for a, b in itertools.combinations(np.flatnonzero(dst[v] >= 0).tolist(), 2)
            if gt.eba._tree_hash(int(dst[v, a]), 0) == gt.eba._tree_hash(int(dst[v, b]), 0))
        dst[v, b] = dst[v, a]
        assert verify_graph(gt, level="full").by_kind() == {
            "duplicate-edge": 1, "cal-copy-mismatch": 1}
        assert repair_graph(gt).ok
        assert edge_set(gt) == reference


class TestSghIndex:
    """The batch index ``peek_array`` reads is audited against the dict,
    and repair rebuilds it from the dict."""

    def test_overwritten_index_key_is_flagged_and_rebuilt(self):
        gt, ref = (build(CONFIGS["default"], 31) for _ in range(2))
        sgh = gt.sgh
        slot = int(np.flatnonzero(sgh._keys >= 0)[0])
        victim = int(sgh._keys[slot])
        sgh._keys[slot] = 10**15          # an id never hashed
        assert "sgh-mapping" in verify_graph(gt).by_kind()
        assert gt.fsck(repair=True).ok
        # The victim's existing edges again, and new ones: a stale index
        # would rename it afresh and store each of them a second time.
        src, dst, _ = gt.edge_arrays()
        mine = dst[src == gt.dense_id(victim)]
        again = np.column_stack([np.full(mine.shape[0], victim), mine])
        extra = np.vstack([again, rmat_edges(8, 400, seed=77), [[victim, 4321]]])
        for store in (gt, ref):
            store.insert_batch(extra)
        assert store_digest(gt) == store_digest(ref)
        assert gt.n_vertices == ref.n_vertices
        assert verify_graph(gt).ok

    def test_audit_reads_the_index_as_it_stands(self):
        """A scalar insert's id waits uncovered; the audit neither absorbs
        it nor reports it, and still flags an uncovered id the index holds."""
        gt = GraphTinker(CONFIGS["default"])
        gt.insert_batch(np.column_stack([np.arange(33), np.arange(33) + 1]))
        gt.insert_edge(500, 6)
        sgh = gt.sgh
        assert sgh._covered == 33 and len(sgh) == 34
        assert gt.fsck(level="full").ok
        assert sgh._covered == 33
        sgh._place(np.array([500]), np.array([7]))   # a stray entry
        sgh._covered -= 1
        assert "sgh-mapping" in gt.fsck(level="full").by_kind()

    def test_scalar_ids_are_absorbed_from_the_dict_not_reverse(self):
        """The ``sgh`` corruption writes into ``_reverse`` while the id it
        breaks, assigned by a scalar insert, still waits to be absorbed;
        the batch that absorbs it must still rename like the dict."""
        first = np.column_stack([np.arange(33), np.arange(33) + 1])
        late = np.column_stack([1000 + 10 * np.arange(30), np.arange(30)])
        gt, ref = (GraphTinker(CONFIGS["default"]) for _ in range(2))
        for store in (gt, ref):
            store.insert_batch(first)
            for s, d in late.tolist():
                store.insert_edge(s, d)
        sgh = gt.sgh
        capacity = sgh._keys.shape[0]
        assert sgh._covered == 33 and len(sgh) == 63 <= capacity // 8
        before = sgh._reverse.copy()
        StoreCorruptor(gt, seed=0).corrupt("sgh")
        (broken,) = np.flatnonzero(sgh._reverse != before)
        assert broken >= sgh._covered             # still waiting to be absorbed
        for store in (gt, ref):
            store.insert_batch(np.vstack([late, first]))
        assert sgh._keys.shape[0] == capacity     # absorbed, not rebuilt
        assert len(sgh) == len(ref.sgh)
        assert repair_graph(gt).ok
        assert store_digest(gt) == store_digest(ref)


class TestRandomizedRepair:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 40, 47])
    def test_multiple_corruptions_heal_to_reference(self, seed):
        """Repair ends ok with the reference edge set, or names every
        edge it could not decide and differs from the reference only
        there."""
        gt = build(CONFIGS["default"], seed + 100)
        reference = edge_set(gt)
        injected = StoreCorruptor(gt, seed=seed).corrupt_random(4)
        assert injected, "injector found no targets"

        report = verify_graph(gt, level="full")
        assert not report.ok

        repair = repair_graph(gt, report)
        if repair.ok:
            assert edge_set(gt) == reference
            return
        assert set(repair.final.by_kind()) == {"repair-undecided"}, (
            f"seed {seed}, injected {[i.kind for i in injected]}: "
            f"{repair.final.summary()}")
        named = {(src, d) for src, kept, other in undecided(gt, repair)
                 for d in (kept, other)}
        assert edge_set(gt) ^ reference <= named

    def test_repaired_store_still_functions(self):
        gt = build(CONFIGS["default"], 23)
        StoreCorruptor(gt, seed=9).corrupt_random(3)
        assert repair_graph(gt).ok
        extra = rmat_edges(8, 300, seed=99)
        gt.insert_batch(extra)
        assert verify_graph(gt).ok


class TestObservability:
    def test_fsck_publishes_metrics(self):
        registry = obs.MetricsRegistry()
        prior = obs.set_registry(registry)
        try:
            with obs.enabled_scope(True):
                gt = build(CONFIGS["default"], 31, n=400, churn=False)
                verify_graph(gt)
        finally:
            obs.set_registry(prior)
        assert "verify.runs" in registry
        assert "verify.last_violations" in registry
