"""The audit's detection pinned to goldens recorded from a known-good audit.

``test_verify.py`` checks that every corruption is *detected* and
*healed*; it cannot notice the audit reporting a different set of
violations for the same damage.  This module pins that from outside: for
every :class:`StoreCorruptor` kind, every ``test_verify.CONFIGS`` entry
and seeds 0, 7 and 42 it builds ``test_verify.build(config, seed)``,
applies ``StoreCorruptor(store, seed).corrupt(kind)`` and records
``verify_graph(level="full").by_kind()``; a kind with no viable target
(``CorruptionError``) is recorded as ``null`` and skipped.  After the
audit, ``repair_graph`` must report ``ok`` and leave the edge count the
recorded repair left (``repaired``): the count before the damage
(``n_edges``) in every case but a truncated overflow block in a store
without a CAL, whose subtree's edges have no second copy to come back
from.  Regenerate the goldens, only from a commit whose audit and repair
are known good, with
``PYTHONPATH=src python -m tests.test_fsck_golden`` from the repo root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.verify import repair_graph, verify_graph
from repro.service.faults import CorruptionError, StoreCorruptor
from tests.test_verify import CONFIGS, build, edge_set

GOLDENS_PATH = Path(__file__).with_name("fsck_goldens.json")
SEEDS = (0, 7, 42)


def case_id(kind: str, name: str, seed: int) -> str:
    return f"{kind}/{name}/{seed}"


def corrupted(kind: str, name: str, seed: int):
    """The built store after one ``kind`` corruption (``None`` when the
    kind has no viable target) and its edge count before it."""
    store = build(CONFIGS[name], seed)
    n_edges = store.n_edges
    try:
        StoreCorruptor(store, seed=seed).corrupt(kind)
    except CorruptionError:
        return None, n_edges
    return store, n_edges


def record() -> dict:
    out = {}
    for kind in StoreCorruptor.KINDS:
        for name in sorted(CONFIGS):
            for seed in SEEDS:
                store, n_edges = corrupted(kind, name, seed)
                if store is None:
                    out[case_id(kind, name, seed)] = None
                    continue
                report = verify_graph(store, level="full")
                repair_graph(store, report)
                out[case_id(kind, name, seed)] = {
                    "by_kind": report.by_kind(),
                    "n_edges": n_edges,
                    "repaired": store.n_edges,
                }
    return out


GOLDENS = json.loads(GOLDENS_PATH.read_text()) if GOLDENS_PATH.exists() else {}


@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_audit_reproduces_golden_and_repair_heals(case):
    golden = GOLDENS[case]
    if golden is None:
        pytest.skip("no viable target for this kind")
    kind, name, seed = case.split("/")
    store, n_edges = corrupted(kind, name, int(seed))
    assert n_edges == golden["n_edges"]
    report = verify_graph(store, level="full")
    assert report.by_kind() == golden["by_kind"]
    repair = repair_graph(store, report)
    assert repair.ok, repair.final.summary()
    assert store.n_edges == golden["repaired"]


def test_goldens_cover_every_case():
    assert sorted(GOLDENS) == sorted(
        case_id(kind, name, seed) for kind in StoreCorruptor.KINDS
        for name in CONFIGS for seed in SEEDS)
    lossy = {case for case, golden in GOLDENS.items()
             if golden is not None and golden["repaired"] != golden["n_edges"]}
    assert all(case.startswith("truncate/no_cal/") for case in lossy)


# --------------------------------------------------------------------- #
# tree damage the corruptor cannot make
# --------------------------------------------------------------------- #
def _pointers(matrix):
    return [(int(b), int(s)) for b, s in zip(*np.nonzero(matrix._data >= 0))]


def _never_allocated(gt):
    block, sb = _pointers(gt.eba._main_children)[0]
    gt.eba._main_children._data[block, sb] = gt.eba.overflow.high_water + 5


def _orphan(gt):
    block, sb = _pointers(gt.eba._main_children)[0]
    gt.eba._main_children._data[block, sb] = -1


def _second_parent(gt):
    (b1, s1), *rest = _pointers(gt.eba._main_children)
    b2, s2 = next(p for p in rest if p[0] != b1)
    gt.eba._main_children._data[b2, s2] = gt.eba._main_children._data[b1, s1]


def _cycle(gt):
    block, sb = _pointers(gt.eba._overflow_children)[0]
    row = gt.eba._overflow_children._data[gt.eba._overflow_children._data[block, sb]]
    row[np.flatnonzero(row < 0)[0]] = block


def _bad_free_entry(gt):
    gt.eba.overflow._free.append(gt.eba.overflow.high_water + 2)


#: Each damage and the full audit's ``by_kind()`` for it, as the
#: per-vertex walker that preceded the whole-pool audit reported it.
TREE_DAMAGE = {
    "never-allocated": (_never_allocated, {
        "pool-freelist": 2, "degree-mismatch": 1, "cal-ghost-copy": 1,
        "cal-count-mismatch": 1}),
    "orphan": (_orphan, {
        "pool-freelist": 1, "degree-mismatch": 1, "cal-ghost-copy": 1,
        "cal-count-mismatch": 1}),
    "second-parent": (_second_parent, {
        "pool-freelist": 2, "cal-copy-mismatch": 1, "degree-mismatch": 1,
        "cal-ghost-copy": 5, "cal-count-mismatch": 1}),
    "cycle": (_cycle, {"pool-freelist": 2}),
    "bad-free-entry": (_bad_free_entry, {"pool-freelist": 1}),
}


@pytest.mark.parametrize("damage", sorted(TREE_DAMAGE))
def test_tree_damage_is_found_and_rebuilt(damage):
    """Child pointers and free-list entries the corruptor never breaks:
    detected as before, flagged by the quick audit too, and healed."""
    hurt, expected = TREE_DAMAGE[damage]
    store = build(CONFIGS["default"], 11)
    reference = edge_set(store)
    hurt(store)
    assert verify_graph(store, level="full").by_kind() == expected
    assert "pool-freelist" in verify_graph(store, level="quick").by_kind()
    repair = repair_graph(store)
    assert repair.ok, repair.final.summary()
    assert repair.rebuilt_vertices == list(range(store.n_vertices))
    assert edge_set(store) == reference


if __name__ == "__main__":
    GOLDENS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
