"""The per-op read path against goldens recorded from its predecessor.

The parity suites hold the batch kernels to the per-op specification,
so they cannot notice the specification itself drifting: a FIND that
charged one descent too few, or a row walk that visited siblings in
another order, would be copied by every twin they compare.  This module
pins the specification from outside.  For each configuration it loads a
power-law graph deep enough for three tree generations, deletes a third
of it, then runs seeded probes — half of them present edges — and
records per probe ``has_edge``, ``edge_weight``, ``degree``,
``neighbors`` (or the exception it raises), on every tenth probe a
``delete_edge``, and the probe's ``AccessStats`` delta.  The goldens
(``read_path_goldens.json``) hold one sha256 per recorded quantity;
regenerate with ``python tests/test_read_path_golden.py``, only ever
from a commit whose read path is known good, or after a deliberate
cost-model change.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import GTConfig
from repro.core.graphtinker import GraphTinker
from repro.core.stats import STAT_FIELDS
from repro.workloads import rmat_edges

GOLDENS_PATH = Path(__file__).with_name("read_path_goldens.json")

CONFIGS = {
    "default": {},
    "compact": {"compact_on_delete": True},
    "nosgh": {"enable_sgh": False},
    "norhh": {"enable_rhh": False},
    "narrow": {"pagewidth": 16, "subblock": 4, "workblock": 2},
}
SCALE = 10
N_EDGES = 12_000
N_PROBES = 3_000
DELETE_EVERY = 10
RECORDS = ("has_edge", "edge_weight", "degree", "neighbors", "delete_edge",
           "stats")


def build(name):
    """The loaded store and the live edges it holds, in a fixed order."""
    rng = np.random.default_rng(11)
    edges = rmat_edges(SCALE, N_EDGES, seed=3)
    weights = rng.integers(1, 1 << 20, N_EDGES) / 64.0
    store = GraphTinker(GTConfig(**CONFIGS[name]))
    store.insert_batch(edges, weights)
    unique = np.unique(edges, axis=0)
    gone = rng.permutation(unique.shape[0])[: unique.shape[0] // 3]
    store.delete_batch(unique[gone])
    live = np.delete(unique, gone, axis=0)
    assert store.n_edges == live.shape[0]
    return store, live


def probes(live):
    """Half present edges, half random pairs; sources range past the
    graph, so some were never seen."""
    rng = np.random.default_rng(29)
    present = live[rng.integers(0, live.shape[0], N_PROBES // 2)]
    other = rng.integers(0, (1 << SCALE) + 64, (N_PROBES - N_PROBES // 2, 2))
    pairs = np.concatenate([present, other])
    return pairs[rng.permutation(N_PROBES)].tolist()


def neighbors_or_raise(store, src):
    try:
        dst, weight = store.neighbors(src)
    except Exception as exc:  # the exception type is part of the record
        return type(exc).__name__
    return [dst.tolist(), weight.tolist()]


def record(name):
    """One sha256 per recorded quantity, plus the probe shape."""
    store, live = build(name)
    stats = store.stats
    digests = {key: hashlib.sha256() for key in RECORDS}
    hits = max_descents = 0
    for i, (src, dst) in enumerate(probes(live)):
        before = stats.snapshot()
        got = {
            "has_edge": store.has_edge(src, dst),
            "edge_weight": store.edge_weight(src, dst),
            "degree": store.degree(src),
            "neighbors": neighbors_or_raise(store, src),
            "delete_edge": (store.delete_edge(src, dst)
                            if i % DELETE_EVERY == 0 else None),
        }
        delta = stats.delta(before)
        got["stats"] = [getattr(delta, field) for field in STAT_FIELDS]
        for key in RECORDS:
            digests[key].update(json.dumps(got[key]).encode() + b"\n")
        hits += got["has_edge"]
        max_descents = max(max_descents, delta.branch_descents)
    return {"hits": hits, "max_descents": max_descents,
            **{key: digest.hexdigest() for key, digest in digests.items()}}


@pytest.mark.parametrize("name", CONFIGS)
def test_read_path_matches_the_goldens(name):
    want = json.loads(GOLDENS_PATH.read_text())[name]
    # the golden itself exercises what it is meant to: hits and misses,
    # and probes that descend into a third generation (two descents)
    assert 0 < want["hits"] < N_PROBES
    assert want["max_descents"] >= 2
    got = record(name)
    assert {k: got[k] for k in want} == want


if __name__ == "__main__":
    GOLDENS_PATH.write_text(json.dumps(
        {name: record(name) for name in CONFIGS}, indent=1, sort_keys=True)
        + "\n")
