"""One physical full-processing load per ``compute()``, charged per FP
iteration.

The engine loads the edge set once on the first FP iteration of a
``compute()`` and replays the recorded ``AccessStats`` charge on later FP
iterations, so the modeled clock must not notice: the per-iteration
``stats_delta`` of every backend equals goldens recorded on the commit
before the change (``engine_load_once_goldens.json``; regenerate with
``python tests/test_engine_load_once.py`` — only ever from a commit whose
engine still loads per iteration, or after a deliberate cost-model change).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ShardedConfig
from repro.core.store import create_store
from repro.engine import BFS, SSSP, ConnectedComponents, HybridEngine
from repro.engine.modes import FULL
from repro.workloads import rmat_edges
from repro.workloads.streams import highest_degree_roots, symmetrize

GOLDENS_PATH = Path(__file__).with_name("engine_load_once_goldens.json")

#: system -> (backend, snapshot).  The snapshot is a charge mirror, so a
#: backend's two variants share one golden.
SYSTEMS = {
    "graphtinker": ("graphtinker", False),
    "graphtinker+snapshot": ("graphtinker", True),
    "gt_nocal": ("gt_nocal", False),
    "gt_nocal+snapshot": ("gt_nocal", True),
    "stinger": ("stinger", False),
    "stinger+snapshot": ("stinger", True),
    "sharded": ("sharded", False),
}
PROGRAMS = {"bfs": BFS, "sssp": SSSP, "cc": ConnectedComponents}


def graph():
    edges = rmat_edges(9, 2500, seed=13)
    edges = symmetrize(edges[edges[:, 0] != edges[:, 1]])
    weights = 1.0 + (edges.sum(axis=1) % 7)
    return edges, weights


def build(backend, snapshot, edges, weights):
    config = ShardedConfig(n_shards=2) if backend == "sharded" else None
    store = create_store(backend, config, snapshot=snapshot)
    store.insert_batch(edges, weights)
    return store


def close(store):
    if hasattr(store, "close"):
        store.close()


def trace(store, program, root):
    engine = HybridEngine(store, program(), policy="hybrid")
    engine.reset(roots=None if root is None else [root])
    result = engine.compute()
    return {
        "modes": result.modes_used(),
        "stats": [{k: v for k, v in r.stats_delta.as_dict().items() if v}
                  for r in result.iterations],
    }


def traces(backend, snapshot):
    edges, weights = graph()
    root = int(highest_degree_roots(edges, 1)[0])
    store = build(backend, snapshot, edges, weights)
    try:
        return {name: trace(store, program, None if name == "cc" else root)
                for name, program in PROGRAMS.items()}
    finally:
        close(store)


@pytest.mark.parametrize("system", SYSTEMS)
def test_per_iteration_charges_match_the_load_per_iteration_goldens(system):
    backend, snapshot = SYSTEMS[system]
    goldens = json.loads(GOLDENS_PATH.read_text())[backend]
    got = traces(backend, snapshot)
    for name, want in goldens.items():
        assert want["modes"].count(FULL) >= 2, "golden exercises no reuse"
        assert got[name]["modes"] == want["modes"], (system, name)
        assert got[name]["stats"] == want["stats"], (system, name)


@pytest.mark.parametrize("backend", ["graphtinker", "stinger"])
def test_no_stale_triple_across_compute_calls(backend):
    edges, weights = graph()
    half = edges.shape[0] // 2
    store = build(backend, True, edges[:half], weights[:half])
    engine = HybridEngine(store, ConnectedComponents(), policy="hybrid")
    engine.reset()
    first = engine.compute()
    store.insert_batch(edges[half:], weights[half:])
    engine.mark_inconsistent(edges[half:])
    second = engine.compute()

    scratch_store = build(backend, True, edges, weights)
    scratch = HybridEngine(scratch_store, ConnectedComponents(), policy="hybrid")
    scratch.reset()
    scratch.compute()
    assert np.array_equal(engine.values, scratch.values)
    full = [r for r in second.iterations if r.mode == FULL]
    assert full and all(r.edges_processed == store.n_edges for r in full)
    assert first.iterations[0].edges_processed < store.n_edges


class ScribblingCC(ConnectedComponents):
    """A broken program: writes into the ``src`` array it was handed."""

    def edge_messages(self, src_values, weights, src=None):
        src[:] = 0
        return super().edge_messages(src_values, weights, src)


def test_program_writing_into_the_shared_triple_fails_loudly():
    from repro.baselines.csr import CSRRebuildStore

    edges, weights = graph()
    store = CSRRebuildStore()  # hands the engine its own arrays, not copies
    store.insert_batch(edges, weights)
    engine = HybridEngine(store, ScribblingCC(), policy="full")
    engine.reset()
    with pytest.raises(ValueError, match="read-only"):
        engine.compute()
    # only the engine's views were read-only: the store's arrays are
    # untouched and still writable
    src, _, _ = store.analytics_edges()
    assert src.flags.writeable and src.any()


if __name__ == "__main__":
    GOLDENS_PATH.write_text(json.dumps(
        {backend: traces(backend, False)
         for backend in dict.fromkeys(b for b, _ in SYSTEMS.values())},
        indent=1, sort_keys=True) + "\n")
