#!/usr/bin/env python3
"""Checkpoint and resume a long-running dynamic-graph session.

Operational pattern for a deployed dynamic store: ingest for a while,
checkpoint the live graph to disk, and later resume — possibly into a
*differently configured* store (here: a delete-and-compact store with a
different PAGEWIDTH, e.g. after re-tuning with the Fig. 19 sweep).
The analytics state is rebuilt after the resume and must match what the
uninterrupted session computes.

Run:  python examples/checkpoint_and_resume.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import GraphTinker, GTConfig
from repro.engine import BFS, HybridEngine
from repro.workloads import rmat_edges
from repro.workloads.persistence import restore_store, save_snapshot
from repro.workloads.streams import EdgeStream, highest_degree_roots


def main() -> None:
    edges = rmat_edges(13, 40_000, seed=9)
    edges = edges[edges[:, 0] != edges[:, 1]]
    stream = EdgeStream(edges, batch_size=8_000)
    batches = list(stream.insert_batches())
    root = int(highest_degree_roots(edges, 1)[0])

    # ---- session 1: ingest the first three batches, checkpoint --------
    session1 = GraphTinker(GTConfig())
    for batch in batches[:3]:
        session1.insert_batch(batch)
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "graph.npz"
        n = save_snapshot(session1, snap)
        print(f"checkpointed {n} live edges "
              f"({snap.stat().st_size / 1024:.0f} KiB compressed)")

        # ---- session 2: resume into a re-tuned configuration ----------
        session2 = restore_store(
            snap, GTConfig(pagewidth=128, compact_on_delete=True)
        )
    print(f"resumed into PW=128 compact store: {session2.n_edges} edges")
    session2.check_invariants()

    # continue ingesting where session 1 stopped
    engine = HybridEngine(session2, BFS(), policy="hybrid")
    engine.reset(roots=[root])
    for batch in batches[3:]:
        engine.update_and_compute(batch)

    # ---- oracle: an uninterrupted session must agree ------------------
    uninterrupted = GraphTinker(GTConfig())
    uninterrupted.insert_batch(edges)
    oracle = HybridEngine(uninterrupted, BFS(), policy="full")
    oracle.reset(roots=[root])
    oracle.compute()

    n = min(engine.values.shape[0], oracle.values.shape[0])
    assert (engine.values[:n] == oracle.values[:n]).all(), \
        "resumed session diverged from the uninterrupted one"
    reached = int(np.isfinite(engine.values).sum())
    print(f"BFS after resume: {reached} vertices reached — "
          "matches the uninterrupted session exactly")


if __name__ == "__main__":
    main()
