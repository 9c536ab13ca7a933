"""Execution modes: full-processing (FP) and incremental-processing (IP).

The two load paths of the paper's LoadEdges unit (Sec. IV.C):

* **FP** streams the *entire* live edge set from the CAL EdgeblockArray —
  contiguous block reads, no per-vertex indirection, but work proportional
  to |E| regardless of how few vertices are active.
* **IP** gathers only the out-edges of the *active* vertices from the
  EdgeblockArray — work proportional to the frontier, but every vertex
  visit costs non-contiguous block reads.

Both produce the same ``(src, dst, weight)`` triple arrays for the GAS
processing phase, so an iteration computes identical results under either
mode; only the access pattern (and hence cost) differs.  That equivalence
is what lets the hybrid engine flip modes per iteration.
"""

from __future__ import annotations

import numpy as np

from repro.core.store import Store

#: Mode identifiers (also used in iteration traces and reports).
FULL = "FP"
INCREMENTAL = "IP"
#: Vertex-centric full processing (paper Sec. IV.A future work): iterate
#: *vertices* and gather each one's out-edges from the EdgeblockArray,
#: instead of streaming the edge set from the CAL.
FULL_VC = "FP-VC"


def load_edges_full(store: Store) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FP load: stream every live edge (original ids).

    For GraphTinker this goes through the CAL (sequential block reads);
    for STINGER it sweeps every vertex chain (random block reads) — the
    structural difference behind the Figs. 11-13 gap.

    Per-cell inspection costs are charged inside the stores' retrieval
    paths (every *slot* of every block visited, occupied or not), which
    is what makes full mode not free when the frontier is tiny and what
    makes sparse layouts pay — the trade-offs the paper's T = A/E
    threshold and PAGEWIDTH sweeps measure.

    When the store carries an analytics snapshot the load goes through
    it — bit-identical data and charges either way.  Where the native
    full load is itself the per-vertex sweep (STINGER, CAL-less
    GraphTinker) it is one CSR gather instead of a Python loop; a
    CAL-backed GraphTinker streams in CAL insertion order, which the CSR
    view does not reproduce, so the snapshot captures that stream once
    per mutation epoch and replays its arrays (read-only) and charge.
    """
    snap = store.analytics_snapshot
    if snap is not None:
        return snap.load_full()
    return store.analytics_edges()


def load_edges_full_vertex_centric(
    store: Store,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """VC full load: visit every vertex, gathering its out-edges.

    The vertex-centric framing of the GAS model (paper Sec. IV.A) whose
    efficiency the paper leaves to future work.  On GraphTinker this
    reads the EdgeblockArray per vertex (random block reads over
    PAGEWIDTH-wide blocks) rather than streaming the CAL, so comparing it
    against :func:`load_edges_full` quantifies exactly what the
    edge-centric + CAL combination buys — see
    ``benchmarks/bench_vertex_centric.py``.

    With an analytics snapshot attached the sweep is one CSR gather;
    without one it is the store's ``measure_rows`` over every dense row,
    empty ones included, with the rows' charges paid — the per-vertex
    order and charges of one ``row_neighbors`` call per row either way,
    so traces and AccessStats stay bit-identical.
    """
    snap = store.analytics_snapshot
    if snap is not None:
        return snap.gather_all()
    rows = np.arange(store.dense_row_count(), dtype=np.int64)
    counts, dst, weight, charges = store.measure_rows(rows)
    store.stats.add_counts(charges.sum(axis=0))
    return store.original_ids(np.repeat(rows, counts)), dst, weight


def load_edges_incremental(
    store: Store, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IP load: gather the out-edges of the active vertices only.

    Vertices with no out-edges (pure sinks, or ids never inserted as a
    source) contribute nothing; GraphTinker resolves them with one SGH
    probe, STINGER with one Logical-Vertex-Array read.

    The frontier is sanitized first — duplicates must not double-gather
    (or double-charge) a vertex, and negative ids are dropped rather
    than allowed to index degree arrays from the end.  Stores exposing
    ``neighbors_many`` (GraphTinker, STINGER) serve the whole gather in
    one batched call, vectorized when their analytics snapshot is
    attached; the scalar fallback runs the identical per-vertex loop.
    """
    return store.neighbors_many(active)
