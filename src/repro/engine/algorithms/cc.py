"""Weakly-connected components as an edge-centric GAS program.

Classic label propagation: every vertex starts with its own id as label
and edges propagate the minimum label.  At the fixed point every vertex
carries the smallest vertex id of its component.

``undirected = True`` declares weak-connectivity semantics: the update
stream must be *symmetrised* (both directions of each edge inserted, as
when ingesting a symmetric UF-collection matrix — use
``repro.workloads.streams.symmetrize``), which keeps incremental mode
sound, and per the paper's Set-Inconsistency-Vertices unit both endpoints
of each updated edge become inconsistent after a batch (Sec. IV.C).
"""

from __future__ import annotations

import numpy as np

from repro.engine.gas import GASProgram


class ConnectedComponents(GASProgram):
    """Minimum-label weakly-connected components."""

    name = "cc"
    undirected = True
    monotone = True
    needs_weights = False

    def initial_value(self) -> float:
        # Labels are seeded per-vertex in `seed`; inf marks never-seen
        # slots so growth keeps untouched vertices inert.
        return np.inf

    def init_state(self, n_vertices: int) -> np.ndarray:
        return np.arange(n_vertices, dtype=np.float64)

    def seed(self, values: np.ndarray, roots: np.ndarray) -> np.ndarray:
        # CC needs no roots: every vertex is its own seed.  The initially
        # active set is every vertex (the caller usually passes the
        # inconsistent set instead after a batch update).
        return np.arange(values.shape[0], dtype=np.int64)

    def grow_state(self, values: np.ndarray, n_vertices: int) -> np.ndarray:
        if n_vertices <= values.shape[0]:
            return values
        grown = np.arange(n_vertices, dtype=np.float64)
        grown[: values.shape[0]] = values
        return grown

    def edge_messages(self, src_values, weights, src=None):
        return src_values
