"""Single-source widest path (SSWP) as an edge-centric GAS program.

The widest (maximum-bottleneck) path problem: the property of a vertex is
the largest capacity ``c`` such that a path from the root exists whose
minimum edge weight is ``c``.  A classic GAS workload alongside BFS/SSSP
(e.g. in Graphicionado's benchmark set [21]); included here as an
extension to demonstrate that the engine's monotone machinery is not
hard-wired to min-reductions:

* message along an edge: ``min(width(src), w(edge))``;
* reduction: ``max``;
* apply: commit increases.

Monotone under insertions (new edges can only widen paths), so all three
engine policies apply.
"""

from __future__ import annotations

import numpy as np

from repro.engine.gas import GASProgram


class SSWP(GASProgram):
    """Widest-path widths from one or more roots (positive weights)."""

    name = "sswp"
    undirected = False
    monotone = True
    needs_weights = True

    def initial_value(self) -> float:
        # Unreached vertices have width 0 (no path at all).
        return 0.0

    def seed(self, values: np.ndarray, roots: np.ndarray) -> np.ndarray:
        values[roots] = np.inf  # the root reaches itself at any width
        return np.asarray(roots, dtype=np.int64)

    def edge_messages(self, src_values, weights, src=None):
        return np.minimum(src_values, weights)

    def scatter_reduce(self, vtemp: np.ndarray, dst: np.ndarray, messages: np.ndarray) -> None:
        np.maximum.at(vtemp, dst, messages)

    def apply(self, values: np.ndarray, vtemp: np.ndarray) -> np.ndarray:
        changed = np.flatnonzero(vtemp > values)
        if changed.size:
            values[changed] = vtemp[changed]
        return changed
