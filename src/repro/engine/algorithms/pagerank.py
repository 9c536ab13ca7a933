"""PageRank as a stationary (full-processing-only) GAS program.

PageRank activates *every* vertex in every iteration, so incremental
processing "is not an option" (paper Sec. IV.B) and the hybrid engine
pins it to full-processing mode.  Included as the paper's future-work /
extension workload: it exercises the CAL streaming path with a sum
reduction instead of a min reduction.
"""

from __future__ import annotations

import numpy as np

from repro.engine.gas import GASProgram


class PageRank(GASProgram):
    """Damped PageRank over the live edge set.

    The property vector holds the current rank.  One engine iteration
    performs ``rank' = (1 - d)/N + d * (A^T (rank / outdeg) + dangling)``.
    Convergence is by L1 delta against ``tol`` (the engine keeps iterating
    while the program reports changed vertices).
    """

    name = "pagerank"
    undirected = False
    monotone = False  # forces full-processing mode
    needs_weights = False

    def __init__(self, damping: float = 0.85, tol: float = 1e-10):
        if not (0.0 < damping < 1.0):
            raise ValueError("damping must be in (0, 1)")
        self.damping = damping
        self.tol = tol
        self._outdeg: np.ndarray | None = None
        self._n: int = 0

    def initial_value(self) -> float:
        return 0.0

    def init_state(self, n_vertices: int) -> np.ndarray:
        if n_vertices == 0:
            return np.empty(0, dtype=np.float64)
        return np.full(n_vertices, 1.0 / n_vertices, dtype=np.float64)

    def seed(self, values: np.ndarray, roots: np.ndarray) -> np.ndarray:
        # Rootless: every vertex participates.
        return np.arange(values.shape[0], dtype=np.int64)

    def grow_state(self, values: np.ndarray, n_vertices: int) -> np.ndarray:
        if n_vertices <= values.shape[0]:
            return values
        # Re-normalise mass over the larger vertex set.
        grown = np.full(n_vertices, 1.0 / n_vertices, dtype=np.float64)
        if values.shape[0]:
            grown[: values.shape[0]] = values * (values.shape[0] / n_vertices)
        return grown

    # -- iteration hooks -------------------------------------------------
    def begin_iteration(self, values, src, dst=None) -> None:
        """Cache out-degrees of the loaded edge set for this iteration."""
        self._n = values.shape[0]
        outdeg = np.bincount(src, minlength=self._n).astype(np.float64)
        self._outdeg = outdeg

    def edge_messages(self, src_values, weights, src=None):
        """Rank mass carried along each edge: rank(src)/outdeg(src)."""
        assert self._outdeg is not None and src is not None, "begin_iteration not called"
        deg = self._outdeg[src]
        return src_values / np.maximum(deg, 1.0)

    def make_vtemp(self, values: np.ndarray) -> np.ndarray:
        """Sum-reduction buffer starts at zero, not at the old values."""
        return np.zeros_like(values)

    def scatter_reduce(self, vtemp: np.ndarray, dst: np.ndarray, messages: np.ndarray) -> None:
        np.add.at(vtemp, dst, messages)

    def apply(self, values: np.ndarray, vtemp: np.ndarray) -> np.ndarray:
        n = values.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64)
        assert self._outdeg is not None
        dangling = values[self._outdeg == 0].sum()
        new = (1.0 - self.damping) / n + self.damping * (vtemp + dangling / n)
        delta = np.abs(new - values).sum()
        values[:] = new
        if delta < self.tol:
            return np.empty(0, dtype=np.int64)
        return np.arange(n, dtype=np.int64)
