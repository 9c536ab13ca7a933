"""Heat (diffusion) simulation as a stationary GAS program.

The paper cites heat simulation as a canonical GAS workload (Sec. IV.A).
Each iteration performs one explicit Jacobi step of the graph heat
equation: a vertex moves toward the mean temperature of its in-neighbours
with diffusivity ``alpha``.  Like PageRank it activates every vertex each
iteration, so the hybrid engine pins it to full-processing mode.
"""

from __future__ import annotations

import numpy as np

from repro.engine.gas import GASProgram


class HeatSimulation(GASProgram):
    """Explicit graph heat diffusion with fixed step count."""

    name = "heat"
    undirected = False
    monotone = False
    needs_weights = False

    def __init__(self, alpha: float = 0.3, n_steps: int = 20):
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        if n_steps <= 0:
            raise ValueError("n_steps must be positive")
        self.alpha = alpha
        self.n_steps = n_steps
        self._step = 0
        self._indeg: np.ndarray | None = None

    def initial_value(self) -> float:
        return 0.0

    def seed(self, values: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """Roots are heat sources pinned at temperature 1."""
        self._step = 0
        self._sources = np.asarray(roots, dtype=np.int64)
        values[self._sources] = 1.0
        return np.arange(values.shape[0], dtype=np.int64)

    def begin_iteration(self, values, src, dst) -> None:
        # In-degrees: heat is gathered at each edge's *destination*.
        self._indeg = np.bincount(dst, minlength=values.shape[0]).astype(np.float64)

    def make_vtemp(self, values: np.ndarray) -> np.ndarray:
        return np.zeros_like(values)

    def edge_messages(self, src_values, weights, src=None):
        return src_values

    def scatter_reduce(self, vtemp: np.ndarray, dst: np.ndarray, messages: np.ndarray) -> None:
        # NB: heat flows along the edge direction: dst gathers from src.
        np.add.at(vtemp, dst, messages)

    def apply(self, values: np.ndarray, vtemp: np.ndarray) -> np.ndarray:
        assert self._indeg is not None
        indeg = self._indeg
        mean_in = np.divide(vtemp, indeg, out=np.zeros_like(vtemp), where=indeg > 0)
        new = values + self.alpha * (mean_in - values)
        new[indeg == 0] = values[indeg == 0]
        if hasattr(self, "_sources"):
            new[self._sources] = 1.0  # pinned boundary condition
        values[:] = new
        self._step += 1
        if self._step >= self.n_steps:
            return np.empty(0, dtype=np.int64)
        return np.arange(values.shape[0], dtype=np.int64)
