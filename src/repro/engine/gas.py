"""The Edge-Centric Gather-Apply-Scatter abstraction (paper Sec. IV.A).

A graph algorithm conformable to the edge-centric paradigm supplies three
functions and leaves the rest of the engine untouched:

* ``processEdge`` — compute a message from a source vertex's property
  across an edge (here: :meth:`GASProgram.edge_messages`, vectorised over
  whole edge arrays);
* ``reduce`` — combine messages destined for the same vertex into the
  VTempProperty buffer (here: :meth:`GASProgram.scatter_reduce`, an
  ``at``-style scatter reduction);
* ``apply`` — commit the buffered properties to the VPropertyArray and
  emit the next active-vertex set (here: :meth:`GASProgram.apply`).

Programs operate on the *original* vertex-id space; property vectors are
flat float64 arrays indexed by vertex id (the engine grows them as the
graph grows).  Monotone programs (min-reductions: BFS, SSSP, CC) support
incremental processing; non-monotone ones (PageRank, heat) force full
processing, exactly the "otherwise, incremental processing is not an
option" caveat of Sec. IV.B.
"""

from __future__ import annotations

import abc

import numpy as np


class GASProgram(abc.ABC):
    """Base class for edge-centric GAS algorithm definitions.

    Class attributes
    ----------------
    name:
        Short identifier used in reports ("bfs", "sssp", "cc", ...).
    undirected:
        Declares undirected-graph semantics (weakly-connected
        components): both endpoints of an updated edge become
        inconsistent, and the program REQUIRES the update stream to be
        symmetrised (both directions inserted — how symmetric UF-
        collection matrices are ingested; see
        ``repro.workloads.streams.symmetrize``).  Storing both directions
        is what keeps incremental mode sound: a vertex's improved label
        reaches every neighbour through that vertex's own out-edges.
    monotone:
        Whether per-vertex properties only ever improve under the
        reduction; required for incremental/hybrid execution.
    needs_weights:
        Whether ``edge_messages`` consumes edge weights.
    """

    name: str = "gas"
    undirected: bool = False
    monotone: bool = True
    needs_weights: bool = False

    # -- state initialisation ------------------------------------------- #
    @abc.abstractmethod
    def initial_value(self) -> float:
        """Fill value of a fresh (untouched) vertex property."""

    def init_state(self, n_vertices: int) -> np.ndarray:
        """Fresh property vector over ``n_vertices`` slots."""
        return np.full(n_vertices, self.initial_value(), dtype=np.float64)

    def seed(self, values: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """Install root properties; return the initially active vertices.

        Default: roots get property 0 (BFS/SSSP-style sources).
        """
        values[roots] = 0.0
        return np.asarray(roots, dtype=np.int64)

    def grow_state(self, values: np.ndarray, n_vertices: int) -> np.ndarray:
        """Extend a property vector when the graph grows.

        New slots take the initial value; programs whose initial state is
        per-vertex (CC's identity labels) override this.
        """
        if n_vertices <= values.shape[0]:
            return values
        grown = np.full(n_vertices, self.initial_value(), dtype=np.float64)
        grown[: values.shape[0]] = values
        return grown

    # -- the three user-defined functions ------------------------------- #
    @abc.abstractmethod
    def edge_messages(
        self,
        src_values: np.ndarray,
        weights: np.ndarray,
        src: np.ndarray | None = None,
    ) -> np.ndarray:
        """processEdge: message carried to each edge's destination.

        ``src`` (raw source ids, aligned with ``src_values``) is provided
        for programs whose message needs per-source state beyond the
        property value (PageRank divides by cached out-degree).

        **Identity rule:** the engine scatters every loaded edge, so a
        source still at its unreached property must emit the identity of
        :meth:`scatter_reduce` — a message that changes no ``vtemp`` slot
        (``inf`` under BFS/SSSP/CC's min, width 0 under SSWP's max).
        """

    def scatter_reduce(self, vtemp: np.ndarray, dst: np.ndarray, messages: np.ndarray) -> None:
        """reduce: fold messages into the VTempProperty buffer (min)."""
        np.minimum.at(vtemp, dst, messages)

    def apply(self, values: np.ndarray, vtemp: np.ndarray) -> np.ndarray:
        """apply: commit improved properties; return changed vertex ids.

        The default commit keeps the better (smaller) property and
        activates exactly the vertices whose property changed — the
        next-iteration active set of Sec. IV.A.
        """
        changed = np.flatnonzero(vtemp < values)
        if changed.size:
            values[changed] = vtemp[changed]
        return changed

    # -- per-iteration hooks (defaults suit monotone programs) ---------- #
    def begin_iteration(
        self, values: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> None:
        """Called once per iteration with the loaded edge endpoints.

        Stationary programs (PageRank, heat) cache degree vectors here;
        monotone programs need nothing.
        """

    def make_vtemp(self, values: np.ndarray) -> np.ndarray:
        """Fresh VTempProperty buffer for one iteration.

        Min-reduction programs start from the committed values (a message
        only wins by improving); sum-reduction programs override to start
        from zero.
        """
        return values.copy()

    # -- dynamic-graph hooks -------------------------------------------- #
    def inconsistent_vertices(self, batch: np.ndarray) -> np.ndarray:
        """Set-Inconsistency-Vertices unit (paper Sec. IV.C).

        Default (BFS/SSSP): the *source* vertices of the update batch.
        Undirected programs (CC) take both endpoints.
        """
        if self.undirected:
            return np.unique(batch.reshape(-1))
        return np.unique(batch[:, 0])
