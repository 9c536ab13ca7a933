"""Dataset registry reproducing Table 1 of the paper.

The paper evaluates on four Graph500 RMAT synthetics and two real-world
graphs from the UF Sparse Matrix Collection (hollywood-2009 and
kron_g500-logn21).  With no network access, the real-world graphs are
substituted by synthetic stand-ins whose generator parameters match the
properties that drive the experiments — vertex count, edge count, heavy
skew and (for hollywood) very high average degree (~100):

* ``hollywood_like`` — RMAT with a denser edge budget and a higher `a`
  quadrant weight, giving hub-dominated degrees like a collaboration
  network.
* ``kron_like`` — stock Graph500 Kronecker parameters at logn21 shape.

Every dataset is *scaled* by ``REPRO_SCALE`` (default 0.01): vertex-space
scale drops by log2(1/f) and the edge budget is multiplied by f, keeping
average degree roughly constant — the property that governs probe
distances and therefore the paper's trends.  All compared systems consume
identical scaled streams.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.rmat import rmat_edges_unique

#: Default scale factor applied to the paper's dataset sizes.
DEFAULT_SCALE = 0.01


def scale_factor() -> float:
    """The active dataset scale factor (env var ``REPRO_SCALE``)."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return DEFAULT_SCALE
    try:
        value = float(raw)
    except ValueError as exc:
        raise WorkloadError(f"REPRO_SCALE must be a float, got {raw!r}") from exc
    if not (0 < value <= 1):
        raise WorkloadError("REPRO_SCALE must lie in (0, 1]")
    return value


@dataclass(frozen=True)
class Dataset:
    """One evaluation dataset (paper Table 1 row).

    ``paper_vertices`` / ``paper_edges`` are the full-size figures from
    Table 1; ``scale``/``n_edges`` describe the generator invocation at
    the current scale factor.
    """

    name: str
    kind: str  # "synthetic" | "real-world (simulated)"
    paper_vertices: int
    paper_edges: int
    scale: int
    n_edges: int
    rmat_params: tuple[float, float, float, float]
    seed: int

    def generate(self) -> np.ndarray:
        """Materialise the scaled edge list (deterministic per dataset)."""
        a, b, c, d = self.rmat_params
        return rmat_edges_unique(
            self.scale, self.n_edges, a=a, b=b, c=c, d=d, seed=self.seed
        )


_G500 = (0.57, 0.19, 0.19, 0.05)
#: Denser hub structure for the hollywood-2009 stand-in.
_HOLLY = (0.65, 0.15, 0.15, 0.05)

#: Paper Table 1, in the paper's order.  (name, kind, |V|, |E|, params, seed)
_TABLE1 = [
    ("rmat_1m_10m", "synthetic", 1_000_192, 10_000_000, _G500, 11),
    ("rmat_500k_8m", "synthetic", 524_288, 8_380_000, _G500, 12),
    ("rmat_1m_16m", "synthetic", 1_048_576, 15_700_000, _G500, 13),
    ("rmat_2m_32m", "synthetic", 2_097_152, 31_770_000, _G500, 14),
    ("hollywood_like", "real-world (simulated)", 1_139_906, 113_891_327, _HOLLY, 15),
    ("kron_like", "real-world (simulated)", 2_097_153, 182_082_942, _G500, 16),
]


def _build_registry(factor: float) -> dict[str, Dataset]:
    registry: dict[str, Dataset] = {}
    for name, kind, pv, pe, params, seed in _TABLE1:
        # Keep average degree ~constant: shrink the vertex space by the
        # same factor as the edge budget.
        target_vertices = max(256, int(pv * factor))
        scale = max(8, math.ceil(math.log2(target_vertices)))
        n_edges = max(1024, int(pe * factor))
        # Cap density: the unique-edge draw must stay far from complete.
        max_edges = (1 << scale) * (1 << scale) // 8
        n_edges = min(n_edges, max_edges)
        registry[name] = Dataset(
            name=name,
            kind=kind,
            paper_vertices=pv,
            paper_edges=pe,
            scale=scale,
            n_edges=n_edges,
            rmat_params=params,
            seed=seed,
        )
    return registry


#: Registry at the import-time scale factor.  Call :func:`load_dataset`
#: with an explicit ``factor`` to override per call.
DATASETS: dict[str, Dataset] = _build_registry(scale_factor())

#: The paper's dataset display order.
DATASET_ORDER = [name for name, *_ in _TABLE1]


@lru_cache(maxsize=16)
def _cached_edges(name: str, factor: float) -> np.ndarray:
    ds = _build_registry(factor)[name]
    edges = ds.generate()
    edges.flags.writeable = False
    return edges


def load_dataset(name: str, factor: float | None = None) -> tuple[Dataset, np.ndarray]:
    """Return ``(dataset, edges)`` for a Table 1 dataset name.

    Edge arrays are cached per (name, factor) and returned read-only;
    copy before mutating.
    """
    factor = scale_factor() if factor is None else factor
    registry = _build_registry(factor)
    if name not in registry:
        raise WorkloadError(
            f"unknown dataset {name!r}; available: {sorted(registry)}"
        )
    return registry[name], _cached_edges(name, factor)


def dataset_properties(name: str, factor: float | None = None) -> dict[str, object]:
    """Measured properties of a dataset at the current scale (Table 1 row)."""
    ds, edges = load_dataset(name, factor)
    srcs = np.unique(edges[:, 0])
    verts = np.unique(edges)
    return {
        "name": ds.name,
        "type": ds.kind,
        "paper_vertices": ds.paper_vertices,
        "paper_edges": ds.paper_edges,
        "scaled_vertices": int(verts.shape[0]),
        "scaled_sources": int(srcs.shape[0]),
        "scaled_edges": int(edges.shape[0]),
        "avg_out_degree": float(edges.shape[0] / max(1, srcs.shape[0])),
    }
