"""GraphTinker reproduction (IPDPS 2019, Jaiyeoba & Skadron).

A from-scratch Python implementation of the GraphTinker dynamic-graph data
structure, the STINGER baseline, the edge-centric hybrid graph engine, the
Graph500 RMAT workload generator, and a benchmark harness regenerating
every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import GraphTinker, GTConfig
>>> gt = GraphTinker(GTConfig(pagewidth=64))
>>> gt.insert_edge(0, 1)
True

See ``examples/quickstart.py`` for the full tour.
"""

from repro.core import AccessStats, EngineConfig, GTConfig, GraphTinker, StingerConfig
from repro.errors import (
    CapacityError,
    ConfigError,
    EngineError,
    ReproError,
    ServiceError,
    VertexNotFoundError,
    WorkloadError,
)

__version__ = "1.0.0"

__all__ = [
    "AccessStats",
    "CapacityError",
    "ConfigError",
    "EngineConfig",
    "EngineError",
    "GTConfig",
    "GraphTinker",
    "ReproError",
    "ServiceError",
    "StingerConfig",
    "VertexNotFoundError",
    "WorkloadError",
    "__version__",
]
