"""GraphTinker core: the paper's primary contribution.

Public surface re-exported here:

* :class:`~repro.core.config.GTConfig` — geometry / feature configuration.
* :class:`~repro.core.graphtinker.GraphTinker` — the dynamic graph store.
* :class:`~repro.core.stats.AccessStats` — instrumentation counters.
* :func:`~repro.core.verify.verify_graph` / :func:`~repro.core.verify.
  repair_graph` — the store fsck and its self-healing mode.
"""

from repro.core.config import EngineConfig, GTConfig, StingerConfig
from repro.core.graphtinker import GraphTinker
from repro.core.stats import AccessStats
from repro.core.verify import (
    IntegrityViolation,
    RepairReport,
    VerifyReport,
    repair_graph,
    verify_graph,
)

__all__ = [
    "AccessStats",
    "EngineConfig",
    "GTConfig",
    "GraphTinker",
    "IntegrityViolation",
    "RepairReport",
    "StingerConfig",
    "VerifyReport",
    "repair_graph",
    "verify_graph",
]
