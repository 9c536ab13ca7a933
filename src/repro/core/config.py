"""Configuration objects for the GraphTinker data structure.

The paper (Sec. V.A) fixes the default geometry to ``PAGEWIDTH = 64``
edge-cells per edgeblock, Subblocks of 8 cells and Workblocks of 4 cells,
chosen as "a good balance between effective data structure performance in
updating edges and in graph analytics computation".  Every geometry knob is
exposed here so the PAGEWIDTH sweeps of Figs. 17-19 can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigError

#: Paper defaults (Sec. V.A).
DEFAULT_PAGEWIDTH = 64
DEFAULT_SUBBLOCK = 8
DEFAULT_WORKBLOCK = 4
DEFAULT_CAL_GROUP_WIDTH = 1024
DEFAULT_CAL_BLOCK_SIZE = 64

#: STINGER's configured average edgeblock size (Sec. V.A).
DEFAULT_STINGER_EDGEBLOCK = 16

#: Hybrid engine mode-selection threshold on T = A / E (Sec. IV.B).
DEFAULT_HYBRID_THRESHOLD = 0.02


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class GTConfig:
    """Immutable GraphTinker configuration.

    Parameters
    ----------
    pagewidth:
        Number of edge-cells in one edgeblock (one row of the
        EdgeblockArray).  Larger values widen the hash range per block,
        reducing Robin-Hood collisions (better insert throughput) at the
        cost of a sparser layout (worse analytics throughput) — the
        trade-off of Figs. 17/18.
    subblock:
        Cells per Subblock, the branch-out granularity of Tree-Based
        Hashing.  Must divide ``pagewidth``.
    workblock:
        Cells per Workblock, the DRAM-retrieval granularity of the load
        unit.  Must divide ``subblock``.
    enable_rhh:
        Whether the Robin Hood displacement algorithm runs during inserts.
        The delete-and-compact mechanism disables RHH (paper Sec. III.C) to
        avoid the edge-tracking overhead of swaps.
    enable_sgh:
        Whether Scatter-Gather Hashing densifies source vertex ids.  The
        Sec. V.B ablation disables this.
    enable_cal:
        Whether the Coarse Adjacency List copy is maintained.  Fig. 8
        evaluates GraphTinker both with and without CAL.
    cal_group_width:
        Number of consecutive source vertex ids per CAL group.
    cal_block_size:
        Edge slots per CAL edgeblock.
    compact_on_delete:
        Selects the delete-and-compact mechanism instead of delete-only
        (tombstoning).  Implies RHH is bypassed for the compaction moves.
    initial_vertices:
        Number of main-region edgeblock rows pre-allocated.
    seed:
        Seed for the (deterministic) hash-mixing constants.
    snapshot:
        Attach the incrementally-maintained CSR analytics snapshot
        (:class:`~repro.engine.snapshot.AnalyticsSnapshot`) at
        construction, turning the engine's incremental / vertex-centric
        frontier loads into single vectorized gathers.  Bit-identical
        results and bit-identical modeled ``AccessStats`` with the
        feature on or off — only wall-clock changes (the analytics
        oracle in tests/test_differential.py enforces this).
    """

    pagewidth: int = DEFAULT_PAGEWIDTH
    subblock: int = DEFAULT_SUBBLOCK
    workblock: int = DEFAULT_WORKBLOCK
    enable_rhh: bool = True
    enable_sgh: bool = True
    enable_cal: bool = True
    cal_group_width: int = DEFAULT_CAL_GROUP_WIDTH
    cal_block_size: int = DEFAULT_CAL_BLOCK_SIZE
    compact_on_delete: bool = False
    initial_vertices: int = 16
    seed: int = 0x9E3779B9
    snapshot: bool = False

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.pagewidth):
            raise ConfigError(f"pagewidth must be a power of two, got {self.pagewidth}")
        if not _is_power_of_two(self.subblock):
            raise ConfigError(f"subblock must be a power of two, got {self.subblock}")
        if not _is_power_of_two(self.workblock):
            raise ConfigError(f"workblock must be a power of two, got {self.workblock}")
        if self.subblock > self.pagewidth:
            raise ConfigError("subblock size cannot exceed pagewidth")
        if self.workblock > self.subblock:
            raise ConfigError("workblock size cannot exceed subblock size")
        if self.pagewidth % self.subblock:
            raise ConfigError("subblock must divide pagewidth")
        if self.subblock % self.workblock:
            raise ConfigError("workblock must divide subblock")
        if self.cal_group_width <= 0:
            raise ConfigError("cal_group_width must be positive")
        if self.cal_block_size <= 0:
            raise ConfigError("cal_block_size must be positive")
        if self.initial_vertices <= 0:
            raise ConfigError("initial_vertices must be positive")

    @property
    def subblocks_per_block(self) -> int:
        """Number of Subblocks in one edgeblock."""
        return self.pagewidth // self.subblock

    @property
    def workblocks_per_subblock(self) -> int:
        """Number of Workblocks the load unit fetches per Subblock scan."""
        return self.subblock // self.workblock

    def with_(self, **changes: Any) -> "GTConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class StingerConfig:
    """Configuration of the STINGER baseline (Sec. V.A: edgeblock size 16).

    ``snapshot`` attaches the CSR analytics snapshot, exactly as on
    :class:`GTConfig` — bit-identical results and modeled costs, faster
    wall-clock frontier gathers.
    """

    edgeblock_size: int = DEFAULT_STINGER_EDGEBLOCK
    initial_vertices: int = 16
    snapshot: bool = False

    def __post_init__(self) -> None:
        if self.edgeblock_size <= 0:
            raise ConfigError("edgeblock_size must be positive")
        if self.initial_vertices <= 0:
            raise ConfigError("initial_vertices must be positive")


#: Degree-tiered backend defaults: inline rows up to degree 4, small
#: open-addressing sets up to 32, hash tables beyond — with a hysteresis
#: band of 2 so a vertex oscillating around a threshold does not thrash.
DEFAULT_TIER_TAU1 = 4
DEFAULT_TIER_TAU2 = 32
DEFAULT_TIER_HYSTERESIS = 2


@dataclass(frozen=True)
class TieredConfig:
    """Configuration of the degree-tiered :class:`~repro.core.tiered.TieredStore`.

    Parameters
    ----------
    tau1:
        Inline-tier degree ceiling.  A vertex is *promoted* from the
        inline array (tier 0) to the small open-addressing set (tier 1)
        when an insert pushes its degree above ``tau1``.
    tau2:
        Small-set degree ceiling; crossing it promotes the vertex to the
        large hash table (tier 2).
    hysteresis:
        Demotion slack.  A vertex only drops a tier once its degree falls
        to ``tau - hysteresis`` (not the moment it dips below ``tau``),
        so churn oscillating around a threshold cannot thrash
        promote/demote rebuilds.  Must satisfy ``1 <= hysteresis <= tau1``.
    initial_vertices:
        Source-id table slots pre-allocated (grown on demand).
    snapshot:
        Attach the CSR analytics snapshot at construction — the same
        charge-mirror contract as on :class:`GTConfig` /
        :class:`StingerConfig`.
    """

    tau1: int = DEFAULT_TIER_TAU1
    tau2: int = DEFAULT_TIER_TAU2
    hysteresis: int = DEFAULT_TIER_HYSTERESIS
    initial_vertices: int = 16
    snapshot: bool = False

    def __post_init__(self) -> None:
        if self.tau1 < 1:
            raise ConfigError(f"tau1 must be >= 1, got {self.tau1}")
        if self.tau2 <= self.tau1:
            raise ConfigError(
                f"tau2 must exceed tau1, got tau1={self.tau1} tau2={self.tau2}")
        if not (1 <= self.hysteresis <= self.tau1):
            raise ConfigError(
                f"hysteresis must be in [1, tau1], got {self.hysteresis}")
        if self.initial_vertices <= 0:
            raise ConfigError("initial_vertices must be positive")

    def with_(self, **changes: Any) -> "TieredConfig":
        """Return a copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)


#: Process-per-shard store defaults.  Two shards keep the conformance
#: suite cheap while still exercising cross-shard routing; production
#: runs size ``n_shards`` to the core count.
DEFAULT_SHARDS = 2


@dataclass(frozen=True)
class ShardedConfig:
    """Configuration of the process-per-shard
    :class:`~repro.core.sharded.ShardedStore`.

    Parameters
    ----------
    n_shards:
        Worker-process count.  Each shard owns the vertices that
        consistent-hash to it (``repro.core.hashing.partition_of``) and
        runs a full Store-protocol backend of its own.
    backend:
        Registry name of the per-shard backend
        (:func:`repro.core.store.create_store`); any registered backend
        other than ``"sharded"`` itself is legal.
    seed:
        Seed of the consistent-hash router.  Two sharded stores agree on
        vertex placement iff their seeds agree.
    snapshot:
        Attach the CSR analytics snapshot at construction — the same
        charge-mirror contract as on :class:`GTConfig`.

    All fields are JSON primitives so checkpoints can embed the config
    verbatim (see :mod:`repro.workloads.persistence`).
    """

    n_shards: int = DEFAULT_SHARDS
    backend: str = "graphtinker"
    seed: int = 0
    snapshot: bool = False

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.backend == "sharded":
            raise ConfigError("sharded shards cannot nest sharded backends")
        if not self.backend:
            raise ConfigError("backend name must be non-empty")

    def with_(self, **changes: Any) -> "ShardedConfig":
        """Return a copy with ``changes`` applied (validation re-runs)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class EngineConfig:
    """Hybrid graph-engine configuration (Sec. IV.B).

    ``predictor`` selects the Inference-Box heuristic:

    * ``"ratio"`` — the paper's published formula, T = A / E (active
      vertices over edges loaded), against ``threshold``.
    * ``"degree"`` — the paper's stated future-work heuristic: T' = D / E
      where D is the *total out-degree* of the active vertices, i.e. the
      actual number of edges an incremental iteration would touch.  The
      same ``threshold`` semantics apply (FP when T' exceeds it), but a
      degree-calibrated threshold should be supplied — see
      ``CostModel.hybrid_threshold_degree``.
    """

    threshold: float = DEFAULT_HYBRID_THRESHOLD
    max_iterations: int = 1_000_000
    predictor: str = "ratio"

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError("threshold must lie strictly between 0 and 1")
        if self.max_iterations <= 0:
            raise ConfigError("max_iterations must be positive")
        if self.predictor not in ("ratio", "degree"):
            raise ConfigError(f"unknown predictor {self.predictor!r}")
