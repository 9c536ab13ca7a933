"""Parallel GraphTinker instances on multicore systems (paper Sec. III.D).

The paper parallelises by partitioning the edge stream into *intervals*
according to where source vertex ids hash, then loading each interval into
an independent GraphTinker instance — one per core, no shared state and no
cross-instance traffic.  :class:`PartitionedGraphTinker` reproduces that
design: a batch is split by a vectorised hash of the source column and
each partition's sub-batch is applied to its own instance.

Multicore timing model
----------------------
Because the instances are fully independent, the parallel makespan of a
batch is the *maximum* over partitions of the per-partition cost; the
benchmark harness evaluates that with the memory-access cost model (see
``repro.bench.costmodel``).  A wall-clock ``multiprocessing`` path is also
provided for demonstration (``examples/parallel_updates.py``); it is not
the default in benches because process spawn/IPC overheads at our scaled
dataset sizes would swamp the effect being measured.

This class remains the *charging oracle*: its per-partition deltas define
the modeled makespan that Fig. 10 reports, and the process-per-shard
:class:`repro.core.sharded.ShardedStore` reproduces the identical deltas
(same router, same per-instance streams) while actually running the
shards on separate cores.  Partitions are applied one after another
here; use ``ShardedStore`` for measured wall-clock parallelism.

The same partitioning applies verbatim to the STINGER baseline, which is
how Fig. 10 compares the two at 1-8 cores.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.config import GTConfig, StingerConfig
from repro.core.graphtinker import GraphTinker
from repro.core.hashing import partition_of_array
from repro.core.stats import AccessStats
from repro.errors import ConfigError
from repro.obs import hooks as obs_hooks


class PartitionedStore:
    """Interval-partitioned wrapper over independent store instances.

    Parameters
    ----------
    n_partitions:
        Number of instances (cores being modelled).
    factory:
        Zero-argument callable building one store instance
        (:class:`GraphTinker`, :class:`~repro.stinger.Stinger`, ...).
    seed:
        Seed of the interval hash.
    """

    def __init__(self, n_partitions: int, factory: Callable[[], object], seed: int = 0):
        if n_partitions <= 0:
            raise ConfigError("n_partitions must be positive")
        self.n_partitions = n_partitions
        self.seed = seed
        self.instances = [factory() for _ in range(n_partitions)]

    # ------------------------------------------------------------------ #
    def partition_batch(self, edges: np.ndarray) -> list[np.ndarray]:
        """Split an ``(n, 2)`` batch into per-partition sub-batches.

        The split preserves the stream order within each partition, so a
        partitioned run applies exactly the same per-instance operation
        sequence a dedicated core would see.
        """
        edges = np.asarray(edges, dtype=np.int64)
        parts = partition_of_array(edges[:, 0], self.n_partitions, self.seed)
        return [edges[parts == p] for p in range(self.n_partitions)]

    def insert_batch(self, edges: np.ndarray) -> list[AccessStats]:
        """Apply a batch across partitions; return per-partition deltas.

        The deltas (one :class:`AccessStats` per instance) let the caller
        compute the parallel makespan ``max_p cost(delta_p)`` as well as
        aggregate work ``sum_p cost(delta_p)``.
        """
        deltas = self._apply("insert_batch", edges)
        self._publish(deltas)
        return deltas

    def delete_batch(self, edges: np.ndarray) -> list[AccessStats]:
        """Delete a batch across partitions; return per-partition deltas."""
        deltas = self._apply("delete_batch", edges)
        self._publish(deltas)
        return deltas

    def _apply(self, op: str, edges: np.ndarray) -> list[AccessStats]:
        """Run ``op`` on every partition's sub-batch, in partition order."""
        deltas = []
        for inst, sub in zip(self.instances, self.partition_batch(edges)):
            before = inst.stats.snapshot()
            getattr(inst, op)(sub)
            deltas.append(inst.stats.delta(before))
        return deltas

    def _publish(self, deltas: Sequence[AccessStats]) -> None:
        """Publish a batch's aggregate delta under the ``part.`` prefix."""
        if not obs_hooks.enabled:
            return
        merged = AccessStats()
        for delta in deltas:
            merged += delta
        obs_hooks.publish_store_delta("part", merged)
        from repro.obs.metrics import get_registry

        get_registry().gauge("part.partitions").set(self.n_partitions)

    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        return sum(inst.n_edges for inst in self.instances)

    @property
    def n_vertices(self) -> int:
        """Total non-empty vertices across instances.

        Interval partitioning assigns each source vertex to exactly one
        instance, so the sum is duplicate-free.
        """
        return sum(inst.n_vertices for inst in self.instances)

    def has_edge(self, src: int, dst: int) -> bool:
        return self._instance_for(src).has_edge(src, dst)

    def degree(self, src: int) -> int:
        return self._instance_for(src).degree(src)

    def _instance_for(self, src: int):
        part = int(partition_of_array(np.asarray([src]), self.n_partitions, self.seed)[0])
        return self.instances[part]

    def merged_stats(self) -> AccessStats:
        """Aggregate counters across all instances."""
        merged = AccessStats()
        for inst in self.instances:
            merged += inst.stats
        return merged

    def check_invariants(self) -> None:
        for inst in self.instances:
            inst.check_invariants()


class PartitionedGraphTinker(PartitionedStore):
    """Convenience: interval-partitioned GraphTinker instances."""

    def __init__(self, n_partitions: int, config: GTConfig | None = None, seed: int = 0):
        cfg = config if config is not None else GTConfig()
        super().__init__(n_partitions, lambda: GraphTinker(cfg), seed)


class PartitionedStinger(PartitionedStore):
    """Convenience: interval-partitioned STINGER instances (Fig. 10)."""

    def __init__(self, n_partitions: int, config: StingerConfig | None = None, seed: int = 0):
        from repro.stinger import Stinger

        cfg = config if config is not None else StingerConfig()
        super().__init__(n_partitions, lambda: Stinger(cfg), seed)
