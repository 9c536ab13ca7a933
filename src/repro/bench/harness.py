"""Experiment drivers shared by the per-figure benchmark files.

Each function reproduces one experimental *protocol* from the paper's
evaluation (Sec. V): batched insertion, batched deletion, analytics-
after-every-batch, multicore partitioned insertion, and the
update/analytics-ratio sweep.  The per-figure files under ``benchmarks/``
parameterise these drivers with the paper's datasets and knobs and print
the resulting rows.

Every driver returns both wall-clock and cost-model measurements; the
modeled numbers are the primary reproduction metric (see DESIGN.md §1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.bench.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.bench.metrics import BatchMeasurement, run_batched
from repro.core.stats import AccessStats
from repro.engine.hybrid import ComputeResult, HybridEngine
from repro.engine.gas import GASProgram
from repro.workloads.streams import EdgeStream


# --------------------------------------------------------------------- #
# insertion / deletion protocols (Figs. 8, 9, 14, 17)
# --------------------------------------------------------------------- #
def insertion_run(store, stream: EdgeStream) -> list[BatchMeasurement]:
    """Insert every batch of ``stream``; measure each batch.

    With :mod:`repro.obs` enabled, every batch lands in the trace tree as
    an ``insert_batch`` span whose stats delta matches the measurement's.
    """
    return run_batched(
        list(stream.insert_batches()), store.insert_batch, store.stats,
        span_name="insert_batch",
    )


def deletion_run(store, stream: EdgeStream, seed: int | None = 0) -> list[BatchMeasurement]:
    """Delete the stream's edges batch-by-batch from a loaded store."""
    return run_batched(
        list(stream.delete_batches(seed)), store.delete_batch, store.stats,
        span_name="delete_batch",
    )


# --------------------------------------------------------------------- #
# analytics protocols (Figs. 11-13, 15, 16, 18)
# --------------------------------------------------------------------- #
@dataclass
class AnalyticsMeasurement:
    """One analytics pass over the current graph.

    ``graph_edges`` is the live edge count at measurement time; modeled
    throughput is TEPS-style — graph edges per unit modeled time — so
    engines doing *redundant* work (full mode re-streams every edge each
    iteration) pay for it in the denominator rather than being credited
    for it in the numerator.  ``edges_processed`` (total edges loaded
    across iterations, redundancy included) is kept for work accounting.
    """

    label: str
    graph_edges: int
    edges_processed: int
    wall_seconds: float
    stats_delta: AccessStats
    iterations: int = 0
    modes: list[str] = field(default_factory=list)

    def modeled_throughput(self, model: CostModel = DEFAULT_COST_MODEL) -> float:
        return model.throughput(self.graph_edges, self.stats_delta)

    @property
    def wall_throughput(self) -> float:
        return self.graph_edges / self.wall_seconds if self.wall_seconds > 0 else 0.0


def analytics_after_each_batch(
    store,
    stream: EdgeStream,
    program_factory: Callable[[], GASProgram],
    policy: str,
    roots: Sequence[int] | None = None,
    weights: np.ndarray | None = None,
    engine_kwargs: dict | None = None,
) -> list[AnalyticsMeasurement]:
    """The Figs. 11-13 protocol.

    Batches are loaded in turn; after each batch the engine re-runs the
    algorithm on the current graph from a fresh analysis state (the paper
    runs "the given graph analytics algorithm on the current state of the
    graph" after each batch).  Incremental/hybrid policies still benefit
    inside the run: the per-iteration frontier shrinks as the fixed point
    nears, which is exactly where IP wins.
    """
    out: list[AnalyticsMeasurement] = []
    offset = 0
    for i, batch in enumerate(stream.insert_batches()):
        if weights is not None:
            store.insert_batch(batch, weights[offset : offset + batch.shape[0]])
        else:
            store.insert_batch(batch)
        offset += batch.shape[0]
        program = program_factory()
        engine = HybridEngine(store, program, policy=policy, **(engine_kwargs or {}))
        engine.reset(roots=np.asarray(roots if roots is not None else [], dtype=np.int64))
        engine.mark_inconsistent(batch)
        before = store.stats.snapshot()
        t0 = time.perf_counter()
        result = engine.compute()
        elapsed = time.perf_counter() - t0
        out.append(
            AnalyticsMeasurement(
                label=f"batch{i}",
                graph_edges=store.n_edges,
                edges_processed=result.edges_processed,
                wall_seconds=elapsed,
                stats_delta=store.stats.delta(before),
                iterations=result.n_iterations,
                modes=result.modes_used(),
            )
        )
    return out


def analytics_once(
    store,
    program_factory: Callable[[], GASProgram],
    policy: str,
    roots: Sequence[int] | None = None,
    seed_batch: np.ndarray | None = None,
) -> AnalyticsMeasurement:
    """One from-scratch analytics pass on the store's current graph."""
    program = program_factory()
    engine = HybridEngine(store, program, policy=policy)
    engine.reset(roots=np.asarray(roots if roots is not None else [], dtype=np.int64))
    if seed_batch is not None and seed_batch.size:
        engine.mark_inconsistent(seed_batch)
    before = store.stats.snapshot()
    t0 = time.perf_counter()
    result = engine.compute()
    elapsed = time.perf_counter() - t0
    return AnalyticsMeasurement(
        label=policy,
        graph_edges=store.n_edges,
        edges_processed=result.edges_processed,
        wall_seconds=elapsed,
        stats_delta=store.stats.delta(before),
        iterations=result.n_iterations,
        modes=result.modes_used(),
    )


# --------------------------------------------------------------------- #
# multicore protocol (Fig. 10)
# --------------------------------------------------------------------- #
@dataclass
class ParallelBatchMeasurement:
    """One batch across partitions: makespan = slowest partition.

    ``wall_seconds`` is the *measured* wall-clock of the whole batch on
    the :class:`~repro.core.sharded.ShardedStore` worker processes.
    Keep it separate from the modeled makespan when reporting: the
    modeled number is the paper's multicore claim, the wall number is
    what this host did.
    """

    batch_index: int
    n_edges: int
    per_partition: list[AccessStats]
    wall_seconds: float = 0.0

    def makespan_cost(self, model: CostModel = DEFAULT_COST_MODEL) -> float:
        return max((model.cost(s) for s in self.per_partition), default=0.0)

    def modeled_throughput(self, model: CostModel = DEFAULT_COST_MODEL) -> float:
        c = self.makespan_cost(model)
        return self.n_edges / c if c > 0 else float("inf")

    @property
    def wall_throughput(self) -> float:
        """Measured edges/second (0 when the batch was too fast to time)."""
        return self.n_edges / self.wall_seconds if self.wall_seconds > 0 else 0.0


def parallel_insertion_run(
    store, stream: EdgeStream
) -> list[ParallelBatchMeasurement]:
    """Insert batches through a :class:`~repro.core.sharded.ShardedStore`
    (Sec. III.D).

    Each batch's parallel time is the maximum of the per-partition
    modeled costs (``store.last_batch_partitions``) — the critical path
    of independent instances.
    """
    out: list[ParallelBatchMeasurement] = []
    for i, batch in enumerate(stream.insert_batches()):
        t0 = time.perf_counter()
        store.insert_batch(batch)
        wall = time.perf_counter() - t0
        out.append(
            ParallelBatchMeasurement(
                batch_index=i, n_edges=int(batch.shape[0]),
                per_partition=list(store.last_batch_partitions),
                wall_seconds=wall,
            )
        )
    return out
