"""Benchmark harness: memory-access cost model, metrics, reporting."""

from repro.bench.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.bench.metrics import load_stability, throughput
from repro.bench.reporting import Table

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Table",
    "load_stability",
    "throughput",
]
