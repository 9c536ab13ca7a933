"""Metrics registry: counters, gauges, and quantile sketches.

Instruments follow a dotted naming convention (``gt.rhh.swaps``,
``engine.mode.incremental``, ``stinger.block.random_reads`` — see
docs/observability.md) and live in a process-wide
:class:`MetricsRegistry`.  Stores and the hybrid engine publish into the
registry through the cheap hooks in :mod:`repro.obs.hooks`; nothing is
recorded while the master switch is down.

Distributions — probe distances, batch sizes, flush latencies — have one
instrument: the mergeable :class:`~repro.obs.quantiles.QuantileSketch`
(running count/sum/min/max/mean plus streaming quantiles), created with
:meth:`MetricsRegistry.quantile`.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.obs import hooks
from repro.obs.quantiles import (
    DEFAULT_CAPACITY,
    DEFAULT_QUANTILES as DEFAULT_SKETCH_QUANTILES,
    QuantileSketch,
)

class Counter:
    """Monotonically increasing count (e.g. ``gt.rhh.swaps``)."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        if hooks.enabled:
            self.value += amount


class Gauge:
    """Point-in-time value (e.g. ``engine.predictor``)."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        if hooks.enabled:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if hooks.enabled:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


Instrument = Counter | Gauge | QuantileSketch


class MetricsRegistry:
    """Thread-safe name → instrument map with get-or-create accessors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    def _get_or_create(self, name: str, cls, **kwargs) -> Instrument:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def quantile(self, name: str, help: str = "",
                 capacity: int = DEFAULT_CAPACITY,
                 quantiles: Sequence[float] = DEFAULT_SKETCH_QUANTILES,
                 ) -> QuantileSketch:
        """Get or create a streaming :class:`QuantileSketch` instrument."""
        return self._get_or_create(name, QuantileSketch, help=help,
                                   capacity=capacity, quantiles=quantiles)

    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def get(self, name: str) -> Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> list[Instrument]:
        """All instruments, sorted by name (stable export order)."""
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def collect(self) -> dict[str, float | Mapping[str, float]]:
        """Flat snapshot: counters/gauges → value, sketches → summary."""
        out: dict[str, float | Mapping[str, float]] = {}
        for inst in self.instruments():
            if isinstance(inst, QuantileSketch):
                out[inst.name] = inst.summary()
            else:
                out[inst.name] = inst.value
        return out

    def reset(self) -> None:
        """Forget every instrument (tests and fresh CLI runs)."""
        with self._lock:
            self._instruments.clear()


#: Process-wide default registry the hot-path hooks publish into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (returns the previous one)."""
    global _REGISTRY
    prior = _REGISTRY
    _REGISTRY = registry
    return prior
