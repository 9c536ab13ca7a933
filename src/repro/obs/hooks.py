"""The observability master switch and hot-path hook helpers.

Everything in :mod:`repro.obs` is **off by default** so that
instrumentation can never distort the cost-model numbers the reproduction
is built on (DESIGN.md §1): the hot paths guard every hook behind a single
module-level :data:`enabled` flag check, mirroring how
:class:`~repro.core.stats.AccessStats` counts at block granularity only.

Hot-path call sites therefore look like::

    from repro.obs import hooks

    before = self.stats.snapshot() if hooks.enabled else None
    ...  # the real work
    if before is not None:
        hooks.publish_store_delta("gt", self.stats.delta(before))

With the flag down the whole observability layer costs one attribute read
per *batch* (never per edge or per cell).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.stats import AccessStats

#: Master switch for tracing + metrics.  Mutate via :func:`enable` /
#: :func:`disable` (or the :func:`enabled_scope` context manager) so the
#: flag stays a plain module attribute — the cheapest thing a hot path
#: can test.
enabled: bool = False


def enable() -> None:
    """Turn the observability layer on (spans recorded, metrics counted)."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn the observability layer off (the default)."""
    global enabled
    enabled = False


def is_enabled() -> bool:
    """Current state of the master switch."""
    return enabled


@contextmanager
def enabled_scope(on: bool = True) -> Iterator[None]:
    """Temporarily force the master switch, restoring it on exit."""
    global enabled
    prior = enabled
    enabled = on
    try:
        yield
    finally:
        enabled = prior


# --------------------------------------------------------------------- #
# store-level publication
# --------------------------------------------------------------------- #
#: AccessStats fields worth publishing as per-store metrics, with the
#: metric suffix each maps to (see docs/observability.md for the naming
#: convention).
_STAT_METRICS: tuple[tuple[str, str], ...] = (
    ("rhh_swaps", "rhh.swaps"),
    ("branch_descents", "tbh.descents"),
    ("branch_allocations", "tbh.allocations"),
    ("workblock_fetches", "workblock.fetches"),
    ("workblock_writebacks", "workblock.writebacks"),
    ("random_block_reads", "block.random_reads"),
    ("seq_block_reads", "block.seq_reads"),
    ("hash_lookups", "sgh.lookups"),
    ("cal_updates", "cal.updates"),
    ("edges_inserted", "edges.inserted"),
    ("edges_deleted", "edges.deleted"),
    ("tombstones_set", "edges.tombstoned"),
)


def publish_ingest(op: str, kernel: str, n_edges: int,
                   duration_s: float | None = None) -> None:
    """Publish one ingest batch under its kernel: ``ingest.<op>.<kernel>.*``.

    Emits per-kernel batch and edge counters so a kernel rollout (or a
    scalar fallback, e.g. delete-and-compact batches) is visible in the
    metrics without changing any cost-model number.  ``duration_s``, when
    measured, additionally lands in the ``ingest.<op>.batch_ms`` quantile
    sketch (p50/p90/p99 per-batch ingest latency).  Callers must have
    checked :data:`enabled` already.
    """
    from repro.obs.metrics import get_registry

    registry = get_registry()
    registry.counter(f"ingest.{op}.{kernel}.batches").inc()
    registry.counter(f"ingest.{op}.{kernel}.edges").inc(n_edges)
    if duration_s is not None:
        registry.quantile(
            f"ingest.{op}.batch_ms", "per-batch ingest wall latency (ms)"
        ).record(duration_s * 1e3)


def publish_store_delta(prefix: str, delta: "AccessStats") -> None:
    """Publish one batch's :class:`AccessStats` delta as counters.

    ``prefix`` identifies the publishing store (``"gt"``, ``"stinger"``,
    ``"sharded"``); each non-zero field becomes an increment of the
    ``<prefix>.<suffix>`` counter in the default registry.  Callers must
    have checked :data:`enabled` already (the snapshot that produced
    ``delta`` is itself gated on it).
    """
    from repro.obs.metrics import get_registry

    registry = get_registry()
    for field_name, suffix in _STAT_METRICS:
        value = getattr(delta, field_name)
        if value:
            registry.counter(f"{prefix}.{suffix}").inc(value)
