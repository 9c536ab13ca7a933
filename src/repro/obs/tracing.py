"""Structured tracing: nestable spans over the GraphTinker hot paths.

A *span* brackets one unit of work — an insert batch, a hybrid-engine
iteration, a full ``trace`` CLI run — and records wall time, an optional
:class:`~repro.core.stats.AccessStats` delta (how many block-granularity
memory events happened inside the span), and free-form attributes.  Spans
nest: entering a span inside another makes it a child, so a finished run
yields a trace *tree* whose per-leaf stats deltas sum to the enclosing
span's delta (and, transitively, to the store's totals).

The tracer is thread-safe in the way the partitioned stores need: the
active-span stack is thread-local (each thread builds its own subtree),
while the finished-root list and span bookkeeping are guarded by a lock.

Everything is gated on :data:`repro.obs.hooks.enabled`; with the switch
down :func:`span` yields a shared no-op span and records nothing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.stats import AccessStats
from repro.obs import hooks


@dataclass
class Span:
    """One recorded unit of work in the trace tree."""

    name: str
    attrs: dict[str, object] = field(default_factory=dict)
    start: float = 0.0
    duration: float = 0.0
    stats_delta: AccessStats | None = None
    children: list["Span"] = field(default_factory=list)

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    @property
    def n_descendants(self) -> int:
        return len(self.children) + sum(c.n_descendants for c in self.children)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` pairs in pre-order."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def merged_delta(self) -> AccessStats:
        """This span's stats delta, or the sum of its children's if the
        span itself was recorded without a stats object."""
        if self.stats_delta is not None:
            return self.stats_delta.snapshot()
        merged = AccessStats()
        for child in self.children:
            merged += child.merged_delta()
        return merged


class _NoopSpan:
    """Shared do-nothing stand-in yielded while tracing is disabled."""

    __slots__ = ()

    def set_attr(self, key: str, value: object) -> None:
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Collects finished spans into per-thread trace trees.

    Parameters
    ----------
    sample_every:
        Record only every N-th *root* span (children of a recorded root
        are always recorded).  ``1`` records everything; larger values
        cheapen tracing on long runs while keeping the tree shape
        representative.
    """

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._root_seen = 0
        self._listeners: list = []

    def add_listener(self, fn) -> None:
        """Call ``fn(span)`` whenever a sampled root span finishes.

        Listeners run outside the tracer lock and must not raise; the
        flight recorder uses this to keep its recent-span ring without
        the hot paths knowing about it.
        """
        self._listeners.append(fn)

    # ------------------------------------------------------------------ #
    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    @property
    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop every recorded root span (open spans are unaffected)."""
        with self._lock:
            self.roots = []
            self._root_seen = 0

    # ------------------------------------------------------------------ #
    @contextmanager
    def span(
        self,
        name: str,
        stats: AccessStats | None = None,
        **attrs: object,
    ) -> Iterator[Span | _NoopSpan]:
        """Open a nested span; record it on exit.

        ``stats`` is the live counter object of the system under
        measurement; when given, the span stores the
        snapshot/delta bracket of the counters across its body.  The
        bracket never mutates ``stats`` itself, so tracing cannot change
        the numbers it observes.
        """
        if not hooks.enabled:
            yield _NOOP
            return
        suppressed = getattr(self._tls, "suppress", 0)
        if suppressed:
            # Inside an unsampled root: the whole subtree stays dark, and
            # its spans must not look like fresh roots to the sampler.
            self._tls.suppress = suppressed + 1
            try:
                yield _NOOP
            finally:
                self._tls.suppress -= 1
            return
        stack = self._stack()
        if not stack:
            with self._lock:
                sampled = self._root_seen % self.sample_every == 0
                self._root_seen += 1
            if not sampled:
                self._tls.suppress = 1
                try:
                    yield _NOOP
                finally:
                    self._tls.suppress = 0
                return
        node = Span(name=name, attrs=dict(attrs), start=time.perf_counter())
        before = stats.snapshot() if stats is not None else None
        stack.append(node)
        try:
            yield node
        finally:
            stack.pop()
            node.duration = time.perf_counter() - node.start
            if before is not None and stats is not None:
                node.stats_delta = stats.delta(before)
            if stack:
                stack[-1].children.append(node)
            else:
                with self._lock:
                    self.roots.append(node)
                for listener in self._listeners:
                    try:
                        listener(node)
                    except Exception:  # noqa: BLE001 - listeners are best-effort
                        pass

    # ------------------------------------------------------------------ #
    def find(self, name: str) -> list[Span]:
        """All recorded spans with ``name``, in pre-order across roots."""
        with self._lock:
            roots = list(self.roots)
        return [s for root in roots for _, s in root.walk() if s.name == name]


#: Process-wide default tracer, used by the hot-path integration points.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer (returns the previous one)."""
    global _TRACER
    prior = _TRACER
    _TRACER = tracer
    return prior


def span(name: str, stats: AccessStats | None = None, **attrs: object):
    """``get_tracer().span(...)`` — the one-liner hot paths import."""
    return _TRACER.span(name, stats=stats, **attrs)
