"""The formal ``Store`` protocol and the backend registry.

Every dynamic-graph backend in this repo — GraphTinker, the STINGER
baseline, the degree-tiered :class:`~repro.core.tiered.TieredStore`, and
any future backend (cuckoo, mmap) — speaks one explicit contract.  The
engine, the analytics snapshot, the durable service, persistence, the
network layer, and the benchmark harness all program against this
protocol; none of them is allowed to probe a backend with ``hasattr`` /
``isinstance`` anymore.

The contract
------------

**Determinism.**  Every method is deterministic: the same operation
sequence applied to a fresh store yields the same logical edge set, the
same neighbor *order* per vertex, and the same
:class:`~repro.core.stats.AccessStats` charges.  This is what makes the
differential oracle (`tests/test_differential.py`), the store digest,
and the snapshot charge mirror possible.

**Mutators.**  ``insert_edge(src, dst, weight)`` returns ``True`` for a
new edge and ``False`` for an in-place weight update (duplicate).
``delete_edge`` returns whether the edge existed; deleting a missing
edge (or from an unknown source) is a ``False``, never an error.
Self-loops are ordinary edges.  Negative ids are *rejected on insert*
(``ValueError`` — they collide with cell sentinels) and miss on delete.
``insert_batch`` / ``delete_batch`` are event-equivalent to the
per-edge loop over their rows and return the new/existed counts.

**Queries.**  ``degree`` / ``has_edge`` / ``edge_weight`` answer 0 /
``False`` / ``None`` for anything never inserted.  ``neighbors`` may
raise :class:`~repro.errors.VertexNotFoundError` for a *never-seen*
source, but must return correct (possibly empty) arrays for any source
it has ever allocated.  ``neighbors_many`` is the batched frontier
gather: it sanitizes its input (sorted unique, negatives dropped) and
returns ``(src, dst, weight)`` triples equal to the per-vertex loop of
:func:`repro.engine.snapshot.gather_active_scalar`.

**Snapshot hooks.**  ``enable_snapshot()`` attaches (and returns) the
incrementally-maintained CSR view (every built-in backend inherits the
three hooks from :class:`StoreBase`); mutators must notify it of every
dirtied dense row (the dirty-row contract — uncharged bookkeeping).
The view drives rows through four protocol members:
``dense_row_count()`` (how many dense adjacency rows exist),
``row_neighbors(row)`` (the charged native walk of one dense row —
re-running it on an unchanged row must charge the identical stats
delta, which is what the charge mirror replays), ``measure_rows(rows)``
(many rows' walks at once, *uncharged*, each row's charge returned
beside its data — :class:`RowStoreDefaults` loops over
``row_neighbors``; GraphTinker answers in one level-synchronous pass)
and ``id_translator`` (the original↔dense mapping unit, or ``None``
when rows are original ids).  ``full_load_is_row_sweep`` declares
whether the store's full (FP) load is the same per-row sweep — ``True``
for chain/row stores, ``False`` for a CAL-backed GraphTinker whose FP
load streams in CAL insertion order (the view then captures that
stream once per mutation epoch).

**Persistence.**  ``analytics_edges()`` (original ids) is the portable
representation :func:`repro.workloads.persistence.save_snapshot`
checkpoints; restoring replays it through ``insert_batch`` of a store
built from the embedded config (see :func:`store_from_config`).

**Integrity.**  ``fsck(level=..., repair=...)`` returns a
:class:`~repro.core.verify.VerifyReport` (or ``RepairReport`` when
repairing) without perturbing the access accounting; it is what the
service's post-recovery audit calls.  ``check_invariants()`` is one
shared definition over it (:class:`StoreBase`): it raises
``AssertionError`` with the report's summary exactly when
``fsck(level="full")`` reports a violation.

Registering a backend
---------------------

Call :func:`register_backend` with a name and a factory
``(config=None, *, snapshot=None) -> Store``; the factory's
product is validated against the protocol at construction time
(:func:`validate_store` raises a typed
:class:`~repro.errors.StoreProtocolError` naming every missing member).
A registered backend is automatically covered by the conformance suite
(``tests/test_store_conformance.py``) and reachable from
:func:`create_store` / the CLI ``--system`` flags.  The registry is the
one table from a backend name, or a built-in config class, to a store:
:func:`store_from_config` and the checkpoint reader look config classes
up in it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import time
from typing import Any, Callable, Iterator, Protocol, runtime_checkable

import numpy as np

from repro.core.config import (
    GTConfig,
    ShardedConfig,
    StingerConfig,
    TieredConfig,
)
from repro.core.stats import STAT_FIELDS, AccessStats
from repro.errors import StoreProtocolError, WorkloadError
from repro.obs import hooks as obs_hooks


@runtime_checkable
class Store(Protocol):
    """Structural type of a dynamic-graph backend (see module docstring).

    The authoritative member list is :data:`STORE_PROTOCOL_MEMBERS`;
    :func:`validate_store` enforces it with a typed error.
    """

    config: Any
    stats: AccessStats

    # sizes ------------------------------------------------------------- #
    @property
    def n_vertices(self) -> int: ...
    @property
    def n_edges(self) -> int: ...

    # mutators ----------------------------------------------------------- #
    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> bool: ...
    def insert_batch(self, edges: np.ndarray,
                     weights: np.ndarray | None = None) -> int: ...
    def delete_edge(self, src: int, dst: int) -> bool: ...
    def delete_batch(self, edges: np.ndarray) -> int: ...
    def delete_vertex(self, src: int) -> int: ...

    # queries ------------------------------------------------------------ #
    def has_edge(self, src: int, dst: int) -> bool: ...
    def edge_weight(self, src: int, dst: int) -> float | None: ...
    def degree(self, src: int) -> int: ...
    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]: ...
    def neighbors_many(
        self, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...
    def edges(self) -> Iterator[tuple[int, int, float]]: ...
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...
    def analytics_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    # dense-row / translation surface (snapshot + FP-VC sweeps) ---------- #
    def original_ids(self, dense: np.ndarray) -> np.ndarray: ...
    def dense_row_count(self) -> int: ...
    def row_neighbors(self, row: int) -> tuple[np.ndarray, np.ndarray]: ...
    def measure_rows(self, rows: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]: ...
    @property
    def id_translator(self) -> Any | None: ...
    @property
    def full_load_is_row_sweep(self) -> bool: ...

    # analytics snapshot hooks ------------------------------------------- #
    def enable_snapshot(self): ...
    def disable_snapshot(self) -> None: ...
    @property
    def analytics_snapshot(self): ...

    # integrity ----------------------------------------------------------- #
    def check_invariants(self) -> None: ...
    def fsck(self, level: str = "full", repair: bool = False): ...


#: Every member a conforming backend must expose (the runtime contract
#: behind :class:`Store`; kept as an explicit tuple so the validator's
#: error can name exactly what is missing).
STORE_PROTOCOL_MEMBERS: tuple[str, ...] = (
    "config", "stats", "n_vertices", "n_edges",
    "insert_edge", "insert_batch", "delete_edge", "delete_batch",
    "delete_vertex",
    "has_edge", "edge_weight", "degree", "neighbors", "neighbors_many",
    "edges", "edge_arrays", "analytics_edges",
    "original_ids", "dense_row_count", "row_neighbors", "measure_rows",
    "id_translator", "full_load_is_row_sweep",
    "enable_snapshot", "disable_snapshot", "analytics_snapshot",
    "check_invariants", "fsck",
)


class StoreBase:
    """What every built-in store shares: the analytics-snapshot hooks and
    the integrity assertion over the store's own ``fsck``.

    The store holds its :class:`~repro.engine.snapshot.AnalyticsSnapshot`
    in ``_analytics_snapshot``; the snapshot refers back weakly, so there
    is no store <-> snapshot cycle to wait on the cyclic collector.
    """

    _analytics_snapshot = None

    def enable_snapshot(self):
        """Attach (and return) the incrementally-maintained CSR view.

        The engine's incremental / vertex-centric loads then become
        single vectorized gathers; results and modeled AccessStats are
        bit-identical either way (the snapshot's charge-mirror contract).
        Imported lazily so stores without the feature never load the
        engine package.
        """
        if self._analytics_snapshot is None:
            from repro.engine.snapshot import AnalyticsSnapshot

            self._analytics_snapshot = AnalyticsSnapshot(self)
        return self._analytics_snapshot

    def disable_snapshot(self) -> None:
        """Detach the CSR view (subsequent loads use the native walks)."""
        self._analytics_snapshot = None

    @property
    def analytics_snapshot(self):
        """The attached :class:`AnalyticsSnapshot`, or ``None``."""
        return self._analytics_snapshot

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` (the fsck summary) exactly when
        ``fsck(level="full")`` reports a violation; stats untouched."""
        report = self.fsck(level="full")
        if not report.ok:
            raise AssertionError(report.summary())


class RowStoreDefaults(StoreBase):
    """Everything a row store derives from its per-row core.

    A row store (STINGER, ``tiered``, ``sharded``, the teaching
    baselines) keys rows by original id and walks them only with
    ``neighbors``.  It writes ``insert_edge``, ``delete_edge``,
    ``edge_weight``, ``neighbors``, ``degree`` and ``delete_vertex``;
    here the batch mutators are the per-op loop and the full load is the
    charged ``neighbors`` sweep, which is what ``full_load_is_row_sweep``
    promises the snapshot.  The batched members are also the references
    a backend's own bulk version (GraphTinker's) is tested against.
    ``fsck`` is the one audit-and-repair skeleton such a store needs; a
    backend supplies only its extra checks and its repair body.
    """

    #: The name a store's batches publish under when :mod:`repro.obs` is
    #: enabled: ``<obs_name>.*`` stats counters, ``ingest.<op>.<obs_name>.*``.
    obs_name: str

    def insert_batch(self, edges: np.ndarray,
                     weights: np.ndarray | None = None) -> int:
        """Insert an ``(n, 2)`` edge batch; returns the number of new edges."""
        edges, weights = check_edge_batch(edges, weights)
        if weights is None:
            weights = np.ones(edges.shape[0], dtype=np.float64)
        return self._per_op("insert", self.insert_edge, edges, weights.tolist())

    def delete_batch(self, edges: np.ndarray) -> int:
        """Delete a batch of edges; returns how many existed."""
        edges, _ = check_edge_batch(edges, negative_ok=True)
        return self._per_op("delete", self.delete_edge, edges)

    def _per_op(self, op: str, mutate, edges: np.ndarray, *weights) -> int:
        """Run ``mutate`` over the batch's rows in order; publish the
        batch's stats delta and ingest counters when obs is enabled."""
        before = self.stats.snapshot() if obs_hooks.enabled else None
        t0 = time.perf_counter()
        count = int(sum(map(mutate, edges[:, 0].tolist(), edges[:, 1].tolist(),
                            *weights)))
        if before is not None:
            obs_hooks.publish_store_delta(self.obs_name, self.stats.delta(before))
            obs_hooks.publish_ingest(op, self.obs_name, int(edges.shape[0]),
                                     time.perf_counter() - t0)
        return count

    def has_edge(self, src: int, dst: int) -> bool:
        return self.edge_weight(src, dst) is not None

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All live edges as ``(src, dst, weight)`` arrays: the charged
        ``neighbors`` walk of every row, in row order."""
        n_rows = self.dense_row_count()
        walks = [self.neighbors(row) for row in range(n_rows)]
        return (np.repeat(np.arange(n_rows, dtype=np.int64),
                          [d.shape[0] for d, _ in walks]),
                np.concatenate([np.empty(0, dtype=np.int64)]
                               + [d for d, _ in walks]),
                np.concatenate([np.empty(0, dtype=np.float64)]
                               + [w for _, w in walks]))

    def analytics_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Engine load path; a row store's rows are already original ids."""
        return self.edge_arrays()

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every live edge as ``(src, dst, weight)``."""
        src, dst, weight = self.analytics_edges()
        yield from zip(src.tolist(), dst.tolist(), weight.tolist())

    def original_ids(self, dense: np.ndarray) -> np.ndarray:
        """The identity translation."""
        return np.asarray(dense, dtype=np.int64)

    def dense_row_count(self) -> int:
        return self.n_vertices

    def row_neighbors(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Charged native walk of row ``row``."""
        return self.neighbors(row)

    @property
    def id_translator(self):
        """No original<->dense indirection."""
        return None

    def neighbors_many(
        self, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched frontier gather: one CSR gather with the analytics
        snapshot attached, else the per-vertex reference loop (sorted
        unique, negatives dropped) — same triples, same charges."""
        from repro.engine.snapshot import gather_active_scalar, sanitize_active

        snap = self.analytics_snapshot
        if snap is not None:
            return snap.gather_active(active)
        return gather_active_scalar(self, sanitize_active(active))

    def measure_rows(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, dst, weight, charges)`` of dense ``rows``, uncharged.

        ``dst`` / ``weight`` hold each row's ``row_neighbors`` output
        back to back, ``counts[i]`` of them for ``rows[i]``;
        ``charges[i]`` is the stats delta that walk charged, one column
        per :data:`~repro.core.stats.STAT_FIELDS` name.  The live
        counters are put back: measuring must not perturb the accounting.
        """
        stats = self.stats
        marks = [[getattr(stats, name) for name in STAT_FIELDS]]
        dsts = [np.empty(0, dtype=np.int64)]
        weights = [np.empty(0, dtype=np.float64)]
        try:
            for row in np.asarray(rows, dtype=np.int64).tolist():
                dst, weight = self.row_neighbors(row)
                dsts.append(dst)
                weights.append(weight)
                marks.append([getattr(stats, name) for name in STAT_FIELDS])
        finally:
            for name, value in zip(STAT_FIELDS, marks[0]):
                setattr(stats, name, value)
        counts = np.array([a.shape[0] for a in dsts[1:]], dtype=np.int64)
        charges = np.diff(np.array(marks, dtype=np.int64), axis=0)
        return counts, np.concatenate(dsts), np.concatenate(weights), charges

    def fsck(self, level: str = "full", repair: bool = False):
        """Audit (and with ``repair`` heal) the store; returns a
        :class:`~repro.core.verify.VerifyReport` or ``RepairReport``.

        The protocol-level audit: per-row walks agree with ``degree``,
        rows are duplicate-free, and the row degrees sum to ``n_edges``;
        :meth:`_fsck_checks` appends the backend's own violations.
        ``repair`` runs the backend's :meth:`_fsck_repair`, invalidates
        an attached snapshot (repairs move rows behind the dirty-row
        marks) and re-audits.  Access accounting is restored: auditing
        and repairing never perturb the modeled counters.
        """
        from repro.core.verify import RepairReport, VerifyReport

        report = self._audit(level)
        if not repair:
            return report
        out = RepairReport(initial=report, final=VerifyReport(level))
        backup = self.stats.snapshot()
        try:
            self._fsck_repair(out)
        finally:
            self.stats.reset()
            self.stats.merge(backup)
        if self._analytics_snapshot is not None:
            self._analytics_snapshot.invalidate()
        undecided = out.final.violations  # invisible to the re-audit
        out.final = self._audit(level)
        out.final.violations += undecided
        return out

    def _fsck_checks(self, violations: list, level: str) -> None:
        """Append the backend's own violations (none by default)."""

    def _fsck_repair(self, out) -> None:
        """Heal what ``out.initial`` reports, filling ``out``'s vertex
        lists, and ``out.final`` with what it could not decide (nothing
        to heal by default)."""

    def _audit(self, level: str):
        """The audit half of :meth:`fsck` (a ``VerifyReport``)."""
        from repro.core.verify import (
            IntegrityViolation,
            V_DEGREE,
            V_DUPLICATE,
            VerifyReport,
        )

        t0 = time.perf_counter()
        backup = self.stats.snapshot()
        violations: list = []
        total = 0
        n_rows = self.dense_row_count()
        try:
            for row in range(n_rows):
                dsts, _ = self.row_neighbors(row)
                deg = self.degree(row)
                if dsts.shape[0] != deg:
                    violations.append(IntegrityViolation(
                        V_DEGREE, row,
                        f"walk found {dsts.shape[0]} edges but degree says {deg}"))
                if np.unique(dsts).shape[0] != dsts.shape[0]:
                    violations.append(IntegrityViolation(
                        V_DUPLICATE, row, "duplicate destinations in one row"))
                total += dsts.shape[0]
            if total != self.n_edges:
                violations.append(IntegrityViolation(
                    V_DEGREE, -1,
                    f"rows hold {total} live edges but n_edges says {self.n_edges}"))
            self._fsck_checks(violations, level)
        finally:
            self.stats.reset()
            self.stats.merge(backup)
        return VerifyReport(level=level, violations=violations,
                            n_vertices=n_rows, n_edges=self.n_edges,
                            elapsed=time.perf_counter() - t0)


def check_edge_batch(edges: Any, weights: Any = None, *,
                     negative_ok: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Admit one edge batch: ``(edges, weights)`` as int64 / float64 arrays.

    ``edges`` must have shape ``(n, 2)`` and, unless ``negative_ok`` (a
    delete of a negative id is a miss, not an error), non-negative ids:
    the edge-cell encoding reserves -1 / -2 as its EMPTY / TOMBSTONE
    sentinels.  ``weights``, when given, must hold one weight per edge.
    Raises :class:`~repro.errors.WorkloadError` (a ``ValueError``).  The
    one validator of the backends' batch mutators, the service's
    admission and the wire's request parsing, so a batch a store would
    reject is refused before the write-ahead log sees it.
    """
    try:
        edges = np.asarray(edges, dtype=np.int64)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise WorkloadError(f"edges or weights are not numeric: {exc}") from exc
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise WorkloadError(f"edges must have shape (n, 2), got {edges.shape}")
    if not negative_ok and edges.size and edges.min() < 0:
        raise WorkloadError("vertex ids must be non-negative")
    if weights is not None and (weights.ndim != 1 or weights.shape[0] != edges.shape[0]):
        raise WorkloadError("weights length must match edge count")
    return edges, weights


def validate_store(store: Any, name: str | None = None) -> Any:
    """Assert ``store`` implements the full protocol; return it.

    Raises :class:`~repro.errors.StoreProtocolError` naming every missing
    member — so an incomplete backend fails at construction, not deep in
    an engine kernel.
    """
    missing = [m for m in STORE_PROTOCOL_MEMBERS if not hasattr(store, m)]
    if missing:
        label = name or type(store).__name__
        raise StoreProtocolError(
            f"{label} does not implement the Store protocol; missing "
            f"member{'s' if len(missing) > 1 else ''}: {', '.join(missing)}"
        )
    return store


# --------------------------------------------------------------------- #
# backend registry
# --------------------------------------------------------------------- #
#: name -> (factory, description).  Factories take
#: ``(config=None, *, snapshot=None)``.
_BACKENDS: dict[str, tuple[Callable[..., Any], str]] = {}


def register_backend(name: str, factory: Callable[..., Any],
                     description: str = "", replace: bool = False) -> None:
    """Register a backend factory under ``name``.

    The factory must accept ``(config=None, *, snapshot=None)`` and
    return a protocol-complete store (the product is validated on every
    :func:`create_store` call).  Registration makes the backend reachable
    from :func:`create_store` / the CLI and enrolls it in the
    conformance suite.
    """
    if name in _BACKENDS and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = (factory, description)


def backend_names() -> list[str]:
    """Registered backend names, registration order preserved."""
    return list(_BACKENDS)


def create_store(name: str, config: Any | None = None, *,
                 snapshot: bool | None = None) -> Any:
    """Build (and protocol-validate) a registered backend by name.

    ``config`` defaults to the backend's own default config; ``snapshot``
    overrides its ``snapshot`` field (attach the CSR analytics view).
    """
    try:
        factory, _ = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown store kind {name!r} (registered: "
            f"{', '.join(backend_names())})"
        ) from None
    return validate_store(factory(config, snapshot=snapshot), name=name)


def _family_heads() -> Iterator[tuple[str, "_Builtin"]]:
    """Each built-in backend that pins no ablation, with its name."""
    for name, (factory, _) in _BACKENDS.items():
        if isinstance(factory, _Builtin) and not factory.ablation:
            yield name, factory


def store_from_config(config: Any | None):
    """Build the backend a config object describes (persistence/recovery).

    The built-in backend whose config class is ``type(config)`` and that
    pins no ablation builds it (``GTConfig`` -> GraphTinker,
    ``StingerConfig`` -> STINGER, ...); ``None`` -> paper-default
    GraphTinker.  This is how a v2 checkpoint's embedded writer config
    rebuilds the *same backend* it was written by.
    """
    if config is None:
        return create_store("graphtinker")
    for name, factory in _family_heads():
        if factory.config_class is type(config):
            return create_store(name, config)
    raise StoreProtocolError(
        f"no backend registered for config type {type(config).__name__}")


def config_class(class_name: str) -> type | None:
    """The built-in config class called ``class_name``, or ``None`` (how
    a checkpoint's embedded config finds its dataclass again)."""
    for _, factory in _family_heads():
        if factory.config_class.__name__ == class_name:
            return factory.config_class
    return None


# --------------------------------------------------------------------- #
# canonical content digest
# --------------------------------------------------------------------- #
def store_digest(store) -> dict:
    """Canonical content digest of a store's live edge set.

    Order-independent: the edge arrays are lexsorted by ``(src, dst)``
    before hashing, so any two stores holding the same logical edges —
    whatever physical layout, backend, or insertion order produced them
    — digest identically.  This is the equality oracle of the
    differential suites and the wire-level digest op.
    """
    src, dst, weight = store.edge_arrays()
    if src.size:
        src = store.original_ids(src)
    order = np.lexsort((dst, src))
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(src[order], dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(dst[order], dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(weight[order], dtype=np.float64).tobytes())
    return {"sha256": h.hexdigest(), "n_edges": int(src.shape[0])}


# --------------------------------------------------------------------- #
# built-in backends
# --------------------------------------------------------------------- #
class _Builtin:
    """The factory of every built-in backend: its store class (imported
    on first use), its config class, and the config fields an ablation
    pins over whatever config it is given."""

    def __init__(self, store_class: str, config_class: type, **ablation: Any):
        self.store_class = store_class
        self.config_class = config_class
        self.ablation = ablation

    def __call__(self, config: Any | None = None, *,
                 snapshot: bool | None = None) -> Any:
        cfg = config if config is not None else self.config_class()
        changes = dict(self.ablation)
        if snapshot is not None:
            changes["snapshot"] = snapshot
        if changes:
            cfg = dataclasses.replace(cfg, **changes)
        module, cls = self.store_class.rsplit(".", 1)
        return getattr(importlib.import_module(module), cls)(cfg)


_GT = "repro.core.graphtinker.GraphTinker"
register_backend("graphtinker", _Builtin(_GT, GTConfig),
                 "the paper's full data structure (SGH + RHH/TBH + CAL)")
register_backend("gt_nocal", _Builtin(_GT, GTConfig, enable_cal=False),
                 "GraphTinker ablation: no Coarse Adjacency List")
register_backend("gt_nosgh", _Builtin(_GT, GTConfig, enable_sgh=False),
                 "GraphTinker ablation: no Scatter-Gather Hashing")
register_backend("gt_plain",
                 _Builtin(_GT, GTConfig, enable_cal=False, enable_sgh=False),
                 "GraphTinker ablation: both CAL and SGH off")
register_backend("stinger", _Builtin("repro.stinger.Stinger", StingerConfig),
                 "the STINGER chained-edgeblock baseline")
register_backend("tiered",
                 _Builtin("repro.core.tiered.TieredStore", TieredConfig),
                 "degree-tiered adaptive backend (inline/small-set/hash)")
register_backend("sharded",
                 _Builtin("repro.core.sharded.ShardedStore", ShardedConfig),
                 "process-per-shard parallel store (consistent-hash routed)")
