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
three hooks from :class:`SnapshotHost`); mutators must notify it of every
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

**Integrity.**  ``check_invariants()`` raises ``AssertionError`` on
internal inconsistency without perturbing the access accounting;
``fsck(level=..., repair=...)`` returns a
:class:`~repro.core.verify.VerifyReport` (or ``RepairReport`` when
repairing) and is what the service's post-recovery audit calls.

Registering a backend
---------------------

Call :func:`register_backend` with a name and a factory
``(config=None, *, kernel=None, snapshot=None) -> Store``; the factory's
product is validated against the protocol at construction time
(:func:`validate_store` raises a typed
:class:`~repro.errors.StoreProtocolError` naming every missing member).
A registered backend is automatically covered by the conformance suite
(``tests/test_store_conformance.py``) and reachable from
``make_store`` / the CLI ``--system`` flags.
"""

from __future__ import annotations

import hashlib
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
from repro.errors import StoreProtocolError


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


class SnapshotHost:
    """The analytics-snapshot hooks every snapshot-capable store shares.

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


class RowStoreDefaults(SnapshotHost):
    """Row-surface members of a store whose rows *are* original ids and
    whose only walk is ``neighbors``: STINGER, ``tiered``, ``sharded``,
    the teaching baselines.  The two batched members loop over the
    per-row ones, so they are also the references a backend's own bulk
    version (GraphTinker's) is tested against.
    """

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
#: ``(config=None, *, kernel=None, snapshot=None)``.
_BACKENDS: dict[str, tuple[Callable[..., Any], str]] = {}


def register_backend(name: str, factory: Callable[..., Any],
                     description: str = "", replace: bool = False) -> None:
    """Register a backend factory under ``name``.

    The factory must accept ``(config=None, *, kernel=None,
    snapshot=None)`` and return a protocol-complete store (the product
    is validated on every :func:`create_store` call).  Registration makes
    the backend reachable from ``make_store`` / the CLI and enrolls it in
    the conformance suite.
    """
    if name in _BACKENDS and not replace:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = (factory, description)


def backend_names() -> list[str]:
    """Registered backend names, registration order preserved."""
    return list(_BACKENDS)


def create_store(name: str, config: Any | None = None, *,
                 kernel: str | None = None,
                 snapshot: bool | None = None) -> Any:
    """Build (and protocol-validate) a registered backend by name."""
    try:
        factory, _ = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown store kind {name!r} (registered: "
            f"{', '.join(backend_names())})"
        ) from None
    return validate_store(factory(config, kernel=kernel, snapshot=snapshot),
                          name=name)


def store_from_config(config: Any | None):
    """Build the backend a config object describes (persistence/recovery).

    ``GTConfig`` -> GraphTinker, ``StingerConfig`` -> STINGER,
    ``TieredConfig`` -> TieredStore, ``ShardedConfig`` -> the
    process-per-shard :class:`~repro.core.sharded.ShardedStore`;
    ``None`` -> paper-default GraphTinker.  This is how a v2
    checkpoint's embedded writer config rebuilds the *same backend* it
    was written by.
    """
    from repro.core.graphtinker import GraphTinker
    from repro.core.tiered import TieredStore
    from repro.stinger import Stinger

    if config is None:
        return GraphTinker(GTConfig())
    if isinstance(config, GTConfig):
        return GraphTinker(config)
    if isinstance(config, StingerConfig):
        return Stinger(config)
    if isinstance(config, TieredConfig):
        return TieredStore(config)
    if isinstance(config, ShardedConfig):
        from repro.core.sharded import ShardedStore

        return ShardedStore(config)
    raise StoreProtocolError(
        f"no backend registered for config type {type(config).__name__}")


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
# generic fsck (row/chain backends without a bespoke verifier)
# --------------------------------------------------------------------- #
def verify_store_generic(store, level: str = "full",
                         extra_checks: Callable[[list], None] | None = None):
    """Protocol-level integrity audit; returns a ``VerifyReport``.

    Checks what the contract alone guarantees: per-row neighbor walks
    agree with ``degree``, rows are duplicate-free, and the per-row
    degrees sum to ``n_edges``.  ``extra_checks(violations)`` lets a
    backend append its own typed violations (e.g. TieredStore's
    tier-bound audit).  Access accounting is snapshotted and restored —
    auditing never perturbs the modeled counters.
    """
    from repro.core.verify import (
        IntegrityViolation,
        V_DEGREE,
        V_DUPLICATE,
        VerifyReport,
    )

    t0 = time.perf_counter()
    backup = store.stats.snapshot()
    violations: list = []
    total = 0
    n_rows = store.dense_row_count()
    for row in range(n_rows):
        dsts, _ = store.row_neighbors(row)
        deg = store.degree(int(store.original_ids(np.array([row]))[0]))
        if dsts.shape[0] != deg:
            violations.append(IntegrityViolation(
                V_DEGREE, row,
                f"walk found {dsts.shape[0]} edges but degree says {deg}"))
        if np.unique(dsts).shape[0] != dsts.shape[0]:
            violations.append(IntegrityViolation(
                V_DUPLICATE, row, "duplicate destinations in one row"))
        total += dsts.shape[0]
    if total != store.n_edges:
        violations.append(IntegrityViolation(
            V_DEGREE, -1,
            f"rows hold {total} live edges but n_edges says {store.n_edges}"))
    if extra_checks is not None:
        extra_checks(violations)
    store.stats.reset()
    store.stats.merge(backup)
    return VerifyReport(level=level, violations=violations,
                        n_vertices=n_rows, n_edges=store.n_edges,
                        elapsed=time.perf_counter() - t0)


# --------------------------------------------------------------------- #
# built-in backends
# --------------------------------------------------------------------- #
def _gt_factory(transform=None):
    def make(config=None, *, kernel=None, snapshot=None):
        from repro.core.graphtinker import GraphTinker

        cfg = config if config is not None else GTConfig()
        if kernel is not None:
            cfg = cfg.with_(kernel=kernel)
        if snapshot is not None:
            cfg = cfg.with_(snapshot=snapshot)
        if transform is not None:
            cfg = transform(cfg)
        return GraphTinker(cfg)
    return make


def _stinger_factory(config=None, *, kernel=None, snapshot=None):
    from dataclasses import replace

    from repro.stinger import Stinger

    cfg = config if config is not None else StingerConfig()
    if snapshot is not None:
        cfg = replace(cfg, snapshot=snapshot)
    return Stinger(cfg)


def _tiered_factory(config=None, *, kernel=None, snapshot=None):
    from repro.core.tiered import TieredStore

    cfg = config if config is not None else TieredConfig()
    if snapshot is not None:
        cfg = cfg.with_(snapshot=snapshot)
    return TieredStore(cfg)


register_backend("graphtinker", _gt_factory(),
                 "the paper's full data structure (SGH + RHH/TBH + CAL)")
register_backend("gt_nocal", _gt_factory(lambda c: c.with_(enable_cal=False)),
                 "GraphTinker ablation: no Coarse Adjacency List")
register_backend("gt_nosgh", _gt_factory(lambda c: c.with_(enable_sgh=False)),
                 "GraphTinker ablation: no Scatter-Gather Hashing")
register_backend("gt_plain",
                 _gt_factory(lambda c: c.with_(enable_cal=False,
                                               enable_sgh=False)),
                 "GraphTinker ablation: both CAL and SGH off")
register_backend("stinger", _stinger_factory,
                 "the STINGER chained-edgeblock baseline")
def _sharded_factory(config=None, *, kernel=None, snapshot=None):
    from repro.core.sharded import ShardedStore

    cfg = config if config is not None else ShardedConfig()
    if snapshot is not None:
        cfg = cfg.with_(snapshot=snapshot)
    return ShardedStore(cfg)


register_backend("tiered", _tiered_factory,
                 "degree-tiered adaptive backend (inline/small-set/hash)")
register_backend("sharded", _sharded_factory,
                 "process-per-shard parallel store (consistent-hash routed)")
