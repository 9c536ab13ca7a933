"""The hybrid graph engine (paper Sec. IV).

Drives an edge-centric GAS program over a dynamic store, choosing between
full processing (FP) and incremental processing (IP) *for every
iteration*.  The Inference-Box unit computes, during the apply phase of
iteration *i*, the predictor

    T = A / E        (A = active vertices for iteration i+1,
                      E = edges loaded so far)

and selects FP for iteration *i+1* when ``T > threshold`` (0.02 in the
paper), IP otherwise.  Fixed-mode execution ("full" / "incremental") is
available for the per-mode comparison of Figs. 11-13, and a non-monotone
program (PageRank, heat) is always run in FP mode since incremental
processing is then not an option.

The engine keeps per-iteration traces — mode chosen, active-vertex count,
edges processed, access-counter deltas — which are how the benchmark
harness computes modeled throughputs and prediction-accuracy figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import EngineConfig
from repro.core.stats import AccessStats
from repro.engine import modes
from repro.engine.gas import GASProgram
from repro.engine.inconsistency import inconsistent_vertices
from repro.errors import EngineError
from repro.obs import hooks as obs_hooks
from repro.obs.tracing import span as obs_span

#: Engine mode-policy names.
POLICY_FULL = "full"
POLICY_INCREMENTAL = "incremental"
POLICY_HYBRID = "hybrid"
#: Fixed vertex-centric full processing (paper Sec. IV.A): every
#: iteration loads via :func:`~repro.engine.modes.load_edges_full_vertex_centric`.
POLICY_FULL_VC = "full_vc"
_POLICIES = (POLICY_FULL, POLICY_INCREMENTAL, POLICY_HYBRID, POLICY_FULL_VC)


@dataclass
class IterationRecord:
    """Trace of one processing+apply iteration."""

    index: int
    mode: str
    n_active: int
    edges_processed: int
    n_changed: int
    predictor: float
    stats_delta: AccessStats


@dataclass
class ComputeResult:
    """Outcome of one :meth:`HybridEngine.compute` invocation."""

    iterations: list[IterationRecord] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def edges_processed(self) -> int:
        return sum(r.edges_processed for r in self.iterations)

    def modes_used(self) -> list[str]:
        return [r.mode for r in self.iterations]

    def merged_stats(self) -> AccessStats:
        merged = AccessStats()
        for r in self.iterations:
            merged.merge(r.stats_delta)
        return merged


class HybridEngine:
    """Hybrid FP/IP graph engine over a dynamic store.

    Parameters
    ----------
    store:
        A :class:`~repro.core.graphtinker.GraphTinker` or
        :class:`~repro.stinger.Stinger` instance (anything satisfying
        :class:`~repro.engine.modes.Store`).
    program:
        The GAS algorithm to run.
    config:
        Threshold / iteration limits.
    policy:
        ``"hybrid"`` (default), ``"full"``, or ``"incremental"``.

    Examples
    --------
    >>> from repro import GraphTinker
    >>> from repro.engine import HybridEngine
    >>> from repro.engine.algorithms import BFS
    >>> gt = GraphTinker()
    >>> _ = gt.insert_batch([[0, 1], [1, 2], [2, 3]])
    >>> eng = HybridEngine(gt, BFS())
    >>> eng.reset(roots=[0])
    >>> _ = eng.compute()
    >>> eng.value_of(3)
    3.0
    """

    def __init__(
        self,
        store,
        program: GASProgram,
        config: EngineConfig | None = None,
        policy: str = POLICY_HYBRID,
    ):
        if policy not in _POLICIES:
            raise EngineError(f"unknown policy {policy!r}; expected one of {_POLICIES}")
        if not program.monotone and policy == POLICY_INCREMENTAL:
            raise EngineError(
                f"{program.name} is not monotone; incremental processing is not an option"
            )
        self.store = store
        self.program = program
        self.config = config if config is not None else EngineConfig()
        self.policy = policy
        self.values = program.init_state(0)
        self._active = np.empty(0, dtype=np.int64)
        self._next_mode = modes.FULL
        self.history: list[ComputeResult] = []

    # ------------------------------------------------------------------ #
    # state management
    # ------------------------------------------------------------------ #
    def _grow_values(self, max_vid: int) -> None:
        if max_vid >= self.values.shape[0]:
            self.values = self.program.grow_state(self.values, max_vid + 1)

    def reset(self, roots: np.ndarray | list[int] | None = None) -> None:
        """Reinitialise the analysis state (store contents untouched).

        Sizes the property vector to the current vertex-id horizon, seeds
        the program's roots and installs the initial active set.
        """
        horizon = self._vertex_horizon()
        self.values = self.program.init_state(horizon)
        if roots is None:
            roots = np.empty(0, dtype=np.int64)
        roots = np.asarray(roots, dtype=np.int64)
        if roots.size:
            self._grow_values(int(roots.max()))
        self._active = self.program.seed(self.values, roots)
        self._next_mode, _ = self.predict_mode(self._active.size, self._active)

    def _vertex_horizon(self) -> int:
        """One past the largest vertex id the engine must address."""
        src, dst, _ = self._peek_edges()
        return self._edge_horizon(src, dst, full=True)

    def _edge_horizon(self, src: np.ndarray, dst: np.ndarray, *, full: bool) -> int:
        """One past the largest vertex id of a loaded triple (``full``: an
        FP load, which a live capture serves and measured once)."""
        snap = self.store.analytics_snapshot
        if full and snap is not None and snap.full_horizon is not None:
            return snap.full_horizon
        return int(max(src.max(), dst.max())) + 1 if src.size else 0

    def _peek_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Load all edges without disturbing the access accounting."""
        backup = self.store.stats.snapshot()
        triple = modes.load_edges_full(self.store)
        self.store.stats.reset()
        self.store.stats.merge(backup)
        return triple

    def value_of(self, vertex: int) -> float:
        """Committed property of ``vertex`` (initial value if untouched)."""
        if vertex >= self.values.shape[0]:
            return self.program.initial_value()
        return float(self.values[vertex])

    # ------------------------------------------------------------------ #
    # the inference box
    # ------------------------------------------------------------------ #
    def predict_mode(
        self, n_active: int, active: np.ndarray | None = None
    ) -> tuple[str, float]:
        """Inference-Box decision for the next iteration.

        Returns ``(mode, T)``.  With the default ``"ratio"`` predictor,
        ``T = A / E`` (paper Sec. IV.B); FP when ``T`` exceeds the
        configured threshold (paper: 0.02), IP otherwise.  With the
        ``"degree"`` predictor (the paper's future-work heuristic),
        ``T = D / E`` where ``D`` is the active vertices' total
        out-degree — a direct estimate of incremental-mode work.
        """
        if self.policy == POLICY_FULL_VC:
            return modes.FULL_VC, float("nan")
        if not self.program.monotone:
            return modes.FULL, float("inf")
        if self.policy == POLICY_FULL:
            return modes.FULL, float("nan")
        if self.policy == POLICY_INCREMENTAL:
            return modes.INCREMENTAL, float("nan")
        n_edges = self.store.n_edges
        if n_edges == 0:
            return modes.INCREMENTAL, 0.0
        if self.config.predictor == "degree" and active is not None:
            # The degree sum is collected during the apply phase; one
            # degree probe per active vertex.
            numerator = float(
                sum(self.store.degree(int(v)) for v in active.tolist())
            )
        else:
            numerator = float(n_active)
        predictor = numerator / n_edges
        mode = modes.FULL if predictor > self.config.threshold else modes.INCREMENTAL
        return mode, predictor

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def update_and_compute(
        self, batch: np.ndarray, weights: np.ndarray | None = None
    ) -> ComputeResult:
        """Apply an insert batch, set inconsistency vertices, and iterate.

        This is the paper's evaluation loop step: load one batch into the
        store, mark the affected vertices, run the analysis to a fixed
        point (Sec. V.B, "after each batch insertion, the graph engine
        runs the given graph analytics algorithm on the current state").
        """
        batch = np.asarray(batch, dtype=np.int64)
        self.store.insert_batch(batch, weights)
        self.mark_inconsistent(batch)
        return self.compute()

    def mark_inconsistent(self, batch: np.ndarray) -> None:
        """Fold a batch's inconsistency vertices into the active set."""
        batch = np.asarray(batch, dtype=np.int64)
        if batch.size == 0:
            return
        vids = inconsistent_vertices(self.program, batch)
        if vids.size:
            self._grow_values(int(vids.max()))
        self._active = np.union1d(self._active, vids)
        mode, _ = self.predict_mode(self._active.size, self._active)
        self._next_mode = mode

    def compute(self) -> ComputeResult:
        """Iterate the GAS program to a fixed point from the active set."""
        with obs_span("engine.compute", stats=self.store.stats,
                      program=self.program.name, policy=self.policy,
                      snapshot=self.store.analytics_snapshot is not None):
            result = ComputeResult()
            iteration = 0
            full_load: list = []  # see _load_full; a local, so never stale
            while self._active.size:
                if iteration >= self.config.max_iterations:
                    raise EngineError(
                        f"no fixed point within {self.config.max_iterations} iterations"
                    )
                mode = self._next_mode
                # One compute-mode decision = one ``engine.<mode>`` span.
                with obs_span(f"engine.{mode}", stats=self.store.stats,
                              iteration=iteration) as sp:
                    record = self._iterate_once(iteration, mode, full_load)
                    sp.set_attr("n_active", record.n_active)
                    sp.set_attr("edges_processed", record.edges_processed)
                result.iterations.append(record)
                iteration += 1
            self.history.append(result)
        if obs_hooks.enabled and result.iterations:
            self._publish_result(result)
        return result

    _MODE_METRIC = {
        modes.FULL: "full",
        modes.INCREMENTAL: "incremental",
        modes.FULL_VC: "full_vc",
    }

    def _publish_result(self, result: ComputeResult) -> None:
        """Count the inference box's per-iteration mode decisions."""
        from repro.obs.metrics import get_registry

        registry = get_registry()
        for record in result.iterations:
            suffix = self._MODE_METRIC.get(record.mode, record.mode)
            registry.counter(f"engine.mode.{suffix}").inc()
        registry.counter("engine.iterations").inc(result.n_iterations)
        registry.counter("engine.edges_processed").inc(result.edges_processed)
        last = result.iterations[-1].predictor
        if last == last and last != float("inf"):  # skip NaN/inf predictors
            registry.gauge("engine.predictor").set(last)

    def _load_full(self, full_load: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """FP load: one physical load per ``compute()``, charged per iteration.

        ``full_load`` is ``compute()``'s holder: empty until its first FP
        iteration, then ``[triple, charge]``.  The store cannot change
        inside one ``compute()`` (programs only read it; the service holds
        its lock throughout), so later FP iterations reuse the triple and
        merge the recorded ``AccessStats`` charge.  The triple is read-only:
        a program writing into its inputs fails, not corrupts the next pass.
        """
        stats = self.store.stats
        if full_load:
            triple, charge = full_load
            stats.merge(charge)
            return triple
        before = stats.snapshot()
        # Views, so a backend returning its own arrays keeps them writable.
        triple = tuple(a.view() for a in modes.load_edges_full(self.store))
        for a in triple:
            a.flags.writeable = False
        full_load.extend((triple, stats.delta(before)))
        return triple

    def _iterate_once(self, index: int, mode: str, full_load: list) -> IterationRecord:
        """One processing + apply phase in the given mode."""
        program = self.program
        store = self.store
        before = store.stats.snapshot()
        active = self._active

        # ---- processing phase (LoadEdges + pipeline) -------------------
        if mode == modes.FULL:
            src, dst, weight = self._load_full(full_load)
        elif mode == modes.FULL_VC:
            src, dst, weight = modes.load_edges_full_vertex_centric(store)
        else:
            src, dst, weight = modes.load_edges_incremental(store, active)
        edges_processed = int(src.shape[0])
        if edges_processed:
            self._grow_values(
                self._edge_horizon(src, dst, full=mode == modes.FULL) - 1)
        values = self.values
        vtemp = program.make_vtemp(values)
        program.begin_iteration(values, src, dst)
        if edges_processed:
            # Undirected programs (CC) rely on the stream being
            # symmetrised (see GASProgram.undirected): a single forward
            # scatter is then correct in *both* modes, which is what
            # makes per-iteration mode flipping sound.
            # Unfiltered: a source still at its unreached value emits the
            # reduction's identity (GASProgram.edge_messages).
            messages = program.edge_messages(values[src], weight, src)
            program.scatter_reduce(vtemp, dst, messages)

        # ---- apply phase (commit + next active set) ---------------------
        changed = program.apply(values, vtemp)
        self._active = changed

        # ---- inference box: pick the mode for iteration i+1 -------------
        next_mode, predictor = self.predict_mode(changed.size, changed)
        self._next_mode = next_mode

        return IterationRecord(
            index=index,
            mode=mode,
            n_active=int(active.size),
            edges_processed=edges_processed,
            n_changed=int(changed.size),
            predictor=predictor,
            stats_delta=store.stats.delta(before),
        )
