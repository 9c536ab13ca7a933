"""The analytics snapshot layer — an incrementally-maintained CSR view.

Every incremental / vertex-centric analytics load used to gather frontier
edges through a per-vertex Python loop over the store's retrieval path
(`eba.neighbors` tree walks for GraphTinker, chain walks for STINGER) —
the dominant wall-clock cost of BFS/SSSP/CC once ingest is vectorized.
This module keeps a CSR mirror of the store next to it — degree-prefix
offsets plus dense neighbor/weight arrays — so a whole frontier becomes
one fancy-indexing gather.  It is the update-format/analysis-format
hybrid of GraphTango and DGAP's CSR-like analysis view, adapted to the
reproduction's cost-model discipline.

**The charge-mirror contract** (same license as the PR-4 batch kernels):
the snapshot must be *behaviourally invisible*.  With the feature on or
off the engine produces bit-identical vertex properties, iteration
traces, AND bit-identical modeled :class:`~repro.core.stats.AccessStats`
— the only permitted effect is wall-clock speed.  This works because the
stores' retrieval paths charge deterministically per vertex: walking a
vertex's edgeblock tree (or STINGER chain) costs the same counter bumps
every time as long as that vertex's structure is unchanged.  So each CSR
row carries the exact ``AccessStats`` delta one native per-vertex
retrieval would charge (the store's ``measure_rows``), and a batched
gather replays the summed charges of exactly the rows the native loop
would have visited.

**Dirty tracking**: stores mark a dense row dirty on every mutation that
touches it (single-edge calls mark inline; batch kernels mark once per
chunk from their own dense ids), into a mask of one flag per row.  A
gather first *syncs*: new vertices extend the row table,
all dirty rows are re-measured in one ``measure_rows`` call (data, order
and charge are those of the native walk, so row contents are
bit-identical to a fresh per-vertex call), and that measurement is
*spliced* into the flat CSR arrays: the next ``indptr/dst/weight`` take
the measured rows from the patch and every other row's slice from the
old arrays, in a handful of whole-array passes.  The flat arrays, the
per-row counts and charges, and the serving overlay are the snapshot's
whole state — there is no per-row cache beside the CSR.  Steady-state
churn therefore walks only touched rows and pays one splice per batch,
not one tree walk per frontier vertex per iteration.

**Full-load capture**: where the store's full (FP) load is not the row
sweep (a CAL-backed GraphTinker streams the CAL in insertion order), the
first full load after a mutation is captured — arrays, charge, vertex-id
horizon — and replayed until the next dirty mark, so the engine's
``reset()`` peek and every ``compute()`` between two mutations share one
physical stream.

Observability (when :mod:`repro.obs` is enabled):

* ``engine.snapshot.hits`` — loads served from the snapshot (CSR gathers
  and capture replays; the capturing stream itself is the store's),
* ``engine.snapshot.rebuilds`` — flat CSR splices,
* ``engine.snapshot.patched_rows`` — dirty rows re-measured.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.stats import STAT_FIELDS
from repro.obs import hooks as obs_hooks

_N_FIELDS = len(STAT_FIELDS)

#: :meth:`AnalyticsSnapshot.sync` runs the O(E) flat splice only once
#: the patch overlay holds ``max(REBUILD_MIN, REBUILD_RATIO * n_rows)``
#: rows.
REBUILD_RATIO = 0.05
REBUILD_MIN = 1024


def _empty_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    empty_i = np.empty(0, dtype=np.int64)
    return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)


def sanitize_active(active: np.ndarray) -> np.ndarray:
    """Deduplicate and validate a frontier: sorted unique, non-negative.

    Duplicate frontier ids must not double-gather (or double-charge) a
    vertex's edges, and negative ids are dropped outright — they are
    reserved sentinels in the stores and would otherwise index degree
    arrays from the end.  Engine-produced active sets are already sorted
    and unique (``np.flatnonzero`` / ``np.union1d``), so for engine
    traffic this is an order-preserving no-op, found by one comparison
    pass instead of a sort.
    """
    active = np.asarray(active, dtype=np.int64).reshape(-1)
    if not (active[1:] > active[:-1]).all():
        active = np.unique(active)
    if active.size and active[0] < 0:
        active = active[np.searchsorted(active, 0):]
    return active


def gather_active_scalar(store, active: np.ndarray):
    """Reference per-vertex frontier gather (the pre-snapshot load path).

    ``active`` must already be sanitized.  One ``degree`` probe per
    active vertex, one ``neighbors`` walk per vertex that has out-edges —
    the exact call (and therefore charge) sequence the snapshot's batched
    gather mirrors.
    """
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for v in active.tolist():
        if store.degree(v) == 0:
            continue
        dst, weight = store.neighbors(v)
        if dst.shape[0]:
            srcs.append(np.full(dst.shape[0], v, dtype=np.int64))
            dsts.append(dst)
            weights.append(weight)
    if not srcs:
        return _empty_triple()
    return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(weights)


class AnalyticsSnapshot:
    """Incrementally-maintained CSR view over one store.

    Works for any backend implementing the snapshot-row surface of the
    :class:`repro.core.store.Store` protocol — ``dense_row_count()`` /
    ``measure_rows()`` for the native walks and their charges,
    ``id_translator`` for the original<->dense mapping (``None`` on
    raw-id stores), and ``full_load_is_row_sweep`` to say whether the FP
    load is this same sweep.  Attach via ``enable_snapshot()`` or the
    ``snapshot=True`` config flag.  The store owns its snapshot and the
    snapshot refers back weakly, so dropping the store frees both by
    reference count, without the cyclic collector.
    """

    def __init__(self, store):
        self._store = weakref.ref(store)
        self._charges = np.zeros((0, _N_FIELDS), dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)  # live cells per row
        # ``(triple, charge, horizon)`` of the store's own full load, kept
        # from the first such load after a mutation to the next dirty mark.
        self._full: tuple | None = None
        # One flag per row of the table: re-measure it on the next sync.
        self._dirty = np.zeros(0, dtype=bool)
        self._all_dirty = False
        self._flat_ok = False
        self._indptr = np.zeros(1, dtype=np.int64)
        self._dst = np.empty(0, dtype=np.int64)
        self._weight = np.empty(0, dtype=np.float64)
        # Serving-tier patch overlay: rows `sync()` re-measured since the
        # last splice, mapped to their current (dst, weight) arrays.
        # Lets `sync()` stay O(dirty rows) instead of paying the O(E)
        # splice per call; one splice amortizes over many syncs.
        self._overlay: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Round-robin resume point for budgeted syncs (`max_rows`): the
        # next capped sync starts measuring at the first dirty row >=
        # this cursor, so sustained churn on low rows cannot starve high
        # ones.
        self._patch_cursor = 0
        # original -> dense translation cache (GraphTinker + SGH only)
        self._xlat_count = -1
        self._xlat_originals = np.empty(0, dtype=np.int64)
        self._xlat_dense = np.empty(0, dtype=np.int64)
        #: lifetime counters (mirrored to obs metrics when enabled)
        self.hits = 0
        self.rebuilds = 0
        self.patched_rows = 0
        #: Monotonic view version: bumped every time a sync changes the
        #: published view (rows patched into the overlay, rows appended,
        #: or the flat arrays rebuilt).  0 means "never synced" — a
        #: reader holding generation g knows the view reflects every
        #: mutation applied before the sync that produced g, and nothing
        #: after.
        self.generation = 0

    @property
    def store(self):
        """The store this view mirrors."""
        return self._store()

    # ------------------------------------------------------------------ #
    # dirty tracking (store hooks)
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return self._counts.shape[0]

    def mark_dirty(self, row: int) -> None:
        """One mutation touched dense row ``row``; re-measure it on next use.

        A row past the table is new, and every new row is measured when
        the table grows, so marking one is a no-op (beyond ending the
        full-load capture's epoch, as every mark does)."""
        if row < self._dirty.shape[0]:
            self._dirty[row] = True
        self._full = None

    def mark_dirty_many(self, rows: np.ndarray) -> None:
        """Batch-kernel hook: mark every touched dense row at once
        (repeats allowed; rows past the table as in :meth:`mark_dirty`)."""
        rows = np.asarray(rows, dtype=np.int64)
        self._dirty[rows[rows < self._dirty.shape[0]]] = True
        self._full = None

    def invalidate(self) -> None:
        """Drop everything cached (e.g. after an fsck repair rebuilt rows)."""
        self._all_dirty = True
        self._flat_ok = False
        self._xlat_count = -1
        self._full = None

    def rebase_generation(self, floor: int) -> None:
        """Force the generation strictly above ``floor``.

        A replica resync replaces the whole store — and with it this
        snapshot — but clients assert generation monotonicity per
        connection, so the replacement snapshot must not restart the
        count below what readers already observed.
        """
        if int(floor) >= self.generation:
            self.generation = int(floor) + 1

    @property
    def pending_rows(self) -> int:
        """Rows the next sync will re-measure (observable staleness)."""
        if self._all_dirty:
            return max(self.n_rows, self.store.dense_row_count())
        new_rows = max(0, self.store.dense_row_count() - self.n_rows)
        return int(np.count_nonzero(self._dirty)) + new_rows

    # ------------------------------------------------------------------ #
    # lock-free read-path accessors (repro.net serving tier)
    # ------------------------------------------------------------------ #
    def sync(self, *, max_rows: int | None = None) -> int:
        """Bring the *serving* view current; return the new generation.

        Cheap by design: dirty rows are re-measured and patched into the
        overlay (O(changed rows)), and the O(E) flat rebuild only runs
        when the overlay has grown past ``max(REBUILD_MIN, REBUILD_RATIO
        * n_rows)`` — so a serving tier syncing after every applied
        micro-batch pays for what changed, not for the whole graph.

        ``max_rows`` bounds the per-call patch work: at most that many
        dirty rows are re-measured (round-robin across the row space),
        the rest stay dirty for the next sync.  A capped sync trades
        strict freshness ("view reflects everything applied before it")
        for a hard ceiling on how long the caller's lock is held —
        :attr:`pending_rows` says how much backlog remains, and repeated
        capped syncs drain it.  The returned generation stays monotonic
        either way.

        Call under whatever lock serializes store mutations (the service
        holds its store lock).
        """
        rows, dst, weight = self._measure_dirty(max_rows)
        if rows.size:
            # Copies: a view would keep this sync's whole measurement
            # alive for as long as any one of its rows stays unchanged.
            for row, d, w in self._row_segments(rows, dst, weight):
                self._overlay[row] = (d.copy(), w.copy())
            self.generation += 1
        if not self._flat_ok and len(self._overlay) >= max(
                REBUILD_MIN, int(REBUILD_RATIO * self.n_rows)):
            self._splice(*_empty_triple())  # an empty patch: the overlay alone
        return self.generation

    def view_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The last-rebuilt flat CSR triple ``(indptr, dst, weight)``.

        Arrays are *replaced*, never mutated in place, on rebuild — so a
        caller that captured references under the store lock can keep
        reading them lock-free while mutations continue; it simply sees
        the generation it captured.  Call :meth:`sync` first, and layer
        :meth:`overlay_rows` on top — rows patched since the rebuild are
        only current there.
        """
        return self._indptr, self._dst, self._weight

    def overlay_rows(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Copy of the patch overlay: dense row -> ``(dst, weight)``.

        The returned dict is the caller's to keep (a shallow copy; the
        arrays themselves are replaced-not-mutated on re-measure, same
        license as :meth:`view_arrays`).  A row present here shadows its
        flat-CSR slice; a row ``>= len(indptr) - 1`` that is absent has
        no edges yet.
        """
        return dict(self._overlay)

    def translation(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted original ids and their dense rows (GraphTinker + SGH).

        The same replace-don't-mutate license as :meth:`view_arrays`:
        refresh under the store lock, then read the captured arrays
        lock-free.  Uncharged (serving-tier reads live outside the
        modeled cost world).
        """
        self._refresh_xlat()
        return self._xlat_originals, self._xlat_dense

    # ------------------------------------------------------------------ #
    # sync: re-measure dirty rows, splice them into the flat CSR arrays
    # ------------------------------------------------------------------ #
    def _measure_dirty(
        self, max_rows: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grow the row table and re-measure dirty rows (no splice).

        With ``max_rows`` set, at most that many dirty rows are measured
        per call, resuming round-robin from :attr:`_patch_cursor`; the
        remainder stays in ``_dirty``.  Returns the patch — the measured
        rows ascending and their ``dst`` / ``weight`` segments back to
        back, ``_counts[rows]`` cells each; the flat CSR is stale
        (``_flat_ok`` False) whenever it is nonempty.
        """
        n_store = self.store.dense_row_count()
        n = self.n_rows
        if n_store > n:
            # Zero placeholders: every new row is dirty, so measured below
            # (or, under a budget, empty until its turn comes).
            self._dirty = np.concatenate([self._dirty, np.ones(n_store - n, dtype=bool)])
            self._charges = np.vstack(
                [self._charges, np.zeros((n_store - n, _N_FIELDS), dtype=np.int64)]
            )
            self._counts = np.concatenate(
                [self._counts, np.zeros(n_store - n, dtype=np.int64)])
            self._flat_ok = False
        if self._all_dirty:
            self._dirty[:] = True
            self._all_dirty = False
        rows = np.flatnonzero(self._dirty)
        if rows.size == 0:
            return _empty_triple()
        if max_rows is not None and rows.size > max_rows:
            i = int(np.searchsorted(rows, self._patch_cursor))
            rows = np.concatenate([rows[i:], rows[:i]])[:max_rows]
            self._patch_cursor = int(rows[-1]) + 1
            rows.sort()
        self._dirty[rows] = False
        counts, dst, weight, charges = self.store.measure_rows(rows)
        self._counts[rows] = counts
        self._charges[rows] = charges
        self.patched_rows += rows.size
        if obs_hooks.enabled:
            self._counter("patched_rows", rows.size)
            from repro.obs.metrics import get_registry

            get_registry().quantile(
                "engine.snapshot.patch_rows",
                "rows re-measured per snapshot sync",
            ).record(rows.size)
        self._flat_ok = False
        return rows, dst, weight

    def _row_segments(self, rows: np.ndarray, dst: np.ndarray, weight: np.ndarray):
        """``(row, dst_view, weight_view)`` per row of a patch."""
        counts = self._counts[rows]
        ends = np.cumsum(counts)
        for row, lo, hi in zip(rows.tolist(), (ends - counts).tolist(), ends.tolist()):
            yield row, dst[lo:hi], weight[lo:hi]

    def _splice(self, rows: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> None:
        """Build the next flat CSR arrays from the old ones plus a patch.

        The O(E) step, a handful of whole-array passes: ``rows``
        (ascending) take their cells from the patch segments, whatever
        the overlay still holds is folded in with the patch winning, and
        every other row keeps its old slice (a row past the old table is
        an unmeasured placeholder, empty on both sides).  New
        ``indptr/dst/weight`` arrays are *swapped in* (never written in
        place), the overlay they absorb is cleared, and the generation
        advances.
        """
        if self._overlay:
            segments = dict(self._overlay)
            for row, d, w in self._row_segments(rows, dst, weight):
                segments[row] = (d, w)
            order = sorted(segments)
            rows = np.array(order, dtype=np.int64)
            dst = np.concatenate([segments[row][0] for row in order])
            weight = np.concatenate([segments[row][1] for row in order])
        counts = self._counts
        old_indptr = self._indptr
        indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        patched = np.zeros(counts.shape[0], dtype=bool)
        patched[rows] = True
        from_patch = np.repeat(patched, counts)
        kept = ~np.repeat(patched[: old_indptr.shape[0] - 1], np.diff(old_indptr))
        new_dst = np.empty(from_patch.shape[0], dtype=np.int64)
        new_weight = np.empty(from_patch.shape[0], dtype=np.float64)
        new_dst[from_patch] = dst
        new_weight[from_patch] = weight
        from_old = ~from_patch
        new_dst[from_old] = self._dst[kept]
        new_weight[from_old] = self._weight[kept]
        self._indptr, self._dst, self._weight = indptr, new_dst, new_weight
        self._overlay = {}
        self._flat_ok = True
        self.rebuilds += 1
        self.generation += 1
        if obs_hooks.enabled:
            self._counter("rebuilds", 1)

    def _sync(self) -> None:
        """Engine-path sync: rows current AND flat arrays current."""
        patch = self._measure_dirty()
        if not self._flat_ok:
            self._splice(*patch)

    @staticmethod
    def _counter(suffix: str, by: int) -> None:
        from repro.obs.metrics import get_registry

        get_registry().counter(f"engine.snapshot.{suffix}").inc(by)

    def _count_hit(self) -> None:
        self.hits += 1
        if obs_hooks.enabled:
            self._counter("hits", 1)

    # ------------------------------------------------------------------ #
    # CSR gathers
    # ------------------------------------------------------------------ #
    def _take_rows(
        self, rows: np.ndarray, src_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the CSR segments of ``rows``; sources repeat ``src_ids``."""
        starts = self._indptr[rows]
        counts = self._indptr[rows + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _empty_triple()
        ends = np.cumsum(counts)
        base = np.repeat(starts - (ends - counts), counts)
        idx = base + np.arange(total, dtype=np.int64)
        return np.repeat(src_ids, counts), self._dst[idx], self._weight[idx]

    def _refresh_xlat(self) -> None:
        sgh = self.store.id_translator
        if self._xlat_count != len(sgh):
            originals = sgh.reverse_view()
            order = np.argsort(originals, kind="stable")
            self._xlat_originals = originals[order].copy()
            self._xlat_dense = order.astype(np.int64)
            self._xlat_count = len(sgh)

    def _translate(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncharged original->dense lookup for a sorted frontier.

        Returns ``(found_mask, dense_rows_of_found)``; ids the SGH has
        never seen (or whose dense row is not yet allocated) come back
        not-found, matching the native ``degree() == 0`` skip.
        """
        self._refresh_xlat()
        table = self._xlat_originals
        if table.size == 0:
            return np.zeros(active.shape[0], dtype=bool), np.empty(0, dtype=np.int64)
        pos = np.searchsorted(table, active)
        pos_c = np.minimum(pos, table.shape[0] - 1)
        found = table[pos_c] == active
        rows = self._xlat_dense[pos_c[found]]
        in_range = rows < self.n_rows
        if not in_range.all():
            # An SGH entry without an allocated row (interrupted insert):
            # the native path sees degree 0 and skips it.
            keep = np.flatnonzero(found)[in_range]
            found = np.zeros(active.shape[0], dtype=bool)
            found[keep] = True
            rows = rows[in_range]
        return found, rows

    def gather_active(
        self, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched incremental-mode gather (the ``neighbors_many`` core).

        Bit-identical data, order, and modeled charges to
        :func:`gather_active_scalar` on the same (sanitized) frontier:
        one SGH probe per active id for the ``degree`` check, one more
        per vertex actually gathered, and each gathered vertex's full
        native walk charge.
        """
        active = sanitize_active(active)
        self._sync()
        self._count_hit()
        if active.size == 0:
            return _empty_triple()
        stats = self.store.stats
        if self.store.id_translator is not None:
            found, rows = self._translate(active)
            counts = self._indptr[rows + 1] - self._indptr[rows]
            nonzero = counts > 0
            # degree() probes every active id once; neighbors() probes
            # again for each vertex that has edges to gather.
            stats.hash_lookups += int(active.size) + int(nonzero.sum())
            rows_nz = rows[nonzero]
            srcs_nz = active[found][nonzero]
        else:
            rows = active[active < self.n_rows]
            counts = self._indptr[rows + 1] - self._indptr[rows]
            nonzero = counts > 0
            rows_nz = rows[nonzero]
            srcs_nz = rows_nz
        if rows_nz.size:
            stats.add_counts(self._charges[rows_nz].sum(axis=0))
        return self._take_rows(rows_nz, srcs_nz)

    def gather_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full per-vertex sweep: FP-VC on GraphTinker, FP/FP-VC on STINGER
        (and FP on a CAL-less GraphTinker, whose full load is the same
        per-vertex EdgeblockArray sweep).

        The native sweep walks *every* dense row — empty rows included —
        so the summed charge covers all rows, while the output keeps only
        rows with live edges.  Sources come out translated to original
        ids (the identity on raw-id stores).
        """
        self._sync()
        self._count_hit()
        n = self.n_rows
        if n == 0:
            return _empty_triple()
        self.store.stats.add_counts(self._charges[:n].sum(axis=0))
        counts = self._indptr[1:] - self._indptr[:-1]
        rows = np.flatnonzero(counts > 0)
        src, dst, weight = self._take_rows(rows, rows)
        src = self.store.original_ids(src)
        return src, dst, weight

    @property
    def serves_full(self) -> bool:
        """Whether the FP (edge-centric full) load is this same sweep.

        True for STINGER / TieredStore (their full load *is* the
        per-vertex row sweep) and for a CAL-less GraphTinker; a
        CAL-backed GraphTinker streams full loads from the CAL in
        insertion order, which the CSR view does not reproduce, so
        :meth:`load_full` captures that stream instead.  Answered by the
        store itself through the protocol's ``full_load_is_row_sweep``.
        """
        return self.store.full_load_is_row_sweep

    def load_full(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The store's FP load, one physical load per mutation epoch.

        :meth:`gather_all` where that is the same sweep.  Elsewhere the
        first call after a mutation runs ``store.analytics_edges()`` and
        keeps its arrays (read-only), its ``AccessStats`` delta and its
        vertex-id horizon; later calls replay the delta and return the
        same arrays, until the next dirty mark drops them.
        """
        if self.serves_full:
            return self.gather_all()
        stats = self.store.stats
        if self._full is not None:
            stats.merge(self._full[1])
            self._count_hit()
            return self._full[0]
        before = stats.snapshot()
        # Views, so a backend returning its own arrays keeps them writable.
        triple = tuple(a.view() for a in self.store.analytics_edges())
        for a in triple:
            a.flags.writeable = False
        src, dst, _ = triple
        horizon = int(max(src.max(), dst.max())) + 1 if src.size else 0
        self._full = (triple, stats.delta(before), horizon)
        return triple

    @property
    def full_horizon(self) -> int | None:
        """One past the largest vertex id in the live capture, if any."""
        return None if self._full is None else self._full[2]
