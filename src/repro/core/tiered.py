"""The degree-tiered adaptive backend (GraphTango-style representation).

Skewed streams defeat any single adjacency layout: a power-law graph is
almost all degree-≤4 vertices (where a hash table wastes space and cache
lines) plus a few hubs (where a linear scan is quadratic pain).
GraphTango's answer — adopted here — is to pick the layout *per vertex by
degree* and migrate as degrees evolve:

* **Tier 0 (inline array)** — degree ≤ ``tau1``: destinations kept in a
  tiny append-ordered array; duplicate checks are a linear scan, which at
  these sizes beats any hashing.
* **Tier 1 (small set)** — degree ≤ ``tau2``: a fixed-capacity
  open-addressing table (linear probing, tombstone deletes, power-of-two
  capacity) sized a factor above the degree, so probes stay short.
* **Tier 2 (large table)** — hubs: a full hash map from destination to
  weight; O(1) duplicate checks regardless of degree.

**Promotion / demotion with hysteresis.**  An insert that pushes a
vertex's degree above ``tau1`` (or ``tau2``) rebuilds its row one tier
up; a delete only drops it back once the degree falls to ``tau -
hysteresis``, so churn oscillating around a threshold cannot thrash
rebuilds.  Transitions preserve the row's neighbor *order* (tier-0
insertion order becomes tier-1 probe order becomes tier-2 map order
deterministically), so the store stays bit-reproducible from its
operation stream — the property every differential oracle in this repo
leans on.

**Cost accounting.**  Every access charges
:class:`~repro.core.stats.AccessStats` deterministically from the row's
*current* structure (one random block read per row touch, cells scanned
= slots inspected, one hash lookup per table probe, compaction moves for
migrations) — never from wall-clock or allocation luck.  Re-walking an
unchanged row charges the identical delta, which is exactly the
charge-mirror contract the analytics snapshot replays.

**Observability** (when :mod:`repro.obs` is enabled): transition
counters ``store.tier.promotions`` / ``store.tier.demotions`` and
per-tier vertex gauges ``store.tier.inline_vertices`` /
``small_vertices`` / ``large_vertices``; the same numbers are always
available in-process via :attr:`TieredStore.promotions` /
:attr:`demotions` / :meth:`tier_occupancy`.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TieredConfig
from repro.core.pool import grow
from repro.core.store import RowStoreDefaults
from repro.errors import VertexNotFoundError
from repro.obs import hooks as obs_hooks

#: Slot-state sentinels in tier-1 tables (same vocabulary as the other
#: stores' cell encodings — and the reason negative ids are rejected).
_EMPTY = -1
_TOMB = -2
#: Knuth multiplicative-hash constant for tier-1 slot choice.
_MULT = 0x9E3779B1

#: Tier indices (also the vocabulary of :meth:`TieredStore.tier_of`).
TIER_INLINE, TIER_SMALL, TIER_LARGE = 0, 1, 2
_TIER_GAUGES = ("inline_vertices", "small_vertices", "large_vertices")


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


class _InlineRow:
    """Tier 0: append-ordered destination/weight arrays (python lists)."""

    __slots__ = ("dsts", "weights")

    def __init__(self) -> None:
        self.dsts: list[int] = []
        self.weights: list[float] = []


class _SmallTable:
    """Tier 1: fixed-capacity open-addressing set (linear probing)."""

    __slots__ = ("dst", "weight", "n_live", "n_used")

    def __init__(self, capacity: int) -> None:
        self.dst = np.full(capacity, _EMPTY, dtype=np.int64)
        self.weight = np.zeros(capacity, dtype=np.float64)
        self.n_live = 0   # live destinations
        self.n_used = 0   # live + tombstones (probe-chain occupancy)

    def probe(self, dst: int) -> tuple[bool, int, int]:
        """Locate ``dst``: ``(found, slot, probes)``.

        When not found, ``slot`` is where an insert would land (the
        first tombstone on the probe path, else the terminating EMPTY).
        The table is never full (grown before 70% occupancy), so the
        walk always terminates.
        """
        cap = self.dst.shape[0]
        mask = cap - 1
        slot = (int(dst) * _MULT) & mask
        first_tomb = -1
        probes = 0
        while True:
            probes += 1
            v = int(self.dst[slot])
            if v == dst:
                return True, slot, probes
            if v == _EMPTY:
                return False, (first_tomb if first_tomb >= 0 else slot), probes
            if v == _TOMB and first_tomb < 0:
                first_tomb = slot
            slot = (slot + 1) & mask

    def live_in_slot_order(self) -> tuple[np.ndarray, np.ndarray]:
        mask = self.dst >= 0
        return self.dst[mask], self.weight[mask]


class TieredStore(RowStoreDefaults):
    """Degree-tiered dynamic graph store (see module docstring).

    Rows are indexed by *original* source id (like the STINGER baseline:
    ``n_vertices`` is the highest source id ever touched plus one, and
    dense rows coincide with original ids — :meth:`original_ids` is the
    identity).

    Examples
    --------
    >>> ts = TieredStore()
    >>> ts.insert_edge(1, 2)
    True
    >>> ts.insert_edge(1, 2)   # duplicate: weight update, not a new edge
    False
    >>> ts.tier_of(1)
    0
    """

    obs_name = "tiered"

    def __init__(self, config: TieredConfig | None = None):
        from repro.core.stats import AccessStats

        self.config = config if config is not None else TieredConfig()
        self.stats = AccessStats()
        self._rows: list[object | None] = [None] * self.config.initial_vertices
        self._degree = np.zeros(self.config.initial_vertices, dtype=np.int64)
        self._n_vertices = 0
        self._n_edges = 0
        self._tier_counts = [0, 0, 0]
        #: Lifetime tier-transition counters (obs mirrors when enabled).
        self.promotions = 0
        self.demotions = 0
        if self.config.snapshot:
            self.enable_snapshot()

    # ------------------------------------------------------------------ #
    # sizes / protocol surface
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Source ids with an allocated row-table entry."""
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def full_load_is_row_sweep(self) -> bool:
        """The FP load *is* the per-row sweep (no CAL-style stream)."""
        return True

    def tier_of(self, src: int) -> int | None:
        """Current tier of ``src`` (0/1/2), or ``None`` if no row exists."""
        src = int(src)
        if src >= self._n_vertices or self._rows[src] is None:
            return None
        return self._tier_index(self._rows[src])

    def tier_occupancy(self) -> dict[str, int]:
        """Vertices per tier plus lifetime transition counts."""
        return {
            "inline": self._tier_counts[TIER_INLINE],
            "small": self._tier_counts[TIER_SMALL],
            "large": self._tier_counts[TIER_LARGE],
            "promotions": self.promotions,
            "demotions": self.demotions,
        }

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _tier_index(row) -> int:
        if isinstance(row, _InlineRow):
            return TIER_INLINE
        if isinstance(row, _SmallTable):
            return TIER_SMALL
        return TIER_LARGE

    def _ensure_vertex(self, src: int) -> None:
        self._degree = grow(self._degree, src + 1)
        self._rows.extend([None] * (self._degree.shape[0] - len(self._rows)))
        if src >= self._n_vertices:
            self._n_vertices = src + 1

    def _count_transition(self, old_tier: int, new_tier: int) -> None:
        self._tier_counts[old_tier] -= 1
        self._tier_counts[new_tier] += 1
        if new_tier > old_tier:
            self.promotions += 1
        else:
            self.demotions += 1
        if obs_hooks.enabled:
            from repro.obs.metrics import get_registry

            kind = "promotions" if new_tier > old_tier else "demotions"
            get_registry().counter(
                f"store.tier.{kind}",
                "tier transitions (row rebuilds) in the tiered store",
            ).inc()

    def _migrate(self, src: int, new_tier: int) -> None:
        """Rebuild ``src``'s row one tier up or down, preserving order.

        Charges one random read (the old row), one writeback (the new
        one), and a compaction move per migrated edge.
        """
        row = self._rows[src]
        old_tier = self._tier_index(row)
        dsts, weights = self._live_items(row)
        n = len(dsts)
        if new_tier == TIER_INLINE:
            new_row = _InlineRow()
            new_row.dsts = list(dsts)
            new_row.weights = list(weights)
        elif new_tier == TIER_SMALL:
            new_row = _SmallTable(_next_pow2(max(8, 2 * max(n, 1))))
            for d, w in zip(dsts, weights):
                _, slot, _ = new_row.probe(d)
                new_row.dst[slot] = d
                new_row.weight[slot] = w
            new_row.n_live = new_row.n_used = n
        else:
            new_row = dict(zip(dsts, weights))
        self._rows[src] = new_row
        self.stats.random_block_reads += 1
        self.stats.workblock_writebacks += 1
        self.stats.compaction_moves += n
        self._count_transition(old_tier, new_tier)

    @staticmethod
    def _live_items(row) -> tuple[list[int], list[float]]:
        """A row's live ``(dsts, weights)`` in its canonical order."""
        if isinstance(row, _InlineRow):
            return list(row.dsts), list(row.weights)
        if isinstance(row, _SmallTable):
            d, w = row.live_in_slot_order()
            return d.tolist(), w.tolist()
        return list(row.keys()), list(row.values())

    def _maybe_promote(self, src: int) -> None:
        deg = int(self._degree[src])
        tier = self._tier_index(self._rows[src])
        if tier == TIER_INLINE and deg > self.config.tau1:
            self._migrate(src, TIER_SMALL)
        elif tier == TIER_SMALL and deg > self.config.tau2:
            self._migrate(src, TIER_LARGE)

    def _maybe_demote(self, src: int) -> None:
        deg = int(self._degree[src])
        tier = self._tier_index(self._rows[src])
        h = self.config.hysteresis
        if tier == TIER_LARGE and deg <= self.config.tau2 - h:
            self._migrate(src, TIER_SMALL)
            tier = TIER_SMALL
        if tier == TIER_SMALL and deg <= self.config.tau1 - h:
            self._migrate(src, TIER_INLINE)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert_edge(self, src: int, dst: int, weight: float = 1.0) -> bool:
        """Insert ``(src, dst)``; update the weight in place if present.

        Returns ``True`` when the edge is new.  May promote the vertex a
        tier when its degree crosses the configured threshold.
        """
        src, dst, weight = int(src), int(dst), float(weight)
        if src < 0 or dst < 0:
            # Negative ids collide with the -1/-2 slot-state sentinels.
            raise ValueError(f"vertex ids must be non-negative, got ({src}, {dst})")
        self._ensure_vertex(src)
        row = self._rows[src]
        if row is None:
            row = _InlineRow()
            self._rows[src] = row
            self._tier_counts[TIER_INLINE] += 1
        is_new = True
        if isinstance(row, _InlineRow):
            self.stats.random_block_reads += 1
            try:
                i = row.dsts.index(dst)
                self.stats.cells_scanned += i + 1
                row.weights[i] = weight
                is_new = False
            except ValueError:
                self.stats.cells_scanned += len(row.dsts)
                row.dsts.append(dst)
                row.weights.append(weight)
        elif isinstance(row, _SmallTable):
            self.stats.hash_lookups += 1
            self.stats.random_block_reads += 1
            found, slot, probes = row.probe(dst)
            self.stats.cells_scanned += probes
            if found:
                row.weight[slot] = weight
                is_new = False
            else:
                if 10 * (row.n_used + 1) > 7 * row.dst.shape[0]:
                    # Occupancy (live + tombstones) past 70%: rehash in
                    # place — double when genuinely full, else just shed
                    # tombstones at the same capacity.
                    cap = row.dst.shape[0]
                    new_cap = cap * 2 if 2 * (row.n_live + 1) > cap else cap
                    rebuilt = _SmallTable(new_cap)
                    d, w = row.live_in_slot_order()
                    for dd, ww in zip(d.tolist(), w.tolist()):
                        _, s, _ = rebuilt.probe(dd)
                        rebuilt.dst[s] = dd
                        rebuilt.weight[s] = ww
                    rebuilt.n_live = rebuilt.n_used = row.n_live
                    self._rows[src] = row = rebuilt
                    self.stats.random_block_reads += 1
                    self.stats.workblock_writebacks += 1
                    self.stats.compaction_moves += row.n_live
                    _, slot, probes = row.probe(dst)
                    self.stats.cells_scanned += probes
                if int(row.dst[slot]) == _EMPTY:
                    row.n_used += 1
                row.dst[slot] = dst
                row.weight[slot] = weight
                row.n_live += 1
        else:  # TIER_LARGE dict
            self.stats.hash_lookups += 1
            self.stats.random_block_reads += 1
            self.stats.cells_scanned += 1
            is_new = dst not in row
            row[dst] = weight
        if is_new:
            self.stats.workblock_writebacks += 1
            self._degree[src] += 1
            self._n_edges += 1
            self.stats.edges_inserted += 1
            self._maybe_promote(src)
        if self._analytics_snapshot is not None:
            # Weight updates change row data too, so mark unconditionally.
            self._analytics_snapshot.mark_dirty(src)
        return is_new

    def insert_batch(self, edges: np.ndarray,
                     weights: np.ndarray | None = None) -> int:
        """The row-store batch, then the tier gauges when obs is enabled."""
        new = super().insert_batch(edges, weights)
        if obs_hooks.enabled:
            self._publish_tier_gauges()
        return new

    def delete_edge(self, src: int, dst: int) -> bool:
        """Delete ``(src, dst)``; returns whether it existed.

        May demote the vertex once its degree falls through the
        hysteresis band below a tier threshold.
        """
        src, dst = int(src), int(dst)
        if (src < 0 or src >= self._n_vertices or dst < 0
                or self._rows[src] is None):
            return False  # negative dst would match the EMPTY/TOMB slots
        row = self._rows[src]
        existed = False
        if isinstance(row, _InlineRow):
            self.stats.random_block_reads += 1
            try:
                i = row.dsts.index(dst)
                self.stats.cells_scanned += i + 1
                del row.dsts[i]
                del row.weights[i]
                self.stats.compaction_moves += 1
                existed = True
            except ValueError:
                self.stats.cells_scanned += len(row.dsts)
        elif isinstance(row, _SmallTable):
            self.stats.hash_lookups += 1
            self.stats.random_block_reads += 1
            found, slot, probes = row.probe(dst)
            self.stats.cells_scanned += probes
            if found:
                row.dst[slot] = _TOMB
                row.n_live -= 1
                self.stats.tombstones_set += 1
                existed = True
        else:
            self.stats.hash_lookups += 1
            self.stats.random_block_reads += 1
            self.stats.cells_scanned += 1
            existed = dst in row
            if existed:
                del row[dst]
        if not existed:
            return False
        self.stats.workblock_writebacks += 1
        self._degree[src] -= 1
        self._n_edges -= 1
        self.stats.edges_deleted += 1
        self._maybe_demote(src)
        if self._analytics_snapshot is not None:
            self._analytics_snapshot.mark_dirty(src)
        return True

    def delete_batch(self, edges: np.ndarray) -> int:
        """The row-store batch, then the tier gauges when obs is enabled."""
        deleted = super().delete_batch(edges)
        if obs_hooks.enabled:
            self._publish_tier_gauges()
        return deleted

    def delete_vertex(self, src: int) -> int:
        """Delete every out-edge of ``src``; return how many existed.

        Runs the per-edge delete path so demotions fire exactly as a
        stream of single deletes would make them.
        """
        src = int(src)
        if src < 0 or src >= self._n_vertices or self._rows[src] is None:
            return 0
        dsts, _ = self._live_items(self._rows[src])
        deleted = 0
        for d in dsts:
            if self.delete_edge(src, int(d)):
                deleted += 1
        return deleted

    def _publish_tier_gauges(self) -> None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
        for tier, suffix in enumerate(_TIER_GAUGES):
            registry.gauge(f"store.tier.{suffix}").set(self._tier_counts[tier])

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def edge_weight(self, src: int, dst: int) -> float | None:
        """Charged single-edge lookup; ``None`` when absent."""
        src, dst = int(src), int(dst)
        if (src < 0 or src >= self._n_vertices or dst < 0
                or self._rows[src] is None):
            return None  # negative dst would match the EMPTY/TOMB slots
        row = self._rows[src]
        if isinstance(row, _InlineRow):
            self.stats.random_block_reads += 1
            try:
                i = row.dsts.index(dst)
                self.stats.cells_scanned += i + 1
                self.stats.edges_found += 1
                return row.weights[i]
            except ValueError:
                self.stats.cells_scanned += len(row.dsts)
                return None
        if isinstance(row, _SmallTable):
            self.stats.hash_lookups += 1
            self.stats.random_block_reads += 1
            found, slot, probes = row.probe(dst)
            self.stats.cells_scanned += probes
            if found:
                self.stats.edges_found += 1
                return float(row.weight[slot])
            return None
        self.stats.hash_lookups += 1
        self.stats.random_block_reads += 1
        self.stats.cells_scanned += 1
        if dst in row:
            self.stats.edges_found += 1
            return row[dst]
        return None

    def degree(self, src: int) -> int:
        """Live out-degree (uncharged — a direct degree-array read)."""
        src = int(src)
        return int(self._degree[src]) if 0 <= src < self._n_vertices else 0

    def neighbors(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours of ``src`` as ``(dst, weight)`` arrays.

        Freshly-allocated arrays every call (safe to cache), in the
        row's canonical order; the charge depends only on the row's
        current structure — the determinism the snapshot's charge
        mirror measures and replays.
        """
        src = int(src)
        if src < 0 or src >= self._n_vertices:
            raise VertexNotFoundError(src)
        row = self._rows[src]
        if row is None:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        self.stats.random_block_reads += 1
        if isinstance(row, _InlineRow):
            self.stats.cells_scanned += len(row.dsts)
            return (np.asarray(row.dsts, dtype=np.int64),
                    np.asarray(row.weights, dtype=np.float64))
        if isinstance(row, _SmallTable):
            self.stats.cells_scanned += row.dst.shape[0]
            d, w = row.live_in_slot_order()
            return d.copy(), w.copy()
        self.stats.cells_scanned += len(row)
        return (np.fromiter(row.keys(), dtype=np.int64, count=len(row)),
                np.fromiter(row.values(), dtype=np.float64, count=len(row)))

    # ------------------------------------------------------------------ #
    # integrity
    # ------------------------------------------------------------------ #
    def _fsck_checks(self, violations: list, level: str) -> None:
        """Append tier violations: a row's tier must hold its degree
        inside the hysteresis band, and the occupancy counters must
        match the rows."""
        from repro.core.verify import IntegrityViolation

        tau1, tau2, h = self.config.tau1, self.config.tau2, self.config.hysteresis
        counts = [0, 0, 0]
        for src in range(self._n_vertices):
            row = self._rows[src]
            if row is None:
                continue
            deg = int(self._degree[src])
            tier = self._tier_index(row)
            counts[tier] += 1
            ok = (
                (tier == TIER_INLINE and deg <= tau1)
                or (tier == TIER_SMALL and tau1 - h < deg <= tau2)
                or (tier == TIER_LARGE and deg > tau2 - h)
            )
            if not ok:
                violations.append(IntegrityViolation(
                    V_TIER, src,
                    f"tier {tier} holds degree {deg} outside its "
                    f"hysteresis band (tau1={tau1}, tau2={tau2}, h={h})"))
        if counts != self._tier_counts:
            violations.append(IntegrityViolation(
                V_TIER, -1,
                f"tier occupancy counters say {self._tier_counts} but "
                f"the rows count {counts}"))

    def _fsck_repair(self, out) -> None:
        """Rebuild every row into the canonical tier for its live degree
        (which also deduplicates it), then recount degrees, the edge
        total and the occupancy counters from the rows."""
        counts = [0, 0, 0]
        total = 0
        for src in range(self._n_vertices):
            row = self._rows[src]
            if row is None:
                continue
            seen = {int(d): float(w) for d, w in zip(*self._live_items(row))}
            deg = len(seen)
            old_tier = self._tier_index(row)
            if deg <= self.config.tau1:
                new_row: object = _InlineRow()
                new_row.dsts = list(seen.keys())
                new_row.weights = list(seen.values())
                new_tier = TIER_INLINE
            elif deg <= self.config.tau2:
                new_row = _SmallTable(_next_pow2(max(8, 2 * deg)))
                for d, w in seen.items():
                    _, slot, _ = new_row.probe(d)
                    new_row.dst[slot] = d
                    new_row.weight[slot] = w
                new_row.n_live = new_row.n_used = deg
                new_tier = TIER_SMALL
            else:
                new_row = dict(seen)
                new_tier = TIER_LARGE
            if new_tier != old_tier or deg != int(self._degree[src]):
                out.rebuilt_vertices.append(src)
            self._rows[src] = new_row
            counts[new_tier] += 1
            self._degree[src] = deg
            total += deg
        self._n_edges = total
        self._tier_counts = counts


#: Violation kind for tier-assignment breaks (tiered-store fsck).
V_TIER = "tier-assignment"
