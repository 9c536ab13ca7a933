"""Online store integrity checking ("fsck") and self-healing repair.

A dynamic-graph store that serves traffic for weeks accumulates risk that
crash recovery alone cannot cover: a bit flip in an EdgeblockArray slot, a
degree counter that drifted, a CAL copy that no longer matches its owner.
This module audits every structure of a :class:`~repro.core.graphtinker.
GraphTinker` instance against the invariants the rest of the code base
silently relies on:

* every live edge-cell sits in the Subblock its destination hashes to at
  the cell's Tree-Based-Hashing generation — along its *whole* descent
  path, so FIND can actually reach it;
* in Robin-Hood mode, each cell's stored probe distance matches its
  wrapped distance from the destination's initial bucket, and no EMPTY
  cell interrupts the probe path (which would make the edge unreachable);
* per-vertex degree counters equal the number of live cells in the
  vertex's edgeblock tree, and no destination appears twice in one tree
  (no duplicate/ghost edges);
* every edge-cell's CAL-pointer resolves to a live CAL slot holding the
  same ``(src, dst, weight)``, every live CAL slot is owned by exactly
  one cell, and the CAL's live count matches the EdgeblockArray's;
* the SGH forward/reverse renaming tables are mutually inverse, and the
  batch index resolves every forward key as the forward table does;
* the overflow pool's free-list is sane: no freed block is referenced by
  a child pointer, no live block is shared by two parents or orphaned.

The audit is a fixed number of NumPy passes over the pools, not a walk
per vertex: one level-by-level discovery of every edgeblock tree (main
rows, then ``np.nonzero`` on the child matrices) gives each live cell its
root vertex, its generation and its ancestor chain, and each check is
then one pass over those arrays.  ``level="quick"`` runs the passes that
need neither hashing nor the CAL-pointers.

:func:`repair_graph` recounts damage confined to the degree counters in
place.  Anything else reconciles the whole edge set once — the
EdgeblockArray and the CAL are redundant copies of every edge, and
hash-placement validity decides between them — and rebuilds the store
from the reconciled edges with one ``insert_batch``.  Where that evidence
cannot decide a cell's destination, repair keeps the cell's and names
the edge in its final report (``repair-undecided``), which is then not
``ok``.

Auditing and repairing never perturb :class:`~repro.core.stats.
AccessStats` — counts are snapshotted and restored — and publish
``verify.*`` metrics and a ``verify.fsck`` span through :mod:`repro.obs`
when observability is up.  :func:`verify_graph` is GraphTinker's
``fsck``, so it is also what ``GraphTinker.check_invariants`` asserts.
See docs/robustness.md for the full invariant/repair catalogue.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.core.cal import CoarseAdjacencyList
from repro.core.edgeblock_array import OVERFLOW, EdgeblockArray
from repro.core.hashing import initial_bucket_array, subblock_index_array
from repro.core.pool import EMPTY, TOMBSTONE
from repro.obs import hooks as obs_hooks

#: Violation kinds (the ``IntegrityViolation.kind`` vocabulary).
V_DEGREE = "degree-mismatch"            # EBA degree counter vs live cells
V_DUPLICATE = "duplicate-edge"          # same dst twice in one vertex tree
V_CORRUPT_CELL = "corrupt-cell"         # dst is not a valid id or sentinel
V_MISPLACED = "misplaced-edge"          # Subblock/probe placement broken
V_UNREACHABLE = "unreachable-edge"      # EMPTY cell interrupts probe path
V_CAL_DANGLING = "cal-pointer-dangling"  # CAL-pointer outside the CAL
V_CAL_MISMATCH = "cal-copy-mismatch"    # CAL copy disagrees with owner
V_CAL_GHOST = "cal-ghost-copy"          # live CAL slot without an owner
V_CAL_COUNT = "cal-count-mismatch"      # CAL live count vs EBA live count
V_SGH = "sgh-mapping"                   # forward/reverse/index disagree
V_POOL = "pool-freelist"                # freed/orphaned/shared blocks
V_UNDECIDED = "repair-undecided"        # repair kept an unconfirmed dst

LEVELS = ("quick", "full")


@dataclass
class IntegrityViolation:
    """One detected invariant violation.

    ``vertex`` is the *dense* source id of the affected vertex (``-1``
    for store-global violations such as pool free-list damage), and
    ``where`` names the physical location (region/block/slot) when one
    exists, so an operator can correlate with raw dumps.
    """

    kind: str
    vertex: int
    detail: str
    where: str = ""

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        loc = f" @{self.where}" if self.where else ""
        who = f" v{self.vertex}" if self.vertex >= 0 else ""
        return f"[{self.kind}]{who}{loc}: {self.detail}"


@dataclass
class VerifyReport:
    """Outcome of one fsck pass."""

    level: str
    violations: list[IntegrityViolation] = field(default_factory=list)
    n_vertices: int = 0
    n_edges: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def summary(self) -> str:
        if self.ok:
            return (f"fsck[{self.level}] clean: {self.n_vertices} vertices, "
                    f"{self.n_edges} edges checked in {self.elapsed * 1e3:.1f} ms")
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(self.by_kind().items()))
        return (f"fsck[{self.level}] FAILED: {len(self.violations)} "
                f"violations ({kinds}) over {self.n_vertices} vertices")


@dataclass
class RepairReport:
    """Outcome of one self-healing pass."""

    initial: VerifyReport
    final: VerifyReport
    rebuilt_vertices: list[int] = field(default_factory=list)
    recounted_vertices: list[int] = field(default_factory=list)
    freed_blocks: int = 0
    sgh_fixes: int = 0
    actions: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.final.ok


# --------------------------------------------------------------------- #
# tree discovery
# --------------------------------------------------------------------- #
class _Sweep:
    """Every edgeblock tree of the store and every live cell in it.

    ``roots[g]`` / ``blocks[g]``: the generation-``g`` edgeblocks (main
    rows at 0) and the dense vertex whose tree holds each;
    ``parents[g - 1]`` / ``descents[g - 1]``: each one's parent (an index
    into generation ``g - 1``) and the parent Subblock it hangs off.  One
    entry per live cell, generation by generation, in ``root``, ``gen``,
    ``at`` (its edgeblock's index in its generation), ``block`` (pool
    row), ``slot`` and ``dst``; the full audit fills ``placed`` (hash
    placement, probe distance and probe path hold) and ``resolves`` (the
    CAL-pointer names a slot of an allocated CAL block).
    """

    def __init__(self, eba, emit):
        n, hw = eba.n_vertices, eba.overflow.high_water
        free = np.asarray(eba.overflow._free, dtype=np.int64)
        freed = np.zeros(hw, dtype=bool)
        freed[free[(free >= 0) & (free < hw)]] = True
        #: Child pointers naming each overflow block.
        self.refs = np.bincount(np.concatenate(
            [m._data[m._data >= 0] for m in (eba._main_children, eba._overflow_children)]),
            minlength=hw)
        # Unless some block has two parents, no tree reaches one twice.
        shared = bool(self.refs.size) and self.refs.max() > 1
        self.roots = [np.arange(n, dtype=np.int64)]
        self.blocks = [np.arange(n, dtype=np.int64)]
        self.parents: list[np.ndarray] = []
        self.descents: list[np.ndarray] = []
        seen = np.empty(0, dtype=np.int64)
        kids = eba._main_children._data[:n]
        while True:
            parent, sb = np.nonzero(kids >= 0)
            if parent.size == 0:
                break
            child = kids[parent, sb].astype(np.int64)
            root = self.roots[-1][parent]
            never = child >= hw
            dead = np.zeros_like(never)
            dead[~never] = freed[child[~never]]
            for i in np.flatnonzero(never | dead).tolist():
                what = "overflow block {} which was never allocated" if never[i] \
                    else "freed overflow block {}"
                emit(V_POOL, int(root[i]), "child pointer -> " + what.format(child[i]),
                     f"r{min(len(self.parents), OVERFLOW)}b{self.blocks[-1][parent[i]]}sb{sb[i]}")
            keep = ~(never | dead)
            if shared:
                # A block reached a second time from the same tree (a
                # cycle, or two parents in one tree) is reported, not
                # re-expanded.
                key = root * hw + child
                first = np.zeros_like(keep)
                first[np.unique(key, return_index=True)[1]] = True
                keep &= first
                keep[keep] = ~np.isin(key[keep], seen)
                for i in np.flatnonzero(~(keep | never | dead)).tolist():
                    emit(V_POOL, int(root[i]), f"edgeblock cycle through block {child[i]}",
                         f"r{OVERFLOW}b{child[i]}")
                seen = np.concatenate((seen, key[keep]))
            self.parents.append(parent[keep])
            self.descents.append(sb[keep])
            self.roots.append(root[keep])
            self.blocks.append(child[keep])
            kids = eba._overflow_children._data[self.blocks[-1]]

        cells = []
        pw = eba.config.pagewidth
        for gen, (roots, blocks) in enumerate(zip(self.roots, self.blocks)):
            dst = (eba.main.fields["dst"][:n] if gen == 0
                   else eba.overflow.fields["dst"][blocks]).reshape(-1)
            if dst.size and dst.min() < TOMBSTONE:
                for cell in np.flatnonzero(dst < TOMBSTONE).tolist():
                    at, slot = divmod(cell, pw)
                    emit(V_CORRUPT_CELL, int(roots[at]),
                         f"dst {dst[cell]} is neither a vertex id nor a sentinel",
                         f"r{min(gen, OVERFLOW)}b{blocks[at]}s{slot}")
            live = np.flatnonzero(dst >= 0)
            at, slot = np.divmod(live, pw)
            cells.append((roots[at], np.full(at.shape[0], gen), at, blocks[at],
                          slot, dst[live]))
        self.root, self.gen, self.at, self.block, self.slot, self.dst = (
            np.concatenate(column).astype(np.int64) for column in zip(*cells))
        self.bounds = np.cumsum([0] + [c[0].shape[0] for c in cells])
        self.placed = np.ones(self.dst.shape[0], dtype=bool)
        self.resolves = np.zeros(self.dst.shape[0], dtype=bool)

    def read(self, eba, name: str, slot: np.ndarray | None = None,
             rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Field ``name`` of the cells ``rows`` (at ``slot`` in each one's
        edgeblock, its own slot by default; ``slot`` may be 2-D)."""
        block, main = self.block[rows], self.gen[rows] == 0
        slot = self.slot[rows] if slot is None else slot
        cell = (block if slot.ndim == 1 else block[:, None]) * eba.config.pagewidth + slot
        out = np.empty(slot.shape, dtype=eba.main.fields[name].dtype)
        for pool, sel in ((eba.main, main), (eba.overflow, ~main)):
            out[sel] = pool.fields[name].reshape(-1).take(cell[sel])
        return out

    def where(self, i: int) -> str:
        return f"r{min(int(self.gen[i]), OVERFLOW)}b{self.block[i]}s{self.slot[i]}"


def _pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 per pair ``(a[i], b[i])`` (both ``>= 0``) that sorts as
    the pairs do; where ``a * (max(b) + 1)`` could overflow, ``b`` is
    replaced by its rank among its distinct values."""
    span = int(b.max()) + 1 if b.size else 1
    if not a.size or int(a.max()) < (1 << 62) // span:
        return a * span + b
    values, rank = np.unique(b, return_inverse=True)
    return a * values.shape[0] + rank


# --------------------------------------------------------------------- #
# the fsck
# --------------------------------------------------------------------- #
def verify_graph(gt, level: str = "full") -> VerifyReport:
    """Audit every structural invariant of ``gt``; never mutates it.

    ``level="quick"`` runs the bounded post-recovery subset (tree and
    free-list structure, corrupt cells, degree / duplicate / count / SGH
    checks); ``"full"`` additionally checks per-cell hash placement,
    probe-path reachability, and every CAL pointer both ways.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown fsck level {level!r} (choose from {LEVELS})")
    stats_backup = gt.stats.snapshot()
    try:
        return _audit(gt, level)[0]
    finally:
        # Auditing must not perturb the access accounting.
        gt.stats.reset()
        gt.stats.merge(stats_backup)


def _audit(gt, level: str) -> tuple[VerifyReport, _Sweep]:
    started = time.monotonic()
    report = VerifyReport(level=level, n_vertices=gt.eba.n_vertices)

    def emit(kind: str, vertex: int, detail: str, where: str = "") -> None:
        report.violations.append(IntegrityViolation(kind, vertex, detail, where))

    with obs.span("verify.fsck", level=level):
        sweep = _Sweep(gt.eba, emit)
        _check_pools(gt.eba, sweep.refs, emit)
        _check_sgh(gt, emit)
        if level == "full":
            _check_placement(gt, sweep, emit)
        _check_counts(gt, sweep, emit)
        if gt.cal is not None:
            _check_cal(gt, sweep, level == "full", emit)
    report.n_edges = int(sweep.dst.shape[0])
    report.elapsed = time.monotonic() - started
    _publish(report)
    return report, sweep


def _check_placement(gt, sweep: _Sweep, emit) -> None:
    """Hash placement at every generation of every cell's descent, then
    (Robin-Hood mode) its probe distance and probe path; clears
    ``sweep.placed`` where any fails."""
    cfg, eba = gt.config, gt.eba
    nsb, size, seed = cfg.subblocks_per_block, cfg.subblock, cfg.seed
    own = sweep.slot // size
    for gen in range(len(sweep.blocks)):
        lo, hi = sweep.bounds[gen], sweep.bounds[gen + 1]
        dst = sweep.dst[lo:hi]
        hashed = subblock_index_array(dst, gen, nsb, seed)
        # The shallowest ancestor generation whose Subblock disagrees.
        anc_gen, anc_sb = np.full(hi - lo, -1), np.zeros(hi - lo, dtype=np.int64)
        at = sweep.at[lo:hi]
        for g in range(gen, 0, -1):
            sb = sweep.descents[g - 1][at]
            bad = subblock_index_array(dst, g - 1, nsb, seed) != sb
            anc_gen[bad], anc_sb[bad] = g - 1, sb[bad]
            at = sweep.parents[g - 1][at]
        for i in np.flatnonzero((hashed != own[lo:hi]) | (anc_gen >= 0)).tolist():
            j = lo + i
            sweep.placed[j] = False
            emit(V_MISPLACED, int(sweep.root[j]),
                 f"dst {dst[i]} sits in subblock {own[j]} but hashes to {hashed[i]} "
                 f"at generation {gen}" if hashed[i] != own[j] else
                 f"dst {dst[i]} descended through subblock {anc_sb[i]} at generation "
                 f"{anc_gen[i]} but hashes elsewhere — unreachable", sweep.where(j))
    if not eba._rhh_on:
        return
    cells = np.flatnonzero(sweep.placed)
    ib = np.empty(cells.shape[0], dtype=np.int64)
    for gen in range(len(sweep.blocks)):
        sel = sweep.gen[cells] == gen
        ib[sel] = initial_bucket_array(sweep.dst[cells[sel]], gen, size, seed)
    base = own[cells] * size
    dist = (sweep.slot[cells] - base - ib) % size
    probe = sweep.read(eba, "probe", rows=cells)
    blocked = probe != dist
    # Only a cell past its initial bucket has a probe path to check.
    far = np.flatnonzero(~blocked & (dist > 0))
    steps = np.arange(dist[far].max() if far.size else 0)
    path = sweep.read(eba, "dst", base[far, None] + (ib[far, None] + steps) % size, cells[far])
    blocked[far] = ((path == EMPTY) & (steps < dist[far, None])).any(axis=1)
    for i in np.flatnonzero(blocked).tolist():
        j = int(cells[i])
        sweep.placed[j] = False
        if probe[i] != dist[i]:
            emit(V_MISPLACED, int(sweep.root[j]), f"dst {sweep.dst[j]} stores probe "
                 f"{probe[i]} but sits {dist[i]} past its initial bucket {ib[i]}",
                 sweep.where(j))
        else:
            emit(V_UNREACHABLE, int(sweep.root[j]), f"dst {sweep.dst[j]} lies beyond "
                 f"an EMPTY cell on its probe path (FIND stops early)", sweep.where(j))


def _check_counts(gt, sweep: _Sweep, emit) -> None:
    """Degree counters against the live cells, and duplicate destinations."""
    n = gt.eba.n_vertices
    live = np.bincount(sweep.root, minlength=n)
    degrees = gt.eba._degrees[:n]
    for v in np.flatnonzero(live != degrees).tolist():
        emit(V_DEGREE, v, f"degree counter says {degrees[v]} but the tree holds "
                          f"{live[v]} live cells")
    order = np.argsort(_pair_keys(sweep.root, sweep.dst))
    root, dst = sweep.root[order], sweep.dst[order]
    again = np.flatnonzero((root[1:] == root[:-1]) & (dst[1:] == dst[:-1])) + 1
    for v in sorted(set(root[again].tolist())):
        dups = np.unique(dst[again[root[again] == v]])
        emit(V_DUPLICATE, v, f"destination(s) {dups[:8].tolist()} stored more than once")


def _check_cal(gt, sweep: _Sweep, full: bool, emit) -> None:
    """CAL-pointers both ways (full) and the CAL's live counts."""
    cal, n = gt.cal, gt.eba.n_vertices
    live = cal.live_addresses()
    if full:
        allocated = np.ones(cal.pool.high_water, dtype=bool)
        allocated[cal.pool._free] = False
        addr = sweep.read(gt.eba, "cal")
        block = addr // gt.config.cal_block_size
        sweep.resolves = (addr >= 0) & (block < allocated.shape[0])
        sweep.resolves[sweep.resolves] = allocated[block[sweep.resolves]]
        for i in np.flatnonzero(~sweep.resolves).tolist():
            emit(V_CAL_DANGLING, int(sweep.root[i]), f"edge ({sweep.root[i]}, "
                 f"{sweep.dst[i]}) points at CAL address {addr[i]} which does not "
                 f"exist", sweep.where(i))
        # Each address's first claimant, in discovery order, owns it;
        # later ones share it.
        claim = np.flatnonzero(sweep.resolves)
        claim = claim[np.argsort(addr[claim], kind="stable")]
        first = np.ones(claim.shape[0], dtype=bool)
        first[1:] = addr[claim[1:]] != addr[claim[:-1]]
        owner = claim[np.maximum.accumulate(np.where(first, np.arange(claim.shape[0]), 0))]
        for i, o in zip(claim[~first].tolist(), owner[~first].tolist()):
            emit(V_CAL_MISMATCH, int(sweep.root[i]), f"edge ({sweep.root[i]}, "
                 f"{sweep.dst[i]}) shares CAL slot {cal.split(int(addr[i]))} with edge "
                 f"({sweep.root[o]}, {sweep.dst[o]})", sweep.where(i))
        owned = claim[first]
        cs, cd, cw = (cal.pool.fields[k].reshape(-1)[addr[owned]] for k in ("src", "dst", "weight"))
        weight = sweep.read(gt.eba, "weight", rows=owned)
        moved = (cs != sweep.root[owned]) | (cd != sweep.dst[owned])
        for k in np.flatnonzero(moved | (cw != weight)).tolist():
            i = int(owned[k])
            emit(V_CAL_MISMATCH, int(sweep.root[i]), f"edge ({sweep.root[i]}, "
                 f"{sweep.dst[i]}) " + (f"owns CAL slot {cal.split(int(addr[i]))} which "
                 f"holds ({cs[k]}, {cd[k]})" if moved[k] else
                 f"weight {weight[k]} but its CAL copy says {cw[k]}"), sweep.where(i))
        for a in live[~np.isin(live, addr[owned])].tolist():
            (block, slot), s = cal.split(a), int(cal.pool.fields["src"].reshape(-1)[a])
            emit(V_CAL_GHOST, s if 0 <= s < n else -1, f"live CAL slot ({block}, "
                 f"{slot}) = ({s}, {cal.pool.fields['dst'][block, slot]}) has no owning "
                 f"edge-cell", f"cal{block}s{slot}")
    if cal.n_edges != live.shape[0]:
        emit(V_CAL_COUNT, -1, f"CAL count says {cal.n_edges} live copies but "
                              f"{live.shape[0]} slots are live")
    if live.shape[0] != sweep.dst.shape[0]:
        emit(V_CAL_COUNT, -1, f"CAL holds {live.shape[0]} live copies but the "
                              f"EdgeblockArray holds {sweep.dst.shape[0]} live edges")


def _sgh_pairs(sgh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward table as ``(original, dense)`` arrays; dense in range."""
    keys = np.fromiter(sgh._forward, np.int64, len(sgh._forward))
    dense = np.fromiter(sgh._forward.values(), np.int64, keys.shape[0])
    return keys, dense, (dense >= 0) & (dense < len(sgh))


def _check_sgh(gt, emit) -> None:
    sgh = gt.sgh
    if sgh is None:
        return
    if len(sgh) != gt.eba.n_vertices:
        emit(V_SGH, -1, f"SGH maps {len(sgh)} vertices but the main region holds "
                        f"{gt.eba.n_vertices} rows")
    keys, dense, inside = _sgh_pairs(sgh)
    for i in np.flatnonzero(~inside).tolist():
        emit(V_SGH, -1, f"original {keys[i]} maps to out-of-range dense id {dense[i]}")
    reverse = np.full(keys.shape[0], -1, dtype=np.int64)
    reverse[inside] = sgh._reverse[dense[inside]]
    for i in np.flatnonzero(inside & (reverse != keys)).tolist():
        emit(V_SGH, int(dense[i]), f"forward says {keys[i]} -> {dense[i]} but "
                                   f"reverse[{dense[i]}] = {reverse[i]}")
    # The batch index as it stands: it holds the dict's first ``_covered``
    # keys (the ids scalar inserts assigned since are absorbed by the next
    # batch call, not by the audit) and no other.
    covered = sgh._covered
    if covered > len(sgh):
        emit(V_SGH, -1, f"SGH index covers {covered} of {len(sgh)} ids")
    got = sgh._probe(keys)
    want = np.where(np.arange(keys.shape[0]) < covered, dense, -1)
    for i in np.flatnonzero(got != want).tolist():
        emit(V_SGH, -1, f"SGH index resolves {keys[i]} to {got[i]}, expected "
                        f"{want[i]} (-1 until covered)")


def _check_pools(eba, refs: np.ndarray, emit) -> None:
    if eba.main._free:
        emit(V_POOL, -1, f"main-region free-list is not empty ({len(eba.main._free)} "
                         f"entries) — top-parent rows are never freed")
    hw, free = eba.overflow.high_water, eba.overflow._free
    if len(set(free)) != len(free):
        emit(V_POOL, -1, "overflow free-list holds duplicate entries")
    for idx in sorted(set(free)):
        if not 0 <= idx < hw:
            emit(V_POOL, -1, f"overflow free-list entry {idx} was never allocated")
    # Reference counting: every live overflow block must be the child of
    # exactly one (block, subblock); anything else is a leak or a share.
    for child in np.flatnonzero(refs > 1).tolist():
        emit(V_POOL, -1, f"overflow block {child} is referenced by {refs[child]} parents")
    orphan = refs[:hw] == 0
    orphan[[i for i in free if 0 <= i < hw]] = False
    for block in np.flatnonzero(orphan).tolist():
        emit(V_POOL, -1, f"overflow block {block} is allocated but unreachable (orphan)")


def _publish(report: VerifyReport) -> None:
    if not obs_hooks.enabled:
        return
    registry = obs.get_registry()
    registry.counter("verify.runs").inc()
    registry.counter("verify.vertices").inc(report.n_vertices)
    registry.counter("verify.edges").inc(report.n_edges)
    registry.gauge("verify.last_violations").set(len(report.violations))
    for kind, n in report.by_kind().items():
        registry.counter(f"verify.violation.{kind}").inc(n)


# --------------------------------------------------------------------- #
# self-healing repair
# --------------------------------------------------------------------- #
def repair_graph(gt, report: VerifyReport | None = None) -> RepairReport:
    """Self-heal ``gt`` from the violations in ``report``.

    SGH reverse entries and the SGH batch index are rebuilt from the
    forward table; then damage confined to degree counters is recounted
    in place, and anything else rebuilds the store — fresh
    EdgeblockArray and CAL, the same SGH — from one ``insert_batch`` of
    the edge set :func:`_reconcile` trusts.  A final full fsck is
    embedded in the returned :class:`RepairReport`, followed by one
    ``repair-undecided`` violation per edge whose destination the
    evidence could not decide.
    """
    stats_backup = gt.stats.snapshot()
    try:
        # Repair needs the full audit's per-cell evidence.
        fresh, sweep = _audit(gt, "full")
        if report is None or report.level != "full":
            report = fresh
        out = RepairReport(initial=report, final=report)
        with obs.span("verify.repair", violations=len(report.violations)):
            if not report.ok:
                undecided = _apply_repairs(gt, report, sweep, out)
                # Repairs move cells behind the stores' mutation hooks, so
                # any attached analytics snapshot must re-measure from
                # scratch rather than trust its dirty-row tracking.
                snap = getattr(gt, "analytics_snapshot", None)
                if snap is not None:
                    snap.invalidate()
                out.final = _audit(gt, "full")[0]
                out.final.violations += undecided
            _publish_repair(out)
    finally:
        gt.stats.reset()
        gt.stats.merge(stats_backup)
    return out


def _apply_repairs(gt, report: VerifyReport, sweep: _Sweep, out: RepairReport) -> list:
    """Repair ``gt``; returns the ``repair-undecided`` violations."""
    _repair_sgh(gt, out)
    if not {v.kind for v in report.violations} <= {V_SGH, V_DEGREE}:
        src, dst, weight, undecided = _reconcile(gt, sweep)
        _rebuild_store(gt, src, dst, weight, out)
        return undecided
    live = np.bincount(sweep.root, minlength=gt.eba.n_vertices)
    for vertex in sorted({v.vertex for v in report.violations
                          if v.kind == V_DEGREE and v.vertex >= 0}):
        gt.eba._degrees[vertex] = live[vertex]
        out.recounted_vertices.append(vertex)
        out.actions.append(f"recounted degree of vertex {vertex}")
    return []


def _places_alike(eba, sweep: _Sweep, i: int, other: int) -> bool:
    """Whether destination ``other`` would pass the placement check in
    placed cell ``i`` too: the same Subblock at the cell's generation and
    every ancestor's, and in Robin-Hood mode the same initial bucket."""
    a, b = ([eba._tree_hash(d, g) for g in range(int(sweep.gen[i]) + 1)]
            for d in (int(sweep.dst[i]), other))
    return [sb for sb, _ in a] == [sb for sb, _ in b] and (not eba._rhh_on or a[-1] == b[-1])


def _reconcile(gt, sweep: _Sweep):
    """The trusted edge set ``(src, dst, weight)``, dense sources, sorted
    and one entry per ``(src, dst)``, and the ``repair-undecided``
    violations of the cells kept on no evidence.

    The EdgeblockArray cell and its CAL copy (the slot its pointer names,
    when that slot holds the cell's vertex) are redundant; per cell:

    * copies agree on the destination → keep it, with the CAL weight
      (on a weight mismatch neither side is provably right);
    * placement holds → keep the cell (the CAL side is wrong or absent),
      except where an agreeing pair of the same vertex already holds the
      cell's destination: an edge is stored once, so the copy wins;
    * placement broken, copy present → keep the copy (the cell flipped);
    * placement broken, no copy → drop the cell, unless the store has no
      CAL at all: then keep it, and the rebuild rehashes it;
    * no copy, and the pointer names a copy that a cell of that copy's
      own vertex also names → drop the cell (its block is borrowed into
      a second tree), whether or not its placement holds there.

    Two of these keep a destination that nothing confirms, and each such
    cell is named undecided: a placed cell whose own copy's destination
    would pass the placement check in that cell too (either side may
    have flipped), and a misplaced cell in a store with no CAL.

    A live CAL copy that no cell's pointer names recovers an edge whose
    cell was lost.  Where two candidates name one ``(src, dst)``, agreeing
    copies win, then a lone cell or copy, then a recovered edge.
    """
    src, dst, cal = sweep.root, sweep.dst, gt.cal
    weight = sweep.read(gt.eba, "weight")
    rank = np.zeros(src.shape[0], dtype=np.int64)
    if cal is None:
        doubt = {i: None for i in np.flatnonzero(~sweep.placed).tolist()}
    else:
        addr = np.where(sweep.resolves, sweep.read(gt.eba, "cal"), 0)
        cs, cd, cw = (cal.pool.fields[k].reshape(-1) for k in ("src", "dst", "weight"))
        mine = sweep.resolves & (cs[addr] == src)
        agree = mine & (cd[addr] == dst)
        pair = _pair_keys(src, dst)
        taken = np.isin(pair, pair[agree])
        copy = agree | (mine & (~sweep.placed | (taken & ~agree)))
        borrowed = sweep.resolves & ~mine & np.isin(addr, addr[mine])
        keep = copy | (sweep.placed & ~borrowed)
        doubt = {i: int(cd[addr[i]]) for i in np.flatnonzero(mine & ~copy).tolist()}
        doubt = {i: d for i, d in doubt.items() if _places_alike(gt.eba, sweep, i, d)}
        live = cal.live_addresses()
        lost = live[~np.isin(live, addr[sweep.resolves])]
        lost = lost[(cs[lost] >= 0) & (cs[lost] < gt.eba.n_vertices)]
        src = np.concatenate((src[keep], cs[lost]))
        dst = np.concatenate((np.where(copy, cd[addr], dst)[keep], cd[lost]))
        weight = np.concatenate((np.where(copy, cw[addr], weight)[keep], cw[lost]))
        rank = np.concatenate((np.where(agree, 0, 1)[keep], np.full(lost.shape[0], 2)))
    key = _pair_keys(src, dst)
    order = np.argsort(key * 3 + rank)
    order = order[np.diff(key[order], prepend=-1) != 0]  # rank 0 first in each pair
    undecided = [IntegrityViolation(
        V_UNDECIDED, int(sweep.root[i]), f"kept destination {sweep.dst[i]}; " + (
            "it is misplaced and no CAL copy confirms it" if d is None
            else f"its CAL copy says {d}, which places there too"), sweep.where(i))
        for i, d in doubt.items()]
    return src[order], dst[order], weight[order], undecided


def _rebuild_store(gt, src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                   out: RepairReport) -> None:
    """Re-create the EdgeblockArray and the CAL from the reconciled
    edges; the SGH is kept, so every dense id keeps its row."""
    n_vertices = gt.eba.n_vertices
    out.freed_blocks = gt.eba.overflow.n_used
    gt.eba = EdgeblockArray(gt.config, gt.stats)
    gt.cal = CoarseAdjacencyList(gt.config, gt.stats) if gt.config.enable_cal else None
    if n_vertices:
        # Vertices left with no edges keep their rows: SGH ids stay aligned.
        gt.eba.ensure_vertex(n_vertices - 1)
    gt.insert_batch(np.column_stack((gt.original_ids(src), dst)), weight)
    out.rebuilt_vertices = list(range(n_vertices))
    out.actions.append(f"rebuilt the store ({n_vertices} vertices) from "
                       f"{src.shape[0]} reconciled edges")


def _repair_sgh(gt, out: RepairReport) -> None:
    if gt.sgh is None:
        return
    keys, dense, inside = _sgh_pairs(gt.sgh)
    keys, dense = keys[inside], dense[inside]
    broken = np.flatnonzero(gt.sgh._reverse[dense] != keys)
    gt.sgh._reverse[dense[broken]] = keys[broken]
    out.sgh_fixes += broken.shape[0]
    out.actions += [f"restored SGH reverse[{dense[i]}] = {keys[i]} from the "
                    f"forward table" for i in broken.tolist()]
    gt.sgh._reindex()


def _publish_repair(out: RepairReport) -> None:
    if not obs_hooks.enabled:
        return
    registry = obs.get_registry()
    registry.counter("verify.repairs").inc()
    registry.counter("verify.rebuilt_vertices").inc(len(out.rebuilt_vertices))
    registry.counter("verify.recounted_vertices").inc(len(out.recounted_vertices))
    registry.counter("verify.freed_blocks").inc(out.freed_blocks)
    registry.gauge("verify.repair_ok").set(1 if out.ok else 0)
