"""Online store integrity checking ("fsck") and self-healing repair.

A dynamic-graph store that serves traffic for weeks accumulates risk that
crash recovery alone cannot cover: a bit flip in an EdgeblockArray slot, a
degree counter that drifted, a CAL copy that no longer matches its owner.
This module walks every structure of a :class:`~repro.core.graphtinker.
GraphTinker` instance and checks the invariants the rest of the code base
silently relies on:

* every live edge-cell sits in the Subblock its destination hashes to at
  the cell's Tree-Based-Hashing generation — along its *whole* descent
  path, so FIND can actually reach it;
* in Robin-Hood mode, each cell's stored probe distance matches its
  wrapped distance from the destination's initial bucket, and no EMPTY
  cell interrupts the probe path (which would make the edge unreachable);
* per-vertex degree counters (EdgeblockArray and VertexPropertyArray)
  equal the number of live cells in the vertex's edgeblock tree, and no
  destination appears twice in one tree (no duplicate/ghost edges);
* every edge-cell's CAL-pointer resolves to a live CAL slot holding the
  same ``(src, dst, weight)``, every live CAL slot is owned by exactly
  one cell, and the CAL's live count matches the EdgeblockArray's;
* the SGH forward/reverse renaming tables are mutually inverse, and the
  batch index resolves every forward key as the forward table does;
* the overflow pool's free-list is sane: no freed block is referenced by
  a child pointer, no live block is shared by two parents or orphaned.

Violations are classified into typed :class:`IntegrityViolation` records.
:func:`repair_graph` self-heals by *rebuilding the affected vertex's edge
set*: the EdgeblockArray and the CAL are mutually redundant copies of
every edge, so a damaged cell is reconciled against its CAL copy (and
vice versa) using the hash-placement rules as the tiebreaker, the
vertex's tree is wiped, and the reconciled edges are reinserted through
the normal insert path (which also rehashes a damaged block's survivors).

Auditing and repairing never perturb :class:`~repro.core.stats.
AccessStats` — counts are snapshotted and restored — and publish
``verify.*`` metrics and a ``verify.fsck`` span through :mod:`repro.obs`
when observability is up.  :func:`verify_graph` is GraphTinker's
``fsck``, so it is also what ``GraphTinker.check_invariants`` asserts.

See docs/robustness.md for the full invariant/repair catalogue.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.core.edgeblock_array import MAIN, OVERFLOW
from repro.core.hashing import initial_bucket, subblock_index
from repro.core.pool import EMPTY, TOMBSTONE
from repro.obs import hooks as obs_hooks

#: Violation kinds (the ``IntegrityViolation.kind`` vocabulary).
V_DEGREE = "degree-mismatch"            # EBA degree counter vs live cells
V_VPA_DEGREE = "vpa-degree-mismatch"    # VertexPropertyArray degree drifted
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

#: Checks cheap enough for the bounded post-recovery fsck.
QUICK_KINDS = (V_DEGREE, V_VPA_DEGREE, V_DUPLICATE, V_CORRUPT_CELL,
               V_CAL_COUNT, V_SGH, V_POOL)

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
# structure walking
# --------------------------------------------------------------------- #
@dataclass
class _CellInfo:
    """One live edge-cell as seen by the sweep."""

    region: int
    block: int
    slot: int            # cell index within the block row
    generation: int
    dst: int
    weight: float
    cal: int             # CAL-pointer: a CAL address
    placement_ok: bool = True


def _freed_overflow(eba) -> set[int]:
    return set(eba.overflow._free)


def _walk_vertex(gt, src: int, freed: set[int],
                 emit) -> list[_CellInfo]:
    """Collect live cells of one vertex's edgeblock tree, checking
    placement/probe rules along the way (``emit`` receives violations)."""
    eba = gt.eba
    cfg = gt.config
    nsb = cfg.subblocks_per_block
    sb_size = cfg.subblock
    rhh_on = eba._rhh_on
    cells_out: list[_CellInfo] = []
    # (region, block, generation, path) where path is a tuple of
    # (generation, subblock) constraints every edge below must satisfy.
    stack: list[tuple[int, int, int, tuple[tuple[int, int], ...]]] = [
        (MAIN, src, 0, ())]
    seen_blocks: set[tuple[int, int]] = set()
    while stack:
        region, block, gen, path = stack.pop()
        if (region, block) in seen_blocks:
            emit(IntegrityViolation(
                V_POOL, src, f"edgeblock cycle through block {block}",
                where=f"r{region}b{block}"))
            continue
        seen_blocks.add((region, block))
        cells = eba._pool(region).fields
        dsts = cells["dst"][block]
        for slot in np.flatnonzero(dsts != EMPTY).tolist():
            dst = int(dsts[slot])
            if dst == int(TOMBSTONE):
                continue
            where = f"r{region}b{block}s{slot}"
            if dst < 0:
                emit(IntegrityViolation(
                    V_CORRUPT_CELL, src,
                    f"dst {dst} is neither a vertex id nor a sentinel",
                    where=where))
                continue
            sb = slot // sb_size
            info = _CellInfo(region, block, slot, gen, dst,
                             float(cells["weight"][block, slot]),
                             int(cells["cal"][block, slot]))
            # Placement: the cell's own generation plus every ancestor
            # generation it descended through must hash consistently,
            # otherwise rhh_find can never reach it.
            if subblock_index(dst, gen, nsb, cfg.seed) != sb:
                info.placement_ok = False
                emit(IntegrityViolation(
                    V_MISPLACED, src,
                    f"dst {dst} sits in subblock {sb} but hashes to "
                    f"{subblock_index(dst, gen, nsb, cfg.seed)} at "
                    f"generation {gen}", where=where))
            else:
                for anc_gen, anc_sb in path:
                    if subblock_index(dst, anc_gen, nsb, cfg.seed) != anc_sb:
                        info.placement_ok = False
                        emit(IntegrityViolation(
                            V_MISPLACED, src,
                            f"dst {dst} descended through subblock "
                            f"{anc_sb} at generation {anc_gen} but hashes "
                            f"elsewhere — unreachable", where=where))
                        break
            if info.placement_ok and rhh_on:
                ib = initial_bucket(dst, gen, sb_size, cfg.seed)
                in_sb = slot - sb * sb_size
                dist = in_sb - ib
                if dist < 0:
                    dist += sb_size
                probe = int(cells["probe"][block, slot])
                if probe != dist:
                    info.placement_ok = False
                    emit(IntegrityViolation(
                        V_MISPLACED, src,
                        f"dst {dst} stores probe {probe} "
                        f"but sits {dist} past its initial bucket {ib}",
                        where=where))
                else:
                    for step in range(dist):
                        probe_slot = sb * sb_size + (ib + step) % sb_size
                        if int(dsts[probe_slot]) == int(EMPTY):
                            info.placement_ok = False
                            emit(IntegrityViolation(
                                V_UNREACHABLE, src,
                                f"dst {dst} lies beyond an EMPTY cell on "
                                f"its probe path (FIND stops early)",
                                where=where))
                            break
            cells_out.append(info)
        children = eba._children(region).row(block)
        for sb in np.flatnonzero(children >= 0).tolist():
            child = int(children[sb])
            where = f"r{region}b{block}sb{sb}"
            if child >= eba.overflow.high_water:
                emit(IntegrityViolation(
                    V_POOL, src,
                    f"child pointer -> overflow block {child} which was "
                    f"never allocated", where=where))
                continue
            if child in freed:
                emit(IntegrityViolation(
                    V_POOL, src,
                    f"child pointer -> freed overflow block {child}",
                    where=where))
                continue
            stack.append((OVERFLOW, child, gen + 1, path + ((gen, sb),)))
    return cells_out


def _tree_blocks(eba, src: int, freed: set[int]):
    """Yield each ``(region, block)`` of ``src``'s edgeblock tree once, in
    the order a depth-first walk discovers them, following no child
    pointer to a freed or never-allocated block and no cycle (the full
    walker reports those)."""
    stack = [(MAIN, src)]
    seen = set(stack)
    yield stack[0]
    while stack:
        region, block = stack.pop()
        children = eba._children(region).row(block)
        for child in children[children >= 0].tolist():
            node = (OVERFLOW, child)
            if 0 <= child < eba.overflow.high_water and child not in freed and node not in seen:
                seen.add(node)
                stack.append(node)
                yield node


def _quick_vertex_count(gt, src: int, freed: set[int] | None = None) -> tuple[int, int, int]:
    """(live cells, duplicate count, cells whose dst is below the TOMBSTONE
    sentinel — bit damage) of one vertex, vectorised per block."""
    eba = gt.eba
    freed = _freed_overflow(eba) if freed is None else freed
    live = bad = 0
    seen: list[np.ndarray] = []
    for region, block in _tree_blocks(eba, src, freed):
        dsts = eba._pool(region).fields["dst"][block]
        live += int((dsts >= 0).sum())
        bad += int((dsts < int(TOMBSTONE)).sum())
        seen.append(dsts[dsts >= 0])
    return live, live - int(np.unique(np.concatenate(seen)).shape[0]), bad


# --------------------------------------------------------------------- #
# the fsck
# --------------------------------------------------------------------- #
def verify_graph(gt, level: str = "full") -> VerifyReport:
    """Audit every structural invariant of ``gt``; never mutates it.

    ``level="quick"`` runs the bounded post-recovery subset (degree /
    duplicate / count / SGH / free-list checks, all vectorised per
    block); ``"full"`` additionally checks per-cell hash placement,
    probe-path reachability, and every CAL pointer both ways.
    """
    if level not in LEVELS:
        raise ValueError(f"unknown fsck level {level!r} (choose from {LEVELS})")
    stats_backup = gt.stats.snapshot()
    started = time.monotonic()
    report = VerifyReport(level=level, n_vertices=gt.eba.n_vertices)
    try:
        with obs.span("verify.fsck", level=level):
            _run_checks(gt, level, report)
        report.elapsed = time.monotonic() - started
        _publish(report)
    finally:
        # Auditing must not perturb the access accounting.
        gt.stats.reset()
        gt.stats.merge(stats_backup)
    return report


def _run_checks(gt, level: str, report: VerifyReport) -> None:
    eba = gt.eba
    emit = report.violations.append
    freed = _freed_overflow(eba)

    _check_pools(gt, freed, emit)
    _check_sgh(gt, emit)

    total_live = 0
    cal_owners: dict[int, tuple[int, int]] = {}
    for src in range(eba.n_vertices):
        if level == "quick":
            live, dup, neg = _quick_vertex_count(gt, src, freed)
            if dup:
                emit(IntegrityViolation(
                    V_DUPLICATE, src, f"{dup} duplicate destination(s)"))
            if neg:
                emit(IntegrityViolation(
                    V_CORRUPT_CELL, src,
                    f"{neg} cell(s) hold invalid destination values"))
        else:
            cells = _walk_vertex(gt, src, freed, emit)
            live = len(cells)
            dsts = [c.dst for c in cells]
            if len(set(dsts)) != len(dsts):
                dups = sorted(d for d, n in Counter(dsts).items() if n > 1)
                emit(IntegrityViolation(
                    V_DUPLICATE, src,
                    f"destination(s) {dups[:8]} stored more than once"))
            if gt.cal is not None:
                _check_cal_pointers(gt, src, cells, cal_owners, emit)
        if live != eba.degree(src):
            emit(IntegrityViolation(
                V_DEGREE, src,
                f"degree counter says {eba.degree(src)} but the tree "
                f"holds {live} live cells"))
        if gt.vpa.degree(src) != eba.degree(src):
            emit(IntegrityViolation(
                V_VPA_DEGREE, src,
                f"VertexPropertyArray degree {gt.vpa.degree(src)} != "
                f"EdgeblockArray degree {eba.degree(src)}"))
        total_live += live
    report.n_edges = total_live

    if gt.cal is not None:
        _check_cal_global(gt, total_live, cal_owners if level == "full" else None,
                          emit)


def _resolves(cal, addr: int, freed_cal: set[int]) -> bool:
    """Whether CAL address ``addr`` names a slot of an allocated block."""
    block = cal.split(addr)[0]
    return addr >= 0 and block < cal.pool.high_water and block not in freed_cal


def _check_cal_pointers(gt, src: int, cells: list[_CellInfo],
                        cal_owners: dict, emit) -> None:
    cal = gt.cal
    freed_cal = set(cal.pool._free)
    for c in cells:
        where = f"r{c.region}b{c.block}s{c.slot}"
        if not _resolves(cal, c.cal, freed_cal):
            emit(IntegrityViolation(
                V_CAL_DANGLING, src,
                f"edge ({src}, {c.dst}) points at CAL address {c.cal} "
                f"which does not exist", where=where))
            continue
        at = cal.split(c.cal)
        if c.cal in cal_owners:
            o_src, o_dst = cal_owners[c.cal]
            emit(IntegrityViolation(
                V_CAL_MISMATCH, src,
                f"edge ({src}, {c.dst}) shares CAL slot {at} with "
                f"edge ({o_src}, {o_dst})", where=where))
            continue
        cal_owners[c.cal] = (src, c.dst)
        cs, cd, cw = cal.read_slot(c.cal)
        if cs != src or cd != c.dst:
            emit(IntegrityViolation(
                V_CAL_MISMATCH, src,
                f"edge ({src}, {c.dst}) owns CAL slot {at} which "
                f"holds ({cs}, {cd})", where=where))
        elif cw != c.weight:
            emit(IntegrityViolation(
                V_CAL_MISMATCH, src,
                f"edge ({src}, {c.dst}) weight {c.weight} but its CAL "
                f"copy says {cw}", where=where))


def _live_cal_slots(cal):
    """Yield ``(addr, src, dst, weight)`` for every live CAL slot, in
    address order (a slot's address is its index in the raveled pool)."""
    from repro.core.cal import CAL_INVALID

    used = np.ones(cal.pool.high_water, dtype=bool)
    used[list(cal.pool._free)] = False
    live = (cal.pool.fields["src"][: used.shape[0]] != CAL_INVALID) & used[:, None]
    for addr in np.flatnonzero(live).tolist():
        yield (addr, *cal.read_slot(addr))


def _check_cal_global(gt, eba_live: int, cal_owners: dict | None,
                      emit) -> None:
    cal = gt.cal
    actual_live = 0
    for addr, src, dst, _w in _live_cal_slots(cal):
        actual_live += 1
        if cal_owners is not None and addr not in cal_owners:
            vertex = src if 0 <= src < gt.eba.n_vertices else -1
            block, slot = cal.split(addr)
            emit(IntegrityViolation(
                V_CAL_GHOST, vertex,
                f"live CAL slot ({block}, {slot}) = ({src}, {dst}) has "
                f"no owning edge-cell", where=f"cal{block}s{slot}"))
    if cal.n_edges != actual_live:
        emit(IntegrityViolation(
            V_CAL_COUNT, -1,
            f"CAL count says {cal.n_edges} live copies but {actual_live} "
            f"slots are live"))
    if actual_live != eba_live:
        emit(IntegrityViolation(
            V_CAL_COUNT, -1,
            f"CAL holds {actual_live} live copies but the EdgeblockArray "
            f"holds {eba_live} live edges"))


def _check_sgh(gt, emit) -> None:
    if gt.sgh is None:
        return
    sgh = gt.sgh
    if len(sgh) != gt.eba.n_vertices:
        emit(IntegrityViolation(
            V_SGH, -1,
            f"SGH maps {len(sgh)} vertices but the main region holds "
            f"{gt.eba.n_vertices} rows"))
    reverse = sgh._reverse
    for orig, dense in sgh._forward.items():
        if not (0 <= dense < len(sgh)):
            emit(IntegrityViolation(
                V_SGH, -1, f"original {orig} maps to out-of-range dense "
                           f"id {dense}"))
        elif int(reverse[dense]) != orig:
            emit(IntegrityViolation(
                V_SGH, dense,
                f"forward says {orig} -> {dense} but reverse[{dense}] = "
                f"{int(reverse[dense])}"))
    # The batch index must agree with the dict for every key it covers.
    keys = np.fromiter(sgh._forward, np.int64, len(sgh._forward))
    got = sgh.peek_array(keys)
    if sgh._covered != len(sgh):
        emit(IntegrityViolation(
            V_SGH, -1, f"SGH index covers {sgh._covered} of {len(sgh)} ids"))
    for i in np.flatnonzero(got != np.fromiter(sgh._forward.values(), np.int64, keys.shape[0])):
        emit(IntegrityViolation(
            V_SGH, -1, f"SGH index resolves {int(keys[i])} to {int(got[i])}, "
                       f"the forward table to {sgh._forward[int(keys[i])]}"))


def _check_pools(gt, freed: set[int], emit) -> None:
    eba = gt.eba
    if eba.main._free:
        emit(IntegrityViolation(
            V_POOL, -1,
            f"main-region free-list is not empty ({len(eba.main._free)} "
            f"entries) — top-parent rows are never freed"))
    if len(freed) != len(eba.overflow._free):
        emit(IntegrityViolation(
            V_POOL, -1, "overflow free-list holds duplicate entries"))
    for idx in freed:
        if not (0 <= idx < eba.overflow.high_water):
            emit(IntegrityViolation(
                V_POOL, -1,
                f"overflow free-list entry {idx} was never allocated"))
    # Reference counting: every live overflow block must be the child of
    # exactly one (block, subblock); anything else is a leak or a share.
    refs = _child_refs(eba)
    for child, n in refs.items():
        if n > 1:
            emit(IntegrityViolation(
                V_POOL, -1,
                f"overflow block {child} is referenced by {n} parents"))
    for block in range(eba.overflow.high_water):
        if block not in freed and block not in refs:
            emit(IntegrityViolation(
                V_POOL, -1,
                f"overflow block {block} is allocated but unreachable "
                f"(orphan)"))


def _child_refs(eba) -> Counter:
    """How many child pointers name each overflow block."""
    return Counter(child for matrix in (eba._main_children, eba._overflow_children)
                   for child in matrix._data[matrix._data >= 0].tolist())


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

    Strategy (docs/robustness.md):

    * degree-only damage is fixed by recounting the vertex's live cells;
    * anything structural rebuilds the vertex: its true edge set is
      reconciled from the EdgeblockArray cells and their CAL copies
      (hash-placement validity decides which copy to trust when they
      disagree; unclaimed live CAL copies recover edges whose cells were
      wiped), the vertex's tree and CAL copies are cleared, and the
      reconciled edges are reinserted through the normal insert path;
    * SGH reverse entries and the SGH batch index are rebuilt from the
      forward table;
    * orphaned overflow blocks are returned to the pool.

    Stores running delete-and-compact rebuild wholesale (the CAL dense-
    chain invariant cannot survive per-vertex hole-punching).  A final
    full fsck is embedded in the returned :class:`RepairReport`.
    """
    if report is None:
        report = verify_graph(gt, level="full")
    elif report.level != "full":
        # Repair plans need per-cell evidence; re-audit at full depth.
        report = verify_graph(gt, level="full")
    stats_backup = gt.stats.snapshot()
    out = RepairReport(initial=report, final=report)
    try:
        with obs.span("verify.repair", violations=len(report.violations)):
            if not report.ok:
                _apply_repairs(gt, report, out)
                # Repairs move cells behind the stores' mutation hooks, so
                # any attached analytics snapshot must re-measure from
                # scratch rather than trust its dirty-row tracking.
                snap = getattr(gt, "analytics_snapshot", None)
                if snap is not None:
                    snap.invalidate()
                out.final = verify_graph(gt, level="full")
            _publish_repair(out)
    finally:
        gt.stats.reset()
        gt.stats.merge(stats_backup)
    return out


def _apply_repairs(gt, report: VerifyReport, out: RepairReport) -> None:
    _repair_sgh(gt, out)

    degree_kinds = {V_DEGREE, V_VPA_DEGREE}
    by_vertex: dict[int, set[str]] = {}
    for v in report.violations:
        if v.vertex >= 0:
            by_vertex.setdefault(v.vertex, set()).add(v.kind)

    if gt.config.compact_on_delete and any(
            kinds - degree_kinds for kinds in by_vertex.values()):
        _rebuild_store(gt, out)
        return

    plans: dict[int, dict[int, float]] = {}
    owners = _global_cal_owners(gt) if gt.cal is not None else {}
    for vertex, kinds in sorted(by_vertex.items()):
        if kinds <= degree_kinds:
            _recount_vertex(gt, vertex)
            out.recounted_vertices.append(vertex)
            out.actions.append(f"recounted degree of vertex {vertex}")
        else:
            plans[vertex] = _reconcile_vertex(gt, vertex, owners)
    for vertex, merged in plans.items():
        _wipe_vertex(gt, vertex, out, owners)
        original = gt.original_id(vertex)
        for dst in sorted(merged):
            gt.insert_edge(original, dst, merged[dst])
        out.rebuilt_vertices.append(vertex)
        out.actions.append(
            f"rebuilt vertex {vertex} with {len(merged)} reconciled edges")
    _free_orphans(gt, out)
    _recount_cal(gt)


def _global_cal_owners(gt) -> dict[int, list[tuple[int, int, float]]]:
    """Map every resolvable CAL-pointer to the ``(src, dst, w)`` of each
    edge-cell claiming it (normally exactly one; corruption can make it
    zero or several)."""
    eba = gt.eba
    freed = _freed_overflow(eba)
    freed_cal = set(gt.cal.pool._free)
    owners: dict[int, list[tuple[int, int, float]]] = {}
    for src in range(eba.n_vertices):
        for region, block in _tree_blocks(eba, src, freed):
            cells = eba._pool(region).fields
            for slot, ptr in _cal_pointers(gt, region, block, freed_cal):
                owners.setdefault(ptr, []).append(
                    (src, int(cells["dst"][block, slot]),
                     float(cells["weight"][block, slot])))
    return owners


def _cal_pointers(gt, region: int, block: int, freed_cal: set[int]):
    """Yield ``(slot, addr)`` for each live cell of the block whose
    CAL-pointer ``addr`` lands on a slot of an allocated CAL block."""
    cells = gt.eba._pool(region).fields
    for slot in np.flatnonzero(cells["dst"][block] >= 0).tolist():
        addr = int(cells["cal"][block, slot])
        if _resolves(gt.cal, addr, freed_cal):
            yield slot, addr


def _reconcile_vertex(gt, vertex: int, owners: dict) -> dict[int, float]:
    """Compute the trusted edge set ``{dst: weight}`` of one vertex.

    The EdgeblockArray cell and its CAL copy are redundant; when they
    disagree, the copy whose placement rules still hold wins (a flipped
    destination almost surely fails the hash-placement check, a flipped
    CAL slot leaves the cell's placement intact).
    """
    cells = _walk_vertex(gt, vertex, _freed_overflow(gt.eba), lambda _v: None)
    cal = gt.cal
    merged: dict[int, float] = {}
    claimed: set[int] = set()
    cal_mine: dict[int, tuple[int, float]] = {}
    if cal is not None:
        for addr, src, dst, w in _live_cal_slots(cal):
            if src == vertex:
                cal_mine[addr] = (dst, w)
    for c in cells:
        ptr = c.cal
        entry = cal_mine.get(ptr)
        if entry is not None and entry[0] == c.dst:
            # Copies agree on the edge; on a weight mismatch neither side
            # is provably right, so the CAL copy wins deterministically.
            merged[c.dst] = entry[1]
            claimed.add(ptr)
        elif c.placement_ok:
            merged[c.dst] = c.weight          # CAL side wrong or dangling
            if entry is not None:
                claimed.add(ptr)
        elif entry is not None:
            merged[entry[0]] = entry[1]       # cell flipped; CAL copy wins
            claimed.add(ptr)
        elif cal is None:
            # No redundant copy to consult: keep the id and let the
            # reinsertion rehash it into a consistent placement.
            merged[c.dst] = c.weight
    # Live CAL copies of this vertex that no cell claims recover edges
    # whose cells were wiped — unless some *other* vertex's cell owns the
    # slot (then the slot's src is the flipped field, not the cell).
    for ptr, (dst, w) in cal_mine.items():
        if ptr in claimed:
            continue
        if any(o[0] != vertex for o in owners.get(ptr, [])):
            continue          # the slot's src field is the flipped copy
        merged.setdefault(dst, w)
    return merged


def _recount_vertex(gt, vertex: int) -> None:
    live, _, _ = _quick_vertex_count(gt, vertex)
    gt.eba._degrees[vertex] = live
    gt.vpa.ensure(vertex)
    gt.vpa._degree[vertex] = live


def _wipe_vertex(gt, vertex: int, out: RepairReport,
                 owners: dict | None = None) -> None:
    """Erase one vertex's tree, CAL copies, and degree counters.

    CAL copies are retired two ways: every slot a cell of this vertex
    *points at* (catches slots whose ``src`` field was flipped to some
    other vertex — they must not survive as ghosts), and every live slot
    whose ``src`` says this vertex (catches copies whose owning cell was
    destroyed).  A pointed-at slot that some *other* vertex's cell also
    claims is left alone: there the flipped field was this vertex's cell
    pointer, and the slot is the other vertex's legitimate copy.
    """
    eba = gt.eba
    cal = gt.cal
    freed = _freed_overflow(eba)
    freed_cal = set(cal.pool._free) if cal is not None else set()
    blocks = list(_tree_blocks(eba, vertex, freed))
    pointed = {ptr for region, block in blocks if cal is not None
               for _, ptr in _cal_pointers(gt, region, block, freed_cal)}
    eba.main.blank(vertex)
    eba._main_children.clear_row(vertex)
    for _, block in blocks[1:]:             # the overflow rows below it
        eba._overflow_children.clear_row(block)
        eba.overflow.blank(block)
        eba.overflow.free(block)
        out.freed_blocks += 1
    eba._degrees[vertex] = 0
    gt.vpa.ensure(vertex)
    gt.vpa._degree[vertex] = 0
    if cal is not None:
        for addr in pointed:
            if owners is not None and any(
                    o[0] != vertex for o in owners.get(addr, [])):
                continue
            cal.invalidate(addr)
        for addr, src, _dst, _w in list(_live_cal_slots(cal)):
            if src == vertex:
                cal.invalidate(addr)


def _recount_cal(gt) -> None:
    """Re-derive the CAL's live counters from the slots themselves.

    Rebuild actions invalidate and append copies through the normal CAL
    API, but a corruption that *directly* zapped a slot's ``src`` field
    bypassed the counter bookkeeping; recounting squares the ledger.
    """
    cal = gt.cal
    if cal is None:
        return
    from repro.core.cal import CAL_INVALID

    used = np.ones(cal.pool.high_water, dtype=bool)
    used[list(cal.pool._free)] = False
    counts = (cal.pool.fields["src"][: used.shape[0]][used] != CAL_INVALID).sum(axis=1)
    cal._valid_count._data[np.flatnonzero(used)] = counts
    cal._n_valid = int(counts.sum())


def _repair_sgh(gt, out: RepairReport) -> None:
    if gt.sgh is None:
        return
    sgh = gt.sgh
    for orig, dense in sgh._forward.items():
        if 0 <= dense < len(sgh) and int(sgh._reverse[dense]) != orig:
            sgh._reverse[dense] = orig
            out.sgh_fixes += 1
            out.actions.append(
                f"restored SGH reverse[{dense}] = {orig} from the forward "
                f"table")
    sgh._reindex()


def _free_orphans(gt, out: RepairReport) -> None:
    eba = gt.eba
    freed = _freed_overflow(eba)
    refs = _child_refs(eba)
    for block in range(eba.overflow.high_water):
        if block not in freed and block not in refs:
            eba._overflow_children.clear_row(block)
            eba.overflow.free(block)
            out.freed_blocks += 1
            out.actions.append(f"freed orphan overflow block {block}")


def _rebuild_store(gt, out: RepairReport) -> None:
    """Wholesale rebuild: reconcile every vertex, re-create the stores.

    Used for delete-and-compact configurations, where per-vertex hole
    punching would break the CAL dense-chain invariant.
    """
    from repro.core.cal import CoarseAdjacencyList
    from repro.core.edgeblock_array import EdgeblockArray
    from repro.core.vertex_array import VertexPropertyArray

    owners = _global_cal_owners(gt) if gt.cal is not None else {}
    plans = {v: _reconcile_vertex(gt, v, owners)
             for v in range(gt.eba.n_vertices)}
    n_vertices = gt.eba.n_vertices
    gt.eba = EdgeblockArray(gt.config, gt.stats)
    gt.cal = (CoarseAdjacencyList(gt.config, gt.stats)
              if gt.config.enable_cal else None)
    gt.vpa = VertexPropertyArray(gt.config.initial_vertices)
    if n_vertices:
        # Re-allocate every dense row up front: vertices left with zero
        # edges must keep their rows so SGH ids stay aligned.
        gt.eba.ensure_vertex(n_vertices - 1)
    for vertex in range(n_vertices):
        original = gt.original_id(vertex)
        merged = plans[vertex]
        for dst in sorted(merged):
            gt.insert_edge(original, dst, merged[dst])
        out.rebuilt_vertices.append(vertex)
    out.actions.append(
        f"rebuilt entire store ({n_vertices} vertices) — delete-and-"
        f"compact stores repair wholesale")


def _publish_repair(out: RepairReport) -> None:
    if not obs_hooks.enabled:
        return
    registry = obs.get_registry()
    registry.counter("verify.repairs").inc()
    registry.counter("verify.rebuilt_vertices").inc(len(out.rebuilt_vertices))
    registry.counter("verify.recounted_vertices").inc(
        len(out.recounted_vertices))
    registry.counter("verify.freed_blocks").inc(out.freed_blocks)
    registry.gauge("verify.repair_ok").set(1 if out.ok else 0)
