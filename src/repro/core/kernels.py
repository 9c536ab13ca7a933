"""Vectorized batch-update kernels (the ``kernel="vector"`` fast path).

One probe core, two drivers
---------------------------
:mod:`repro.core.robin_hood` holds the only Robin-Hood probe loop.  It is
driven per operation by :class:`~repro.core.edgeblock_array.EdgeblockArray`
(the *spec*: the paper's algorithm, the single-edge API, ``kernel="scalar"``)
and per chunk by this module (the *batch* driver), whose residue loop hands
the core the same plain-sequence view of a Subblock and applies the charges
it reports.  The whole-chunk passes — the insert rounds and the delete
level pass — restate the core over Subblock matrices rolled to probe order:
:func:`_probe_order` is ``rhh_find``'s stopping rule, :func:`_rhh_walk` the
closed form of ``rhh_insert``'s displacement walk; the parity tests hold
both to the core.

Equivalence contract
--------------------
For ANY input stream, the kernels here leave the store *event-identical*
to the per-op driver of :class:`~repro.core.graphtinker.GraphTinker`:
the same live edges in the same physical Robin-Hood slots, the same CAL
block layout, the same degrees, and **bit-identical**
:class:`~repro.core.stats.AccessStats` — so the DRAM-access cost model
(:mod:`repro.bench.costmodel`) cannot tell the drivers apart.  Everything
the cost model or any query can observe is part of the contract; the only
licensed difference is which *overflow-pool row index* a child edgeblock
happens to get (an internal name the structure never exposes — counts,
shapes, contents and all future charges are invariant under it; the
insert rounds allocate children in round order, not stream order).
``tests/test_kernels.py`` and ``tests/test_differential.py`` enforce this.

Where the speed comes from
--------------------------
The per-op driver pays per-edge Python overhead five ways: a facade call
chain, SGH dict traffic, two splitmix64 evaluations, a NumPy-to-list
round trip of the Subblock around every
:func:`~repro.core.robin_hood.rhh_insert` call, and per-op
``AccessStats`` attribute updates.  The vector kernel amortises all five:

1. **Bulk renaming** — ``np.unique`` collapses the batch to its distinct
   sources; the ones already renamed resolve in one uncharged dict pass,
   the unseen ones are assigned in one step
   (:meth:`~repro.core.sgh.ScatterGatherHash.hash_new_ids`) **in
   first-appearance order** (so dense ids come out exactly as the scalar
   stream would assign them) and the remaining per-edge lookup charges
   are added arithmetically.
2. **Bulk hashing** — generation-0 Subblock indices and initial buckets
   for the whole batch in two :func:`~repro.core.hashing.mix64_array`
   sweeps.
3. **Grouping** — a stable lexsort by ``(dense source, gen-0 Subblock)``.
   Two operations can touch a common edge-cell only if they agree on the
   source *and* on every hash along the descent chain — which implies the
   same gen-0 Subblock — and a displaced edge stays inside its gen-0
   Subblock's subtree, so these groups are mutually independent op
   sequences, and the stable sort preserves each group's internal stream
   order.  (Sorting by target *workblock* inside a source would reorder
   ops that share a Subblock; regrouping hub ops by their *leaf* Subblock
   is wrong the other way — in a full Subblock a fresh edge out-probes a
   resident at nearly every level, so almost every hub insert rewrites
   every Subblock on its chain.  The gen-0 Subblock is the independence
   boundary.)
4. **Rounds, then a residue** — round *r* executes every still-active
   group's *r*-th op, whatever its shape, all groups at once: one op per
   group per round means no two ops of a round share a cell, so each
   tree level of the round is one NumPy pass.  FIND runs down the child
   matrix (a hit is a duplicate: weight overwritten, CAL copy updated
   through the cell's pointer or its pending record); the absent ops then
   INSERT from generation 0 with the Robin-Hood walk in closed form
   (:func:`_rhh_walk`), congested ones allocating or following the child
   and carrying the *evicted* cell down by its own hashes.  Every level
   is read and scattered straight in its pool — the main region at
   generation 0 (its capacity is ensured before the rounds, so its arrays
   cannot regrow mid-chunk), the overflow pool below it: only the cells
   a walk changes move, nothing is staged.  Rounds run while at least
   :data:`MIN_ROUND_GROUPS` groups are active; the thin tail, every
   ``enable_rhh=False`` store and any chunk too small to start a round
   fall to the residue loop — the exact per-op path: each touched
   Subblock pulled into plain Python lists once and probed via
   :func:`~repro.core.robin_hood.rhh_find` /
   :func:`~repro.core.robin_hood.rhh_insert`, dirty Subblocks written
   back with one fancy store per field.  Charges accumulate in local ints
   and flush into ``AccessStats`` once per chunk.
5. **Stream-ordered CAL replay** — new edges get a *pending* CAL-pointer
   sentinel (``cal_block == -3``, ``cal_slot ==`` the op's index in the
   chunk, which is its record id) that travels through Robin-Hood
   displacements exactly like a real pointer; after the chunk, the
   records of the ops that placed a new edge are appended to the CAL **in
   original stream order** (one arithmetic pass,
   :meth:`CoarseAdjacencyList.append_many`), and one pass per pool over
   the Subblocks the chunk stored into — collected as the walks store,
   generation 0 included — rewrites the sentinels to the real
   addresses.  Duplicate ops that meet a pending cell update the pending
   record (one ``cal_updates`` charge, like the scalar ``update_weight``)
   so the final CAL weight is the last one.

Large batches are processed in contiguous chunks so the round temporaries
and the Subblock cache stay bounded; chunking composes trivially (the
scalar path is itself a sequence of per-edge chunks).

Delete batches: one pass per tree level
---------------------------------------
Delete-only deletes cannot observe each other, so they need no grouping,
rounds or cache.  :func:`~repro.core.robin_hood.rhh_find` stops only on a match or
(RHH mode) an ``EMPTY`` cell; a delete writes ``TOMBSTONE`` into ``dst``
and -1 into the two CAL-pointer fields, never touches ``weight``/``probe``
and never allocates, frees or moves a cell or a child pointer.  Two
deletes on distinct ``(dense source, dst)`` pairs therefore find the same
things in either order, every ``AccessStats`` field is a sum, and only
*repeats of one pair inside a chunk* are ordered.  :func:`_delete_chunk`
ranks each row by its occurrence number among equal pairs and runs one
round per rank (one round unless the batch repeats an edge; a round that
hits nothing lets every repeat still waiting share the next one, so a
batch of one edge a thousand times over is three rounds).  A round is
level-synchronous: one fancy index gathers every active op's Subblock,
rolled to probe order, from the level's pool (generation 0 is all main
region, every later generation all overflow); hits are tombstoned with
one scatter per field; misses whose Subblock has a child carry on to the
next level.  After the rounds the chunk's degrees drop with one
``subtract.at`` per array and its CAL copies with one
:meth:`CoarseAdjacencyList.invalidate_many`.

The delete-and-compact configuration is *not* vectorised: compaction
couples arbitrary sources through shared CAL group tails
(``compact_delete`` can move another vertex's copy and re-point it via a
cross-source ``find``), so the facade falls back to the scalar per-edge
path there — equivalence by construction rather than by mirroring.
"""

from __future__ import annotations

import numpy as np

from repro.core import robin_hood as rhh
from repro.core.edgeblock_array import MAIN, OVERFLOW
from repro.core.hashing import (
    initial_bucket,
    initial_bucket_array,
    subblock_index,
    subblock_index_array,
)
from repro.core.pool import EMPTY, TOMBSTONE
from repro.errors import CapacityError

#: ``cal_block`` sentinel marking "CAL copy not appended yet; ``cal_slot``
#: holds the pending-record id".  Must stay distinct from the -1 (no copy)
#: marker and never escape the kernel: the patch pass rewrites every
#: sentinel before ``_insert_chunk`` returns, exceptional paths included.
PENDING_CAL = -3

#: Edges per processing chunk.  Bounds the round temporaries and the
#: Subblock list cache (worst case one row or entry per edge) while keeping
#: the per-chunk NumPy phase costs well amortised.  Chunks are contiguous
#: slices of the input stream, so chunked execution composes into the same
#: global event order.
CHUNK_EDGES = 32768

#: Fewest active groups an insert round is run for.  A round costs a fixed
#: ~0.1 ms of NumPy calls per tree level however few ops it carries; below
#: about this many the exact per-op residue loop is cheaper (the measured
#: crossover, EXPERIMENTS.md note 10).  Not a correctness switch: rounds
#: and residue leave the same cells and charges.
MIN_ROUND_GROUPS = 32


def _circular_workblocks_array(start: np.ndarray, length: np.ndarray,
                               workblock: int, size: int) -> np.ndarray:
    """Vectorized mirror of :func:`robin_hood._circular_workblocks`."""
    res = np.zeros(start.shape[0], dtype=np.int64)
    full = length >= size
    res[full] = size // workblock
    mid = (length > 0) & ~full
    s = start[mid]
    e = s + length[mid]
    r = np.empty(s.shape[0], dtype=np.int64)
    nw = e <= size
    r[nw] = (e[nw] - 1) // workblock - s[nw] // workblock + 1
    wr = ~nw
    first = (size - 1) // workblock - s[wr] // workblock + 1
    tail_last = e[wr] - size - 1
    second = tail_last // workblock + 1
    overlap = (tail_last // workblock) == (s[wr] // workblock)
    r[wr] = first + second - overlap
    res[mid] = r
    return res


def insert_batch_vector(gt, edges: np.ndarray, weights: np.ndarray) -> int:
    """Vector-kernel implementation of ``GraphTinker.insert_batch``.

    ``edges`` is a validated non-negative ``(n, 2)`` int64 array and
    ``weights`` a float64 array of the same length.  Returns the number
    of new edges, exactly as the scalar loop would.
    """
    n = edges.shape[0]
    new = 0
    for start in range(0, n, CHUNK_EDGES):
        stop = min(start + CHUNK_EDGES, n)
        new += _insert_chunk(gt, edges[start:stop], weights[start:stop])
    return new


def delete_batch_vector(gt, edges: np.ndarray) -> int:
    """Vector-kernel implementation of ``GraphTinker.delete_batch``.

    Only called for the delete-only (tombstoning) configuration; the
    facade routes ``compact_on_delete`` stores to the scalar path.
    """
    n = edges.shape[0]
    deleted = 0
    for start in range(0, n, CHUNK_EDGES):
        stop = min(start + CHUNK_EDGES, n)
        deleted += _delete_chunk(gt, edges[start:stop])
    return deleted


def _dense_ids_for_insert(gt, srcs: np.ndarray) -> np.ndarray:
    """Bulk original->dense renaming, assigning new ids like the stream would.

    Sources already in the table resolve in one uncharged dict pass; the
    unseen ones are assigned in one step, in first-appearance order so
    new dense ids match the scalar assignment.  Every other occurrence's
    lookup charge is added arithmetically (``hash_lookups`` is additive, so
    the total — one per edge — is bit-identical).
    """
    if gt.sgh is None:
        return srcs
    uniq, first_idx, inverse = np.unique(srcs, return_index=True, return_inverse=True)
    uniq_dense = gt.sgh.peek_array(uniq)
    unseen = np.flatnonzero(uniq_dense < 0)
    unseen = unseen[np.argsort(first_idx[unseen])]
    uniq_dense[unseen] = gt.sgh.hash_new_ids(uniq[unseen])
    gt.stats.hash_lookups += srcs.shape[0] - unseen.shape[0]
    return uniq_dense[inverse]


def _probe_order(cell_dst: np.ndarray, rows: np.ndarray, first_col,
                 ib: np.ndarray, dst: np.ndarray, size: int):
    """Probe many Subblocks at once: ``(cols, t_hit, t_emp, t_vac)``.

    Subblock ``i`` is the ``size`` cells from column ``first_col[i]`` of
    row ``rows[i]`` of the 2-D ``dst`` field ``cell_dst``.  ``cols[i, t]``
    is the column of the ``t``-th cell a probe from bucket ``ib[i]``
    inspects (the Subblock rolled to probe order); ``t_hit`` / ``t_emp`` /
    ``t_vac`` are the first ``t`` holding ``dst[i]`` / an ``EMPTY`` cell /
    a vacancy (``EMPTY`` or ``TOMBSTONE``), ``size`` where there is none.
    """
    cols = first_col + (ib[:, None] + np.arange(size)) % size
    probed = cell_dst[rows[:, None], cols]

    def first(mask: np.ndarray) -> np.ndarray:
        return np.where(mask.any(axis=1), mask.argmax(axis=1), size)

    return cols, first(probed == dst[:, None]), first(probed == EMPTY), first(probed < 0)


def _overflow_level(gt, gen: int, dst: np.ndarray):
    """Generation ``gen >= 1`` as edges ``dst`` hash into it: the overflow
    pool's five cell fields (re-read per level, the pool may have regrown)
    and each edge's Subblock, first column and initial bucket there."""
    cfg = gt.config
    data = gt.eba.overflow._data
    sb = subblock_index_array(dst, gen, cfg.subblocks_per_block, cfg.seed)
    ib = initial_bucket_array(dst, gen, cfg.subblock, cfg.seed)
    return (tuple(data[name] for name in rhh.CELL_FIELDS), sb,
            (sb * cfg.subblock)[:, None], ib)


def _rhh_walk(fields, rows: np.ndarray, cols: np.ndarray, t_emp: np.ndarray,
              t_vac: np.ndarray, edge):
    """Closed form of :func:`robin_hood.rhh_insert`'s INSERT stage, one
    Subblock per row: the floating ``edge`` (``dst, weight, cal_block,
    cal_slot`` arrays) walks ``cols`` (probe order, from
    :func:`_probe_order`) of rows ``rows`` of the five cell ``fields``.

    The floating probe distance obeys ``fp[t+1] = min(fp[t], Pr[t]) + 1``
    from ``fp[0] = 0``, i.e. ``fp[t] = t + min(0, min_{s<t}(Pr[s] - s))``;
    a swap fires at every ``t`` before the first vacancy with
    ``fp[t] > Pr[t]``.  Each swap column and the vacancy column take the
    content of the previous swap column (the walking edge itself before
    the first swap) with probe ``fp[t]``; with no vacancy the last swap
    column's old content floats on.  Tombstoned cells' stale probes sit at
    or beyond the vacancy and never enter.

    Returns ``(find_len, steps, swaps, wrote, full, floating)``: the two
    scan lengths, swap count and writeback flag per row, the rows left
    ``CONGESTED`` and their floating edges.
    """
    fd, fw, fp, fcb, fcs = fields
    n, size = cols.shape
    span = np.arange(size)
    resident = fp[rows[:, None], cols].astype(np.int64)
    slack = np.zeros((n, size), dtype=np.int64)
    np.minimum.accumulate(resident[:, :-1] - span[:-1], axis=1, out=slack[:, 1:])
    probe = span + np.minimum(slack, 0)
    swap = (probe > resident) & (span < t_vac[:, None])
    vacant = t_vac < size
    write = swap.copy()
    write[vacant, t_vac[vacant]] = True
    # Column whose old content lands in column t: the last swap before t.
    source = np.full((n, size), -1)
    np.maximum.accumulate(np.where(swap, span, -1)[:, :-1], axis=1, out=source[:, 1:])
    r, t = np.nonzero(write)
    src = source[r, t]
    moved = src >= 0
    cell_rows = rows[r]
    from_rows, from_cols = cell_rows[moved], cols[r[moved], src[moved]]
    full = np.flatnonzero(~vacant)
    last = np.where(swap[full, -1], size - 1, source[full, -1])
    evicted = last >= 0
    ev_rows, ev_cols = rows[full[evicted]], cols[full[evicted], last[evicted]]
    values, floating = [], []
    for own, field in zip(edge, (fd, fw, fcb, fcs)):  # gather all before any store
        v = own[r]
        v[moved] = field[from_rows, from_cols]
        values.append(v)
        f = own[full]
        f[evicted] = field[ev_rows, ev_cols]
        floating.append(f)
    to_cols = cols[r, t]
    fd[cell_rows, to_cols] = values[0]
    fw[cell_rows, to_cols] = values[1]
    fp[cell_rows, to_cols] = probe[r, t]
    fcb[cell_rows, to_cols] = values[2]
    fcs[cell_rows, to_cols] = values[3]
    swaps = swap.sum(axis=1)
    return (np.minimum(t_emp + 1, size), np.minimum(t_vac + 1, size), swaps,
            vacant | (swaps > 0), full, floating)


class _SubblockCache:
    """Plain-list cache of the Subblocks the residue loop touches, written
    back once per chunk.  (The rounds and the deletes edit the pools in
    place and need no cache: see the module docstring.)

    Entries are ``(region, block, sb, dsts, weights, probes, cal_blocks,
    cal_slots)`` keyed by a packed int.  Entries are *copies*: pool growth
    (overflow allocation during branch-out) may reallocate the backing
    array mid-chunk, and the writeback re-fetches rows, so cached state is
    never invalidated by growth.
    """

    __slots__ = ("_cache", "dirty", "_eba", "_nsb", "_size", "_fields")

    def __init__(self, eba, nsb: int, size: int):
        self._cache: dict[int, tuple] = {}
        self.dirty: dict[int, tuple] = {}
        self._eba = eba
        self._nsb = nsb
        self._size = size
        self._fields: dict[int, tuple] = {}

    def _field_views(self, region: int) -> tuple:
        """Per-field 2-D views of a pool, re-fetched if the pool regrew.

        Field views are much cheaper to slice per load than structured
        rows, but overflow growth mid-chunk reallocates the backing array;
        the identity check on ``_data`` catches that (cached list entries
        themselves are copies, so they survive growth unharmed).
        """
        pool = self._eba.main if region == MAIN else self._eba.overflow
        data = pool._data
        cached = self._fields.get(region)
        if cached is None or cached[0] is not data:
            cached = self._fields[region] = (
                data, tuple(data[name] for name in rhh.CELL_FIELDS))
        return cached[1]

    def load(self, region: int, block: int, sb: int) -> tuple[int, tuple]:
        key = ((block << 1) | region) * self._nsb + sb
        entry = self._cache.get(key)
        if entry is None:
            lo = sb * self._size
            hi = lo + self._size
            fd, fw, fp, fcb, fcs = self._field_views(region)
            entry = (region, block, sb, fd[block, lo:hi].tolist(),
                     fw[block, lo:hi].tolist(), fp[block, lo:hi].tolist(),
                     fcb[block, lo:hi].tolist(), fcs[block, lo:hi].tolist())
            self._cache[key] = entry
        return key, entry

    def writeback(self) -> None:
        """Scatter every dirty Subblock back: one fancy store per field.

        Dirty keys are distinct ``(region, block, sb)`` triples, so the
        scatter indices never alias a cell twice.
        """
        size = self._size
        span = np.arange(size)
        by_region: dict[int, list[tuple]] = {}
        for entry in self.dirty.values():
            by_region.setdefault(entry[0], []).append(entry)
        for region, entries in by_region.items():
            rows = np.fromiter((e[1] for e in entries), np.int64, len(entries))[:, None]
            cols = np.fromiter((e[2] * size for e in entries), np.int64, len(entries))[:, None] + span
            for k, field in enumerate(self._field_views(region), start=3):
                field[rows, cols] = [e[k] for e in entries]


def _patch_pending(pool, touched: list[tuple], nsb: int, size: int,
                   cal_block: np.ndarray, cal_slot: np.ndarray) -> None:
    """Rewrite every ``PENDING_CAL`` sentinel in the ``touched`` Subblocks
    (``(blocks, sbs)`` array pairs) of ``pool`` to its record's CAL address
    (``-1, -1`` for a dropped one)."""
    cells = pool._data.reshape(-1, size)  # one row per Subblock
    sub = np.concatenate([blocks * nsb + sbs for blocks, sbs in touched])
    r, cols = np.nonzero(cells["cal_block"][sub] == PENDING_CAL)
    rows = sub[r]
    rid = cells["cal_slot"][rows, cols]
    cells["cal_block"][rows, cols] = cal_block[rid]
    cells["cal_slot"][rows, cols] = cal_slot[rid]


def _insert_chunk(gt, edges: np.ndarray, weights: np.ndarray) -> int:
    cfg = gt.config
    stats = gt.stats
    eba = gt.eba
    cal = gt.cal
    n = edges.shape[0]
    if n == 0:
        return 0

    dense = _dense_ids_for_insert(gt, edges[:, 0])
    eba.ensure_vertex(int(dense.max()))

    nsb = cfg.subblocks_per_block
    size = cfg.subblock
    workblock = cfg.workblock
    seed = cfg.seed
    rhh_on = eba._rhh_on
    max_gen = cfg.max_generations

    dsts = edges[:, 1]
    sb0 = subblock_index_array(dsts, 0, nsb, seed)
    ib0 = initial_bucket_array(dsts, 0, size, seed)

    # Stable group order: (dense source, gen-0 Subblock), stream order
    # within a group (the arange tiebreak makes the sort fully explicit).
    order = np.lexsort((np.arange(n), sb0, dense))
    dense_s = dense[order]
    dst_s = dsts[order]
    w_s = weights[order]
    sb_s = sb0[order]
    ib_s = ib0[order]

    # Local charge accumulators, flushed into `stats` once per chunk.
    wf = cs = wb = swaps = found = cal_up = bd = 0
    # `new[i]`: stream op i placed a new edge.  It is also the pending CAL
    # record table: a new edge's record id is its stream index (source and
    # dst are the op's own), `p_w` holds the record weights — a duplicate
    # that meets a pending cell overwrites its record's — and an op that
    # raised mid-cascade never sets its flag, which drops its record.
    new = np.zeros(n, dtype=bool)
    p_w = weights.copy()
    r_new: list[int] = []

    # One group per distinct (dense source, gen-0 Subblock) key: its main-
    # region row and Subblock, and its slice [first_pos, grp_end) of the
    # sorted stream.
    ukeys, first_pos = np.unique(dense_s * nsb + sb_s, return_index=True)
    blocks = ukeys // nsb
    sbs = ukeys % nsb
    g = ukeys.shape[0]
    cache = _SubblockCache(eba, nsb, size)
    grp_end = np.append(first_pos[1:], n)
    cur = first_pos.copy()
    # Per pool (MAIN, OVERFLOW): the (blocks, Subblocks) the rounds' walks
    # stored into — where a pending sentinel may sit.
    touched: tuple[list, list] = ([], [])
    # The main region never regrows mid-chunk (capacity is ensured per
    # vertex row up front), so its cell fields and child matrix can be
    # hoisted; the overflow ones can regrow and are re-read per level.
    mfields = tuple(eba.main._data[name] for name in rhh.CELL_FIELDS)
    mchild = eba._main_children._data
    ochild = eba._overflow_children

    try:
        # ---- Rounds. ----------------------------------------------------
        # Round r runs each still-active group's r-th op against the
        # current state, which is exactly the state the scalar sequence
        # would present to that op: the group's earlier ops ran in earlier
        # rounds and no other group reaches its gen-0 Subblock or anything
        # below it (a displaced edge stays inside that subtree).  One op
        # per group per round, so no two ops of a round share a cell and
        # every level of the round is one NumPy pass.
        cand = np.arange(g) if rhh_on else cur[:0]
        while cand.shape[0] >= MIN_ROUND_GROUPS:
            pos = cur[cand]
            cur[cand] = pos + 1
            rid = order[pos]
            dst = dst_s[pos]
            w = w_s[pos]

            # FIND stage down the whole chain (EdgeblockArray.find).
            q = np.arange(cand.shape[0])
            dup = np.zeros(cand.shape[0], dtype=bool)
            fields, tree, kids = mfields, blocks[cand], mchild
            sb, ib = sbs[cand], ib_s[pos]
            first_col = (sb * size)[:, None]
            for gen in range(max_gen):
                sought = dst[q]
                if gen:
                    kids = ochild._data
                    fields, sb, first_col, ib = _overflow_level(gt, gen, sought)
                cols, t_hit, t_emp, t_vac = _probe_order(
                    fields[0], tree, first_col, ib, sought, size)
                scanned = np.minimum(np.minimum(t_hit, t_emp) + 1, size)
                wf += int(_circular_workblocks_array(ib, scanned, workblock, size).sum())
                cs += int(scanned.sum())
                if gen == 0:
                    probe0 = (cols, t_emp, t_vac)
                hit = t_hit < t_emp
                if hit.any():
                    # Duplicate: weight overwritten in place, CAL copy
                    # through the cell's pointer or the pending record.
                    h_rows, h_cols, h_w = tree[hit], cols[hit, t_hit[hit]], w[q[hit]]
                    fields[1][h_rows, h_cols] = h_w
                    if cal is not None:
                        cb = fields[3][h_rows, h_cols]
                        slot = fields[4][h_rows, h_cols]
                        copied = cb >= 0
                        cal.pool.raw()["weight"][cb[copied], slot[copied]] = h_w[copied]
                        pending = cb == PENDING_CAL
                        p_w[slot[pending]] = h_w[pending]
                        cal_up += int(copied.sum()) + int(pending.sum())
                    dup[q[hit]] = True
                child = kids[tree, sb].astype(np.int64)
                go = ~hit & (child >= 0)
                if not go.any():
                    break
                bd += int(go.sum())
                q, tree = q[go], child[go]
            n_dup = int(dup.sum())
            found += n_dup
            wb += n_dup

            # INSERT stage from generation 0 for the absent ops: place,
            # or congest and carry the floating edge one level down by
            # *its own* hashes (EdgeblockArray.insert's loop).
            q = np.flatnonzero(~dup)
            cols, t_emp, t_vac = (a[q] for a in probe0)
            fields, tree, kids = mfields, blocks[cand[q]], mchild
            sb, ib = sbs[cand[q]], ib_s[pos[q]]
            edge = [dst[q], w[q], np.full(q.shape[0], -1), np.full(q.shape[0], -1)]
            if cal is not None:
                edge[2:] = np.full(q.shape[0], PENDING_CAL), rid[q]
            for gen in range(max_gen):
                if gen:
                    kids = ochild._data
                    fields, sb, first_col, ib = _overflow_level(gt, gen, edge[0])
                    cols, _, t_emp, t_vac = _probe_order(
                        fields[0], tree, first_col, ib, edge[0], size)
                find_len, steps, n_swaps, wrote, full, edge = _rhh_walk(
                    fields, tree, cols, t_emp, t_vac, edge)
                wf += int(_circular_workblocks_array(
                    ib, np.maximum(find_len, steps), workblock, size).sum())
                cs += int(find_len.sum()) + int(steps.sum())
                swaps += int(n_swaps.sum())
                wb += int(wrote.sum())
                touched[OVERFLOW if gen else MAIN].append((tree[wrote], sb[wrote]))
                new[rid[q[t_vac < size]]] = True
                if full.shape[0] == 0:
                    break
                # eba._descend(..., allocate=True) for the congested ops.
                q, tree, sb = q[full], tree[full], sb[full]
                child = kids[tree, sb].astype(np.int64)
                leaf = child < 0
                if leaf.any():
                    ids = np.asarray(eba.overflow.allocate_many(int(leaf.sum())))
                    ochild.ensure(int(ids.max()) + 1)
                    ochild._data[ids] = -1
                    (ochild._data if gen else mchild)[tree[leaf], sb[leaf]] = ids
                    child[leaf] = ids
                    stats.branch_allocations += ids.shape[0]
                bd += full.shape[0]
                tree = child
            else:
                raise CapacityError(
                    f"edge ({dense_s[pos[q[0]]]}, {dst[q[0]]}) exceeded "
                    f"max_generations={max_gen}"
                )
            cand = cand[cur[cand] < grp_end[cand]]

        # ---- Residue: the exact per-op loop. ------------------------------
        # What the rounds left — the thin tail below the floor, every op of
        # an `enable_rhh=False` store or of a chunk too small to start a
        # round — runs here in stream order, against the pools as the
        # rounds left them.
        rem = np.flatnonzero(np.arange(n) >= np.repeat(cur, grp_end - first_pos))
        rsel = rem[np.argsort(order[rem], kind="stable")]
        l_src = dense_s[rsel].tolist()
        l_dst = dst_s[rsel].tolist()
        l_w = w_s[rsel].tolist()
        l_sb = sb_s[rsel].tolist()
        l_ib = ib_s[rsel].tolist()
        l_orig = order[rsel].tolist()

        load = cache.load
        dirty = cache.dirty
        rhh_find = rhh.rhh_find
        rhh_insert = rhh.rhh_insert
        circ = rhh._circular_workblocks
        descend = eba._descend
        INSERTED = rhh.INSERTED
        UPDATED = rhh.UPDATED

        for i in range(len(l_src)):
            src = l_src[i]
            dst = l_dst[i]
            w = l_w[i]

            # ---- FIND stage across the whole descent chain (mirrors
            # EdgeblockArray.find called from EdgeblockArray.insert). ----
            region, block = MAIN, src
            hit = None
            for gen in range(max_gen):
                if gen:
                    sb = subblock_index(dst, gen, nsb, seed)
                    ib = initial_bucket(dst, gen, size, seed)
                else:
                    sb = l_sb[i]
                    ib = l_ib[i]
                key, entry = load(region, block, sb)
                slot, scanned = rhh_find(entry[3], dst, ib, rhh_on)
                # Inlined no-wrap case of rhh._circular_workblocks.
                end = ib + scanned
                if 0 < scanned and end <= size:
                    wf += (end - 1) // workblock - ib // workblock + 1
                else:
                    wf += circ(ib, scanned, workblock, size)
                cs += scanned
                if slot >= 0:
                    hit = (key, entry, slot)
                    break
                # Inlined miss path of eba._descend(..., allocate=False).
                child = mchild[block, sb] if region == MAIN else ochild._data[block, sb]
                if child < 0:
                    break
                bd += 1
                region = OVERFLOW
                block = int(child)

            if hit is not None:
                # Duplicate: update the EBA weight in place, then the CAL
                # copy through the cell's pointer (or the pending record).
                found += 1
                key, entry, slot = hit
                entry[4][slot] = w
                wb += 1
                dirty[key] = entry
                if cal is not None:
                    cb = entry[6][slot]
                    if cb >= 0:
                        cal.update_weight(cb, entry[7][slot], w)
                    elif cb == PENDING_CAL:
                        p_w[entry[7][slot]] = w
                        cal_up += 1
                continue

            # ---- INSERT stage: descend, placing via RHH/TBH. ----------
            if cal is not None:
                f_cb = PENDING_CAL
                f_cs = l_orig[i]
            else:
                f_cb = -1
                f_cs = -1
            f_dst = dst
            f_w = w
            region, block = MAIN, src
            for gen in range(max_gen):
                if gen:
                    sb = subblock_index(f_dst, gen, nsb, seed)
                    ib = initial_bucket(f_dst, gen, size, seed)
                else:
                    sb = l_sb[i]
                    ib = l_ib[i]
                key, entry = load(region, block, sb)
                status, slot, lengths, wrote, nswaps, o_dst, o_w, o_cb, o_cs = rhh_insert(
                    entry[3], entry[4], entry[5], entry[6], entry[7],
                    f_dst, f_w, ib, rhh_on, f_cb, f_cs,
                )
                assert status != UPDATED, "FIND stage already ruled out duplicates"
                scanned = max(lengths)
                end = ib + scanned
                if 0 < scanned and end <= size:
                    wf += (end - 1) // workblock - ib // workblock + 1
                else:
                    wf += circ(ib, scanned, workblock, size)
                cs += sum(lengths)
                swaps += nswaps
                if wrote:
                    wb += 1
                    dirty[key] = entry
                if status == INSERTED:
                    r_new.append(l_orig[i])
                    break
                region, block = descend(region, block, sb, True)
                f_dst = o_dst
                f_w = o_w
                f_cb = o_cb
                f_cs = o_cs
            else:
                raise CapacityError(
                    f"edge ({src}, {dst}) exceeded max_generations={max_gen}"
                )
    finally:
        # Apply the deferred side effects and write the cache back even
        # when an op raised mid-chunk, so every *completed* op's state
        # lands exactly as the scalar path would have left it.
        new[r_new] = True
        live = np.flatnonzero(new)
        if live.shape[0]:
            ns = dense[live]
            np.add.at(eba._degrees, ns, 1)
            gt.vpa.ensure(int(ns.max()))
            np.add.at(gt.vpa.degrees, ns, 1)
        cache.writeback()
        if cal is not None:
            # Replay the appends in original stream order, then rewrite
            # every sentinel — displacement may have moved one anywhere on
            # its chain — in one pass per pool over the Subblocks the
            # chunk stored into.
            cal_block = np.full(n, -1, dtype=np.int64)
            cal_slot = np.full(n, -1, dtype=np.int64)
            cal_block[live], cal_slot[live] = cal.append_many(
                dense[live], dsts[live], p_w[live])
            late = np.array([entry[:3] for entry in cache.dirty.values()],
                            dtype=np.int64).reshape(-1, 3)
            for region, pool in ((MAIN, eba.main), (OVERFLOW, eba.overflow)):
                mine = late[late[:, 0] == region]
                touched[region].append((mine[:, 1], mine[:, 2]))
                _patch_pending(pool, touched[region], nsb, size, cal_block, cal_slot)
        stats.workblock_fetches += wf
        stats.cells_scanned += cs
        stats.workblock_writebacks += wb
        stats.rhh_swaps += swaps
        stats.branch_descents += bd
        stats.edges_found += found
        stats.edges_inserted += live.shape[0]
        stats.cal_updates += cal_up
    return int(live.shape[0])


def _delete_chunk(gt, edges: np.ndarray) -> int:
    cfg = gt.config
    stats = gt.stats
    eba = gt.eba
    cal = gt.cal

    # A negative dst would match the EMPTY/TOMBSTONE cell sentinels.
    # delete_edge returns on it before the SGH lookup, so such a row is a
    # miss with no hash_lookups charge: drop it ahead of the renaming.
    edges = edges[edges[:, 1] >= 0]
    n = edges.shape[0]
    if n == 0:
        return 0

    srcs = edges[:, 0]
    dsts = edges[:, 1]
    if gt.sgh is not None:
        uniq, inverse = np.unique(srcs, return_inverse=True)
        stats.hash_lookups += n  # one try_lookup per row
        dense = gt.sgh.peek_array(uniq)[inverse]
    else:
        dense = srcs

    valid = (dense >= 0) & (dense < eba.n_vertices)
    if not valid.any():
        return 0
    dense = dense[valid]
    dsts = dsts[valid]
    m = dense.shape[0]

    nsb = cfg.subblocks_per_block
    size = cfg.subblock
    workblock = cfg.workblock
    seed = cfg.seed
    rhh_on = eba._rhh_on

    # Occurrence number of each row among the chunk's equal (src, dst)
    # pairs, in stream order (lexsort is stable): the round it runs in.
    order = np.lexsort((dsts, dense))
    d_s = dense[order]
    t_s = dsts[order]
    first = np.ones(m, dtype=bool)
    first[1:] = (d_s[1:] != d_s[:-1]) | (t_s[1:] != t_s[:-1])
    idx = np.arange(m)
    occurrence = np.empty(m, dtype=np.int64)
    occurrence[order] = idx - np.maximum.accumulate(np.where(first, idx, 0))

    wf = cs = bd = deleted = 0
    hit_srcs: list[np.ndarray] = []
    hit_cb: list[np.ndarray] = []
    hit_cs: list[np.ndarray] = []
    # A round that hits nothing settles the chunk: every row still waiting
    # repeats a pair that has just missed, will miss the same way and
    # write nothing, so all of them share the next — last — round.
    settled = False
    try:
        for rnd in range(int(occurrence.max()) + 1):
            sel = occurrence >= rnd if settled else occurrence == rnd
            before = deleted
            src = dense[sel]
            dst = dsts[sel]
            block = src
            pool, children = eba.main, eba._main_children
            for gen in range(cfg.max_generations):
                if block.shape[0] == 0:
                    break
                sb = subblock_index_array(dst, gen, nsb, seed)
                ib = initial_bucket_array(dst, gen, size, seed)
                data = pool._data
                cols, t_hit, t_emp, _ = _probe_order(
                    data["dst"], block, (sb * size)[:, None], ib, dst, size)
                if not rhh_on:
                    t_emp = size  # rhh_find scans the whole Subblock
                scanned = np.minimum(np.minimum(t_hit, t_emp) + 1, size)
                wf += int(_circular_workblocks_array(ib, scanned, workblock, size).sum())
                cs += int(scanned.sum())

                # Mirror of EdgeblockArray.delete's hit branch; the CAL
                # copies are invalidated once per chunk, below.
                hit = t_hit < t_emp
                h_rows = block[hit]
                h_cols = cols[hit, t_hit[hit]]
                cb = data["cal_block"][h_rows, h_cols]
                csl = data["cal_slot"][h_rows, h_cols]
                data["dst"][h_rows, h_cols] = TOMBSTONE
                data["cal_block"][h_rows, h_cols] = -1
                data["cal_slot"][h_rows, h_cols] = -1
                hit_srcs.append(src[hit])
                hit_cb.append(cb)
                hit_cs.append(csl)
                deleted += h_rows.shape[0]

                # Misses follow their Subblock's child pointer, if any
                # (the miss path of eba._descend(..., allocate=False)).
                child = children._data[block, sb].astype(np.int64)
                go = ~hit & (child >= 0)
                bd += int(go.sum())
                src, dst, block = src[go], dst[go], child[go]
                pool, children = eba.overflow, eba._overflow_children
            if settled:
                break
            settled = deleted == before
        if cal is not None:
            cb = np.concatenate(hit_cb)
            copied = cb >= 0
            cal.invalidate_many(cb[copied], np.concatenate(hit_cs)[copied])
    finally:
        # Whatever was tombstoned before an exception keeps its degree
        # and counter effects, as on the per-op path.
        if deleted:
            ds = np.concatenate(hit_srcs)
            np.subtract.at(eba._degrees, ds, 1)
            gt.vpa.ensure(int(ds.max()))
            np.subtract.at(gt.vpa.degrees, ds, 1)
        stats.workblock_fetches += wf
        stats.cells_scanned += cs
        stats.branch_descents += bd
        stats.workblock_writebacks += deleted
        stats.tombstones_set += deleted
        stats.edges_deleted += deleted
    return deleted
