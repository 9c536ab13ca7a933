"""Vectorized batch-update kernels (the ``kernel="vector"`` fast path).

One probe core, two drivers
---------------------------
:mod:`repro.core.robin_hood` holds the only Robin-Hood probe loop.  It is
driven per operation by :class:`~repro.core.edgeblock_array.EdgeblockArray`
(the *spec*: the paper's algorithm, the single-edge API, ``kernel="scalar"``)
and per chunk by this module (the *batch* driver).  Both hand the core the
same plain-sequence view of a Subblock and apply the charges it reports;
they differ only in how long the sequences live (one op vs one chunk) and
in what they hoist out of the per-op loop.  The two whole-chunk passes —
the insert gen-0 fast pass and the delete level pass — restate
``rhh_find``'s stopping rule over Subblock matrices rolled to probe order;
the parity tests hold them to the core.

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
shapes, contents and all future charges are invariant under it).
``tests/test_kernels.py`` and ``tests/test_differential.py`` enforce this.

Where the speed comes from
--------------------------
The per-op driver pays per-edge Python overhead five ways: a facade call
chain, SGH dict traffic, two splitmix64 evaluations, a NumPy-to-list
round trip of the Subblock around every
:func:`~repro.core.robin_hood.rhh_insert` call, and per-op
``AccessStats`` attribute updates.  The vector kernel amortises all five:

1. **Bulk renaming** — ``np.unique`` collapses the batch to its distinct
   sources; :meth:`~repro.core.sgh.ScatterGatherHash.hash_id` runs once
   per distinct source **in first-appearance order** (so dense ids come
   out exactly as the scalar stream would assign them) and the remaining
   per-edge lookup charges are added arithmetically.
2. **Bulk hashing** — generation-0 Subblock indices and initial buckets
   for the whole batch in two :func:`~repro.core.hashing.mix64_array`
   sweeps.
3. **Grouping** — a stable lexsort by ``(dense source, gen-0 Subblock)``.
   Two operations can touch a common edge-cell only if they agree on the
   source *and* on every hash along the descent chain — which implies the
   same gen-0 Subblock — so these groups are mutually independent op
   sequences, and the stable sort preserves each group's internal stream
   order.  Replaying groups one after another therefore reproduces the
   scalar event order exactly.  (Sorting by target *workblock* inside a
   source, as a naive reading suggests, would reorder ops that share a
   Subblock and break placement identity; the Subblock is the true
   independence boundary.)
4. **List-cached probing** — each touched Subblock is pulled into plain
   Python lists once (five bulk ``tolist`` calls) and all Robin-Hood
   probes run against the cache via
   :func:`~repro.core.robin_hood.rhh_find` /
   :func:`~repro.core.robin_hood.rhh_insert`; charges accumulate in
   local ints and flush into ``AccessStats`` once per chunk.  Dirty
   Subblocks write back with one slice assignment per field.
5. **Stream-ordered CAL replay** — new edges get a *pending* CAL-pointer
   sentinel (``cal_block == -3``, ``cal_slot == record id``) that travels
   through Robin-Hood displacements exactly like a real pointer; after
   the chunk, the pending records are appended to the CAL **in original
   stream order** (run-length batched by :meth:`CoarseAdjacencyList.
   append_many`), and a patch pass rewrites the sentinels to the real
   addresses before writeback.  Duplicate ops that meet a pending cell
   update the pending record (one ``cal_updates`` charge, like the
   scalar ``update_weight``) so the final CAL weight is the last one.

Large batches are processed in contiguous chunks so the Subblock cache
stays bounded; chunking composes trivially (the scalar path is itself a
sequence of per-edge chunks).

Delete batches: one pass per tree level
---------------------------------------
Delete-only deletes cannot observe each other, so they need none of the
above.  :func:`~repro.core.robin_hood.rhh_find` stops only on a match or
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
#: sentinel before writeback, exceptional paths included.
PENDING_CAL = -3

#: Edges per processing chunk.  Bounds the Subblock list cache (worst case
#: one cache entry per edge) while keeping the per-chunk NumPy phase costs
#: well amortised.  Chunks are contiguous slices of the input stream, so
#: chunked execution composes into the same global event order.
CHUNK_EDGES = 32768


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

    One ``hash_id`` per distinct source, called in first-appearance order
    so new dense ids match the scalar assignment; the per-edge lookup
    charge for the remaining occurrences is added arithmetically
    (``hash_lookups`` is additive, so the total is bit-identical).
    """
    if gt.sgh is None:
        return srcs
    uniq, first_idx, inverse = np.unique(srcs, return_index=True, return_inverse=True)
    uniq_dense = np.empty(uniq.shape[0], dtype=np.int64)
    uniq_list = uniq.tolist()
    hash_id = gt.sgh.hash_id
    for pos in np.argsort(first_idx).tolist():
        uniq_dense[pos] = hash_id(uniq_list[pos])
    gt.stats.hash_lookups += srcs.shape[0] - uniq.shape[0]
    return uniq_dense[inverse]


class _SubblockCache:
    """Plain-list cache of the Subblocks an insert chunk touches, written
    back once per chunk.  (Deletes need no cache: see the module docstring.)

    Entries are ``(region, block, sb, dsts, weights, probes, cal_blocks,
    cal_slots)`` keyed by a packed int.  Entries are *copies*: pool growth
    (overflow allocation during branch-out) may reallocate the backing
    array mid-chunk, and the writeback re-fetches rows, so cached state is
    never invalidated by growth.
    """

    __slots__ = (
        "_cache", "dirty", "_eba", "_nsb", "_size", "_fields",
        "_mkey2row", "_mblocks", "_msbs", "_mD", "_mW", "_mP", "_mCB",
        "_mCS", "_mdirty", "_mdetached",
    )

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
        views = self._fields.get(region)
        if views is None or views[0] is not data:
            views = (
                data,
                data["dst"],
                data["weight"],
                data["probe"],
                data["cal_block"],
                data["cal_slot"],
            )
            self._fields[region] = views
        return views

    def load(self, region: int, block: int, sb: int) -> tuple[int, tuple]:
        key = ((block << 1) | region) * self._nsb + sb
        entry = self._cache.get(key)
        if entry is None:
            j = self._mkey2row.get(key)
            if j is not None:
                # Detach the matrix row into list form: from here on the
                # lists are authoritative for this Subblock, the matrix
                # row is dead (excluded from the bulk writeback).
                entry = (
                    MAIN, block, sb,
                    self._mD[j].tolist(),
                    self._mW[j].tolist(),
                    self._mP[j].tolist(),
                    self._mCB[j].tolist(),
                    self._mCS[j].tolist(),
                )
                self._mdetached[j] = True
                self._cache[key] = entry
                if self._mdirty[j]:
                    # Carry the fast pass's modifications into the dirty
                    # set, or they would never be written back.
                    self.dirty[key] = entry
                return key, entry
            size = self._size
            _, fd, fw, fp, fcb, fcs = self._field_views(region)
            lo = sb * size
            hi = lo + size
            entry = (
                region,
                block,
                sb,
                fd[block, lo:hi].tolist(),
                fw[block, lo:hi].tolist(),
                fp[block, lo:hi].tolist(),
                fcb[block, lo:hi].tolist(),
                fcs[block, lo:hi].tolist(),
            )
            self._cache[key] = entry
        return key, entry

    def attach_matrix(self, blocks: np.ndarray, sbs: np.ndarray,
                      D: np.ndarray, W: np.ndarray, P: np.ndarray,
                      CB: np.ndarray, CS: np.ndarray,
                      dirty_mask: np.ndarray | None = None) -> None:
        """Adopt pre-gathered ``(k, subblock)`` main-region field matrices.

        The matrices become the primary cache tier for their Subblocks:
        :meth:`load` detaches a row into list form only when the per-op
        loop actually touches it, and :meth:`writeback` scatters the
        still-attached dirty rows straight from the matrices — no list
        round trip for Subblocks only the fast pass handled.  Called once
        per chunk, before the first :meth:`load`.
        """
        nsb = self._nsb
        keys = ((blocks.astype(np.int64) << 1) | MAIN) * nsb + sbs
        self._mkey2row = dict(zip(keys.tolist(), range(keys.shape[0])))
        self._mblocks = blocks
        self._msbs = sbs
        self._mD = D
        self._mW = W
        self._mP = P
        self._mCB = CB
        self._mCS = CS
        k = blocks.shape[0]
        self._mdirty = dirty_mask if dirty_mask is not None else np.zeros(k, dtype=bool)
        self._mdetached = np.zeros(k, dtype=bool)

    def writeback(self) -> None:
        """Scatter every dirty Subblock back: one fancy store per field.

        Dirty keys are distinct ``(region, block, sb)`` triples, so the
        scatter indices never alias a cell twice; attached matrix rows and
        detached list entries partition the dirty set the same way.
        """
        size = self._size
        span = np.arange(size)
        m = self._mdirty & ~self._mdetached
        if m.any():
            _, fd, fw, fp, fcb, fcs = self._field_views(MAIN)
            rows = self._mblocks[m][:, None]
            cols = (self._msbs[m] * size)[:, None] + span
            fd[rows, cols] = self._mD[m]
            fw[rows, cols] = self._mW[m]
            fp[rows, cols] = self._mP[m]
            fcb[rows, cols] = self._mCB[m]
            fcs[rows, cols] = self._mCS[m]
        by_region: dict[int, list[tuple]] = {}
        for entry in self.dirty.values():
            by_region.setdefault(entry[0], []).append(entry)
        for region, entries in by_region.items():
            _, fd, fw, fp, fcb, fcs = self._field_views(region)
            rows = np.fromiter((e[1] for e in entries), np.int64, len(entries))[:, None]
            cols = np.fromiter((e[2] * size for e in entries), np.int64, len(entries))[:, None] + span
            fd[rows, cols] = [e[3] for e in entries]
            fw[rows, cols] = [e[4] for e in entries]
            fp[rows, cols] = [e[5] for e in entries]
            fcb[rows, cols] = [e[6] for e in entries]
            fcs[rows, cols] = [e[7] for e in entries]


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

    cache = _SubblockCache(eba, nsb, size)

    # Local charge accumulators, flushed into `stats` once per chunk.
    wf = cs = wb = swaps = found = inserted = cal_up = bd = 0
    # Pending CAL records as parallel lists (record id = list index).
    p_orig: list[int] = []
    p_src: list[int] = []
    p_dst: list[int] = []
    p_w: list[float] = []
    inflight_rid = -1  # pending record of an op that raised mid-cascade
    new_srcs: list[int] = []

    # ---- Gen-0 fast pass. ---------------------------------------------
    # Every group's gen-0 Subblock is known from the grouping keys; gather
    # them all as (k, subblock) field matrices with one fancy index per
    # field.  The first op of each group then sees exactly this pristine
    # state, so the dominant op shape — a gen-0 miss on a leaf Subblock
    # placed at the first vacancy without displacing anyone — can be
    # decided and executed for every group at once.  Any op that hits,
    # descends, swaps, or congests falls through to the exact per-op loop.
    gkey_s = dense_s * nsb + sb_s
    ukeys, first_pos = np.unique(gkey_s, return_index=True)
    blocks = ukeys // nsb
    sbs = ukeys % nsb
    span = np.arange(size)
    _, fd, fw, fp, fcb, fcs = cache._field_views(MAIN)
    rows = blocks[:, None]
    cols = (sbs * size)[:, None] + span
    D = fd[rows, cols]
    W = fw[rows, cols]
    P = fp[rows, cols]
    CB = fcb[rows, cols]
    CS = fcs[rows, cols]

    skip = np.zeros(n, dtype=bool)
    g = ukeys.shape[0]
    row_dirty = np.zeros(g, dtype=bool)
    f_sel = slot_f = None  # kept for the CAL patch in the finally block
    if rhh_on and g:
        # Iterated rounds: round r handles each still-active group's r-th
        # op against the current matrix state, which is exactly the state
        # the scalar sequence would present to that op (all earlier ops of
        # the group were fast, and no other group touches the Subblock).
        # A group goes inactive at its first non-fast op — its remaining
        # ops fall to the per-op loop — or when its ops are exhausted.
        # Each fast op fills a cell, so a group survives at most
        # `size` placing rounds: the loop below is bounded, not heuristic.
        grp_end = np.append(first_pos[1:], n)
        cur = first_pos.copy()
        active = eba._main_children._data[blocks, sbs] < 0  # leaf groups only
        active &= cur < grp_end
        rows_acc: list[np.ndarray] = []
        slots_acc: list[np.ndarray] = []
        while True:
            cand = np.nonzero(active)[0]
            if cand.shape[0] == 0:
                break
            pos = cur[cand]
            c_dst = dst_s[pos]
            c_ib = ib_s[pos]
            # Roll each Subblock so column t is the t-th probed cell.
            roll = (c_ib[:, None] + span) % size
            Dr = D[cand[:, None], roll]
            Pr = P[cand[:, None], roll]
            hitm = Dr == c_dst[:, None]
            em = Dr == -1  # EMPTY
            vacm = em | (Dr == -2)  # EMPTY or TOMBSTONE
            t_hit = np.where(hitm.any(axis=1), hitm.argmax(axis=1), size)
            t_emp = np.where(em.any(axis=1), em.argmax(axis=1), size)
            t_vac = np.where(vacm.any(axis=1), vacm.argmax(axis=1), size)
            # Absent: empty stops the scan before dst, or a full scan finds
            # neither (no edge lives beyond an empty cell on its probe path
            # in RHH mode — the same invariant rhh_find relies on).
            miss = (t_emp < t_hit) | ((t_emp == size) & (t_hit == size))
            # Strict Robin Hood rule: a swap fires at step t iff the
            # resident's probe distance is < t.  Fast only if no swap
            # happens before the vacancy.
            noswap = ~((Pr < span) & (span < t_vac[:, None])).any(axis=1)
            fast = miss & noswap & (t_vac < size)
            if not fast.any():
                break
            f_rows = cand[fast]
            pos_f = pos[fast]
            tv_f = t_vac[fast]
            ib_f = c_ib[fast]
            t_scan = np.minimum(t_hit, t_emp)[fast]
            sl_f = np.where(t_scan < size, t_scan + 1, size)
            # FIND-stage charge, then the INSERT stage's (find_len, steps+1)
            # pair — identical arithmetic to _charge_scan on both passes.
            wf += int(_circular_workblocks_array(ib_f, sl_f, workblock, size).sum())
            wf += int(_circular_workblocks_array(
                ib_f, np.maximum(sl_f, tv_f + 1), workblock, size).sum())
            cs += int((2 * sl_f + tv_f + 1).sum())
            nf = f_rows.shape[0]
            wb += nf
            inserted += nf
            slots = (ib_f + tv_f) % size
            d_f = dst_s[pos_f]
            D[f_rows, slots] = d_f
            W[f_rows, slots] = w_s[pos_f]
            P[f_rows, slots] = tv_f
            s_l = dense_s[pos_f].tolist()
            if cal is not None:
                CB[f_rows, slots] = PENDING_CAL
                CS[f_rows, slots] = np.arange(nf) + len(p_orig)
                p_orig.extend(order[pos_f].tolist())
                p_src.extend(s_l)
                p_dst.extend(d_f.tolist())
                p_w.extend(w_s[pos_f].tolist())
            else:
                CB[f_rows, slots] = -1
                CS[f_rows, slots] = -1
            new_srcs.extend(s_l)
            skip[pos_f] = True
            row_dirty[f_rows] = True
            rows_acc.append(f_rows)
            slots_acc.append(slots)
            # Advance fast groups to their next op; retire the rest.
            active[cand[~fast]] = False
            cur[f_rows] += 1
            active[f_rows] = cur[f_rows] < grp_end[f_rows]
        if rows_acc:
            f_sel = np.concatenate(rows_acc)
            slot_f = np.concatenate(slots_acc)
    cache.attach_matrix(blocks, sbs, D, W, P, CB, CS, row_dirty)
    # Residue ops run in ORIGINAL stream order, not sorted order.  Cell
    # placements would come out the same either way (groups are disjoint
    # Subblocks, stream-ordered within), but branch-outs pull blocks from
    # the shared overflow pool: only the stream order hands each descent
    # the same block id the scalar loop would, keeping the physical
    # layout — not just the logical content — bit-identical.
    rem = np.flatnonzero(~skip)
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
    # The main-region child matrix never regrows mid-chunk (capacity is
    # ensured per vertex row up front), so its backing array can be
    # hoisted; the overflow one can regrow and is re-read per descent.
    mchild = eba._main_children._data
    ochild = eba._overflow_children

    try:
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
                f_cs = len(p_orig)
                inflight_rid = f_cs
                p_orig.append(l_orig[i])
                p_src.append(src)
                p_dst.append(dst)
                p_w.append(w)
            else:
                f_cb = -1
                f_cs = -1
            f_dst = dst
            f_w = w
            region, block = MAIN, src
            placed = False
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
                    new_srcs.append(src)
                    inserted += 1
                    placed = True
                    inflight_rid = -1
                    break
                region, block = descend(region, block, sb, True)
                f_dst = o_dst
                f_w = o_w
                f_cb = o_cb
                f_cs = o_cs
            if not placed:
                raise CapacityError(
                    f"edge ({src}, {dst}) exceeded max_generations={max_gen}"
                )
    finally:
        # Apply the deferred side effects and write the caches back even
        # when an op raised mid-chunk, so every *completed* op's state
        # lands exactly as the scalar path would have left it.
        if new_srcs:
            ns = np.asarray(new_srcs, dtype=np.int64)
            np.add.at(eba._degrees, ns, 1)
            gt.vpa.ensure(int(ns.max()))
            np.add.at(gt.vpa.degrees, ns, 1)

        if cal is not None and p_orig:
            # Replay the appends in original stream order (an op that
            # raised mid-cascade never reached its append — drop it).
            nrec = len(p_orig)
            live = np.arange(nrec)
            if 0 <= inflight_rid < nrec:
                live = live[live != inflight_rid]
            live = live[np.argsort(np.asarray(p_orig, dtype=np.int64)[live], kind="stable")]
            assigned_b = np.full(nrec, -1, dtype=np.int64)
            assigned_s = np.full(nrec, -1, dtype=np.int64)
            if live.shape[0]:
                pa_src = np.asarray(p_src, dtype=np.int64)[live]
                pa_dst = np.asarray(p_dst, dtype=np.int64)[live]
                pa_w = np.asarray(p_w, dtype=np.float64)[live]
                cal_blocks, cal_slots = cal.append_many(pa_src, pa_dst, pa_w)
                assigned_b[live] = cal_blocks
                assigned_s[live] = cal_slots
            # Patch the sentinels of still-attached fast rows in one
            # scatter: their record ids sit untouched in the CS matrix.
            if f_sel is not None:
                att = ~cache._mdetached[f_sel]
                if att.any():
                    r_att = f_sel[att]
                    s_att = slot_f[att]
                    rids = CS[r_att, s_att].astype(np.int64)
                    CB[r_att, s_att] = assigned_b[rids]
                    CS[r_att, s_att] = assigned_s[rids]
            # Patch every remaining pending sentinel (detached or loop-
            # touched entries; displacement may have moved one anywhere).
            ab_l = assigned_b.tolist()
            as_l = assigned_s.tolist()
            for entry in dirty.values():
                cbl = entry[6]
                if PENDING_CAL in cbl:
                    csl = entry[7]
                    for j in range(size):
                        if cbl[j] == PENDING_CAL:
                            rid = csl[j]
                            cbl[j] = ab_l[rid]
                            csl[j] = as_l[rid]

        cache.writeback()
        stats.workblock_fetches += wf
        stats.cells_scanned += cs
        stats.workblock_writebacks += wb
        stats.rhh_swaps += swaps
        stats.branch_descents += bd
        stats.edges_found += found
        stats.edges_inserted += inserted
        stats.cal_updates += cal_up
    return inserted


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
        uniq_dense = np.full(uniq.shape[0], -1, dtype=np.int64)
        try_lookup = gt.sgh.try_lookup
        for k, orig in enumerate(uniq.tolist()):
            v = try_lookup(orig)
            if v is not None:
                uniq_dense[k] = v
        stats.hash_lookups += n - uniq.shape[0]
        dense = uniq_dense[inverse]
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
    span = np.arange(size)

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
                # Column t of `probed` is the t-th cell rhh_find inspects.
                cols = (sb * size)[:, None] + (ib[:, None] + span) % size
                data = pool._data
                probed = data["dst"][block[:, None], cols]
                hitm = probed == dst[:, None]
                t_hit = np.where(hitm.any(axis=1), hitm.argmax(axis=1), size)
                if rhh_on:
                    em = probed == EMPTY
                    t_emp = np.where(em.any(axis=1), em.argmax(axis=1), size)
                else:
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
