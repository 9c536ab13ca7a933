"""Vectorized batch-update kernels (the ``kernel="vector"`` fast path).

One probe core, one per-op specification
----------------------------------------
:mod:`repro.core.robin_hood` holds the only Robin-Hood probe loops
(``rhh_find``, ``rhh_insert``) and
:class:`~repro.core.edgeblock_array.EdgeblockArray` is their only caller:
the *spec* — the paper's algorithm, the single-edge API, what
``kernel="scalar"`` loops over, and what this module runs for every op its
insert rounds leave.  Its FIND is one charged loop, ``_locate`` — the
duplicate check of ``insert``, ``delete``, ``find`` and the facade's point
reads all run it — and ``insert``'s INSERT stage is the only per-op
insert.  The whole-chunk passes — the insert rounds and the delete level
pass — restate the core over many Subblocks at once: :func:`_probe` is
``rhh_find`` (initial bucket first, then :func:`_find`'s stopping rule
over the Subblocks :func:`_rolled_probe` gathers in probe order),
:func:`_rhh_walk` ``rhh_insert``'s INSERT stage (a direct placement or
the closed form of its displacement walk); the parity tests hold both
to the core.  Both sides charge
Workblock fetches from the one per-geometry table,
:func:`~repro.core.robin_hood.subblock_tables`.

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
insert rounds allocate children in round order and the residue in group
order, not stream order).
``tests/test_kernels.py`` and ``tests/test_differential.py`` enforce this.

Where the speed comes from
--------------------------
The per-op driver pays per-edge Python overhead five ways: a facade call
chain, SGH dict traffic, two splitmix64 evaluations, a NumPy-to-list
round trip of the Subblock around every
:func:`~repro.core.robin_hood.rhh_insert` call, and per-op
``AccessStats`` attribute updates.  The vector kernel amortises all five,
and item 5 keeps its own per-pass overhead from taking their place:

1. **Bulk renaming** — the batch's sources resolve through the SGH's
   NumPy index in a few uncharged gather-and-compare rounds
   (:meth:`~repro.core.sgh.ScatterGatherHash.peek_array`); only the misses
   are collapsed to distinct ids, assigned in one step
   (:meth:`~repro.core.sgh.ScatterGatherHash.hash_new_ids`) **in
   first-appearance order** (so dense ids come out exactly as the scalar
   stream would assign them), and the per-edge lookup charges are added
   arithmetically.
2. **Bulk hashing** — generation-0 Subblock indices and initial buckets
   for the whole batch in two :func:`~repro.core.hashing.mix64_array`
   sweeps.
3. **Grouping** — one stable sort (:func:`_stream_order`) by each op's
   gen-0 Subblock row, ``dense * nsb + sb``: ``(dense source, gen-0
   Subblock)`` in one int.
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
   INSERT from generation 0 (:func:`_rhh_walk`), congested ones
   allocating or following the child and carrying the *evicted* cell
   down by its own hashes.  Each level pass has two kinds of column, as
   the paper's load unit stops at the Workblock that settles an op:
   every op reads its initial-bucket cell first, and only the ops that
   cell does not settle are gathered rolled and probed further
   (:func:`_probe`; a hit or, in Robin-Hood mode, an ``EMPTY`` cell
   settles FIND, a ``TOMBSTONE`` does not).  An absent op whose first
   cell is vacant takes it with probe 0 and no swap; only ops with a live
   first cell walk in closed form, on their own columns.  At generation
   0 the FIND's probe serves the INSERT stage again — its scan lengths
   and rolled cells — and below it the floating edges are probed the
   same way.  On sparse rows most ops settle at one cell: a churn step's
   inserts and deletes mostly never gather a Subblock.  Every level
   is read and scattered straight in its pool — the main region at
   generation 0 (its capacity is ensured before the rounds, so its arrays
   cannot regrow mid-chunk), the overflow pool below it (re-read per
   level: an allocation may regrow it mid-round): only the cells a walk
   changes move, nothing is staged.  Rounds run while at least
   :data:`MIN_ROUND_GROUPS` groups are active.  What they leave — the thin
   tail, every op of an ``enable_rhh=False`` store, a chunk too small to
   start a round — is the *residue*: it runs through
   :meth:`~repro.core.edgeblock_array.EdgeblockArray.insert` itself,
   against the pools as the rounds left them, a new edge carrying a
   pending CAL pointer like a round op's.  It runs group by group (groups
   share no cell and every charge is a sum, so the order across groups
   shows only in overflow-row names), and a group's ops pass one set of
   Subblock lists (``insert``'s ``lists``) from op to op: each Subblock
   is read from its pool once and stored back once, when the group is
   done or one of its ops raises.  Each op's FIND hashes come in
   (``insert``'s ``hashes``) from one vector pass per tree level the
   residue groups hold.  The rounds' charges accumulate
   in local ints and flush into ``AccessStats`` once per chunk; a residue
   op charges its own.  (A batch of fewer than :data:`MIN_ROUND_GROUPS`
   edges could not start a round: ``GraphTinker.insert_batch`` hands it
   to the per-edge path whole.)
5. **Subblocks as rows, geometry as tables** — a cell field is one
   C-contiguous ``(capacity, pagewidth)`` array, so Subblock row
   ``b * nsb + sb`` is ``size`` consecutive cells of it.  A level pass
   does every gather and scatter through one flat index: ``row * size +
   bucket`` for the first cell, one ``take`` of the probe-order table
   ``roll``'s columns plus each row's base for the rolled ones, no 2-D
   fancy index.  It charges fetches by lookup in
   ``fetches[bucket, length]``; both tables are derived once per
   geometry (:func:`~repro.core.robin_hood.subblock_tables`).  Rolled
   cells are held probe-step major, ``(size, ops)``, so the short
   Subblock axis is never NumPy's inner loop.
6. **Stream-ordered CAL replay** — a cell's CAL-pointer is one int64
   field, ``cal``, and a new edge gets a *pending* one, ``PENDING_CAL -
   rid`` (``<= PENDING_CAL``; ``rid``, its record id, is the op's index in
   the chunk), that travels through Robin-Hood displacements exactly like
   a real CAL address; after the chunk, the records of the ops that
   placed a new edge are appended to the CAL **in original stream order**
   (one arithmetic pass, :meth:`CoarseAdjacencyList.append_many`), and
   one pass per pool rewrites the sentinels to the real addresses: one
   gather of ``cal``, a ``<= PENDING_CAL`` filter and one scatter.  It
   visits only cells a sentinel may sit in: each cell a round's walk
   stored one into and each cell the residue's
   :meth:`~repro.core.edgeblock_array.EdgeblockArray.write_back` stored
   (both collected as they store; a rounds' pending cell that a residue
   op moves is stored again through ``write_back``).
   Duplicate ops that meet a pending cell update the pending record (one
   ``cal_updates`` charge, like the scalar ``update_weight``) so the
   final CAL weight is the last one.

Large batches are processed in contiguous chunks so the round temporaries
stay bounded; chunking composes trivially (the scalar path is itself a
sequence of per-edge chunks).  Each chunk marks the rows it touched dirty
in the store's analytics snapshot once, from the dense ids it already
holds, in a ``finally``: an insert chunk its sources, a delete chunk the
rows that lost an edge.

Delete batches: one pass per tree level
---------------------------------------
Delete-only deletes cannot observe each other, so they need no grouping.
:func:`~repro.core.robin_hood.rhh_find` stops only on a match or
(RHH mode) an ``EMPTY`` cell; a delete writes ``TOMBSTONE`` into ``dst``
and -1 into the CAL-pointer ``cal``, never touches ``weight``/``probe``
and never allocates, frees or moves a cell or a child pointer.  Two
deletes on distinct ``(dense source, dst)`` pairs therefore find the same
things in either order, every ``AccessStats`` field is a sum, and only
*repeats of one pair inside a chunk* are ordered — and a pair is stored
at most once, so its repeats take one path and hit one cell at one
level: one of them deletes it, the rest probe past its tombstone and
miss, and which one wins is unobservable.  :func:`_delete_chunk` is
therefore one level-synchronous pass, with no grouping, through
:func:`_probe`: one flat gather reads every active op's initial-bucket
cell in the level's pool (generation 0 is all main region, every later
generation all overflow), and a step-0 hit skips the rolled gather;
only the others' Subblocks are gathered rolled.  Each hit reads its
cell's ``cal`` once and then writes its own index there, and the hits
that read their index back are the winners (``cal`` is reset to -1 one
line later);
winners are tombstoned with one scatter per field through the same
index, and the losers — only when a chunk repeats a pair — re-probe the
tombstoned level through :func:`_probe` and carry on as misses.  Misses
whose Subblock has a child carry on to the next level.  After the pass
the chunk's degrees drop with one ``subtract.at`` and its CAL
copies with one :meth:`CoarseAdjacencyList.invalidate_many`.

The delete-and-compact configuration is *not* vectorised: compaction
couples arbitrary sources through shared CAL group tails
(``compact_delete`` can move another vertex's copy and re-point it via a
cross-source ``find``), so the facade falls back to the scalar per-edge
path there — equivalence by construction rather than by mirroring.
"""

from __future__ import annotations

from itertools import count

import numpy as np

from repro.core import robin_hood as rhh
from repro.core.edgeblock_array import MAIN, OVERFLOW
from repro.core.hashing import initial_bucket_array, subblock_index_array
from repro.core.pool import EMPTY, TOMBSTONE

#: Top of the pending CAL-pointer range: a cell whose ``cal`` is
#: ``PENDING_CAL - rid`` (so ``<= PENDING_CAL``) holds pending record
#: ``rid``, whose CAL copy is not appended yet.  Stays clear of the -1
#: (no copy) marker and never escapes the kernel: the patch pass rewrites
#: every sentinel before ``_insert_chunk`` returns, exceptional paths
#: included.
PENDING_CAL = -3

#: Edges per processing chunk.  Bounds the round temporaries (worst case
#: one row per edge) while keeping the per-chunk NumPy phase costs well
#: amortised.  Chunks are contiguous slices of the input stream, so chunked
#: execution composes into the same global event order.
CHUNK_EDGES = 32768

#: Fewest active groups an insert round is run for.  A round costs a fixed
#: ~0.1 ms of NumPy calls per tree level however few ops it carries; below
#: about this many running the ops one by one through
#: ``EdgeblockArray.insert`` is cheaper.  The crossover was first measured
#: against a list-cached copy of that loop (EXPERIMENTS.md note 10); the
#: same sweep with the residue on ``EdgeblockArray.insert`` is still flat
#: from 16 to 64 (note 14), and still is with the residue on per-group
#: Subblock lists, on the power-law load and on 2 k-edge analytics
#: batches alike; 128 is slower on the load (note 23).  A batch of fewer
#: edges than this skips the chunk machinery and runs on the per-edge
#: path.  Not a correctness switch: rounds and residue leave the same
#: cells and charges.
MIN_ROUND_GROUPS = 32


def insert_batch_vector(gt, edges: np.ndarray, weights: np.ndarray) -> int:
    """Vector-kernel implementation of ``GraphTinker.insert_batch``.

    ``edges`` is a validated non-negative ``(n, 2)`` int64 array and
    ``weights`` a float64 array of the same length.  Returns the number
    of new edges, exactly as the scalar loop would.  The facade sends a
    batch of fewer than :data:`MIN_ROUND_GROUPS` edges, which could not
    start a round, to the per-edge path instead.
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
    """Bulk original->dense renaming, assigning new ids like the stream
    would: the column resolves through the SGH index, and only the misses
    are collapsed to distinct ids and assigned in first-appearance order.
    The lookup charges are added arithmetically (one per edge in all)."""
    if gt.sgh is None:
        return srcs
    dense = gt.sgh.peek_array(srcs)
    miss = np.flatnonzero(dense < 0)
    if miss.shape[0] == 0:
        gt.stats.hash_lookups += srcs.shape[0]
        return dense
    uniq, first_idx, inverse = np.unique(srcs[miss], return_index=True, return_inverse=True)
    by_first = np.argsort(first_idx)
    new_ids = gt.sgh.hash_new_ids(uniq[by_first])  # in first-appearance order
    dense[miss] = new_ids[np.argsort(by_first)][inverse]
    gt.stats.hash_lookups += srcs.shape[0] - uniq.shape[0]
    return dense


def _stream_order(key: np.ndarray) -> np.ndarray:
    """``argsort(key, kind="stable")`` for ``n`` non-negative keys whose
    ``(max + 1) * n`` stays below 2**63 (a chunk's group keys are below
    ``n_vertices * nsb``).  Keys that all fit in 16 bits take NumPy's
    stable radix sort of them as ``uint16``; others one default sort of
    ``key * n + index``.  Either way the order is the same."""
    n = key.shape[0]
    if n and key.max() < 1 << 16:
        return np.argsort(key.astype(np.uint16), kind="stable")
    return np.argsort(key * n + np.arange(n))


def _rolled_probe(cells: np.ndarray, srow: np.ndarray, ib: np.ndarray,
                  roll: np.ndarray):
    """Gather many Subblocks at once, rolled to probe order: ``(flat, probed)``.

    ``cells`` is a pool's ``dst`` field raveled: each field is one
    C-contiguous ``(capacity, pagewidth)`` array, so Subblock row
    ``srow = block * nsb + sb`` is ``size`` consecutive cells of it.
    ``flat[t, i]`` is the flat index of the ``t``-th cell a probe of
    Subblock row ``srow[i]`` from bucket ``ib[i]`` inspects (``roll`` of
    :func:`~repro.core.robin_hood.subblock_tables` is symmetric, so its
    column ``ib[i]`` is that bucket's probe order) and ``probed[t, i]``
    the ``dst`` value there.  Probe step is the leading axis, so each step
    of a pass is one vector op over all the Subblocks and the short
    Subblock axis is never NumPy's inner loop.
    """
    flat = np.take(roll, ib, axis=1) + srow * roll.shape[0]
    return flat, cells[flat]


def _first(mask: np.ndarray) -> np.ndarray:
    """Per column, the first probe step where ``mask`` holds; the number
    of steps where none (the count of leading misses)."""
    keep = ~mask
    searching = keep[0].copy()
    t = searching.astype(np.int64)
    for step in keep[1:]:
        searching &= step
        t += searching
    return t


def _find(flat: np.ndarray, probed: np.ndarray, dst: np.ndarray, rhh_on: bool):
    """:func:`robin_hood.rhh_find`'s stopping rule over rolled Subblocks:
    ``(hit, scanned, cells)`` — whether each probe stops on ``dst``, the
    cells it inspects, and the flat index of each hit cell, in op order.
    A probe stops on ``dst`` or, in Robin-Hood mode, on an ``EMPTY`` cell:
    one first-step search finds either, and the cell it stops on tells
    which (a probe that never stops ends on a cell other than ``dst``)."""
    size, n = probed.shape
    stop = probed == dst
    if rhh_on:
        stop |= probed == EMPTY
    t = _first(stop)
    last = np.minimum(t, size - 1) * n + np.arange(n)
    hit = probed.ravel()[last] == dst
    return hit, np.minimum(t + 1, size), flat.ravel()[last[hit]]


def _probe(cells: np.ndarray, srow: np.ndarray, ib: np.ndarray, dst: np.ndarray,
           roll: np.ndarray, rhh_on: bool):
    """:func:`robin_hood.rhh_find` over many Subblocks, initial bucket
    first: ``(hit, scanned, at, c0, rolled)`` in op order.

    One flat gather reads each op's initial-bucket cell ``at = srow *
    size + ib`` of the raveled ``dst`` field ``cells``, holding ``c0``.
    A match there hits and, in Robin-Hood mode, an ``EMPTY`` cell misses,
    both with ``scanned == 1`` (a ``TOMBSTONE`` settles nothing: FIND
    scans past it).  Only the other ops are gathered rolled
    (:func:`_rolled_probe`) and run through :func:`_find`; ``rolled`` is
    ``(r, flat, probed)``, their op indices and cells (``None`` cells
    when every op settled).  ``at`` ends as each hit's cell and every
    other op's initial-bucket cell.
    """
    at = srow * roll.shape[0] + ib
    c0 = cells[at]
    hit = c0 == dst
    scanned = np.ones(at.shape[0], dtype=np.int64)
    r = np.flatnonzero(~(hit | (c0 == EMPTY)) if rhh_on else ~hit)
    flat = probed = None
    if r.shape[0]:
        flat, probed = _rolled_probe(cells, srow[r], ib[r], roll)
        h, scanned[r], found = _find(flat, probed, dst[r], rhh_on)
        hit[r] = h
        at[r[h]] = found
    return hit, scanned, at, c0, (r, flat, probed)


def _level(gt, gen: int, rows: np.ndarray, dst: np.ndarray):
    """Generation ``gen`` as edges ``dst`` in edgeblock ``rows`` of its
    pool see it (the main region at generation 0, the overflow pool
    below): the pool's four raveled cell fields and raveled child
    pointers — re-read per level, the overflow pool may have regrown —
    and each edge's Subblock row and initial bucket there."""
    cfg, eba = gt.config, gt.eba
    pool, kids = (eba.overflow, eba._overflow_children) if gen else (eba.main, eba._main_children)
    nsb = cfg.subblocks_per_block
    return (tuple(pool.fields[name].reshape(-1) for name in rhh.CELL_FIELDS),
            kids._data.reshape(-1),
            rows * nsb + subblock_index_array(dst, gen, nsb, cfg.seed),
            initial_bucket_array(dst, gen, cfg.subblock, cfg.seed))


def _rhh_walk(fields, at: np.ndarray, c0: np.ndarray, rolled, edge):
    """:func:`robin_hood.rhh_insert`'s INSERT stage at one tree level,
    one Subblock per op, for ops whose FIND missed there: the floating
    ``edge`` (``dst, weight, cal`` arrays) goes into the four raveled
    cell ``fields``.  ``at``, ``c0`` and ``rolled`` are
    :func:`_probe`'s for those ops.

    An op whose initial-bucket cell is vacant (``c0 < 0``, ``TOMBSTONE``
    included) has its vacancy at step 0 and makes no swap: its edge is
    stored at ``at`` with probe 0.  Only the ops with a live ``c0`` walk,
    in closed form over their rolled columns (``flat``, with their
    ``dst`` values ``probed``; :func:`_probe` rolled every one of them).
    The floating probe distance obeys ``fp[t+1] = min(fp[t], Pr[t]) + 1``
    from ``fp[0] = 0``, i.e. ``fp[t] = t + min(0, min_{s<t}(Pr[s] - s))``;
    a swap fires at every ``t`` before the first vacancy with
    ``fp[t] > Pr[t]``.  Each swap step and the vacancy step take the
    content of the previous swap step (the walking edge itself before
    the first swap) with probe ``fp[t]``; with no vacancy the last swap
    step's old content floats on.  Tombstoned cells' stale probes sit at
    or beyond the vacancy and never enter.  Every gather and scatter goes
    through ``flat``.

    Returns ``(steps, swaps, wrote, full, floating, pending)``: the
    INSERT scan length, swap count and writeback flag per op, the ops
    left ``CONGESTED``, their floating edges, and the flat cells the
    level stored a pending CAL-pointer into (a list of arrays).
    """
    fd, fw, fp, fc = fields
    vacant = np.flatnonzero(c0 < 0)
    to = at[vacant]
    for own, field in zip(edge, (fd, fw, fc)):
        field[to] = own[vacant]
    fp[to] = 0
    pending = [to[edge[2][vacant] <= PENDING_CAL]]
    m = at.shape[0]
    steps = np.ones(m, dtype=np.int64)
    swaps = np.zeros(m, dtype=np.int64)
    wrote = np.ones(m, dtype=bool)
    r, flat, probed = rolled
    live = c0[r] >= 0
    walk = r[live]
    if walk.shape[0] == 0:
        return steps, swaps, wrote, walk, [own[walk] for own in edge], pending
    if not live.all():
        flat, probed = flat[:, live], probed[:, live]
    edge = [own[walk] for own in edge]
    size, n = flat.shape
    span = np.arange(size)[:, None]
    t_vac = _first(probed < 0)
    resident = fp[flat].astype(np.int64)
    slack = resident - span  # Pr[s] - s
    probe = np.zeros((size, n), dtype=np.int64)
    low = probe[0].copy()  # min(0, min_{s<t}(Pr[s] - s))
    for t in range(1, size):
        np.minimum(low, slack[t - 1], out=low)
        np.add(low, t, out=probe[t])
    swap = (probe > resident) & (span < t_vac)
    # last[t]: the last swap step before t (-1: none), whose old content
    # lands in step t; last[size] is the one that floats on.
    last = np.full((size + 1, n), -1)
    swapped_at = np.where(swap, span, -1)
    for t in range(size):
        np.maximum(last[t], swapped_at[t], out=last[t + 1])
    k = np.flatnonzero(swap | (span == t_vac))  # written cells, step-major
    i = k % n
    src = last.ravel()[k]
    moved = src >= 0
    from_cells = flat.ravel()[(src * n + i)[moved]]
    full = np.flatnonzero(t_vac == size)
    ev = last[size, full]
    evicted = ev >= 0
    ev_cells = flat[ev[evicted], full[evicted]]
    values, floating = [], []
    for own, field in zip(edge, (fd, fw, fc)):  # gather all before any store
        v = own[i]
        v[moved] = field[from_cells]
        values.append(v)
        f = own[full]
        f[evicted] = field[ev_cells]
        floating.append(f)
    to = flat.ravel()[k]
    fd[to] = values[0]
    fw[to] = values[1]
    fp[to] = probe.ravel()[k]
    fc[to] = values[2]
    pending.append(to[values[2] <= PENDING_CAL])
    n_swaps = swap.sum(axis=0)
    steps[walk] = np.minimum(t_vac + 1, size)
    swaps[walk] = n_swaps
    wrote[walk] = (t_vac < size) | (n_swaps > 0)
    return steps, swaps, wrote, walk[full], floating, pending


def _subtree_levels(eba, srows: np.ndarray):
    """Yield the overflow rows below main-region Subblock rows ``srows``,
    one array per tree level, top down."""
    kids = eba._main_children._data.reshape(-1)[srows]
    while (rows := kids[kids >= 0].astype(np.int64)).shape[0]:
        yield rows
        kids = eba._overflow_children._data[rows].ravel()


def _patch_pending(pool, touched: list[np.ndarray], addr: np.ndarray) -> None:
    """Rewrite every pending CAL-pointer among the ``touched`` flat cells
    of ``pool`` to its record's CAL address ``addr[rid]`` (-1 for a
    dropped one).  A cell listed twice gets the same address twice."""
    cal = pool.fields["cal"].reshape(-1)
    cells = np.concatenate(touched)
    ptr = cal[cells]
    pending = ptr <= PENDING_CAL
    cal[cells[pending]] = addr[PENDING_CAL - ptr[pending]]


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
    seed = cfg.seed
    rhh_on = eba._rhh_on
    roll, fetches, _ = rhh.subblock_tables(size, cfg.workblock)

    # Group key: each op's gen-0 Subblock row in the main region, i.e.
    # (dense source, gen-0 Subblock); stream order within a group.
    dsts = edges[:, 1]
    key = dense * nsb + subblock_index_array(dsts, 0, nsb, seed)
    order = _stream_order(key)
    key_s = key[order]
    dst_s = dsts[order]
    w_s = weights[order]
    ib_s = initial_bucket_array(dst_s, 0, size, seed)

    # The rounds' charge accumulators, flushed into `stats` once per chunk
    # (a residue op charges its own, as the scalar path does).
    wf = cs = wb = swaps = found = cal_up = bd = 0
    # `new[i]`: stream op i placed a new edge in a round; `r_new` lists the
    # residue's.  Together they are the pending CAL record table: a new
    # edge's record id is its stream index (source and dst are the op's
    # own), `p_w` holds the record weights — a duplicate that meets a
    # pending cell overwrites its record's — and an op that raised
    # mid-cascade is never flagged, which drops its record.
    new = np.zeros(n, dtype=bool)
    p_w = weights.copy()
    r_new: list[int] = []

    # One group per distinct key: its gen-0 Subblock row and its slice
    # [first_pos, grp_end) of the sorted stream (keys are >= 0).
    first_pos = np.flatnonzero(np.diff(key_s, prepend=-1))
    groups = key_s[first_pos]
    g = groups.shape[0]
    grp_end = np.append(first_pos[1:], n)
    cur = first_pos.copy()
    # Per pool (MAIN, OVERFLOW): the flat cells the rounds' walks stored a
    # pending sentinel into, then those the residue stored.
    touched: tuple[list, list] = ([], [])
    # The main region never regrows mid-chunk (capacity is ensured per
    # vertex row up front), so its raveled cell fields and child pointers
    # can be hoisted; the overflow ones are re-read per level (_level).
    mfields = tuple(eba.main.fields[name].reshape(-1) for name in rhh.CELL_FIELDS)
    mkids = eba._main_children._data.reshape(-1)
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

            # FIND stage down the whole chain (EdgeblockArray._locate).
            q = np.arange(cand.shape[0])
            dup = np.zeros(cand.shape[0], dtype=bool)
            fields, kids, srow, ib = mfields, mkids, groups[cand], ib_s[pos]
            for gen in count():
                if gen:
                    fields, kids, srow, ib = _level(gt, gen, tree, dst[q])
                hit, scanned, at, c0, rolled = _probe(fields[0], srow, ib, dst[q], roll, True)
                wf += int(fetches[ib, scanned].sum())
                cs += int(scanned.sum())
                if gen == 0:
                    probe0 = (srow, ib, scanned, at, c0, rolled)
                if hit.any():
                    # Duplicate: weight overwritten in place, CAL copy
                    # through the cell's pointer or the pending record.
                    cells = at[hit]
                    h_w = w[q[hit]]
                    fields[1][cells] = h_w
                    if cal is not None:
                        ptr = fields[3][cells]
                        copied = ptr >= 0
                        cal.pool.fields["weight"].reshape(-1)[ptr[copied]] = h_w[copied]
                        pending = ptr <= PENDING_CAL
                        p_w[PENDING_CAL - ptr[pending]] = h_w[pending]
                        cal_up += int(copied.sum()) + int(pending.sum())
                    dup[q[hit]] = True
                child = kids[srow].astype(np.int64)
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
            # *its own* hashes (EdgeblockArray.insert's loop).  At
            # generation 0 the FIND's probe serves again: its scan is
            # the INSERT stage's FIND scan, and its rolled cells hold
            # every walker's; below, _probe reads the floating edges'.
            q = np.flatnonzero(~dup)
            srow, ib, find_len, at, c0, (r, flat, probed) = probe0
            if n_dup:
                srow, ib, find_len, at, c0 = (a[q] for a in (srow, ib, find_len, at, c0))
                keep = ~dup[r]  # renumbered among the absent ops
                r = (np.cumsum(~dup) - 1)[r[keep]]
                if flat is not None:
                    flat, probed = flat[:, keep], probed[:, keep]
            rolled = (r, flat, probed)
            fields, kids = mfields, mkids
            edge = [dst[q], w[q], PENDING_CAL - rid[q] if cal is not None
                    else np.full(q.shape[0], -1)]
            for gen in count():  # to the leaf: a fresh child places every edge
                if gen:
                    fields, kids, srow, ib = _level(gt, gen, tree, edge[0])
                    _, find_len, at, c0, rolled = _probe(fields[0], srow, ib, edge[0], roll, True)
                steps, n_swaps, wrote, full, edge, pending = _rhh_walk(
                    fields, at, c0, rolled, edge)
                wf += int(fetches[ib, np.maximum(find_len, steps)].sum())
                cs += int(find_len.sum()) + int(steps.sum())
                swaps += int(n_swaps.sum())
                wb += int(wrote.sum())
                touched[OVERFLOW if gen else MAIN].extend(pending)
                new[rid[np.delete(q, full)]] = True
                if full.shape[0] == 0:
                    break
                # eba._descend for the congested ops.
                q, srow = q[full], srow[full]
                child = kids[srow].astype(np.int64)
                leaf = child < 0
                if leaf.any():
                    ids = np.asarray(eba.overflow.allocate_many(int(leaf.sum())))
                    ochild.ensure(int(ids.max()) + 1)
                    ochild._data[ids] = -1
                    # The overflow child matrix may just have regrown.
                    (ochild._data.reshape(-1) if gen else mkids)[srow[leaf]] = ids
                    child[leaf] = ids
                    stats.branch_allocations += ids.shape[0]
                bd += full.shape[0]
                tree = child
            cand = cand[cur[cand] < grp_end[cand]]

        # ---- Residue: the specification, one op at a time. ---------------
        # What the rounds left — the thin tail below the floor, every op of
        # an `enable_rhh=False` store or of a chunk too small to start a
        # round — runs through EdgeblockArray.insert, against the pools as
        # the rounds left them, with a pending CAL pointer like a round
        # op's.  Group by group (groups share no cell and every charge is
        # a sum), in stream order inside each and in the order of their
        # first residue op among them (so overflow rows are allocated near
        # the per-op path's order); a group's ops share one set of
        # Subblock lists, stored back once when the group is done.
        rem = np.flatnonzero(np.arange(n) >= np.repeat(cur, grp_end - first_pos))
        if rem.shape[0]:
            heads = np.flatnonzero(np.diff(key_s[rem], prepend=-1))
            first = np.repeat(order[rem[heads]], np.diff(heads, append=rem.shape[0]))
            rem = rem[np.argsort(first, kind="stable")]
            rids = order[rem]
            # FIND's hashes for every residue op, one vector pass per level
            # the deepest residue group's tree holds (an op that goes deeper
            # hashes on by itself).
            depth = 1 + sum(1 for _ in _subtree_levels(eba, groups[cur < grp_end]))
            rdst = dst_s[rem]
            hashes = np.stack([np.column_stack((subblock_index_array(rdst, gen, nsb, seed),
                                                initial_bucket_array(rdst, gen, size, seed)))
                               for gen in range(depth)], axis=1).tolist()
            lists: dict = {}
            stored: tuple[list, list] = ([], [])  # flat cells write_back stored
            try:
                last = -1
                for rid, k, src, dst, w, h in zip(rids.tolist(), key_s[rem].tolist(),
                                                  dense[rids].tolist(), rdst.tolist(),
                                                  w_s[rem].tolist(), hashes):
                    if k != last:
                        eba.write_back(lists, stored)
                        last = k
                    is_new, loc = eba.insert(src, dst, w, PENDING_CAL - rid if cal is not None
                                             else -1, lists, h)
                    if is_new:
                        r_new.append(rid)
                    elif cal is not None:
                        # Duplicate: the CAL copy through the cell's pointer or
                        # its pending record (GraphTinker.insert_edge's update
                        # branch); the pointer is the group's, not yet stored.
                        ptr = eba.get_cal_pointer(loc, lists)
                        if ptr >= 0:
                            cal.update_weight(ptr, w)
                        elif ptr <= PENDING_CAL:
                            p_w[PENDING_CAL - ptr] = w
                            cal_up += 1
            finally:
                eba.write_back(lists, stored)
                for region in (MAIN, OVERFLOW):
                    touched[region].append(np.array(stored[region], dtype=np.int64))
    finally:
        # Apply the deferred side effects even when an op raised mid-chunk,
        # so every *completed* op's state lands exactly as the per-op path
        # would have left it.  EdgeblockArray.insert counted the residue's
        # new edges in its own degrees and `edges_inserted` already.
        if (snap := gt._analytics_snapshot) is not None:
            snap.mark_dirty_many(dense)
        placed = np.flatnonzero(new)
        np.add.at(eba._degrees, dense[placed], 1)
        new[r_new] = True
        live = np.flatnonzero(new)
        if cal is not None:
            # Replay the appends in original stream order, then rewrite
            # every sentinel in one pass per pool, over the cells the
            # rounds' walks and the residue's write-backs stored.
            addr = np.full(n, -1, dtype=np.int64)
            addr[live] = cal.append_many(dense[live], dsts[live], p_w[live])
            for region, pool in ((MAIN, eba.main), (OVERFLOW, eba.overflow)):
                if touched[region]:
                    _patch_pending(pool, touched[region], addr)
        stats.workblock_fetches += wf
        stats.cells_scanned += cs
        stats.workblock_writebacks += wb
        stats.rhh_swaps += swaps
        stats.branch_descents += bd
        stats.edges_found += found
        stats.edges_inserted += placed.shape[0]
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
    srcs = edges[:, 0]
    dsts = edges[:, 1]
    if gt.sgh is not None:
        stats.hash_lookups += edges.shape[0]  # one try_lookup per row
        dense = gt.sgh.peek_array(srcs)
    else:
        dense = srcs

    valid = (dense >= 0) & (dense < eba.n_vertices)
    dense = dense[valid]
    dsts = dsts[valid]

    roll, fetches, _ = rhh.subblock_tables(cfg.subblock, cfg.workblock)
    rhh_on = eba._rhh_on

    wf = cs = bd = deleted = 0
    # The rows that lost an edge (the snapshot's dirty rows) and their
    # cells' CAL pointers, one array per level.
    hit_srcs: list[np.ndarray] = [dense[:0]]
    hit_cal: list[np.ndarray] = [dense[:0]]
    src, dst, block = dense, dsts, dense
    try:
        for gen in count():
            if block.shape[0] == 0:
                break
            fields, kids, srow, ib = _level(gt, gen, block, dst)
            hit, scanned, at, *_ = _probe(fields[0], srow, ib, dst, roll, rhh_on)
            cells = at[hit]

            # Mirror of EdgeblockArray.delete's hit branch; the CAL copies
            # are invalidated once per chunk, below.  Repeats of one pair
            # hit one cell: each hit tags its cell's CAL-pointer with its
            # own index, and the one whose tag reads back deletes it.
            ptr = fields[3][cells]
            tag = np.arange(cells.shape[0])
            fields[3][cells] = tag
            win = fields[3][cells] == tag
            fields[0][cells] = TOMBSTONE
            fields[3][cells] = -1
            hit_cal.append(ptr[win])
            hit_srcs.append(src[hit][win])
            deleted += int(win.sum())
            if not win.all():
                # The others come after the winner in any stream order:
                # they probe past its tombstone, miss, and carry on.
                lose = np.flatnonzero(hit)[~win]
                hit[lose], scanned[lose] = _probe(
                    fields[0], srow[lose], ib[lose], dst[lose], roll, rhh_on)[:2]
            wf += int(fetches[ib, scanned].sum())
            cs += int(scanned.sum())

            # Misses follow their Subblock's child pointer, if any (the
            # miss path of EdgeblockArray._locate).
            child = kids[srow].astype(np.int64)
            go = ~hit & (child >= 0)
            bd += int(go.sum())
            src, dst, block = src[go], dst[go], child[go]
        if cal is not None:
            ptr = np.concatenate(hit_cal)
            cal.invalidate_many(ptr[ptr >= 0])
    finally:
        # Whatever was tombstoned before an exception keeps its degree
        # and counter effects, as on the per-op path.
        ds = np.concatenate(hit_srcs)
        if (snap := gt._analytics_snapshot) is not None:
            snap.mark_dirty_many(ds)  # also empty: it ends the capture epoch
        if deleted:
            np.subtract.at(eba._degrees, ds, 1)
        stats.workblock_fetches += wf
        stats.cells_scanned += cs
        stats.branch_descents += bd
        stats.workblock_writebacks += deleted
        stats.tombstones_set += deleted
        stats.edges_deleted += deleted
    return deleted
