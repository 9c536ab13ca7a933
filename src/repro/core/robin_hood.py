"""Robin Hood Hashing within a Subblock (paper Sec. III.A).

A Subblock is a tiny open-addressing hash table (default 8 edge-cells)
embedded in an edgeblock row.  Edges probe linearly from their initial
bucket, wrapping *within the Subblock*; on collision the "richer" edge
(smaller probe distance) is displaced so probe distances stay balanced.
When a Subblock cannot absorb an edge it is *congested* and Tree-Based
Hashing branches out to a child edgeblock (handled by the caller,
:mod:`repro.core.edgeblock_array`).

The load unit retrieves a Subblock one Workblock at a time (paper
Sec. III.B), so this module reports how many cells each operation
scanned; the distinct Workblocks they cover, read from one per-geometry
table (:func:`subblock_tables`), feed the DRAM-access cost model.

One probe core, one caller
--------------------------
:func:`rhh_find` and :func:`rhh_insert` are the only probe loops in the
package.  :func:`rhh_find` runs over a cell reader: a Subblock list for
insert's FIND, the pool for a point read; :func:`rhh_insert` over plain
Python sequences holding one Subblock's fields.  Neither touches
:class:`~repro.core.stats.AccessStats`: they *return* the scan lengths,
swap count and writeback flag, and the caller charges them.  Their one
caller is the per-op specification,
:class:`~repro.core.edgeblock_array.EdgeblockArray`: its FIND loop
(``_locate``) hands :func:`rhh_find` one Subblock's reader per tree
level, and its INSERT stage hands :func:`rhh_insert` a Subblock's four
field lists per level — reusing what FIND read, scan length included —
and stores back the cells it wrote.  The batch kernels
(:mod:`repro.core.kernels`) do not call the core: their whole-chunk
passes restate it over many rolled Subblocks at once, the residue of
their insert rounds runs through ``EdgeblockArray.insert`` itself, and
the parity tests hold the restatement to the core.

Cell states are encoded in the ``dst`` field: ``EMPTY`` (never used),
``TOMBSTONE`` (deleted; preserves probe chains in delete-only mode), or a
non-negative destination vertex id.

Correctness notes
-----------------
* FIND stops early at an ``EMPTY`` cell only when Robin-Hood mode is
  active: delete-only mode never turns an occupied cell back to ``EMPTY``,
  so no edge can live beyond an empty cell on its own probe path.  In
  delete-and-compact mode (RHH off) compaction may place an edge anywhere
  in its Subblock, so FIND must scan all cells.
* Displacement uses the strict rule (swap when the floating edge is
  strictly poorer); the floating edge that survives a full wrap is the one
  handed to the caller for branch-out.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.pool import EMPTY, TOMBSTONE
from repro.core.stats import AccessStats

#: Insert outcomes.
INSERTED = 0  #: edge placed in this Subblock
UPDATED = 1  #: edge already present; weight overwritten
CONGESTED = 2  #: Subblock full; caller must branch out with the overflow edge

#: Cell-state sentinels as Python ints (the probe loops compare against
#: ``tolist`` / ``item`` output; a NumPy scalar on one side would box
#: every test).
_EMPTY = int(EMPTY)
_TOMBSTONE = int(TOMBSTONE)

#: Edge-cell fields in the order :func:`rhh_insert` takes their sequences.
CELL_FIELDS = ("dst", "weight", "probe", "cal")


@functools.lru_cache(maxsize=None)
def subblock_tables(size: int, workblock: int) -> tuple[np.ndarray, np.ndarray, list]:
    """``(roll, fetches, fetch_rows)``: the probe tables of a ``size``-cell Subblock.

    ``roll[b]`` is the order in which a probe from bucket ``b`` visits the
    cells, ``(b + d) % size``; ``fetches[b, n]`` the number of distinct
    Workblocks (``cell // workblock``) among its first ``n`` — the one
    definition of the fetch charge, counted from the set it names; and
    ``fetch_rows`` the same as nested lists, for the per-op charge sites.
    """
    roll = (np.arange(size)[:, None] + np.arange(size)) % size
    fetch_rows = []
    for order in roll.tolist():
        seen: set[int] = set()
        row = [0]
        for cell in order:
            seen.add(cell // workblock)
            row.append(len(seen))
        fetch_rows.append(row)
    fetches = np.array(fetch_rows, dtype=np.int64)
    for table in (roll, fetches):  # shared by every store of the geometry
        table.setflags(write=False)
    return roll, fetches, fetch_rows


def _charge_scan(stats: AccessStats, fetches: list, start: int,
                 lengths: tuple[int, ...]) -> None:
    """Charge fetches/cells for one or more scan passes from ``start``.

    All passes of one operation start at the same initial bucket, so
    their Workblock *fetch* union is the longest pass's range (a fetched
    Workblock stays loaded for the whole operation), while *cells
    scanned* accumulates every pass's inspections.  ``fetches`` is the
    geometry's :func:`subblock_tables` ``fetch_rows``.
    """
    stats.workblock_fetches += fetches[start][max(lengths)]
    stats.cells_scanned += sum(lengths)


def rhh_find(
    read,
    base: int,
    size: int,
    dst: int,
    init_bucket: int,
    rhh_mode: bool,
) -> tuple[int, int]:
    """Search one ``size``-cell Subblock for ``dst``; return ``(slot, scan_len)``.

    ``read(base + slot)`` is the ``dst`` of cell ``slot`` as a Python
    int: a Subblock list's ``__getitem__`` with base 0 for insert's FIND,
    the pool's ``dst.item`` with the Subblock's flat index for a point
    read, which then reads only the cells it visits.  The scan starts at
    ``init_bucket`` and wraps within the Subblock.  ``slot`` is ``-1``
    when absent and ``scan_len`` is the number of cells inspected, which
    the caller charges from :func:`subblock_tables`.
    """
    empty = _EMPTY
    for distance in range(size):
        slot = init_bucket + distance
        if slot >= size:
            slot -= size
        cell_dst = read(base + slot)
        if cell_dst == dst:
            return slot, distance + 1
        if rhh_mode and cell_dst == empty:
            return -1, distance + 1
    return -1, size


def rhh_insert(
    dsts: list,
    weights: list,
    probes: list,
    cals: list,
    dst: int,
    weight: float,
    init_bucket: int,
    enable_rhh: bool,
    cal: int = -1,
    find_len: int = 0,
) -> tuple:
    """Insert ``(dst, weight)`` with CAL-pointer ``cal`` into one Subblock.

    The Subblock is four parallel sequences of Python ints/floats (in
    :data:`CELL_FIELDS` order), mutated in place.  Runs the FIND stage
    first (update-in-place if the edge exists), then the INSERT stage.
    With ``enable_rhh`` the Robin Hood displacement algorithm balances
    probe distances; without it (delete-and-compact configuration) a
    plain linear probe to the first vacant cell is used.  In Robin-Hood
    mode a nonzero ``find_len``, the length of a missed :func:`rhh_find`
    scan of this Subblock for ``dst``, stands in for the FIND stage.

    Returns the outcome and every charge it implies, for the driver to
    apply:

    ``(status, slot, lengths, wrote, swaps, o_dst, o_weight, o_cal)``

    ``slot`` is where the *argument* edge now lives (``-1`` if it was not
    placed), ``lengths`` feeds :func:`_charge_scan` (fetches = union over
    passes, cells = sum over passes), ``wrote`` is whether one Workblock
    writeback is due (and the sequences changed), and ``swaps`` counts
    Robin-Hood displacements.  On ``CONGESTED`` the ``o_*`` fields carry
    the floating edge that must descend into a child edgeblock so
    Tree-Based Hashing can continue; because displacement may evict a
    *different* edge than the one being inserted, the overflow edge's
    CAL-pointer travels with it.
    """
    size = len(dsts)
    empty, tombstone = _EMPTY, _TOMBSTONE

    # --- FIND stage: replace the weight if the edge already exists. -----
    found_slot = -1
    first_vacant = -1
    if not (enable_rhh and find_len):
        for distance in range(size):
            slot = init_bucket + distance
            if slot >= size:
                slot -= size
            find_len = distance + 1
            cell_dst = dsts[slot]
            if cell_dst == dst:
                found_slot = slot
                break
            if cell_dst == empty:
                if first_vacant < 0:
                    first_vacant = slot
                if enable_rhh:
                    # Nothing lives beyond an empty cell in delete-only mode.
                    break
            elif cell_dst == tombstone and first_vacant < 0:
                first_vacant = slot

    if found_slot >= 0:
        weights[found_slot] = weight
        return (UPDATED, found_slot, (find_len,), True, 0, -1, 0.0, -1)

    # --- INSERT stage. ---------------------------------------------------
    if not enable_rhh:
        if first_vacant < 0:
            return (CONGESTED, -1, (find_len,), False, 0, dst, weight, cal)
        dsts[first_vacant] = dst
        weights[first_vacant] = weight
        probes[first_vacant] = (first_vacant - init_bucket) % size
        cals[first_vacant] = cal
        return (INSERTED, first_vacant, (find_len,), True, 0, -1, 0.0, -1)

    # Robin Hood displacement: walk the probe path with a floating edge,
    # swapping whenever the floating edge is strictly poorer than the
    # resident.  The walk is bounded by one full wrap of the Subblock, so
    # it visits each slot at most once and never re-reads a cell it wrote.
    float_dst = dst
    float_weight = weight
    float_probe = 0
    float_cal = cal
    placed_slot = -1
    swaps = 0

    steps = 0
    slot = init_bucket
    while steps < size:
        if slot >= size:
            slot -= size
        cell_dst = dsts[slot]
        if cell_dst == empty or cell_dst == tombstone:
            dsts[slot] = float_dst
            weights[slot] = float_weight
            probes[slot] = float_probe
            cals[slot] = float_cal
            if placed_slot < 0:
                placed_slot = slot
            return (INSERTED, placed_slot, (find_len, steps + 1), True, swaps, -1, 0.0, -1)
        resident_probe = probes[slot]
        if float_probe > resident_probe:
            # Swap: the floating edge takes the bucket, the resident floats.
            swaps += 1
            r_dst = dsts[slot]
            r_weight = weights[slot]
            r_cal = cals[slot]
            dsts[slot] = float_dst
            weights[slot] = float_weight
            probes[slot] = float_probe
            cals[slot] = float_cal
            if placed_slot < 0:
                placed_slot = slot
            float_dst = r_dst
            float_weight = r_weight
            float_probe = resident_probe
            float_cal = r_cal
        float_probe += 1
        slot += 1
        steps += 1

    # Full wrap without a vacancy: the Subblock is congested.  The edge
    # still floating overflows to a child edgeblock.  If a displacement
    # happened along the way the argument edge was placed and a resident
    # overflows instead.
    return (
        CONGESTED,
        placed_slot,
        (find_len, size),
        placed_slot >= 0,
        swaps,
        float_dst,
        float_weight,
        float_cal,
    )
