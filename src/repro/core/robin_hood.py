"""Robin Hood Hashing within a Subblock (paper Sec. III.A).

A Subblock is a tiny open-addressing hash table (default 8 edge-cells)
embedded in an edgeblock row.  Edges probe linearly from their initial
bucket, wrapping *within the Subblock*; on collision the "richer" edge
(smaller probe distance) is displaced so probe distances stay balanced.
When a Subblock cannot absorb an edge it is *congested* and Tree-Based
Hashing branches out to a child edgeblock (handled by the caller,
:mod:`repro.core.edgeblock_array`).

The load unit retrieves a Subblock one Workblock at a time (paper
Sec. III.B), so this module reports how many distinct Workblocks each
operation touched; those counts feed the DRAM-access cost model.

One probe core, two drivers
---------------------------
:func:`rhh_find` and :func:`rhh_insert` are the only probe loops in the
package.  They work on plain Python sequences holding one Subblock's
fields and never touch :class:`~repro.core.stats.AccessStats`: they
*return* the scan lengths, swap count and writeback flag, and the driver
charges them.  The per-op driver
(:class:`~repro.core.edgeblock_array.EdgeblockArray` — the specification
and the single-edge API) copies a Subblock out, calls the core once and
stores it back; the per-chunk batch driver (:mod:`repro.core.kernels`)
keeps the copies alive across a whole chunk and sums the charges in
local ints.  Same core, so the two cannot drift.

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

from repro.core.pool import EMPTY, TOMBSTONE
from repro.core.stats import AccessStats

#: Insert outcomes.
INSERTED = 0  #: edge placed in this Subblock
UPDATED = 1  #: edge already present; weight overwritten
CONGESTED = 2  #: Subblock full; caller must branch out with the overflow edge

#: Cell-state sentinels as Python ints (the probe loops compare against
#: ``tolist`` output; a NumPy scalar on one side would box every test).
_EMPTY = int(EMPTY)
_TOMBSTONE = int(TOMBSTONE)

#: Edge-cell fields in the order :func:`rhh_insert` takes their sequences.
CELL_FIELDS = ("dst", "weight", "probe", "cal_block", "cal_slot")


def _circular_workblocks(start: int, length: int, workblock: int, size: int) -> int:
    """Distinct Workblocks covered by a circular scan of ``length`` cells.

    The scan starts at ``start`` and wraps within the Subblock (``size``
    cells; a multiple of ``workblock`` by configuration), so the covered
    cells are one or two contiguous segments — no per-cell set needed.
    """
    if length <= 0:
        return 0
    if length >= size:
        return size // workblock
    end = start + length  # exclusive
    if end <= size:
        return (end - 1) // workblock - start // workblock + 1
    # wrapped: [start, size) plus [0, end - size).  The wrapped tail ends
    # below `start` (length < size), so it can only re-enter one already
    # counted Workblock: the one containing `start`.
    first = (size - 1) // workblock - start // workblock + 1
    tail_last = end - size - 1
    second = tail_last // workblock + 1
    overlap = 1 if tail_last // workblock == start // workblock else 0
    return first + second - overlap


def _charge_scan(stats: AccessStats, start: int, lengths: tuple[int, ...],
                 workblock: int, size: int) -> None:
    """Charge fetches/cells for one or more scan passes from ``start``.

    All passes of one operation start at the same initial bucket, so
    their Workblock *fetch* union is the longest pass's range (a fetched
    Workblock stays loaded for the whole operation), while *cells
    scanned* accumulates every pass's inspections.
    """
    stats.workblock_fetches += _circular_workblocks(start, max(lengths), workblock, size)
    stats.cells_scanned += sum(lengths)


def rhh_find(
    dsts: list,
    dst: int,
    init_bucket: int,
    rhh_mode: bool,
) -> tuple[int, int]:
    """Search one Subblock for ``dst``; return ``(slot, scan_len)``.

    ``dsts`` is the Subblock's ``dst`` field as a plain sequence of
    Python ints (one bulk ``tolist`` beats per-cell structured-scalar
    reads in this hot loop).  The scan starts at ``init_bucket`` and
    wraps within the Subblock.  ``slot`` is ``-1`` when absent and
    ``scan_len`` is the number of cells inspected, which the driver
    feeds to :func:`_charge_scan`.
    """
    size = len(dsts)
    empty = _EMPTY
    for distance in range(size):
        slot = init_bucket + distance
        if slot >= size:
            slot -= size
        cell_dst = dsts[slot]
        if cell_dst == dst:
            return slot, distance + 1
        if rhh_mode and cell_dst == empty:
            return -1, distance + 1
    return -1, size


def rhh_insert(
    dsts: list,
    weights: list,
    probes: list,
    cal_blocks: list,
    cal_slots: list,
    dst: int,
    weight: float,
    init_bucket: int,
    enable_rhh: bool,
    cal_block: int = -1,
    cal_slot: int = -1,
) -> tuple:
    """Insert ``(dst, weight)`` into one Subblock.

    The Subblock is five parallel sequences of Python ints/floats (in
    :data:`CELL_FIELDS` order), mutated in place.  Runs the FIND stage
    first (update-in-place if the edge exists), then the INSERT stage.
    With ``enable_rhh`` the Robin Hood displacement algorithm balances
    probe distances; without it (delete-and-compact configuration) a
    plain linear probe to the first vacant cell is used.

    Returns the outcome and every charge it implies, for the driver to
    apply:

    ``(status, slot, lengths, wrote, swaps, o_dst, o_weight, o_cal_block, o_cal_slot)``

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
    find_len = 0
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
        return (UPDATED, found_slot, (find_len,), True, 0, -1, 0.0, -1, -1)

    # --- INSERT stage. ---------------------------------------------------
    if not enable_rhh:
        if first_vacant < 0:
            return (CONGESTED, -1, (find_len,), False, 0, dst, weight, cal_block, cal_slot)
        dsts[first_vacant] = dst
        weights[first_vacant] = weight
        probes[first_vacant] = _distance(init_bucket, first_vacant, size)
        cal_blocks[first_vacant] = cal_block
        cal_slots[first_vacant] = cal_slot
        return (INSERTED, first_vacant, (find_len,), True, 0, -1, 0.0, -1, -1)

    # Robin Hood displacement: walk the probe path with a floating edge,
    # swapping whenever the floating edge is strictly poorer than the
    # resident.  The walk is bounded by one full wrap of the Subblock, so
    # it visits each slot at most once and never re-reads a cell it wrote.
    float_dst = dst
    float_weight = weight
    float_probe = 0
    float_cal_block = cal_block
    float_cal_slot = cal_slot
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
            cal_blocks[slot] = float_cal_block
            cal_slots[slot] = float_cal_slot
            if placed_slot < 0:
                placed_slot = slot
            return (INSERTED, placed_slot, (find_len, steps + 1), True, swaps, -1, 0.0, -1, -1)
        resident_probe = probes[slot]
        if float_probe > resident_probe:
            # Swap: the floating edge takes the bucket, the resident floats.
            swaps += 1
            r_dst = dsts[slot]
            r_weight = weights[slot]
            r_cal_block = cal_blocks[slot]
            r_cal_slot = cal_slots[slot]
            dsts[slot] = float_dst
            weights[slot] = float_weight
            probes[slot] = float_probe
            cal_blocks[slot] = float_cal_block
            cal_slots[slot] = float_cal_slot
            if placed_slot < 0:
                placed_slot = slot
            float_dst = r_dst
            float_weight = r_weight
            float_probe = resident_probe
            float_cal_block = r_cal_block
            float_cal_slot = r_cal_slot
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
        float_cal_block,
        float_cal_slot,
    )


def _distance(init_bucket: int, slot: int, size: int) -> int:
    """Wrapped probe distance from ``init_bucket`` to ``slot``."""
    d = slot - init_bucket
    return d if d >= 0 else d + size
