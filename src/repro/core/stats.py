"""Instrumentation counters shared by all data structures.

Both GraphTinker and the STINGER baseline bump these counters at *block*
granularity (a Workblock fetch, an edgeblock traversal, a CAL block stream)
— never per cell — so that counting does not distort the behaviour being
measured.  The counters feed the memory-access cost model in
:mod:`repro.bench.costmodel`, which is how the benchmark harness reproduces
the paper's throughput *shapes* in pure Python (see DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class AccessStats:
    """Event counters for one data-structure instance.

    Attributes
    ----------
    workblock_fetches:
        Workblocks retrieved from the EdgeblockArray by the load unit
        (GraphTinker's DRAM-access granularity during updates).
    workblock_writebacks:
        Workblocks written back after a successful RHH insert or delete.
    cells_scanned:
        Edge-cells inspected inside fetched Workblocks (CPU work, not a
        DRAM event; kept for probe-distance diagnostics).
    rhh_swaps:
        Robin Hood displacement swaps performed.
    branch_descents:
        Tree-Based-Hashing descents from a Subblock into a child
        edgeblock (each is one random block access).
    branch_allocations:
        New child edgeblocks allocated in the overflow region.
    random_block_reads:
        Non-contiguous edgeblock reads (STINGER chain hops, incremental-
        mode per-vertex gathers, CAL random updates).
    seq_block_reads:
        Contiguous block reads (CAL streaming in full-processing mode).
    hash_lookups:
        Scatter-Gather-Hash table probes (O(1) hash accesses).
    cal_updates:
        Direct CAL slot writes via an edge's CAL-pointer.
    edges_inserted / edges_deleted / edges_found:
        Logical operation counts.
    tombstones_set / compaction_moves:
        Deletion bookkeeping (delete-only vs delete-and-compact).
    """

    workblock_fetches: int = 0
    workblock_writebacks: int = 0
    cells_scanned: int = 0
    rhh_swaps: int = 0
    branch_descents: int = 0
    branch_allocations: int = 0
    random_block_reads: int = 0
    seq_block_reads: int = 0
    hash_lookups: int = 0
    cal_updates: int = 0
    edges_inserted: int = 0
    edges_deleted: int = 0
    edges_found: int = 0
    tombstones_set: int = 0
    compaction_moves: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in STAT_FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> "AccessStats":
        """Return an independent copy of the current counts."""
        return AccessStats(*[getattr(self, name) for name in STAT_FIELDS])

    def delta(self, earlier: "AccessStats") -> "AccessStats":
        """Return counts accumulated since ``earlier`` (a prior snapshot)."""
        return AccessStats(
            *[getattr(self, name) - getattr(earlier, name) for name in STAT_FIELDS]
        )

    def merge(self, other: "AccessStats") -> None:
        """Accumulate ``other`` into ``self`` (used by partitioned instances)."""
        for name in STAT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def add_counts(self, counts) -> None:
        """Accumulate one value per :data:`STAT_FIELDS` name, in order
        (a row, or a column sum, of a per-row charge matrix)."""
        for name, value in zip(STAT_FIELDS, counts):
            if value:
                setattr(self, name, getattr(self, name) + int(value))

    def __iadd__(self, other: "AccessStats") -> "AccessStats":
        """``stats += delta`` — in-place accumulation, same as :meth:`merge`."""
        if not isinstance(other, AccessStats):
            return NotImplemented
        self.merge(other)
        return self

    def __add__(self, other: "AccessStats") -> "AccessStats":
        """``a + b`` — a merged *copy*; neither operand is mutated."""
        if not isinstance(other, AccessStats):
            return NotImplemented
        merged = self.snapshot()
        merged.merge(other)
        return merged

    def as_dict(self) -> dict[str, int]:
        """Return the counters as a plain dict (for reporting)."""
        return {name: getattr(self, name) for name in STAT_FIELDS}

    @property
    def total_block_accesses(self) -> int:
        """All block-granularity memory events, random and sequential."""
        return (
            self.workblock_fetches
            + self.workblock_writebacks
            + self.branch_descents
            + self.random_block_reads
            + self.seq_block_reads
            + self.cal_updates
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nz = {k: v for k, v in self.as_dict().items() if v}
        return f"AccessStats({nz})"


#: Counter names in declaration order: the columns of every per-row
#: charge matrix and of the deltas shard workers send their parent.
STAT_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(AccessStats))
