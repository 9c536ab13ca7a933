"""GraphTinker's interface components (paper Fig. 2).

The paper decomposes the data structure's operation into cooperating
units: the Scatter-Gather Hashing unit, the *load* unit (fetches the
relevant Workblocks for the incoming edge), the *find-edge* and
*insert-edge* units (FIND / UPDATE modes of the RHH process), the
*inference* and *interval* units (control flow across Workblock
retrievals of the vertex under inspection), and the *writeback* unit.

The mechanics live in one place each — the probe core in
:mod:`repro.core.robin_hood`, the descent in
:mod:`repro.core.edgeblock_array`, the degree/CAL/snapshot bookkeeping in
:class:`~repro.core.graphtinker.GraphTinker` — and this module carries
none of them.  A traced update *is* the facade call; the
:class:`UnitTrace` is read off what that call reports: its return value,
its :class:`~repro.core.stats.AccessStats` delta (Workblock fetches are
the load unit's work, INSERT-stage branch descents are inference
decisions, writebacks are the writeback unit's) and the edge's
:class:`~repro.core.edgeblock_array.EdgeLocation` and CAL-pointer before
and after.  The test suite uses the traces to pin the control-flow
contract; they also serve as executable documentation of Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.edgeblock_array import MAIN, EdgeLocation
from repro.core.graphtinker import GraphTinker
from repro.core.stats import AccessStats


@dataclass
class UnitTrace:
    """Record of one update's flow through the Fig. 2 units.

    Each entry of ``steps`` is ``(unit, detail)`` in Fig. 2 order,
    e.g. ``("sgh", "34 -> 0")``, ``("load", "2 workblocks")``,
    ``("insert-edge", "block M0 slot 5")``, ``("writeback", "1 workblock")``.
    """

    steps: list[tuple[str, str]] = field(default_factory=list)

    def record(self, unit: str, detail: str) -> None:
        self.steps.append((unit, detail))

    def units_used(self) -> list[str]:
        return [u for u, _ in self.steps]


class GraphTinkerUnits:
    """Traced driver over a :class:`GraphTinker` instance."""

    def __init__(self, gt: GraphTinker):
        self.gt = gt

    def _peek(self, src: int, dst: int) -> tuple[int | None, EdgeLocation | None, AccessStats]:
        """FIND ``(src, dst)`` and refund the charge.

        Returns ``(dense_src, location, cost)``: the dense id (``None``
        for a source SGH has never seen), where the edge lives (``None``
        if absent) and what the FIND stage alone costs — which is what
        separates INSERT-stage descents from FIND-stage ones in the
        facade call's delta.
        """
        gt = self.gt
        backup = gt.stats.snapshot()
        dense_src = gt._dense(src, create=False)
        location = None
        if dense_src is not None and int(dst) >= 0:
            location = gt.eba.find(dense_src, dst)
        cost = gt.stats.delta(backup)
        gt.stats.reset()
        gt.stats.merge(backup)
        return dense_src, location, cost

    def _record_sgh(self, trace: UnitTrace, src: int, dense_src: int | None) -> None:
        if self.gt.sgh is None:
            trace.record("sgh", "bypassed")
        elif dense_src is None:
            trace.record("sgh", f"{src} unknown")
        else:
            trace.record("sgh", f"{src} -> {dense_src}")

    def insert_edge_traced(self, src: int, dst: int, weight: float = 1.0) -> tuple[bool, UnitTrace]:
        """:meth:`GraphTinker.insert_edge`, returning ``(is_new, trace)``."""
        gt = self.gt
        trace = UnitTrace()
        _, _, find_cost = self._peek(src, dst)
        before = gt.stats.snapshot()
        is_new = gt.insert_edge(src, dst, weight)
        delta = gt.stats.delta(before)
        dense_src, location, _ = self._peek(src, dst)

        self._record_sgh(trace, src, dense_src)
        trace.record("load", f"{delta.workblock_fetches} workblocks")
        if not is_new:
            trace.record("find-edge", f"hit at {tuple(location)}")
            trace.record("writeback", "weight update")
            if delta.cal_updates:
                trace.record("writeback", "CAL weight update")
            return False, trace
        trace.record("find-edge", "miss (all generations)")
        descents = delta.branch_descents - find_cost.branch_descents
        if descents:
            trace.record(
                "inference",
                f"congested -> {descents} descents, "
                f"{delta.branch_allocations} new edgeblocks",
            )
        tag = "M" if location.region == MAIN else "O"
        trace.record("insert-edge", f"block {tag}{location.block} slot {location.slot}")
        trace.record("writeback", f"{delta.workblock_writebacks} workblocks")
        if gt.cal is not None:
            trace.record("writeback", f"CAL copy @{gt.eba.get_cal_pointer(location)}")
        return True, trace

    def delete_edge_traced(self, src: int, dst: int) -> tuple[bool, UnitTrace]:
        """:meth:`GraphTinker.delete_edge`, returning ``(deleted, trace)``.

        Deletion locates the edge through the same Workblock-retrieval
        pipeline (FIND mode of the find-edge unit), then the writeback
        unit tombstones the cell and invalidates the CAL copy.
        """
        gt = self.gt
        trace = UnitTrace()
        dense_src, location, _ = self._peek(src, dst)
        had_cal_copy = location is not None and gt.eba.get_cal_pointer(location) >= 0
        before = gt.stats.snapshot()
        deleted = gt.delete_edge(src, dst)
        delta = gt.stats.delta(before)

        self._record_sgh(trace, src, dense_src)
        if dense_src is None:
            return deleted, trace
        trace.record("load", f"{delta.workblock_fetches} workblocks")
        if not deleted:
            trace.record("find-edge", "miss (all generations)")
            return False, trace
        trace.record("find-edge", f"hit at {tuple(location)}")
        trace.record("writeback", "tombstone")
        if had_cal_copy:
            if gt.config.compact_on_delete:
                trace.record("writeback", "CAL compact-delete")
                if delta.edges_found:
                    # Only the re-point's owner lookup counts a found
                    # edge inside a delete.
                    trace.record("writeback", "re-point moved CAL copy")
            else:
                trace.record("writeback", "CAL invalidate")
        return True, trace
