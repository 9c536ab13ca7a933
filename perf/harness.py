"""What the four workload drivers share: run context, op/check counting,
slice samples and the end-to-end metric arithmetic."""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from clock import RefClock, summary
from spans import Tracer

#: End-to-end metric names and units, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("update_edges_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("query_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics: (name, unit, better).  The traced run of every
#: workload emits all of them: the ``<layer>.calls/busy_s/self_s/share``
#: rows come from the spans of the workload's own traced pass, the rest from
#: the layer probes run on a prefix of the workload's edge stream.
_BACKENDS = ("graphtinker", "gt_plain", "stinger", "tiered")
PER_LAYER = tuple(
    [(f"{layer}.{col}", unit, "lower")
     for layer in ("core", "engine", "service", "net")
     for col, unit in (("calls", "count"), ("busy_s", "s"),
                       ("self_s", "s"), ("share", "ratio"))]
    + [("perf.outside_spans_share", "ratio", "lower"),
       ("perf.trace_overhead_share", "ratio", "lower"),
       ("perf.machine_slowdown", "ratio", "lower")]
    + [(f"core.insert_eps.{b}", "1/s", "higher") for b in _BACKENDS]
    + [(f"core.delete_eps.{b}", "1/s", "higher") for b in _BACKENDS]
    + [(f"core.modeled_cost_per_edge.{b}", "cycles", "lower")
       for b in _BACKENDS]
    + [(f"core.wall_ns_per_access.{b}", "ns", "lower") for b in _BACKENDS]
    + [("core.kernel_scalar_eps", "1/s", "higher"),
       ("core.kernel_vector_eps", "1/s", "higher"),
       ("core.insert_edge_us_p50", "us", "lower"),
       ("core.has_edge_us_p50", "us", "lower"),
       ("core.degree_us_p50", "us", "lower"),
       ("core.neighbors_us_p50", "us", "lower"),
       ("core.neighbors_many_eps", "1/s", "higher"),
       ("core.workblock_fetches_per_edge", "count", "lower"),
       ("core.branch_descents_per_edge", "count", "lower"),
       ("core.rhh_swaps_per_edge", "count", "lower"),
       ("core.hash_lookups_per_edge", "count", "lower"),
       ("core.cal_updates_per_edge", "count", "lower"),
       ("core.duplicate_share", "ratio", "lower"),
       ("core.bytes_per_live_edge", "B", "lower"),
       ("core.sharded.insert_eps.s1", "1/s", "higher"),
       ("core.sharded.insert_eps.s2", "1/s", "higher"),
       ("core.sharded.dispatch_tax", "ratio", "higher"),
       ("core.sharded.measured_speedup", "ratio", "higher"),
       ("core.sharded.modeled_makespan_speedup", "ratio", "higher"),
       ("core.sharded.neighbors_many_eps", "1/s", "higher"),
       ("engine.bfs_pass_ms_p50", "ms", "lower"),
       ("engine.sssp_pass_ms_p50", "ms", "lower"),
       ("engine.cc_pass_ms_p50", "ms", "lower"),
       ("engine.bfs_pass_ms_p50.full", "ms", "lower"),
       ("engine.bfs_pass_ms_p50.incremental", "ms", "lower"),
       ("engine.gather_eps.snapshot_on", "1/s", "higher"),
       ("engine.gather_eps.snapshot_off", "1/s", "higher"),
       ("engine.snapshot_patch_ms_p50", "ms", "lower"),
       ("engine.update_share", "ratio", "lower"),
       ("engine.fp_iteration_share", "ratio", "lower"),
       ("engine.iterations_per_pass", "count", "lower"),
       ("engine.edges_processed_per_graph_edge", "ratio", "lower"),
       ("engine.modeled_teps", "1/cycle", "higher"),
       ("service.ack_ms_p50", "ms", "lower"),
       ("service.ack_ms_p99", "ms", "lower"),
       ("service.wal.append_sync_ms_p50", "ms", "lower"),
       ("service.store_apply_ms_p50", "ms", "lower"),
       ("service.unattributed_ms_p50", "ms", "lower"),
       ("service.wal.syncs_per_ack", "ratio", "lower"),
       ("service.requests_per_flush", "ratio", "higher"),
       ("service.flushes_per_s", "1/s", "higher"),
       ("service.bulk_ingest_eps", "1/s", "higher"),
       ("service.wal.bytes_per_edge", "B", "lower"),
       ("service.checkpoint_s", "s", "lower"),
       ("service.checkpoint_bytes_per_edge", "B", "lower"),
       ("service.recover_records_per_s", "1/s", "higher"),
       ("service.recovery_s", "s", "lower"),
       ("net.ping_rtt_ms_p50", "ms", "lower"),
       ("net.degree_ms_p50", "ms", "lower"),
       ("net.neighbors_ms_p50", "ms", "lower"),
       ("net.khop_ms_p50", "ms", "lower"),
       ("net.insert_ack_ms_p50", "ms", "lower"),
       ("net.wire_overhead_ms_p50", "ms", "lower"),
       ("net.read_ms_p99", "ms", "lower"),
       ("net.write_ms_p99", "ms", "lower"),
       ("net.frame_encode_us_p50", "us", "lower"),
       ("net.frame_decode_us_p50", "us", "lower"),
       ("net.request_bytes_p50", "B", "lower"),
       ("net.response_bytes_p50", "B", "lower"),
       ("net.view_capture_ms_p50", "ms", "lower"),
       ("net.readview_degree_us_p50", "us", "lower"),
       ("net.readview_neighbors_us_p50", "us", "lower"),
       ("net.readview_khop_us_p50", "us", "lower"),
       ("net.pipelined_write_eps", "1/s", "higher"),
       ("net.retries", "count", "lower"),
       ("net.shed", "count", "lower"),
       ("net.typed_errors", "count", "lower"),
       ("net.generation_regressions", "count", "lower"),
       ("net.replication.catchup_records_per_s", "1/s", "higher"),
       ("obs.enabled_overhead_share", "ratio", "lower"),
       ("workloads.rmat_eps", "1/s", "higher")])

#: Per-layer metrics that are counts made by the program and must repeat
#: bit-for-bit for a seed.
EXACT = tuple(
    [f"core.modeled_cost_per_edge.{b}" for b in _BACKENDS]
    + ["core.workblock_fetches_per_edge", "core.branch_descents_per_edge",
       "core.rhh_swaps_per_edge", "core.hash_lookups_per_edge",
       "core.cal_updates_per_edge", "core.duplicate_share",
       "core.bytes_per_live_edge", "core.sharded.modeled_makespan_speedup",
       "engine.fp_iteration_share", "engine.iterations_per_pass",
       "engine.edges_processed_per_graph_edge", "engine.modeled_teps"])

#: Set-ups timed per run; ``setup_s`` is their median.
N_SETUPS = 3


class Checks:
    """Counts operations attempted and failed; a failed correctness check
    is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.messages) < 20:
            self.messages.append(message)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    quick: bool
    tmp: Path
    #: CPUs this process may use, read before any workload pins itself
    cpus: tuple[int, ...]
    clock: RefClock
    tracer: Tracer
    checks: Checks = field(default_factory=Checks)
    notes: dict = field(default_factory=dict)


class Slices:
    """Timed slices: ``(kind, position, units, wall_seconds, slowdown)``.

    ``position`` identifies slices that do identical work in every repeat
    (the k-th insert batch of a load); a workload whose slices are all
    alike leaves it ``None``.  Every figure is in reference-seconds (wall /
    slowdown, see ``clock.py``) unless ``raw`` asks for plain wall-clock.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[str, object, float, float, float]] = []
        #: wall time the slices covered: the base of the layer shares
        self.wall_s = 0.0

    def add(self, kind: str, units: float, wall_s: float, factor: float,
            pos=None) -> None:
        """One slice of ``wall_s`` seconds run at machine slowdown
        ``factor`` (see :meth:`clock.RefClock.factor`)."""
        self.rows.append((kind, pos, float(units), wall_s, factor))
        self.wall_s += wall_s

    def _of(self, kind: str, raw: bool):
        return [(pos, units, wall if raw else wall / factor)
                for k, pos, units, wall, factor in self.rows if k == kind]

    def rate(self, kind: str, raw: bool = False) -> float:
        """Units per second: per position the median over repeats, summed
        over positions (a plain sum when slices carry no position)."""
        units = seconds = 0.0
        by_pos: dict = {}
        for pos, u, s in self._of(kind, raw):
            if pos is None:
                units += u
                seconds += s
            else:
                by_pos.setdefault(pos, []).append((u, s))
        for repeats in by_pos.values():
            units += statistics.median(u for u, _ in repeats)
            seconds += statistics.median(s for _, s in repeats)
        return units / seconds

    def per_call_ms(self, kind: str, per_unit: bool = False,
                    raw: bool = False) -> dict:
        """Summary of slice durations in ms (per unit when asked)."""
        return summary((s / u if per_unit else s) * 1e3
                       for _, u, s in self._of(kind, raw))

    def seconds(self, kind: str | None = None) -> float:
        """Σ reference-seconds of one kind of slice (default: all)."""
        return sum(wall / factor for k, _, _, wall, factor in self.rows
                   if kind is None or k == kind)

    def count(self, *kinds: str) -> int:
        return sum(1 for row in self.rows if row[0] in kinds)


@contextmanager
def quiet_gc():
    """Collect, then keep the collector out of the timed region."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed_setups(ctx: Ctx, setup, teardown):
    """Run ``setup`` :data:`N_SETUPS` times (tearing the earlier ones down);
    return ``(state_of_the_last, summary_of_setup_reference_seconds)``."""
    times = []
    state = None
    for _ in range(N_SETUPS):
        if state is not None:
            teardown(state)
        state, ref_s = ctx.clock.timed(setup)
        times.append(ref_s)
    return state, summary(times)


class Deadline:
    """Loop guard: ``while deadline.more(done)`` runs at least ``at_least``
    units and then until ``seconds`` have passed, or exactly ``exactly``
    units when that is given (the traced run does fixed work)."""

    def __init__(self, seconds: float, at_least: int = 1,
                 exactly: int | None = None):
        self.end = time.monotonic() + seconds
        self.at_least = at_least
        self.exactly = exactly

    def more(self, done: int) -> bool:
        if self.exactly is not None:
            return done < self.exactly
        return done < self.at_least or time.monotonic() < self.end
