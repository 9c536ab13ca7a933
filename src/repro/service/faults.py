"""Fault injection: crashes, transient I/O errors, and store corruption.

Three fault families drive the robustness machinery:

* **Crash at a byte** (:class:`FaultInjector` / :class:`CrashableFile` /
  :class:`FaultyWriteAheadLog`) — simulate ``kill -9`` mid-``write(2)``
  at an exact global WAL byte offset, leaving a torn record on disk.
  Exercises recovery (PR 2).
* **Transient WAL I/O errors** (:class:`TransientFaultInjector` /
  :class:`FlakyWriteAheadLog` / :class:`InjectedWalFault`) — scheduled
  ``OSError``-family failures on append/sync, the kind a real disk or
  filesystem produces under pressure and then stops producing.
  Exercises the service's retry/backoff and circuit breaker.
* **Store corruption** (:class:`StoreCorruptor`) — in-memory damage to a
  live GraphTinker: bit flips in edgeblock cells, drifted degree
  counters, zapped CAL slots, truncated overflow pools.  Exercises the
  fsck (:mod:`repro.core.verify`) and its self-healing repair.

The crash injector counts bytes across segment rotations, so an offset
can land inside any segment, inside a record header, inside a payload,
or even inside the 8-byte segment magic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.service.wal import WriteAheadLog


class SimulatedCrash(ReproError):
    """The injected kill point was reached; the writer 'process' died."""


class FaultInjector:
    """Shared byte budget across every file the faulty WAL opens."""

    def __init__(self, crash_at_bytes: int):
        if crash_at_bytes < 0:
            raise ValueError("crash offset must be non-negative")
        self.crash_at_bytes = crash_at_bytes
        self.written = 0
        self.fired = False

    def wrap(self, file) -> "CrashableFile":
        return CrashableFile(file, self)


class CrashableFile:
    """File proxy that truncates the fatal write and raises."""

    def __init__(self, file, injector: FaultInjector):
        self._file = file
        self._injector = injector

    def write(self, data: bytes) -> int:
        inj = self._injector
        room = inj.crash_at_bytes - inj.written
        if len(data) <= room:
            inj.written += len(data)
            return self._file.write(data)
        # The kill lands mid-write: only the prefix reaches the OS.
        if room > 0:
            self._file.write(data[:room])
            inj.written = inj.crash_at_bytes
        self._file.flush()
        inj.fired = True
        raise SimulatedCrash(
            f"simulated kill at WAL byte offset {inj.crash_at_bytes} "
            f"(write of {len(data)} bytes torn after {max(room, 0)})"
        )

    def __getattr__(self, name):
        return getattr(self._file, name)


class _CrashableChain(WriteAheadLog.chain_cls):
    def _open_segment(self) -> None:
        super()._open_segment()
        self._file = self.log.injector.wrap(self._file)


class FaultyWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` whose segment files die on schedule."""

    chain_cls = _CrashableChain

    def __init__(self, *args, injector: FaultInjector, **kwargs):
        self.injector = injector
        super().__init__(*args, **kwargs)


# --------------------------------------------------------------------- #
# transient WAL I/O faults (retry / circuit-breaker fodder)
# --------------------------------------------------------------------- #
class InjectedWalFault(OSError):
    """A scheduled transient WAL I/O failure.

    Subclasses :class:`OSError` on purpose: the service's retry and
    circuit-breaker logic classifies *real* disk errors by that type, so
    the injected kind must travel the same pipes.
    """


class TransientFaultInjector:
    """Deterministic schedule of transient WAL append failures.

    Parameters
    ----------
    fail_every:
        Records whose sequence number is a multiple of this fail (0
        disables injection entirely).
    fail_times:
        Consecutive attempts that fail per faulty sequence before the
        operation succeeds — models a glitch that clears after retries.
    hard:
        Every attempt on a faulty sequence fails, forever — models a
        dead disk; drives the circuit breaker open.
    total:
        Overall cap on injected failures (``None`` = unlimited).
    """

    def __init__(self, fail_every: int = 1, fail_times: int = 1, *,
                 hard: bool = False, total: int | None = None):
        if fail_every < 0:
            raise ValueError("fail_every must be non-negative")
        if fail_times < 1:
            raise ValueError("fail_times must be at least 1")
        self.fail_every = fail_every
        self.fail_times = fail_times
        self.hard = hard
        self.total = total
        self.injected = 0
        self._attempts: dict[int, int] = {}

    def should_fail(self, seq: int) -> bool:
        """Consume one attempt on ``seq``; True if it must fail."""
        if self.fail_every <= 0 or seq % self.fail_every:
            return False
        if self.total is not None and self.injected >= self.total:
            return False
        attempts = self._attempts.get(seq, 0)
        self._attempts[seq] = attempts + 1
        if self.hard or attempts < self.fail_times:
            self.injected += 1
            return True
        return False


class _FlakyChain(WriteAheadLog.chain_cls):
    def _write_blob(self, blob: bytes) -> None:
        if self.log.injector.should_fail(self.next_seq):
            self._file.write(blob[: max(1, len(blob) // 2)])
            self._file.flush()
            raise InjectedWalFault(
                f"injected transient WAL failure at seq {self.next_seq}")
        super()._write_blob(blob)


class FlakyWriteAheadLog(WriteAheadLog):
    """A :class:`WriteAheadLog` whose appends fail transiently on schedule.

    A scheduled failure lands *half* the record's bytes before raising
    :class:`InjectedWalFault`, so the appender's rollback (truncate back
    to the record boundary) is genuinely exercised — a retry must find a
    record-aligned log.
    """

    chain_cls = _FlakyChain

    def __init__(self, *args, injector: TransientFaultInjector, **kwargs):
        self.injector = injector
        super().__init__(*args, **kwargs)


# --------------------------------------------------------------------- #
# store-level corruption (fsck fodder)
# --------------------------------------------------------------------- #
class CorruptionError(ReproError):
    """A requested corruption kind has no viable target in this store."""


class InjectedCorruption:
    """Record of one applied corruption (kind + human-readable detail)."""

    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"InjectedCorruption({self.kind}: {self.detail})"


class StoreCorruptor:
    """Deterministic in-memory damage to a live GraphTinker store.

    Each kind models a distinct hardware/logic failure the fsck must
    catch:

    * ``bitflip`` — flip one low bit of a live edge-cell's destination
      (a DRAM bit flip; breaks hash placement and/or the CAL copy).
    * ``degree`` / ``vpa-degree`` — drift a per-vertex degree counter
      (a lost update).
    * ``cal-src`` / ``cal-dst`` — damage a live CAL slot's source or
      destination field (the copy no longer matches its owner).
    * ``truncate`` — return a live overflow edgeblock to the free-list
      while its parent still points at it (a truncated pool; the
      subtree's edges vanish).
    * ``sgh`` — break one reverse-mapping entry of the SGH renaming
      table.

    Kinds whose structures are disabled (or empty) in the target store
    raise :class:`CorruptionError` so tests fail loudly instead of
    silently testing nothing.
    """

    KINDS = ("bitflip", "degree", "vpa-degree", "cal-src", "cal-dst",
             "truncate", "sgh")

    def __init__(self, gt, seed: int = 0):
        self.gt = gt
        self.rng = np.random.default_rng(seed)

    # -- target discovery ---------------------------------------------- #
    def _live_cells(self) -> list[tuple[int, int, int, int]]:
        """All live edge-cells as ``(src, region, block, slot)``."""
        from repro.core.edgeblock_array import MAIN, OVERFLOW

        eba = self.gt.eba
        freed = set(eba.overflow._free)
        out: list[tuple[int, int, int, int]] = []
        for src in range(eba.n_vertices):
            stack = [(MAIN, src)]
            seen: set[tuple[int, int]] = set()
            while stack:
                region, block = stack.pop()
                if (region, block) in seen:
                    continue
                seen.add((region, block))
                row = eba._pool(region).row(block)
                for slot in np.flatnonzero(row["dst"] >= 0).tolist():
                    out.append((src, region, block, slot))
                children = eba._children(region).row(block)
                for child in children[children >= 0].tolist():
                    if int(child) not in freed:
                        stack.append((OVERFLOW, int(child)))
        return out

    def _live_cal_slots(self) -> list[tuple[int, int]]:
        from repro.core.cal import CAL_INVALID

        cal = self.gt.cal
        freed = set(cal.pool._free)
        out: list[tuple[int, int]] = []
        for block in range(cal.pool.high_water):
            if block in freed:
                continue
            row = cal.pool.row(block)
            for slot in np.flatnonzero(row["src"] != CAL_INVALID).tolist():
                out.append((block, slot))
        return out

    def _pick(self, candidates: list, what: str):
        if not candidates:
            raise CorruptionError(f"no viable target for {what}")
        return candidates[int(self.rng.integers(len(candidates)))]

    # -- corruption kinds ---------------------------------------------- #
    def corrupt(self, kind: str) -> InjectedCorruption:
        gt = self.gt
        if kind == "bitflip":
            src, region, block, slot = self._pick(self._live_cells(),
                                                  "bitflip")
            row = gt.eba._pool(region).row(block)
            old = int(row["dst"][slot])
            new = old ^ (1 << int(self.rng.integers(0, 8)))
            row["dst"][slot] = new
            return InjectedCorruption(kind, (
                f"flipped dst of cell r{region}b{block}s{slot} "
                f"(vertex {src}): {old} -> {new}"))
        if kind == "degree":
            v = self._pick([v for v in range(gt.eba.n_vertices)
                            if gt.eba.degree(v) > 0], "degree")
            delta = int(self.rng.integers(1, 4))
            gt.eba._degrees[v] += delta
            return InjectedCorruption(kind, (
                f"drifted EBA degree of vertex {v} by +{delta}"))
        if kind == "vpa-degree":
            v = self._pick([v for v in range(gt.eba.n_vertices)
                            if gt.eba.degree(v) > 0], "vpa-degree")
            delta = int(self.rng.integers(1, 4))
            gt.vpa.ensure(v)
            gt.vpa._degree[v] += delta
            return InjectedCorruption(kind, (
                f"drifted VPA degree of vertex {v} by +{delta}"))
        if kind in ("cal-src", "cal-dst"):
            if gt.cal is None:
                raise CorruptionError("store has no CAL to corrupt")
            block, slot = self._pick(self._live_cal_slots(), kind)
            row = gt.cal.pool.row(block)
            field = "src" if kind == "cal-src" else "dst"
            old = int(row[field][slot])
            new = old + 1 if kind == "cal-src" else old ^ 1
            row[field][slot] = new
            return InjectedCorruption(kind, (
                f"damaged CAL slot ({block}, {slot}) {field}: "
                f"{old} -> {new}"))
        if kind == "truncate":
            blocks = list(gt.eba.overflow.iter_used())
            block = self._pick(blocks, "truncate (no overflow blocks)")
            gt.eba.overflow.free(block)
            return InjectedCorruption(kind, (
                f"returned live overflow block {block} to the free-list "
                f"(parent pointer left dangling)"))
        if kind == "sgh":
            if gt.sgh is None:
                raise CorruptionError("store has no SGH to corrupt")
            if not len(gt.sgh):
                raise CorruptionError("SGH is empty")
            dense = int(self.rng.integers(len(gt.sgh)))
            old = int(gt.sgh._reverse[dense])
            gt.sgh._reverse[dense] = old + 1
            return InjectedCorruption(kind, (
                f"broke SGH reverse[{dense}]: {old} -> {old + 1}"))
        raise ValueError(f"unknown corruption kind {kind!r} "
                         f"(choose from {self.KINDS})")

    def corrupt_random(self, n: int = 1,
                       kinds: tuple[str, ...] | None = None,
                       ) -> list[InjectedCorruption]:
        """Apply ``n`` random corruptions, skipping non-viable kinds."""
        pool = list(kinds if kinds is not None else self.KINDS)
        applied: list[InjectedCorruption] = []
        attempts = 0
        while len(applied) < n and attempts < n * 10:
            attempts += 1
            kind = pool[int(self.rng.integers(len(pool)))]
            try:
                applied.append(self.corrupt(kind))
            except CorruptionError:
                continue
        return applied
