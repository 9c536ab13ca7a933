"""Crash recovery: latest checkpoint + idempotent WAL tail replay.

The protocol (docs/service.md has the full diagram):

1. Restore the newest checkpoint that loads cleanly, rebuilding the
   store under the writer's embedded :class:`~repro.core.config.GTConfig`
   (or a caller-supplied one).  No checkpoint at all is fine: recovery
   starts from an empty store at sequence 0.
2. Physically truncate a torn final record (so the on-disk log is
   clean and a *second* recovery sees exactly the same bytes — recovery
   is idempotent).
3. Replay the WAL in sequence order, **skipping** every record with
   ``seq <= checkpoint.last_seq`` (already inside the snapshot) and
   applying the rest through :func:`~repro.service.wal.apply`, as a
   writer's flush and a follower's shipped record are applied.  A gap
   between the checkpoint's cursor and the first surviving WAL record —
   or between two WAL records — raises
   :class:`~repro.errors.ServiceError`; the missing updates cannot be
   reconstructed.

The log is one chain whatever the store: a sharded store takes each
record through its own batch path, which scatters the rows to the shard
workers (docs/sharding.md), so a directory recovers under any shard
count.

Everything is observable through ``service.recovery.*`` metrics
(replayed/skipped record and edge counts, the checkpoint sequence, torn
truncations) and a ``service.recovery`` span when :mod:`repro.obs` is
enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import repro.obs as obs
from repro.core.store import store_from_config
from repro.errors import ServiceError
from repro.obs import hooks as obs_hooks
from repro.service import wal as wal_mod
from repro.service.checkpoint import latest_checkpoint


@dataclass
class RecoveryResult:
    """What recovery rebuilt and how it got there."""

    store: object          # any repro.core.store.Store backend
    last_seq: int            # sequence the store now reflects
    cum_edges: int           # input rows consumed through last_seq
    checkpoint_seq: int      # 0 when no checkpoint was used
    checkpoint_path: Path | None
    replayed_records: int = 0
    replayed_edges: int = 0
    skipped_records: int = 0
    torn_offset: int | None = None
    replayed_seqs: list[int] = field(default_factory=list)
    #: Post-recovery fsck outcome (a ``repro.core.verify.VerifyReport``),
    #: or ``None`` when verification was disabled.  Never raises: a CRC
    #: check can only vouch for the *bytes* of a checkpoint, so recovery
    #: audits the rebuilt structure and lets the caller decide whether a
    #: violated store may serve.
    fsck: object | None = None
    #: Flight-recorder style post-mortem summary of this recovery (always
    #: populated — the facts are free).  With observability enabled the
    #: same summary is also dumped as ``blackbox-recovery.json`` in the
    #: service directory for ``python -m repro blackbox``.
    blackbox: dict | None = None


def _publish(result: RecoveryResult) -> None:
    if not obs_hooks.enabled:
        return
    registry = obs.get_registry()
    registry.counter("service.recovery.runs").inc()
    registry.counter("service.recovery.replayed_records").inc(
        result.replayed_records)
    registry.counter("service.recovery.replayed_edges").inc(
        result.replayed_edges)
    registry.counter("service.recovery.skipped_records").inc(
        result.skipped_records)
    registry.gauge("service.recovery.checkpoint_seq").set(result.checkpoint_seq)
    registry.gauge("service.recovery.last_seq").set(result.last_seq)
    if result.torn_offset is not None:
        registry.counter("service.recovery.torn_truncated").inc()
    if result.fsck is not None:
        registry.gauge("service.recovery.fsck_violations").set(
            len(result.fsck.violations))


def _replay(directory: Path, store, result: RecoveryResult) -> None:
    """Apply every record past the checkpoint's cursor, in sequence order."""
    result.torn_offset = wal_mod.truncate_torn_tail(directory)
    for record in wal_mod.iter_records(directory):
        if record.seq <= result.last_seq:
            result.skipped_records += 1
            continue
        if record.seq != result.last_seq + 1:
            raise ServiceError(
                f"{directory}: WAL sequence gap — store is at "
                f"{result.last_seq} but the next surviving record is "
                f"{record.seq}; updates in between are lost"
            )
        wal_mod.apply(store, record.op, record.edges, record.weights)
        result.last_seq, result.cum_edges = record.seq, record.cum_edges
        result.replayed_records += 1
        result.replayed_edges += record.n_edges
        result.replayed_seqs.append(record.seq)


def recover(directory: str | Path, config=None,
            verify: str | None = "quick") -> RecoveryResult:
    """Rebuild the service store from ``directory``.

    ``config`` overrides the checkpoint's embedded writer config (useful
    to recover a delete-only log into a compacting store, or onto a
    different backend entirely); with neither, paper defaults apply.
    The backend is chosen from the config via
    :func:`repro.core.store.store_from_config`, so a checkpoint written
    by a STINGER or tiered store recovers into the same backend.

    ``verify`` selects the bounded post-recovery fsck level (``"quick"``
    by default — the vectorised degree/duplicate/count invariants;
    ``"full"`` for the per-cell audit; ``None`` to skip).  The result
    lands in :attr:`RecoveryResult.fsck`; a violated store is *returned*,
    not raised — the caller (service, CLI) owns the serve/refuse call.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ServiceError(f"{directory}: no such service directory")
    with obs.span("service.recovery", directory=str(directory)) as span:
        checkpoint = latest_checkpoint(directory)
        if checkpoint is not None:
            if config is None:
                config = checkpoint.snapshot.writer_config
            store = store_from_config(config)
            store.insert_batch(checkpoint.snapshot.edges,
                               checkpoint.snapshot.weights)
            last_seq = checkpoint.last_seq
            cum_edges = checkpoint.cum_edges
        else:
            store = store_from_config(config)
            last_seq = 0
            cum_edges = 0

        result = RecoveryResult(
            store=store, last_seq=last_seq, cum_edges=cum_edges,
            checkpoint_seq=last_seq,
            checkpoint_path=checkpoint.path if checkpoint else None,
        )
        _replay(directory, store, result)
        if verify is not None:
            result.fsck = store.fsck(level=verify)
            span.set_attr("fsck_violations", len(result.fsck.violations))
        span.set_attr("replayed_records", result.replayed_records)
        span.set_attr("checkpoint_seq", result.checkpoint_seq)
    result.blackbox = {
        "reason": "recovery",
        "directory": str(directory),
        "checkpoint_seq": result.checkpoint_seq,
        "checkpoint_path": (str(result.checkpoint_path)
                            if result.checkpoint_path else None),
        "last_seq": result.last_seq,
        "cum_edges": result.cum_edges,
        "replayed_records": result.replayed_records,
        "replayed_edges": result.replayed_edges,
        "skipped_records": result.skipped_records,
        "torn_truncated": result.torn_offset is not None,
        "fsck_violations": (len(result.fsck.violations)
                            if result.fsck is not None else None),
    }
    _publish(result)
    if obs_hooks.enabled:
        from repro.obs.recorder import blackbox_path, get_recorder

        recorder = get_recorder()
        recorder.record("recovery", **result.blackbox)
        context = {k: v for k, v in result.blackbox.items() if k != "reason"}
        try:
            recorder.dump(blackbox_path(directory, "recovery"), "recovery",
                          **context)
        except Exception:  # noqa: BLE001 - post-mortem is best-effort
            pass
    return result
