"""Crash recovery: latest checkpoint + idempotent WAL tail replay.

The protocol (docs/service.md has the full diagram):

1. Restore the newest checkpoint that loads cleanly, rebuilding the
   store under the writer's embedded :class:`~repro.core.config.GTConfig`
   (or a caller-supplied one).  No checkpoint at all is fine: recovery
   starts from an empty store at sequence 0.
2. Physically truncate a torn final record of every chain (so the
   on-disk log is clean and a *second* recovery sees exactly the same
   bytes — recovery is idempotent).
3. Replay the WAL in sequence order, **skipping** every record with
   ``seq <= checkpoint.last_seq`` (already inside the snapshot) and
   applying the rest through the normal batch paths.  A gap between the
   checkpoint's cursor and the first surviving WAL record — or between
   two WAL records — raises :class:`~repro.errors.ServiceError`; the
   missing updates cannot be reconstructed.

A directory is a set of chains — the base chain plus one per shard, each
with its own sequence space and its own skip cursor in the checkpoint's
cursor vector (:func:`repro.service.wal.checkpoint_cursors`) — and
there is one replay routine for all of them: scan each chain of a group
independently, apply the pending records in rounds whose rows scatter to
the shard workers concurrently (docs/sharding.md).  It runs over the
base chain, then over the shard chains; a plain directory has only the
first group, where it is ordinary sequential replay.

Everything is observable through ``service.recovery.*`` metrics
(replayed/skipped record and edge counts, the checkpoint sequence, torn
truncations) and a ``service.recovery`` span when :mod:`repro.obs` is
enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    #: Shard count of a sharded recovery (0 for a plain directory).
    n_shards: int = 0
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


def _shard_count(directory: Path, config, recorded: int) -> int:
    """Shard chains to recover with (0 = a plain directory).

    The largest of: what the checkpoint recorded, what the config asks
    for, and the highest shard chain with a segment on disk (a shard
    that never appended leaves no file, so the disk is a lower bound).
    A checkpoint that recorded a different non-zero count is a reshard,
    which no replay can honour.
    """
    on_disk = max((parsed[0] for p in directory.iterdir()
                   if (parsed := wal_mod.parse_segment_name(p.name))),
                  default=0)
    n = max(recorded, getattr(config, "n_shards", 0), on_disk)
    if recorded not in (0, n):
        raise ServiceError(
            f"{directory}: checkpoint was taken with {recorded} shards but "
            f"recovery sees {n} — resharding an existing directory is not "
            f"supported (reload the data instead)"
        )
    return n


def _pending(directory: Path, prefix: str, cursor: int,
             result: RecoveryResult):
    """One chain's records past its checkpoint cursor, gap-checked."""
    last = cursor
    for record in wal_mod.iter_records(directory, prefix=prefix):
        if record.seq <= cursor:
            result.skipped_records += 1
            continue
        if record.seq != last + 1:
            raise ServiceError(
                f"{directory}: WAL sequence gap in chain {prefix}* — store "
                f"is at {last} but the next surviving record is "
                f"{record.seq}; updates in between are lost"
            )
        last = record.seq
        yield record


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _replay(directory: Path, store, meta: dict | None,
            result: RecoveryResult, config) -> None:
    """Replay every chain past the checkpoint's cursor vector.

    Chains are replayed in groups — the base chain alone, then all shard
    chains together — because the base chain predates every sharded
    record (a directory flips to sharded at most once, and nothing
    appends to the base chain afterwards).  A plain directory is the
    first group only.

    Within a group each chain is scanned independently (own contiguous
    sequence space, own skip cursor) and the pending records are applied
    in *rounds*: round ``r`` takes every chain's ``r``-th pending record
    and scatters the same-op rows through one store batch.  Interval
    partitioning makes the shard chains' key spaces disjoint, so records
    from different chains commute — within a round the shard workers
    apply their rows concurrently, which is what makes sharded replay
    parallel rather than a serialized merge.  A one-chain group
    degenerates to sequential replay, one record per round.
    """
    seqs, cums = wal_mod.checkpoint_cursors(meta)
    n_shards = _shard_count(directory, config, len(seqs) - 1)
    seqs += [0] * (n_shards + 1 - len(seqs))
    cums += [0] * (n_shards + 1 - len(cums))
    prefixes = [wal_mod.chain_prefix(c) for c in range(n_shards + 1)]
    for prefix in prefixes:
        torn = wal_mod.truncate_torn_tail(directory, prefix=prefix)
        if result.torn_offset is None:
            result.torn_offset = torn

    for group in ([0], range(1, n_shards + 1)):
        streams = {c: _pending(directory, prefixes[c], seqs[c], result)
                   for c in group}
        while streams:
            inserts, deletes = [], []
            for chain in list(streams):
                record = next(streams[chain], None)
                if record is None:
                    del streams[chain]
                    continue
                (inserts if record.op == wal_mod.OP_INSERT
                 else deletes).append(record)
                seqs[chain], cums[chain] = record.seq, record.cum_edges
                result.replayed_records += 1
                result.replayed_edges += record.n_edges
            if inserts:
                store.insert_batch(_cat([r.edges for r in inserts]),
                                   _cat([r.weights for r in inserts]))
            if deletes:
                store.delete_batch(_cat([r.edges for r in deletes]))
            if inserts or deletes:
                result.replayed_seqs.append(sum(seqs))

    result.last_seq = sum(seqs)
    result.cum_edges = sum(cums)
    result.n_shards = n_shards


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
        _replay(directory, store,
                checkpoint.snapshot.meta if checkpoint else None,
                result, config)
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
        "n_shards": result.n_shards,
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
