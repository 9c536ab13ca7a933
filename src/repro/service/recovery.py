"""Crash recovery: latest checkpoint + idempotent WAL tail replay.

The protocol (docs/service.md has the full diagram):

1. Physically truncate a torn final WAL record (so the on-disk log is
   clean and a *second* recovery sees exactly the same bytes — recovery
   is idempotent).
2. Restore the newest checkpoint that loads cleanly, rebuilding the
   store under the writer's embedded :class:`~repro.core.config.GTConfig`
   (or a caller-supplied one).  No checkpoint at all is fine: recovery
   starts from an empty store at sequence 0.
3. Replay the WAL in sequence order, **skipping** every record with
   ``seq <= checkpoint.last_seq`` (already inside the snapshot) and
   applying the rest through the normal batch paths.  A gap between the
   checkpoint's cursor and the first surviving WAL record — or between
   two WAL records — raises :class:`~repro.errors.ServiceError`; the
   missing updates cannot be reconstructed.

There is one replay loop.  A sharded directory (``wal-shard<k>-*.seg``
chains and/or per-shard cursors in the checkpoint meta) adds a second
phase after the plain chain: each shard's chain is scanned independently
against its own skip cursor, and the pending records are applied in
rounds whose rows scatter to the shard workers concurrently — per-shard
replay is independent and parallel (docs/sharding.md).  A plain
directory is the same replay with zero shard chains.

Everything is observable through ``service.recovery.*`` metrics
(replayed/skipped record and edge counts, the checkpoint sequence, torn
truncations) and a ``service.recovery`` span when :mod:`repro.obs` is
enabled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.obs as obs
from repro.core.config import ShardedConfig
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


_SHARD_SEGMENT_RE = re.compile(
    rf"^{wal_mod.SEGMENT_PREFIX}shard(\d+)-\d+{re.escape(wal_mod.SEGMENT_SUFFIX)}$"
)


def _detect_shard_count(directory: Path) -> int:
    """Highest shard index + 1 among on-disk per-shard segments (0 if none).

    A shard whose log never rotated past zero appends leaves no file, so
    the disk count is a lower bound — the checkpoint meta / config count
    takes precedence when larger.
    """
    n = 0
    for p in directory.iterdir():
        m = _SHARD_SEGMENT_RE.match(p.name)
        if m:
            n = max(n, int(m.group(1)) + 1)
    return n


def _shard_count(directory: Path, config, checkpoint) -> int:
    """Shard count to recover with (0 = plain, unsharded directory)."""
    meta = (checkpoint.snapshot.meta or {}) if checkpoint else {}
    n = 0
    if "shard_seqs" in meta:
        n = int(meta.get("n_shards", len(meta["shard_seqs"])))
    if isinstance(config, ShardedConfig):
        n = max(n, config.n_shards)
    return max(n, _detect_shard_count(directory))


def _replay(directory: Path, store, checkpoint,
            result: RecoveryResult, n_shards: int) -> None:
    """Replay the plain WAL chain, then the ``n_shards`` per-shard chains.

    ``n_shards == 0`` is a plain directory: the plain chain is the whole
    history and the per-shard phase has nothing to do.  Otherwise the
    plain chain is the history from before the directory went sharded.

    Each shard's chain is scanned independently (own contiguous sequence
    space, own skip cursor from the checkpoint meta, own torn-tail
    truncation), then the pending records are applied in *rounds*: round
    ``r`` takes every shard's ``r``-th pending record and scatters the
    same-op rows through one store batch.  Interval partitioning makes
    the chains' key spaces disjoint, so records from different chains
    commute — within a round the shard workers apply their rows
    concurrently, which is what makes sharded replay parallel rather
    than a serialized merge.
    """
    meta = (checkpoint.snapshot.meta or {}) if checkpoint else {}
    if checkpoint is None:
        base_cursor, base_cum = 0, 0
        shard_cursors = [0] * n_shards
        shard_cum = [0] * n_shards
    elif "shard_seqs" in meta:
        if len(meta["shard_seqs"]) != n_shards:
            raise ServiceError(
                f"{directory}: checkpoint was taken with "
                f"{len(meta['shard_seqs'])} shards but recovery sees "
                f"{n_shards} — resharding an existing directory is not "
                f"supported (reload the data instead)"
            )
        base_cursor = int(meta.get("base_seq", 0))
        base_cum = int(meta.get("base_cum", 0))
        shard_cursors = [int(s) for s in meta["shard_seqs"]]
        shard_cum = [int(c) for c in meta.get("shard_cum", [0] * n_shards)]
    else:
        # A plain checkpoint in a directory that later went sharded: the
        # snapshot covers exactly the plain-prefix records.
        base_cursor, base_cum = checkpoint.last_seq, checkpoint.cum_edges
        shard_cursors = [0] * n_shards
        shard_cum = [0] * n_shards

    # Plain-prefix history first: it predates every sharded record (a
    # directory flips to sharded at most once, and nothing appends to
    # the plain chain afterwards).
    base_last = base_cursor
    for record in wal_mod.iter_records(directory):
        if record.seq <= base_cursor:
            result.skipped_records += 1
            continue
        if record.seq != base_last + 1:
            raise ServiceError(
                f"{directory}: WAL sequence gap — store is at {base_last} "
                f"but the next surviving record is {record.seq}; updates "
                f"in between are lost"
            )
        if record.op == wal_mod.OP_INSERT:
            store.insert_batch(record.edges, record.weights)
        else:
            store.delete_batch(record.edges)
        base_last = record.seq
        base_cum = record.cum_edges
        result.replayed_records += 1
        result.replayed_edges += record.n_edges
        result.replayed_seqs.append(record.seq)

    pending: list[list] = []
    for k in range(n_shards):
        prefix = wal_mod.shard_prefix(k)
        wal_mod.truncate_torn_tail(directory, prefix=prefix)
        records = []
        for record in wal_mod.iter_records(directory, prefix=prefix):
            if record.seq <= shard_cursors[k]:
                result.skipped_records += 1
                continue
            expect = (records[-1].seq if records else shard_cursors[k]) + 1
            if record.seq != expect:
                raise ServiceError(
                    f"{directory}: WAL sequence gap in shard {k} — shard "
                    f"is at {expect - 1} but the next surviving record is "
                    f"{record.seq}; updates in between are lost"
                )
            records.append(record)
        pending.append(records)

    cursors = [0] * n_shards
    while True:
        insert_edges, insert_weights, delete_edges = [], [], []
        progressed = False
        for k in range(n_shards):
            if cursors[k] >= len(pending[k]):
                continue
            record = pending[k][cursors[k]]
            cursors[k] += 1
            progressed = True
            if record.op == wal_mod.OP_INSERT:
                insert_edges.append(record.edges)
                insert_weights.append(record.weights)
            else:
                delete_edges.append(record.edges)
            shard_cursors[k] = record.seq
            shard_cum[k] = record.cum_edges
            result.replayed_records += 1
            result.replayed_edges += record.n_edges
        if not progressed:
            break
        if insert_edges:
            store.insert_batch(np.concatenate(insert_edges),
                               np.concatenate(insert_weights))
        if delete_edges:
            store.delete_batch(np.concatenate(delete_edges))
        result.replayed_seqs.append(base_last + sum(shard_cursors))

    result.last_seq = base_last + sum(shard_cursors)
    result.cum_edges = base_cum + sum(shard_cum)
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
        torn_offset = wal_mod.truncate_torn_tail(directory)

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
            torn_offset=torn_offset,
        )
        _replay(directory, store, checkpoint, result,
                _shard_count(directory, config, checkpoint))
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
