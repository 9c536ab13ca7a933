"""Checkpoint manager: versioned store snapshots tied to WAL positions.

A checkpoint is a v2 snapshot (:mod:`repro.workloads.persistence`) whose
``meta`` header records the durability cursor: the last WAL sequence the
snapshotted store had applied (``last_seq``) and the cumulative input
rows consumed through it (``cum_edges``, for deterministic stream
resume).  Files are named ``checkpoint-<last_seq 20 digits>.npz`` and
written atomically (temp file + ``os.replace``), so a crash mid-write
can never shadow a good checkpoint with a torn one.

Taking a checkpoint makes every WAL record with ``seq <= last_seq``
redundant, so :meth:`CheckpointManager.write` prunes obsolete WAL
segments and older checkpoints (keeping a configurable number of
fallbacks — recovery skips unreadable checkpoints newest-first).
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

from repro.errors import ServiceError, WorkloadError
from repro.service import wal as wal_mod
from repro.workloads.persistence import (
    Snapshot,
    read_snapshot,
    read_snapshot_meta,
    save_snapshot,
)

CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".npz"

#: What reading a damaged checkpoint file can raise.
_UNREADABLE = (WorkloadError, OSError, ValueError, KeyError, zipfile.BadZipFile)


@dataclass
class CheckpointInfo:
    """A loaded checkpoint: the snapshot plus its WAL cursor."""

    path: Path
    snapshot: Snapshot
    last_seq: int
    cum_edges: int


def checkpoint_path(directory: Path, last_seq: int) -> Path:
    return directory / f"{CHECKPOINT_PREFIX}{last_seq:020d}{CHECKPOINT_SUFFIX}"


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for p in directory.iterdir():
        name = p.name
        if name.startswith(CHECKPOINT_PREFIX) and name.endswith(CHECKPOINT_SUFFIX):
            stem = name[len(CHECKPOINT_PREFIX):-len(CHECKPOINT_SUFFIX)]
            if stem.isdigit():
                out.append((int(stem), p))
    return [p for _, p in sorted(out)]


def load_checkpoint(path: str | Path) -> CheckpointInfo:
    """Read one checkpoint file; raises :class:`ServiceError` if invalid."""
    path = Path(path)
    try:
        snap = read_snapshot(path)
    except _UNREADABLE as exc:
        raise ServiceError(f"{path}: unreadable checkpoint ({exc})") from exc
    meta = snap.meta or {}
    if "last_seq" not in meta:
        raise ServiceError(
            f"{path}: snapshot has no WAL cursor (last_seq) — it is a plain "
            f"snapshot, not a service checkpoint"
        )
    return CheckpointInfo(path=path, snapshot=snap,
                          last_seq=int(meta["last_seq"]),
                          cum_edges=int(meta.get("cum_edges", 0)))


def latest_checkpoint(directory: str | Path) -> CheckpointInfo | None:
    """Newest checkpoint that loads cleanly (``None`` when there is none).

    Unreadable newer checkpoints are skipped, not fatal: the older
    fallback plus the (un-pruned) WAL tail reaches the same state.
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            return load_checkpoint(path)
        except ServiceError:
            continue
    return None


class CheckpointManager:
    """Writes checkpoints for a service directory and prunes behind them."""

    def __init__(self, directory: str | Path, *, keep: int = 2):
        if keep < 1:
            raise ServiceError("checkpoint keep count must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep

    def write(self, store, last_seq: int, cum_edges: int,
              meta: dict | None = None) -> Path:
        """Checkpoint ``store`` as-of WAL ``last_seq``; prune behind it.

        The caller guarantees the store has applied exactly the WAL
        records up to ``last_seq`` (the service holds its store lock
        across the snapshot).
        """
        full_meta = dict(meta or ())
        full_meta["last_seq"] = int(last_seq)
        full_meta["cum_edges"] = int(cum_edges)
        final = checkpoint_path(self.directory, last_seq)
        tmp = final.with_suffix(".tmp.npz")
        save_snapshot(store, tmp, meta=full_meta)
        os.replace(tmp, final)
        self._prune(full_meta)
        return final

    def _prune(self, meta: dict) -> None:
        checkpoints = list_checkpoints(self.directory)
        if len(checkpoints) > self.keep:
            for path in checkpoints[:-self.keep]:
                path.unlink()
            checkpoints = checkpoints[-self.keep:]
        # WAL segments may only be dropped up to the *oldest surviving*
        # checkpoint: recovery falls back to it if a newer one turns out
        # unreadable, and needs every chain's tail from there onward.
        # Its cursors come from the snapshot header alone — pruning never
        # reads a graph.  Each chain has its own sequence space, so the
        # bound is per chain; a chain the oldest survivor predates (a
        # plain checkpoint in a directory that later went sharded) is
        # pinned at 0 until that checkpoint ages out.
        try:
            oldest, _ = wal_mod.checkpoint_cursors(
                read_snapshot_meta(checkpoints[0]))
        except _UNREADABLE:
            return
        now, _ = wal_mod.checkpoint_cursors(meta)
        for chain, (new, old) in enumerate(zip_longest(now, oldest,
                                                       fillvalue=0)):
            wal_mod.prune_segments(self.directory, min(new, old),
                                   prefix=wal_mod.chain_prefix(chain))
