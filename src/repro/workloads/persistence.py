"""Snapshot persistence: save/load a dynamic store's live graph.

A dynamic-graph deployment checkpoints its store between sessions.  The
portable representation is the live edge set (original ids + weights),
saved as a compressed ``.npz``; restoring replays it through the normal
insert path, so every structure (EBA, SGH, CAL) is rebuilt
consistent with the configuration of the *receiving* store — which may
legitimately differ from the writer's (e.g. restore a delete-only
snapshot into a delete-and-compact store).

Format history
--------------
* **v1** — edges + weights only (read-compatible forever).
* **v2** — adds a versioned header: the writer's config (any built-in
  backend's config dataclass as JSON), the writing ``repro`` version,
  and an optional free-form ``meta`` dict.  The service-layer checkpoint
  manager (:mod:`repro.service.checkpoint`) rides on ``meta`` to embed
  the last-applied WAL sequence.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.store import config_class, store_from_config
from repro.errors import WorkloadError

#: Format markers stored inside every snapshot.
_FORMAT_V1 = "repro-graph-snapshot-v1"
_FORMAT_V2 = "repro-graph-snapshot-v2"
_FORMAT = _FORMAT_V2  # what save_snapshot writes


@dataclass
class Snapshot:
    """A parsed snapshot: edges plus the v2 header (when present)."""

    edges: np.ndarray
    weights: np.ndarray
    version: int
    repro_version: str | None = None
    writer_config: Any | None = None
    meta: dict | None = None

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])


def _writer_config_json(store) -> str:
    config = getattr(store, "config", None)
    if not dataclasses.is_dataclass(config):
        return ""
    return json.dumps({"class": type(config).__name__,
                       "fields": dataclasses.asdict(config)})


def save_snapshot(store, path: str | Path, meta: dict | None = None) -> int:
    """Write the store's live edges to ``path`` (.npz v2); returns the count.

    Works for any store exposing ``analytics_edges()`` (GraphTinker and
    STINGER alike).  ``meta`` is an optional JSON-serialisable dict
    embedded verbatim (the checkpoint manager stores WAL positions here).
    """
    from repro import __version__

    src, dst, weight = store.analytics_edges()
    np.savez_compressed(
        path,
        format=np.array(_FORMAT),
        repro_version=np.array(__version__),
        config_json=np.array(_writer_config_json(store)),
        meta_json=np.array(json.dumps(meta) if meta is not None else ""),
        src=src.astype(np.int64),
        dst=dst.astype(np.int64),
        weight=weight.astype(np.float64),
    )
    return int(src.shape[0])


def _parse_config(config_json: str) -> Any | None:
    if not config_json:
        return None
    payload = json.loads(config_json)
    cls = config_class(payload.get("class"))
    if cls is None:
        return None
    fields = dict(payload["fields"])
    # GTConfig had a ``kernel`` field until the batch kernel became a
    # per-call choice, and a cap on the tree descent until insert became
    # total; checkpoints written before then still open.
    fields.pop("kernel", None)
    fields.pop("max_generations", None)
    return cls(**fields)


def read_snapshot(path: str | Path) -> Snapshot:
    """Read a snapshot (v1 or v2) with its header fields."""
    with np.load(path, allow_pickle=False) as data:
        if "format" not in data:
            raise WorkloadError(f"{path}: not a repro graph snapshot")
        fmt = str(data["format"])
        if fmt == _FORMAT_V1:
            version = 1
        elif fmt == _FORMAT_V2:
            version = 2
        else:
            raise WorkloadError(
                f"{path}: unknown snapshot format {fmt!r} (this build reads "
                f"{_FORMAT_V1} and {_FORMAT_V2}; upgrade repro to load it)"
            )
        edges = np.column_stack([data["src"], data["dst"]]).astype(np.int64)
        weights = data["weight"].astype(np.float64)
        repro_version = str(data["repro_version"]) if version >= 2 else None
        config = _parse_config(str(data["config_json"])) if version >= 2 else None
        meta_json = str(data["meta_json"]) if version >= 2 else ""
    if edges.shape[0] != weights.shape[0]:
        raise WorkloadError(f"{path}: corrupt snapshot (length mismatch)")
    return Snapshot(
        edges=edges,
        weights=weights,
        version=version,
        repro_version=repro_version,
        writer_config=config,
        meta=json.loads(meta_json) if meta_json else None,
    )


def restore_store(path: str | Path, config=None):
    """Build a fresh store from a snapshot and replay its edges into it.

    :func:`repro.core.store.store_from_config` picks the backend from
    ``config`` when given, else from the writer's config a v2 snapshot
    embeds (a STINGER checkpoint restores into a STINGER), else from the
    paper-default ``GTConfig`` (a v1 snapshot carries no header).
    """
    snap = read_snapshot(path)
    store = store_from_config(config if config is not None else snap.writer_config)
    store.insert_batch(snap.edges, snap.weights)
    return store
