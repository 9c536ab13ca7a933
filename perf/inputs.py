"""Seeded inputs, their fingerprints, and the replay oracle.

Every array a workload feeds the program is made here from ``--seed`` with
``repro.workloads`` generators and NumPy's seeded ``Generator``; the program
itself never sees the seed.  :func:`fingerprint` hashes the arrays so that
``pins.json`` can hold the default-seed digests: a change to
``repro.workloads.rmat`` then shows up as a failed check rather than as a
silently different load.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.workloads.rmat import rmat_edges
from repro.workloads.streams import symmetrize

UNIFORM = dict(a=0.25, b=0.25, c=0.25, d=0.25, noise=0.0)

_KEY_SHIFT = np.int64(32)


def fingerprint(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def powerlaw_edges(seed: int, scale: int, n_edges: int) -> np.ndarray:
    return rmat_edges(scale, n_edges, seed=seed)


def uniform_edges(seed: int, scale: int, n_edges: int) -> np.ndarray:
    return rmat_edges(scale, n_edges, seed=seed, **UNIFORM)


def weighted_symmetric(seed: int, scale: int, n_undirected: int):
    """Symmetrized RMAT stream with integer weights 1..15, the same weight
    on both directions of an edge (SSSP and CC then see one undirected
    graph)."""
    edges = symmetrize(rmat_edges(scale, n_undirected, seed=seed))
    rng = np.random.default_rng([seed, 1])
    half = rng.integers(1, 16, n_undirected).astype(np.float64)
    return edges, np.repeat(half, 2)


def edge_keys(edges: np.ndarray) -> np.ndarray:
    return (edges[:, 0] << _KEY_SHIFT) | edges[:, 1]


class ReplayOracle:
    """Last-operation-wins replay of a mutation log, independent of any
    store: an edge is live iff the last operation naming it is an insert,
    and carries that insert's weight.  Equivalent to replaying the log into
    a plain dict, done with one stable sort at the end."""

    def __init__(self) -> None:
        self._keys: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []
        self._live: list[np.ndarray] = []

    def insert(self, edges: np.ndarray, weights: np.ndarray | None = None):
        n = edges.shape[0]
        self._keys.append(edge_keys(edges))
        self._weights.append(np.ones(n) if weights is None
                             else np.asarray(weights, dtype=np.float64))
        self._live.append(np.ones(n, dtype=bool))

    def delete(self, edges: np.ndarray):
        n = edges.shape[0]
        self._keys.append(edge_keys(edges))
        self._weights.append(np.zeros(n))
        self._live.append(np.zeros(n, dtype=bool))

    def final(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, weight)`` of the live edges, sorted by (src, dst)."""
        if not self._keys:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0)
        keys = np.concatenate(self._keys)
        weights = np.concatenate(self._weights)
        live = np.concatenate(self._live)
        order = np.argsort(keys, kind="stable")
        keys, weights, live = keys[order], weights[order], live[order]
        last = np.append(keys[1:] != keys[:-1], True)
        keep = last & live
        keys = keys[keep]
        return keys >> _KEY_SHIFT, keys & ((1 << 32) - 1), weights[keep]

    def digest(self) -> dict:
        """Same canonical form as ``repro.core.store.store_digest``."""
        src, dst, weight = self.final()
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(src, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(dst, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(weight, dtype=np.float64).tobytes())
        return {"sha256": h.hexdigest(), "n_edges": int(src.shape[0])}
