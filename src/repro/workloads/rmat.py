"""Graph500-style RMAT edge generator (paper Sec. V.A, ref. [2]).

The recursive-matrix (RMAT) generator places each edge by recursively
descending a 2^s x 2^s adjacency matrix, choosing one quadrant per level
with probabilities (a, b, c, d).  Graph500 uses a=0.57, b=c=0.19, d=0.05,
which yields the skewed (power-law-ish) degree distributions of social
and web graphs — the same distributions that stress per-vertex probe
distance in dynamic graph stores.

The implementation is fully vectorised: each of the ``scale`` levels is
one uniform draw for the whole edge batch into one reused buffer, counted
into a quadrant index and shifted into both ids, per the HPC-Python
guides' "no per-item Python loops" rule.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError

#: Graph500 default quadrant probabilities.
GRAPH500_A = 0.57
GRAPH500_B = 0.19
GRAPH500_C = 0.19
GRAPH500_D = 0.05


def rmat_edges(
    scale: int,
    n_edges: int,
    a: float = GRAPH500_A,
    b: float = GRAPH500_B,
    c: float = GRAPH500_C,
    d: float = GRAPH500_D,
    seed: int | np.random.Generator = 0,
    noise: float = 0.1,
) -> np.ndarray:
    """Generate ``n_edges`` RMAT edges over ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        log2 of the vertex-id space.
    n_edges:
        Number of edges to draw (duplicates and self-loops possible, as
        in Graph500; callers dedup if their experiment requires it).
    a, b, c, d:
        Quadrant probabilities; must be positive and sum to 1.
    seed:
        Integer seed or an existing :class:`numpy.random.Generator`.
    noise:
        Per-level multiplicative jitter on (a, b, c, d) — Graph500's
        "smoothing" that avoids exactly self-similar artefacts.  0 turns
        it off.

    Returns
    -------
    numpy.ndarray
        ``(n_edges, 2)`` int64 array of (src, dst) pairs.
    """
    if scale <= 0 or scale > 62:
        raise WorkloadError(f"scale must be in [1, 62], got {scale}")
    if n_edges < 0:
        raise WorkloadError("n_edges must be non-negative")
    probs = np.array([a, b, c, d], dtype=np.float64)
    if (probs <= 0).any() or abs(probs.sum() - 1.0) > 1e-9:
        raise WorkloadError("quadrant probabilities must be positive and sum to 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    # Ids accumulate most significant level first (Horner) in the
    # narrowest unsigned type that holds 2**scale - 1.
    ids = np.min_scalar_type((1 << scale) - 1)
    src = np.zeros(n_edges, dtype=ids)
    dst = np.zeros(n_edges, dtype=ids)
    u = np.empty(n_edges)
    q = np.empty(n_edges, dtype=np.uint8)
    above = np.empty(n_edges, dtype=bool)
    for _ in range(scale):
        if noise:
            jitter = 1.0 + noise * (rng.random(4) - 0.5)
            pa, pb, pc, pd = probs * jitter / (probs * jitter).sum()
        else:
            pa, pb, pc, pd = probs
        rng.random(n_edges, out=u)
        # Quadrant q = thresholds passed: a=0, b=1, c=2, d=3, so the src
        # bit is set for c|d (q >> 1) and the dst bit for b|d (q & 1).
        np.greater_equal(u, pa, out=q)
        for threshold in (pa + pb, pa + pb + pc):
            np.greater_equal(u, threshold, out=above)
            q += above
        src <<= 1
        src |= q >> 1
        dst <<= 1
        dst |= q & 1
    out = np.empty((n_edges, 2), dtype=np.int64)
    out[:, 0] = src
    out[:, 1] = dst
    return out


def rmat_edges_unique(
    scale: int,
    n_edges: int,
    seed: int | np.random.Generator = 0,
    max_rounds: int = 64,
    **kwargs,
) -> np.ndarray:
    """Like :func:`rmat_edges` but deduplicated and self-loop-free.

    Draws in rounds until ``n_edges`` distinct edges are collected (or
    ``max_rounds`` is hit, at which point it raises — RMAT at reasonable
    densities converges in a handful of rounds).  Order is the order of
    first appearance, so streaming the result reproduces a natural
    "updates arrive once" dynamic-graph workload.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    shift = np.int64(scale)
    seen_keys = np.empty(0, dtype=np.int64)
    collected: list[np.ndarray] = []
    collected_n = 0
    for _ in range(max_rounds):
        need = n_edges - collected_n
        if need <= 0:
            break
        draw = rmat_edges(scale, max(need * 2, 1024), seed=rng, **kwargs)
        draw = draw[draw[:, 0] != draw[:, 1]]
        keys = (draw[:, 0] << shift) | draw[:, 1]
        # First-occurrence dedup within the draw, preserving arrival order.
        _, first_idx = np.unique(keys, return_index=True)
        first_idx.sort()
        keys = keys[first_idx]
        draw = draw[first_idx]
        # Drop edges already collected in earlier rounds.
        fresh = ~np.isin(keys, seen_keys, assume_unique=True)
        draw = draw[fresh][:need]
        keys = keys[fresh][:need]
        if draw.shape[0]:
            collected.append(draw)
            collected_n += draw.shape[0]
            seen_keys = np.concatenate([seen_keys, keys])
            seen_keys.sort()
    else:
        raise WorkloadError(
            f"could not draw {n_edges} unique edges at scale {scale}; "
            "the requested density is too close to the complete graph"
        )
    if not collected:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(collected)[:n_edges]


def degree_skew(edges: np.ndarray) -> float:
    """Max-degree / mean-degree of the source column (skew diagnostic)."""
    if edges.shape[0] == 0:
        return 0.0
    counts = np.bincount(edges[:, 0] - edges[:, 0].min())
    counts = counts[counts > 0]
    return float(counts.max() / counts.mean())
