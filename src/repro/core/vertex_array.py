"""The VertexPropertyArray (paper Sec. III.B).

Holds per-vertex state — degree, a general-purpose ``value`` (algorithm
property such as BFS level or SSSP distance), and flag bits — indexed by
the dense (SGH-hashed) vertex id.  Implemented as parallel flat NumPy
arrays grown by doubling, so the engine's apply phase can commit whole
property vectors with single vectorised assignments.
"""

from __future__ import annotations

import numpy as np

from repro.core.pool import grow

#: Flag bit: vertex is active in the current engine iteration.
FLAG_ACTIVE = np.uint8(1)
#: Flag bit: vertex was touched by the latest update batch (inconsistent).
FLAG_INCONSISTENT = np.uint8(2)


class VertexPropertyArray:
    """Dense per-vertex property storage."""

    __slots__ = ("_degree", "_value", "_flags", "_count")

    def __init__(self, initial_capacity: int = 16):
        cap = max(1, initial_capacity)
        self._degree = np.zeros(cap, dtype=np.int64)
        self._value = np.full(cap, np.inf, dtype=np.float64)
        self._flags = np.zeros(cap, dtype=np.uint8)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def ensure(self, vid: int) -> None:
        """Make dense ids ``0..vid`` addressable (new slots zeroed/inf)."""
        if vid >= self._count:
            if vid >= self._degree.shape[0]:
                self._degree = grow(self._degree, vid + 1)
                self._value = grow(self._value, vid + 1, np.inf)
                self._flags = grow(self._flags, vid + 1)
            self._count = vid + 1

    # -- degrees -------------------------------------------------------- #
    def add_degree(self, vid: int, delta: int) -> None:
        self.ensure(vid)
        self._degree[vid] += delta

    def degree(self, vid: int) -> int:
        return int(self._degree[vid]) if vid < self._count else 0

    @property
    def degrees(self) -> np.ndarray:
        """Writable view of all degrees (length = vertex count)."""
        return self._degree[: self._count]

    # -- values --------------------------------------------------------- #
    @property
    def values(self) -> np.ndarray:
        """Writable view of the per-vertex property values."""
        return self._value[: self._count]

    def set_values(self, values: np.ndarray) -> None:
        """Replace all property values (length must match count)."""
        if values.shape[0] != self._count:
            raise ValueError("value vector length mismatch")
        self._value[: self._count] = values

    def reset_values(self, fill: float = np.inf) -> None:
        self._value[: self._count] = fill

    # -- flags ---------------------------------------------------------- #
    @property
    def flags(self) -> np.ndarray:
        return self._flags[: self._count]

    def set_flag(self, vids: np.ndarray, flag: np.uint8) -> None:
        if len(vids):
            self.ensure(int(np.max(vids)))
        self._flags[vids] |= flag

    def clear_flag(self, flag: np.uint8) -> None:
        self._flags[: self._count] &= ~flag

    def flagged(self, flag: np.uint8) -> np.ndarray:
        """Dense ids currently carrying ``flag``."""
        return np.flatnonzero(self._flags[: self._count] & flag)
