"""Flat adjacency arena for incremental aggregation.

The dict engine stores a vertex's aggregated community-level edges as a
``dict[int, float]`` — one Python object per processed vertex, one boxed
float per edge.  The fast engine replaces every such dict with a slice
of two shared, geometrically-grown pools:

* ``keys``  — ``int64`` endpoint ids, and
* ``ws``    — ``float64`` edge weights,

addressed per vertex by ``(offset[v], length[v])``.  A vertex's folded
edge set is then a pair of contiguous array views that can be gathered
with ``np.concatenate`` and resolved endpoint-by-endpoint with a single
vectorised ``dest`` lookup — no per-edge Python work.

Entries are append-only: when a parent vertex is aggregated it writes a
fresh entry and its children's slices simply become dead space.  Total
appended volume is bounded by the total aggregation work (the same
quantity ``RabbitStats.edges_scanned`` counts per fold, once per
processed vertex), so the pools stay within a small constant factor of
the input edge count on real graphs.

Layout convention (mirroring the dict engine's insertion order): the
neighbour entries come first, in first-encounter order, and the vertex's
own self-loop entry is always the **last** element of its slice.

The same pool layout backs every engine tier: the sequential fast
engine allocates the pools as plain ndarrays here; the parallel thread
and interleave executors shard them per worker task
(:class:`repro.rabbit.fastpar.ShardedAdjacency`, one single-writer
shard each); and the process executor maps them from
``multiprocessing.shared_memory`` segments
(:class:`repro.parallel.procpool.ShmArray` — see
:func:`AdjacencyArena.from_pools`, which rehydrates an arena over any
externally-owned buffers) so worker processes fold against the shared
bytes zero-copy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AdjacencyArena"]

#: ``length`` value marking a vertex that has never been aggregated
#: (the dict engine's ``adj[v] is None``).
NOT_STORED: int = -1


class AdjacencyArena:
    """Preallocated ``(offset, length)``-addressed pools of aggregated
    adjacency lists."""

    __slots__ = ("offset", "length", "keys", "ws", "_cursor", "grows")

    def __init__(self, num_vertices: int, capacity: int = 0) -> None:
        n = int(num_vertices)
        self.offset = np.zeros(n, dtype=np.int64)
        self.length = np.full(n, NOT_STORED, dtype=np.int64)
        cap = max(int(capacity), 16)
        self.keys = np.empty(cap, dtype=np.int64)
        self.ws = np.empty(cap, dtype=np.float64)
        self._cursor = 0
        #: number of geometric regrowths (observability for PERF tuning)
        self.grows = 0

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        """Pool elements written so far (live + dead slices)."""
        return self._cursor

    @property
    def capacity(self) -> int:
        return self.keys.size

    def has(self, v: int) -> bool:
        """Whether *v* has an aggregated entry (dict engine's
        ``adj[v] is not None``)."""
        return self.length[v] != NOT_STORED

    # ------------------------------------------------------------------
    def reserve(self, count: int) -> int:
        """Ensure *count* contiguous free slots; return their offset.

        The caller fills ``keys[off:off+count]`` / ``ws[off:off+count]``
        and then calls :meth:`commit`.
        """
        self.grow(count)
        off = self._cursor
        self._cursor += count
        return off

    def grow(self, count: int) -> None:
        """Make room for *count* more slots past the cursor (geometric
        regrowth) without claiming them."""
        need = self._cursor + count
        if need > self.keys.size:
            new_cap = self.keys.size
            while new_cap < need:
                new_cap *= 2
            new_keys = np.empty(new_cap, dtype=np.int64)
            new_ws = np.empty(new_cap, dtype=np.float64)
            new_keys[: self._cursor] = self.keys[: self._cursor]
            new_ws[: self._cursor] = self.ws[: self._cursor]
            self.keys = new_keys
            self.ws = new_ws
            self.grows += 1

    def commit(self, v: int, off: int, count: int) -> None:
        """Attach the filled slice ``[off, off+count)`` to vertex *v*."""
        self.offset[v] = off
        self.length[v] = count

    @classmethod
    def from_pools(
        cls,
        offsets: np.ndarray,
        lengths: np.ndarray,
        keys: np.ndarray,
        ws: np.ndarray,
        *,
        extra_capacity: int = 0,
    ) -> "AdjacencyArena":
        """Rebuild an arena from flattened ``(offset, length, keys, ws)``
        pools — the checkpoint wire format of
        :class:`repro.resilience.checkpoint.Snapshot`.

        ``lengths`` uses this class's convention (:data:`NOT_STORED` for
        never-aggregated vertices).  ``extra_capacity`` preallocates
        headroom for the entries the resumed sweep will append.
        """
        n = int(offsets.size)
        used = int(keys.size)
        arena = cls(n, capacity=used + max(int(extra_capacity), 0))
        arena.keys[:used] = keys
        arena.ws[:used] = ws
        stored = lengths >= 0
        arena.offset[stored] = offsets[stored]
        arena.length[:] = lengths
        arena._cursor = used
        return arena

    def store(self, v: int, keys, ws) -> None:
        """Reserve, fill and commit an entry for *v* in one call."""
        keys = np.asarray(keys, dtype=np.int64)
        count = keys.size
        off = self.reserve(count)
        self.keys[off : off + count] = keys
        self.ws[off : off + count] = ws
        self.commit(v, off, count)

    def entry(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of *v*'s stored ``(keys, weights)`` slice."""
        if self.length[v] == NOT_STORED:
            raise KeyError(f"vertex {v} has no aggregated entry")
        off = int(self.offset[v])
        end = off + int(self.length[v])
        return self.keys[off:end], self.ws[off:end]

    def entries(self):
        """Every vertex's ``(keys, ws)`` views, or ``None`` if it has no
        entry — the snapshot's adjacency sequence."""
        keys, ws = self.keys, self.ws
        for off, ln in zip(self.offset.tolist(), self.length.tolist()):
            if ln == NOT_STORED:
                yield None
            else:
                yield keys[off : off + ln], ws[off : off + ln]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdjacencyArena(n={self.length.size}, used={self.used}, "
            f"capacity={self.capacity}, grows={self.grows})"
        )
