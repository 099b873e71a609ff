"""Flat-array state for the parallel engines (``engine="fast"``).

:mod:`repro.rabbit.par` runs the CAS + lazy-aggregation protocol
(Algorithm 3) over an engine-neutral worker; this module supplies the
*fast* state behind it: the per-vertex ``dict`` adjacencies of
:class:`~repro.rabbit.common.AggregationState` are replaced by
``(offset, length)``-addressed slices of flat ``int64``/``float64``
pools (the :mod:`repro.rabbit.arena` layout), and the heavy fold of
Algorithm 4 becomes a concatenate–gather–``bincount`` kernel
(:func:`gather_community` + :func:`dedupe_first_encounter`), which the
process-pool engine of :mod:`repro.rabbit.parproc` shares.

Why a *sharded* arena
---------------------
:class:`~repro.rabbit.arena.AdjacencyArena` is single-writer: ``reserve``
is a read-modify-write on one cursor and a regrow swaps the pool arrays,
so concurrent workers would corrupt it — and the lock-free path bans
locks (the ``lock-in-lockfree-path`` check).  :class:`ShardedAdjacency`
therefore gives every worker task its **own** append-only shard:

* Global ``shard_of``/``offset``/``length`` arrays address each vertex's
  entry; ``length[v] != NOT_STORED`` publishes it.
* Only the owning task appends to (or regrows) its shard.  The
  interleaving scheduler guarantees single ownership: it advances each
  task generator on one OS thread, one step at a time.
* A regrow copies the committed prefix into fresh arrays and *then*
  swaps the references, so a concurrent reader sees either array — both
  hold the committed bytes (CPython reference assignment is atomic).
* Cross-task entry reads are ordered by the protocol itself: a worker
  reads ``v``'s entry only after ``v`` merged into one of its vertices,
  and ``v``'s final store precedes that CAS in ``v``'s program order.
  The happens-before race detector certifies exactly this chain via the
  coarse per-vertex ``adj`` events emitted here.

Bit-identity with the dict oracle
---------------------------------
The fold runs *between* scheduling yields (as ``aggregate_vertex`` does
in the dict engine), returns neighbours in first-encounter order with
the self-loop key excluded, and stores the entry (self-loop last)
before any merge decision — so the yield/atomic-op sequence of the
engine-neutral worker is unchanged and an interleave-scheduled run is
bit-identical to the dict engine under the same seed.  Below
:data:`SCALAR_CUTOFF` folded items the scalar dict-accumulation path is
used (numpy call overhead loses on small folds; see docs/PERF.md);
above it, the vectorised kernel.  Both reproduce the dict engine's
float semantics exactly:

* **Accumulation order.** The dict engine folds ``acc[v] += w`` in edge
  encounter order.  ``np.bincount`` accumulates its weights with a
  sequential C loop in input order, so per-key sums see the identical
  addition sequence (``np.add.reduceat`` would not: ufunc reduction is
  pairwise, which changes the last ulp).
* **Tie-breaking.** The dict engine scans candidates in insertion
  (first-encounter) order; :func:`dedupe_first_encounter` returns the
  keys in that order, and the worker scores them as the dict engine
  does.
"""

from __future__ import annotations

import numpy as np

from repro.community.dendrogram import NO_VERTEX
from repro.graph.csr import CSRGraph
from repro.rabbit.arena import NOT_STORED
from repro.rabbit.common import RabbitStats

__all__ = [
    "FlatAggregationState",
    "ShardedAdjacency",
    "SCALAR_CUTOFF",
    "dedupe_first_encounter",
    "gather_community",
    "trace_dest_array",
]

#: Folded-item count at or below which a parallel fold takes the scalar
#: path (see docs/PERF.md for the sweep behind this number).
SCALAR_CUTOFF: int = 192


def trace_dest_array(dest: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.rabbit.common.trace_dest`: resolve every
    endpoint in *t* to its community root, compressing the traced paths.

    Iterates ``dest[dest[...]]`` until fixpoint (roots satisfy
    ``dest[r] == r``), then rewrites ``dest[t]`` to point straight at the
    roots.  Compression is stronger than the scalar helper's
    grandparent-hopping but preserves the union-find invariant (every
    link points at an ancestor), so resolution results are unchanged.
    """
    v = dest[t]
    vv = dest[v]
    while not np.array_equal(v, vv):
        v = dest[vv]
        vv = dest[v]
    dest[t] = v
    return v


def gather_community(
    graph: CSRGraph, u: int, entries
) -> tuple[np.ndarray, np.ndarray]:
    """The raw edges of *u*'s community, in the dict engine's encounter
    order: *u*'s CSR row (a raw self-loop counted twice), then each
    member's folded ``(keys, ws)`` slice in *entries*.  Returns the
    unresolved endpoints and their weights."""
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    lo, hi = int(indptr[u]), int(indptr[u + 1])
    t0 = indices[lo:hi]
    self_mask = t0 == u
    has_loop = bool(self_mask.any())
    if weights is None:
        w0 = np.ones(t0.size, dtype=np.float64)
        if has_loop:
            w0[self_mask] = 2.0  # doubled self-loop convention
    else:
        w0 = weights[lo:hi]
        if has_loop:
            w0 = w0.copy()
            w0[self_mask] *= 2.0
    key_parts = [t0]
    w_parts = [w0]
    for ks, vs in entries:
        key_parts.append(ks)
        w_parts.append(vs)
    return np.concatenate(key_parts), np.concatenate(w_parts)


def dedupe_first_encounter(
    v_all: np.ndarray, w_all: np.ndarray, u: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Group resolved endpoints and sum weights, keys ordered by first
    encounter, with ``u``'s self-loop mass split out.

    A stable argsort groups equal keys, ``bincount`` accumulates the
    weights in input order (i.e. dict-insertion order, so float addition
    order — and hence every rounding step — matches the dict engine
    exactly), and the groups are re-ranked by first encounter.  Returns
    ``(keys, sums, loop)`` with ``u`` excluded from ``keys``.
    """
    order = np.argsort(v_all, kind="stable")
    sv = v_all[order]
    new_grp = np.empty(sv.size, dtype=bool)
    if sv.size:
        new_grp[0] = True
        np.not_equal(sv[1:], sv[:-1], out=new_grp[1:])
    gid_sorted = np.cumsum(new_grp) - 1
    inv = np.empty(sv.size, dtype=np.int64)
    inv[order] = gid_sorted
    uniq = sv[new_grp]
    first = order[new_grp]
    sums = np.bincount(inv, weights=w_all, minlength=uniq.size)
    enc = np.argsort(first)  # re-rank groups by first encounter
    keys_enc = uniq[enc]
    sums_enc = sums[enc]
    not_u = keys_enc != u
    if not_u.all():
        return keys_enc, sums_enc, 0.0
    loop = float(sums_enc[~not_u][0])
    return keys_enc[not_u], sums_enc[not_u], loop


class _Shard:
    """One task's private append-only ``(keys, ws)`` pool."""

    __slots__ = ("keys", "ws", "cursor")

    def __init__(self, capacity: int):
        cap = max(int(capacity), 16)
        self.keys = np.empty(cap, dtype=np.int64)
        self.ws = np.empty(cap, dtype=np.float64)
        self.cursor = 0


class ShardedAdjacency:
    """Flat aggregated adjacency with per-task writer shards.

    Readers may be any worker; the only writer of shard *s* is the task
    that allocated it via :meth:`new_shard` (see module docstring for
    the memory-ordering argument).  ``tracer``, when set to a
    :class:`~repro.check.races.EventLog`, records entry reads/stores as
    coarse per-vertex PLAIN events under the ``"adj"`` location name —
    the same granularity the dict engine's ``TracingList`` proxy logs.
    """

    __slots__ = ("shard_of", "offset", "length", "grows", "tracer", "_shards")

    def __init__(self, num_vertices: int) -> None:
        n = int(num_vertices)
        self.shard_of = np.zeros(n, dtype=np.int64)
        self.offset = np.zeros(n, dtype=np.int64)
        self.length = np.full(n, NOT_STORED, dtype=np.int64)
        #: total geometric shard regrowths (observability, cf. the arena)
        self.grows = 0
        self.tracer = None
        self._shards: list[_Shard] = []

    # -- construction ------------------------------------------------------
    @classmethod
    def from_pools(
        cls,
        offsets: np.ndarray,
        lengths: np.ndarray,
        keys: np.ndarray,
        ws: np.ndarray,
    ) -> "ShardedAdjacency":
        """Rebuild from the checkpoint wire format: the restored entries
        become one frozen shard (index 0), read-only from then on —
        resumed workers append to their own fresh shards, so no dict
        materialisation (or any per-vertex work) happens on resume."""
        adj = cls(offsets.size)
        frozen = _Shard(keys.size)
        used = int(keys.size)
        frozen.keys[:used] = keys
        frozen.ws[:used] = ws
        frozen.cursor = used
        adj._shards.append(frozen)
        stored = lengths >= 0
        adj.offset[stored] = offsets[stored]
        adj.length[:] = lengths
        return adj

    # -- shard lifecycle ---------------------------------------------------
    def new_shard(self, capacity: int = 1024) -> int:
        """Allocate a writer shard and return its id.

        Parent-only: call while no workers run (task construction,
        round boundaries, recovery) — the shard list is not safe to
        extend concurrently with readers indexing it mid-append.
        """
        self._shards.append(_Shard(capacity))
        return len(self._shards) - 1

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def used(self) -> int:
        """Pool elements written across every shard (live + dead)."""
        return sum(s.cursor for s in self._shards)

    # -- access ------------------------------------------------------------
    def has(self, v: int) -> bool:
        return self.length[v] != NOT_STORED

    def entry(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of *v*'s stored ``(keys, weights)`` slice."""
        if self.tracer is not None:
            self.tracer.read("adj", int(v))
        ln = int(self.length[v])
        if ln < 0:
            raise KeyError(f"vertex {v} has no aggregated entry")
        sh = self._shards[int(self.shard_of[v])]
        off = int(self.offset[v])
        return sh.keys[off : off + ln], sh.ws[off : off + ln]

    def store(self, shard_id: int, v: int, keys, ws) -> None:
        """Append *v*'s folded entry to shard *shard_id* and publish it.

        Owner-only (the task that allocated the shard).  The pool bytes
        are written before the addressing words, so a reader that
        observes the new ``length`` sees a complete slice.
        """
        if self.tracer is not None:
            self.tracer.write("adj", int(v))
        sh = self._shards[shard_id]
        keys = np.asarray(keys, dtype=np.int64)
        count = keys.size
        need = sh.cursor + count
        if need > sh.keys.size:
            new_cap = sh.keys.size
            while new_cap < need:
                new_cap *= 2
            new_keys = np.empty(new_cap, dtype=np.int64)
            new_ws = np.empty(new_cap, dtype=np.float64)
            new_keys[: sh.cursor] = sh.keys[: sh.cursor]
            new_ws[: sh.cursor] = sh.ws[: sh.cursor]
            # Copy-then-swap: committed slices are immutable, so readers
            # holding either reference stay correct.
            sh.keys = new_keys
            sh.ws = new_ws
            self.grows += 1
        off = sh.cursor
        sh.keys[off:need] = keys
        sh.ws[off:need] = np.asarray(ws, dtype=np.float64)
        sh.cursor = need
        self.shard_of[v] = shard_id
        self.offset[v] = off
        self.length[v] = count

    def iter_entries(self):
        """Per-vertex folded ``(keys, ws)`` entries (or ``None``) for
        snapshotting — the :func:`pack_adjacency` input format."""
        for v in range(self.length.size):
            ln = int(self.length[v])
            if ln < 0:
                yield None
            else:
                sh = self._shards[int(self.shard_of[v])]
                off = int(self.offset[v])
                yield sh.keys[off : off + ln], sh.ws[off : off + ln]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedAdjacency(n={self.length.size}, "
            f"shards={len(self._shards)}, used={self.used}, "
            f"grows={self.grows})"
        )


class FlatAggregationState:
    """Drop-in flat-array replacement for
    :class:`~repro.rabbit.common.AggregationState`.

    Same attribute contract (``graph``/``dest``/``child``/``sibling``/
    ``adj``/``total_weight``) so the engine-neutral worker, recovery
    pass, and checkpoint driver treat both states uniformly; ``adj`` is
    a :class:`ShardedAdjacency` instead of a list of dicts.

    ``scalar_only`` forces the scalar fold path — set under race
    detection, where ``dest``/``child``/``sibling`` are scalar-indexing
    tracing proxies that refuse bulk numpy gathers by design.
    """

    __slots__ = (
        "graph",
        "dest",
        "child",
        "sibling",
        "adj",
        "total_weight",
        "scalar_only",
    )

    def __init__(
        self,
        graph: CSRGraph,
        dest: np.ndarray,
        child: np.ndarray,
        sibling: np.ndarray,
        adj: ShardedAdjacency,
        total_weight: float,
    ):
        self.graph = graph
        self.dest = dest
        self.child = child
        self.sibling = sibling
        self.adj = adj
        self.total_weight = total_weight
        self.scalar_only = False

    @classmethod
    def initialize(cls, graph: CSRGraph) -> "FlatAggregationState":
        n = graph.num_vertices
        return cls(
            graph=graph,
            dest=np.arange(n, dtype=np.int64),
            child=np.full(n, NO_VERTEX, dtype=np.int64),
            sibling=np.full(n, NO_VERTEX, dtype=np.int64),
            adj=ShardedAdjacency(n),
            total_weight=graph.total_edge_weight(),
        )

    # -- the fold ----------------------------------------------------------
    def make_fold(self):
        """A per-task fold closure for the engine-neutral worker.

        Parent-only (allocates the task's writer shard).  The closure
        folds ``u``'s community, stores the flat entry, and returns the
        ``(neighbour, weight)`` pairs in first-encounter order with the
        self-loop key excluded — exactly the scoring sequence the dict
        engine's ``aggregate_vertex`` + items() iteration produces.
        """
        shard = self.adj.new_shard()

        def fold(u: int, stats: RabbitStats):
            return self._fold(int(u), shard, stats)

        return fold

    def _fold(self, u: int, shard: int, stats: RabbitStats):
        adj = self.adj
        child = self.child
        sibling = self.sibling
        graph = self.graph
        indptr = graph.indptr
        members = [u]
        total = int(indptr[u + 1]) - int(indptr[u])
        length = adj.length
        c = int(child[u])
        while c != NO_VERTEX:
            members.append(c)
            total += int(length[c])
            c = int(sibling[c])
        if self.scalar_only or total <= SCALAR_CUTOFF:
            pairs, keys, ws = self._fold_scalar(u, members)
        else:
            pairs, keys, ws = self._fold_vector(u, members)
        stats.edges_scanned += total
        if stats.vertex_work is not None:
            stats.vertex_work[u] += total
        adj.store(shard, u, keys, ws)
        return pairs

    def _fold_scalar(self, u: int, members: list[int]):
        """Dict-engine-exact scalar fold (also the race-traced path: it
        touches ``dest`` one element at a time, so the tracing proxies
        see every access)."""
        dest = self.dest
        adj = self.adj
        graph = self.graph
        indices, weights = graph.indices, graph.weights
        acc: dict[int, float] = {}
        acc_get = acc.get
        loop = 0.0
        for s in members:
            if s == u:
                lo, hi = int(graph.indptr[u]), int(graph.indptr[u + 1])
                if weights is None:
                    pairs_in = ((t, 1.0) for t in indices[lo:hi].tolist())
                else:
                    pairs_in = zip(
                        indices[lo:hi].tolist(), weights[lo:hi].tolist()
                    )
                for t, w in pairs_in:
                    if t == u:
                        # Raw self-loop: doubled, and u is its own root
                        # pre-merge (same encounter position as the dict
                        # engine's trace + accumulate).
                        loop += 2.0 * w
                        continue
                    while True:  # inline trace_dest with compression
                        d = dest[t]
                        dd = dest[d]
                        if d == dd:
                            break
                        dest[t] = dd
                        t = dd
                    if d == u:
                        loop += w
                    else:
                        acc[d] = acc_get(d, 0.0) + w
                continue
            ks, vs = adj.entry(s)
            for t, w in zip(ks.tolist(), vs.tolist()):
                while True:
                    d = dest[t]
                    dd = dest[d]
                    if d == dd:
                        break
                    dest[t] = dd
                    t = dd
                if d == u:
                    loop += w
                else:
                    acc[d] = acc_get(d, 0.0) + w
        keys = list(acc.keys())
        ws = list(acc.values())
        pairs = list(zip(keys, ws))
        keys.append(u)  # self-loop entry last, per the arena convention
        ws.append(loop)
        return pairs, keys, ws

    def _fold_vector(self, u: int, members: list[int]):
        """Vectorised fold: gather, resolve with path compression,
        ``bincount`` dedup — bit-identical to the scalar path."""
        adj = self.adj
        t_all, w_all = gather_community(
            self.graph, u, (adj.entry(s) for s in members[1:])
        )
        v_all = trace_dest_array(self.dest, t_all)
        nk, nw, loop = dedupe_first_encounter(v_all, w_all, u)
        pairs = list(zip(nk.tolist(), nw.tolist()))
        cnt = nk.size + 1
        keys = np.empty(cnt, dtype=np.int64)
        ws = np.empty(cnt, dtype=np.float64)
        keys[:-1] = nk
        keys[-1] = u
        ws[:-1] = nw
        ws[-1] = loop
        return pairs, keys, ws
