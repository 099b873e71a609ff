"""Process-pool Rabbit Order detection (``executor="procs"``).

True multicore rounds on shared memory, bit-identical to the sequential
oracle **by construction**:

* All mutable detection state lives in shared-memory arrays (the
  ``dest``/``child``/``sibling`` links, community degrees, and the
  folded adjacency in the :mod:`repro.rabbit.arena` pool layout).
* Workers are **pure readers**.  A round takes the next ``R`` vertices
  of the degree-sorted visit order, leases slices of it to the pool, and
  each worker speculatively *folds* its vertices against the round-start
  state — exactly the dict engine's fold (first-encounter accumulation
  order, self-loop last) with a non-mutating ``dest`` trace.  Folds
  above ``SCALAR_CUTOFF`` items run the vectorised concatenate-gather +
  ``bincount`` kernel of :mod:`repro.rabbit.fastpar` (bit-identical to
  the scalar accumulation), in place over the shared
  ndarrays — no per-edge Python in the hot path.
* Proposals return through a **shared-memory scratch** segment: the
  parent pre-computes a per-payload slice bound (CSR row plus stored
  child entry lengths — walking each child chain once, amortised O(n)
  over the run), workers write their folded ``(keys, ws)`` runs into
  their slice and send only ``(u, offset, count, loop, scanned)`` over
  the result pipe.  The in-parent fallback (and any worker seeing no
  scratch) degrades to inline ``(u, keys, ws, loop, scanned)`` lists —
  the parent accepts both forms.  A reclaimed lease cannot corrupt
  scratch: lost workers are SIGKILLed before their lease is re-run, and
  duplicate writes of the same slice are byte-identical anyway (the
  fold is a pure function of round-start state).
* The parent is the **sole writer**.  After the round it commits
  proposals sequentially in visit order.  A committed merge ``v → D``
  mutates only ``dest[v]``, ``sibling[v]``, ``child[D]``, and
  ``comm_deg[D]``, so it dirties ``{v, D}``; top-level commits mutate
  nothing a proposal reads.  A proposal is valid iff the dirty set is
  disjoint from its folded keys (which include every neighbour root and
  ``u`` itself); invalid proposals are recomputed in-parent against the
  now-sequential state.  Merge decisions (ΔQ scoring) always run in the
  parent at commit time, where ``comm_deg`` is exact.

Every committed vertex therefore sees precisely the state the dict
engine would have shown it — the dendrogram, stats, and permutation are
bit-identical to ``community_detection_seq``.  Fault tolerance comes for
free: a SIGKILLed worker cannot have corrupted anything, its lease is
reclaimed by :class:`~repro.parallel.procpool.ProcessPool` (ultimately
via the in-parent fallback, which computes the same proposals), and the
result is independent of which workers survived.

``RabbitStats.retries`` stays 0 on this path — speculation conflicts are
not the CAS protocol's retries and are tallied separately as the
``procpool.speculation.conflicts`` metrics counter.
"""

from __future__ import annotations

import numpy as np

from repro.community.dendrogram import NO_VERTEX, Dendrogram
from repro.community.modularity import newman_degrees
from repro.graph.csr import CSRGraph
from repro.graph.validate import check_weights, require_symmetric
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.parallel.atomics import OpCounter
from repro.parallel.procpool import (
    PoolChaosPlan,
    PoolConfig,
    ProcessPool,
    ShmArray,
)
from repro.rabbit.arena import NOT_STORED
from repro.rabbit.audit import audit_dendrogram
from repro.rabbit.common import RabbitStats
from repro.rabbit.fastpar import (
    SCALAR_CUTOFF,
    dedupe_first_encounter,
    gather_community,
)
from repro.rabbit.par import ParallelDetectionResult
from repro.rabbit.seq import restore_stats, visit_order
from repro.resilience.checkpoint import (
    Snapshot,
    as_checkpointer,
    build_snapshot,
    graph_fingerprint,
    require_fingerprint_match,
)
from repro.resilience.runtime import heartbeat

__all__ = ["community_detection_procs"]


# ---------------------------------------------------------------------------
# Shared state.


class _ShmState:
    """The engine-agnostic aggregation state, in shared memory.

    Fixed-size arrays (``dest``, ``child``, ``sibling``, ``comm_deg``,
    ``adj_offset``, ``adj_length``) are attached once per worker at
    startup; the append-only ``keys``/``ws`` pools grow by *generation*
    — a bigger segment replaces the old one during a commit phase (no
    concurrent readers), and workers re-attach when the spec name in the
    next round's payload changes.
    """

    def __init__(self, n: int, capacity: int):
        self.n = int(n)
        self.dest = ShmArray.create(n, np.int64)
        self.child = ShmArray.create(n, np.int64)
        self.sibling = ShmArray.create(n, np.int64)
        self.comm_deg = ShmArray.create(n, np.float64)
        self.adj_offset = ShmArray.create(n, np.int64)
        self.adj_length = ShmArray.create(n, np.int64)
        # The visit order, shared once so lease payloads are (lo, hi)
        # spans instead of pickled vertex lists.
        self.order = ShmArray.create(n, np.int64)
        cap = max(int(capacity), 16)
        self.keys = ShmArray.create(cap, np.int64)
        self.ws = ShmArray.create(cap, np.float64)
        self.cursor = 0
        self.grows = 0
        # Round-transient proposal scratch (see module docstring); grown
        # generationally like the pools, content never survives a round.
        self.scratch_keys: ShmArray | None = None
        self.scratch_ws: ShmArray | None = None

    def fixed_specs(self) -> dict:
        return {
            "dest": self.dest.spec,
            "child": self.child.spec,
            "sibling": self.sibling.spec,
            "comm_deg": self.comm_deg.spec,
            "adj_offset": self.adj_offset.spec,
            "adj_length": self.adj_length.spec,
            "order": self.order.spec,
        }

    def pool_specs(self) -> tuple:
        return self.keys.spec, self.ws.spec

    def ensure_scratch(self, total: int) -> tuple:
        """Size the proposal scratch for a round needing *total* items;
        returns its ``(keys_spec, ws_spec)``.  Parent-only, between
        rounds (workers re-attach when the segment name changes)."""
        need = max(int(total), 16)
        if self.scratch_keys is None or self.scratch_keys.array.size < need:
            new_cap = 16
            if self.scratch_keys is not None:
                new_cap = self.scratch_keys.array.size
                self.scratch_keys.destroy()
                self.scratch_ws.destroy()
            while new_cap < need:
                new_cap *= 2
            self.scratch_keys = ShmArray.create(new_cap, np.int64)
            self.scratch_ws = ShmArray.create(new_cap, np.float64)
        return self.scratch_keys.spec, self.scratch_ws.spec

    def _grow(self, need: int) -> None:
        new_cap = self.keys.array.size
        while new_cap < need:
            new_cap *= 2
        for name in ("keys", "ws"):
            old = getattr(self, name)
            grown = ShmArray.create(new_cap, old.array.dtype)
            grown.array[: self.cursor] = old.array[: self.cursor]
            old.destroy()
            setattr(self, name, grown)
        self.grows += 1

    def store(self, v: int, keys, ws, loop: float) -> None:
        """Append *v*'s folded entry plus its self-loop ``(v, loop)``
        tail (arena conventions: self-loop key last; called only from
        the parent's commit phase)."""
        keys = np.asarray(keys, dtype=np.int64)
        count = keys.size + 1
        if self.cursor + count > self.keys.array.size:
            self._grow(self.cursor + count)
        off = self.cursor
        end = off + count - 1
        self.keys.array[off:end] = keys
        self.keys.array[end] = v
        self.ws.array[off:end] = np.asarray(ws, dtype=np.float64)
        self.ws.array[end] = loop
        self.adj_offset.array[v] = off
        self.adj_length.array[v] = count
        self.cursor = off + count

    def iter_adjacency(self):
        offset = self.adj_offset.array
        length = self.adj_length.array
        keys = self.keys.array
        ws = self.ws.array
        for v in range(self.n):
            ln = int(length[v])
            if ln < 0:
                yield None
            else:
                off = int(offset[v])
                yield keys[off : off + ln], ws[off : off + ln]

    def restore_pools(self, offsets, lengths, keys, ws, extra_capacity: int):
        used = int(keys.size)
        if used + extra_capacity > self.keys.array.size:
            self._grow(used + extra_capacity)
        self.keys.array[:used] = keys
        self.ws.array[:used] = ws
        self.adj_offset.array[:] = 0
        stored = lengths >= 0
        self.adj_offset.array[stored] = offsets[stored]
        self.adj_length.array[:] = lengths
        self.cursor = used

    def destroy(self) -> None:
        for name in (
            "dest",
            "child",
            "sibling",
            "comm_deg",
            "adj_offset",
            "adj_length",
            "order",
            "keys",
            "ws",
            "scratch_keys",
            "scratch_ws",
        ):
            arr = getattr(self, name)
            if arr is not None:
                arr.destroy()


# ---------------------------------------------------------------------------
# The fold (worker and parent share it; read-only by contract).


def _find_root(dest, v: int) -> int:
    """Non-mutating community trace: the root :func:`trace_dest` finds,
    without its path-compression writes (workers may not write)."""
    v = int(v)
    while True:
        d = int(dest[v])
        if d == v:
            return v
        v = d


def _fold_vertex(
    graph, dest, child, sibling, adj_offset, adj_length, keys_pool, ws_pool, u
):
    """Dict-engine-exact fold of ``u``'s community.

    Members are ``u`` (raw CSR row, doubled self-loops) plus its direct
    children (their stored arena slices).  Returns ``(acc, loop,
    scanned)`` with ``acc`` in first-encounter order — the insertion
    order :func:`repro.rabbit.common.aggregate_vertex` produces.
    """
    u = int(u)
    acc: dict[int, float] = {}
    loop = 0.0
    scanned = 0
    members = [u]
    c = int(child[u])
    while c != NO_VERTEX:
        members.append(c)
        c = int(sibling[c])
    indptr = graph.indptr
    indices = graph.indices
    weights = graph.weights
    for s in members:
        if s == u:
            lo, hi = int(indptr[s]), int(indptr[s + 1])
            for k in range(lo, hi):
                t = int(indices[k])
                w = 1.0 if weights is None else float(weights[k])
                if t == s:
                    w *= 2.0
                scanned += 1
                v = _find_root(dest, t)
                if v == u:
                    loop += w
                else:
                    acc[v] = acc.get(v, 0.0) + w
        else:
            off = int(adj_offset[s])
            end = off + int(adj_length[s])
            for k in range(off, end):
                t = int(keys_pool[k])
                w = float(ws_pool[k])
                scanned += 1
                v = _find_root(dest, t)
                if v == u:
                    loop += w
                else:
                    acc[v] = acc.get(v, 0.0) + w
    return acc, loop, scanned


def _find_roots_array(dest, t: np.ndarray) -> np.ndarray:
    """Vectorised non-mutating community trace: per-element identical to
    :func:`_find_root` (workers may not write, so no path compression).
    Terminates because ``dest`` is static during a round and root
    vertices map to themselves."""
    v = dest[t]
    vv = dest[v]
    while not np.array_equal(v, vv):
        v = vv
        vv = dest[v]
    return v


def _fold_vertex_arrays(
    graph, dest, child, sibling, adj_offset, adj_length, keys_pool, ws_pool, u
):
    """The fold of :func:`_fold_vertex`, vectorised above
    ``SCALAR_CUTOFF`` folded items (numpy call overhead loses below it).

    Returns ``(keys, ws, loop, scanned)`` — keys/ws are lists (scalar
    path) or ndarrays (vector path); both orderings and every float
    rounding step are bit-identical to the dict accumulation (see
    :mod:`repro.rabbit.fastpar`).  The vector path gathers through
    :func:`~repro.rabbit.fastpar.gather_community` and resolves with
    the non-mutating :func:`_find_roots_array`.
    """
    u = int(u)
    indptr = graph.indptr
    members = [u]
    total = int(indptr[u + 1]) - int(indptr[u])
    c = int(child[u])
    while c != NO_VERTEX:
        members.append(c)
        total += int(adj_length[c])
        c = int(sibling[c])
    if total <= SCALAR_CUTOFF:
        acc, loop, scanned = _fold_vertex(
            graph, dest, child, sibling, adj_offset, adj_length,
            keys_pool, ws_pool, u,
        )
        return list(acc.keys()), list(acc.values()), loop, scanned
    entries = []
    for s in members[1:]:
        off = int(adj_offset[s])
        end = off + int(adj_length[s])
        entries.append((keys_pool[off:end], ws_pool[off:end]))
    t_all, w_all = gather_community(graph, u, entries)
    v_all = _find_roots_array(dest, t_all)
    nk, nw, loop = dedupe_first_encounter(v_all, w_all, u)
    return nk, nw, loop, total


def _propose(graph, dest, child, sibling, adj_offset, adj_length,
             keys_pool, ws_pool, u):
    """Inline-form proposal (pipe transport): used by the in-parent
    fallback and by workers handed no scratch segment."""
    keys, ws, loop, scanned = _fold_vertex_arrays(
        graph, dest, child, sibling, adj_offset, adj_length,
        keys_pool, ws_pool, u,
    )
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()
        ws = ws.tolist()
    return (int(u), keys, ws, float(loop), int(scanned))


def _rabbit_worker_factory(init, beat):
    """Pool worker: attach the shared state, then serve lease payloads
    of visit-order vertices, returning one proposal per vertex — via the
    round's scratch segment when the payload carries one (the metadata
    tuple ``(u, offset, count, loop, scanned)``), inline otherwise."""
    graph, fixed = init
    # ``attached`` must stay referenced by the closure: the ndarray
    # views alone do not keep the segments mapped (see ShmArray).
    attached = {name: ShmArray.attach(spec) for name, spec in fixed.items()}
    pools: dict[str, ShmArray] = {}
    scratch: dict[str, ShmArray] = {}

    def run(payload):
        dest = attached["dest"].array
        child = attached["child"].array
        sibling = attached["sibling"].array
        adj_offset = attached["adj_offset"].array
        adj_length = attached["adj_length"].array
        kspec, wspec = payload["pools"]
        cached = pools.get("keys")
        if cached is None or cached.shm.name != kspec.name:
            for arr in pools.values():
                arr.close()
            pools["keys"] = ShmArray.attach(kspec)
            pools["ws"] = ShmArray.attach(wspec)
        keys_pool = pools["keys"].array
        ws_pool = pools["ws"].array
        specs = payload.get("scratch")
        scratch_keys = scratch_ws = None
        if specs is not None:
            skspec, swspec = specs
            held = scratch.get("keys")
            if held is None or held.shm.name != skspec.name:
                for arr in scratch.values():
                    arr.close()
                scratch["keys"] = ShmArray.attach(skspec)
                scratch["ws"] = ShmArray.attach(swspec)
            scratch_keys = scratch["keys"].array
            scratch_ws = scratch["ws"].array
        cursor = int(payload.get("scratch_off", 0))
        limit = cursor + int(payload.get("scratch_len", 0))
        vertices = payload.get("vertices")
        if vertices is None:
            lo, hi = payload["span"]
            vertices = attached["order"].array[lo:hi]
        out = []
        for k, u in enumerate(vertices):
            # Beat per lease plus every 64 vertices: per-vertex beats
            # flood the beat pipe (a syscall each side) and dominate the
            # parent's poll loop; folds are microseconds, so 64 of them
            # stay far inside any heartbeat_timeout_s.
            if not (k & 63):
                beat()
            keys, ws, loop, scanned = _fold_vertex_arrays(
                graph, dest, child, sibling, adj_offset, adj_length,
                keys_pool, ws_pool, u,
            )
            count = len(keys)
            if scratch_keys is not None and cursor + count <= limit:
                scratch_keys[cursor : cursor + count] = keys
                scratch_ws[cursor : cursor + count] = ws
                out.append(
                    (int(u), int(cursor), int(count), float(loop),
                     int(scanned))
                )
                cursor += count
            else:
                if isinstance(keys, np.ndarray):
                    keys = keys.tolist()
                    ws = ws.tolist()
                out.append((int(u), keys, ws, float(loop), int(scanned)))
        return out

    return run


# ---------------------------------------------------------------------------
# Parent driver.


def community_detection_procs(
    graph: CSRGraph,
    *,
    num_procs: int = 2,
    merge_threshold: float = 0.0,
    collect_vertex_work: bool = False,
    audit: bool = False,
    checkpoint=None,
    resume: Snapshot | None = None,
    chaos: PoolChaosPlan | None = None,
    pool_config: PoolConfig | None = None,
) -> ParallelDetectionResult:
    """Round-based detection on the supervised process pool.

    Parameters mirror :func:`~repro.rabbit.par.community_detection_par`
    where they overlap; ``chaos`` injects a seed-replayable worker
    kill/hang campaign (the stress harness's knob), and ``pool_config``
    overrides the pool's supervision parameters (its ``num_workers``
    wins over ``num_procs`` when both are given).

    The result is bit-identical to the sequential engines (see module
    docstring), including across checkpoint/resume and worker loss.
    """
    require_symmetric(graph, "Rabbit Order")
    check_weights(graph)
    n = graph.num_vertices
    registry = get_registry()
    if graph.total_edge_weight() <= 0.0:
        stats = RabbitStats(toplevels=n)
        dendrogram = Dendrogram(
            child=np.full(n, NO_VERTEX, dtype=np.int64),
            sibling=np.full(n, NO_VERTEX, dtype=np.int64),
            toplevel=np.arange(n, dtype=np.int64),
        )
        registry.absorb_rabbit_stats(stats)
        audit_report = None
        if audit:
            audit_report = audit_dendrogram(graph, dendrogram, stats=stats)
            audit_report.raise_if_failed()
        return ParallelDetectionResult(
            dendrogram=dendrogram,
            stats=stats,
            op_counter=OpCounter(),
            num_workers=0,
            worker_work=np.zeros(0, dtype=np.int64),
            audit_report=audit_report,
        )
    if pool_config is None:
        pool_config = PoolConfig(num_workers=num_procs)
    ckpt = as_checkpointer(checkpoint)
    fingerprint = graph_fingerprint(graph, merge_threshold=merge_threshold)
    stats = RabbitStats()
    if collect_vertex_work:
        stats.vertex_work = np.zeros(n, dtype=np.int64)
    toplevel: list[int] = []
    lease_edges: list[int] = []
    start = 0
    capacity = graph.num_edges + n + 1
    with span("rabbit.procs.setup", n=n):
        state = _ShmState(n, capacity)
    try:
        if resume is None:
            order = visit_order(graph, "degree", 0)
            state.dest.array[:] = np.arange(n, dtype=np.int64)
            state.child.array[:] = NO_VERTEX
            state.sibling.array[:] = NO_VERTEX
            state.comm_deg.array[:] = newman_degrees(graph)
            state.adj_offset.array[:] = 0
            state.adj_length.array[:] = NOT_STORED
        else:
            require_fingerprint_match(resume, fingerprint)
            start = resume.progress
            order = resume.order.copy()
            state.dest.array[:] = resume.dest
            state.child.array[:] = resume.child
            state.sibling.array[:] = resume.sibling
            # Merged vertices carry INVALID_DEGREE — never read again
            # (only roots are scored), same as the other engines.
            state.comm_deg.array[:] = resume.degrees
            state.restore_pools(
                resume.adj_offsets,
                resume.adj_lengths,
                resume.adj_keys,
                resume.adj_ws,
                extra_capacity=capacity,
            )
            toplevel = resume.toplevel.tolist()
            lease_edges = resume.chunk_edges.tolist()
            restore_stats(stats, resume)
        state.order.array[:] = order
        if ckpt is not None:
            round_size = max(1, ckpt.every)
        elif resume is not None and resume.config.get("checkpoint_every"):
            round_size = max(1, int(resume.config["checkpoint_every"]))
        else:
            # Larger rounds amortise dispatch/commit barriers; the result
            # is round-size-independent (conflicted speculation is simply
            # refolded in-parent), so this is purely a throughput knob.
            round_size = max(512, 128 * pool_config.num_workers)
        config = {
            "engine": "procs",
            "executor": "procs",
            "num_threads": int(pool_config.num_workers),
            "num_procs": int(pool_config.num_workers),
            "checkpoint_every": int(round_size),
            "merge_threshold": float(merge_threshold),
            "collect_vertex_work": bool(collect_vertex_work),
            "parallel": True,
        }
        dest = state.dest.array
        child = state.child.array
        sibling = state.sibling.array
        comm_deg = state.comm_deg.array
        two_m = 2.0 * graph.total_edge_weight()
        inv_2m = 1.0 / two_m
        conflicts = registry.counter("procpool.speculation.conflicts")

        def local_fold(u):
            return _fold_vertex_arrays(
                graph, dest, child, sibling,
                state.adj_offset.array, state.adj_length.array,
                state.keys.array, state.ws.array, u,
            )

        def fallback(payload):
            # In-parent sequential fallback for quarantined/orphaned
            # leases.  Valid mid-round: the parent commits only *after*
            # run_round returns, so the state equals the round start.
            vs = payload.get("vertices")
            if vs is None:
                lo, hi = payload["span"]
                vs = order[lo:hi]
            return [
                _propose(
                    graph, dest, child, sibling,
                    state.adj_offset.array, state.adj_length.array,
                    state.keys.array, state.ws.array, u,
                )
                for u in vs
            ]

        with span(
            "rabbit.procs.aggregate",
            n=n,
            workers=pool_config.num_workers,
            round_size=round_size,
        ):
            with ProcessPool(
                _rabbit_worker_factory,
                (graph, state.fixed_specs()),
                config=pool_config,
                fallback=fallback,
                chaos=chaos,
            ) as pool:
                pos = start
                # Round numbering restarts from the boundary position so
                # a resumed run replays the same chaos/backoff seeds.
                round_idx = start // round_size
                # A committed merge v -> D invalidates exactly (a) any
                # proposal whose folded keys name the *moved* source v
                # (its endpoints re-root to D), and (b) D's *own* fold
                # (its member chain gained v).  A fold never reads its
                # keys' comm_deg/child state, so proposals that merely
                # name D as a neighbour stay exact — the parent always
                # scores against live community degrees anyway.
                moved_mask = np.zeros(n, dtype=bool)
                gained_mask = np.zeros(n, dtype=bool)
                dirtied: list[int] = []
                indptr = graph.indptr
                adj_length = state.adj_length.array
                while pos < n:
                    stop = min(n, pos + round_size)
                    vertices = order[pos:stop]
                    lease = max(
                        1,
                        -(-int(vertices.size)
                          // max(1, 2 * pool_config.num_workers)),
                    )
                    kspec, wspec = state.pool_specs()
                    # Exact per-vertex fold-size bound (CSR row + stored
                    # child entries at round start) sizes the scratch;
                    # each merged vertex is walked as a child once per
                    # run, so this amortises to O(n + m) overall.
                    bounds = []
                    for u in vertices.tolist():
                        b = int(indptr[u + 1]) - int(indptr[u])
                        c = int(child[u])
                        while c != NO_VERTEX:
                            b += int(adj_length[c])
                            c = int(sibling[c])
                        bounds.append(b)
                    scratch_specs = state.ensure_scratch(sum(bounds))
                    payloads = []
                    scratch_off = 0
                    for a in range(0, int(vertices.size), lease):
                        blen = int(sum(bounds[a : a + lease]))
                        hi = min(stop, pos + a + lease)
                        payloads.append(
                            {
                                "span": (pos + a, hi),
                                "pools": (kspec, wspec),
                                "scratch": scratch_specs,
                                "scratch_off": scratch_off,
                                "scratch_len": blen,
                            }
                        )
                        scratch_off += blen
                    returned = pool.run_round(payloads, round_idx=round_idx)
                    by_u = {
                        p[0]: p for chunk in returned for p in chunk
                    }
                    scratch_k = state.scratch_keys.array
                    scratch_w = state.scratch_ws.array
                    # Sequential commit in visit order (sole writer).
                    for v in dirtied:
                        moved_mask[v] = False
                        gained_mask[v] = False
                    dirtied.clear()
                    for i in range(pos, stop):
                        u = int(order[i])
                        heartbeat()
                        prop = by_u.get(u)
                        if prop is None:
                            keys = ws = None
                        elif isinstance(prop[1], list):
                            keys = np.asarray(prop[1], dtype=np.int64)
                            ws = np.asarray(prop[2], dtype=np.float64)
                            loop, scanned = prop[3], prop[4]
                        else:  # scratch form: (u, offset, count, ...)
                            off, cnt = int(prop[1]), int(prop[2])
                            keys = scratch_k[off : off + cnt]
                            ws = scratch_w[off : off + cnt]
                            loop, scanned = prop[3], prop[4]
                        if (
                            keys is None
                            or gained_mask[u]
                            or (keys.size and moved_mask[keys].any())
                        ):
                            # Speculation conflict (or lost proposal):
                            # refold against the now-sequential state.
                            if prop is not None:
                                conflicts.inc()
                            keys, ws, loop, scanned = local_fold(u)
                            keys = np.asarray(keys, dtype=np.int64)
                            ws = np.asarray(ws, dtype=np.float64)
                        d_u = float(comm_deg[u])
                        penalty = d_u / (two_m * two_m)
                        if keys.size:
                            dq = 2.0 * (ws * inv_2m - comm_deg[keys] * penalty)
                            j = int(np.argmax(dq))  # first strict max, as
                            best_dq = float(dq[j])  # the scalar scan picks
                            best_v = int(keys[j])
                        else:
                            best_v = -1
                            best_dq = -np.inf
                        state.store(u, keys, ws, float(loop))
                        stats.edges_scanned += scanned
                        if stats.vertex_work is not None:
                            stats.vertex_work[u] += scanned
                        if best_v < 0 or best_dq <= merge_threshold:
                            toplevel.append(u)
                            stats.toplevels += 1
                        else:
                            dest[u] = best_v
                            sibling[u] = child[best_v]
                            child[best_v] = u
                            comm_deg[best_v] += d_u
                            stats.merges += 1
                            moved_mask[u] = True
                            gained_mask[best_v] = True
                            dirtied.append(u)
                            dirtied.append(best_v)
                    lease_edges.extend(
                        sum(p[4] for p in chunk) for chunk in returned
                    )
                    pos = stop
                    round_idx += 1
                    if ckpt is not None:
                        ckpt.save(
                            build_snapshot(
                                engine="procs",
                                progress=pos,
                                order=order,
                                dest=dest,
                                child=child,
                                sibling=sibling,
                                comm_deg=comm_deg,
                                toplevel=toplevel,
                                adjacency=state.iter_adjacency(),
                                stats=stats,
                                fingerprint=fingerprint,
                                config=config,
                                chunk_edges=lease_edges,
                            )
                        )
        dendrogram = Dendrogram(
            child=child.copy(),
            sibling=sibling.copy(),
            toplevel=np.array(toplevel, dtype=np.int64),
        )
        worker_work = np.array(lease_edges, dtype=np.int64)
    finally:
        state.destroy()
    registry.absorb_rabbit_stats(stats)
    audit_report = None
    if audit:
        with span("rabbit.procs.audit", n=n):
            audit_report = audit_dendrogram(graph, dendrogram, stats=stats)
        audit_report.raise_if_failed()
    return ParallelDetectionResult(
        dendrogram=dendrogram,
        stats=stats,
        op_counter=OpCounter(),
        num_workers=pool_config.num_workers,
        worker_work=worker_work,
        audit_report=audit_report,
    )
