"""Flat-array sequential Rabbit Order engine (``engine="fast"``).

:func:`repro.rabbit.seq.community_detection_seq` runs this engine when
:func:`~repro.native.load_kernel` provides the C library, and the dict
engine otherwise.  The sweep (Algorithm 2 lines 3–8 with Algorithm 4's
lazy fold) is the C kernel ``rabbit_fold_sweep`` of
``repro/native/fold_kernel.c``, driven in chunks of :data:`NATIVE_CHUNK`
vertices by :func:`_sweep_native`; the folded adjacencies live in an
:class:`~repro.rabbit.arena.AdjacencyArena`.  This module sets the state
up, restores it from a snapshot, and snapshots it between chunks.

The kernel performs every floating-point operation in the dict engine's
order (see the C source's header), so the dendrogram is bit-identical to
the dict oracle's, which ``tests/rabbit/test_fastseq_equivalence.py``
asserts.  Snapshots are engine-agnostic: a run of either engine resumes
on the other.
"""

from __future__ import annotations

import numpy as np

from repro.community.dendrogram import NO_VERTEX, Dendrogram
from repro.community.modularity import newman_degrees
from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.graph.validate import check_weights, require_symmetric
from repro.native import load_kernel
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.rabbit.arena import AdjacencyArena
from repro.rabbit.common import RabbitStats
from repro.resilience.checkpoint import (
    Snapshot,
    as_checkpointer,
    build_snapshot,
    graph_fingerprint,
    require_fingerprint_match,
)
from repro.resilience.runtime import heartbeat
from repro.rabbit.seq import restore_stats, visit_order

__all__ = ["community_detection_fastseq", "NATIVE_CHUNK"]

#: Vertices per call into the native kernel: between calls the driver
#: beats the heartbeat (so supervisor budgets can cancel), snapshots at
#: checkpoint boundaries and grows the pools.
NATIVE_CHUNK: int = 1024


def _sweep_native(
    kernel,
    graph: CSRGraph,
    order: np.ndarray,
    start: int,
    dest: np.ndarray,
    child: np.ndarray,
    sibling: np.ndarray,
    comm_deg: np.ndarray,
    arena: AdjacencyArena,
    toplevel: list[int],
    stats: RabbitStats,
    two_m: float,
    merge_threshold: float,
    ckpt,
    snapshot,
) -> np.ndarray:
    """Drive the C kernel over ``order[start:]`` in chunks, mutating the
    state arrays in place; returns the top-level vertices and leaves the
    counters in *stats*."""
    n = graph.num_vertices
    order = np.ascontiguousarray(order, dtype=np.int64)
    indptr = np.ascontiguousarray(graph.indptr)
    indices = np.ascontiguousarray(graph.indices)
    weights = graph.weights
    if weights is not None:
        weights = np.ascontiguousarray(weights)
    top = np.empty(n, dtype=np.int64)
    top[: len(toplevel)] = toplevel
    pos = np.full(n, -1, dtype=np.int64)  # kernel scratch, all -1 between folds
    vw = stats.vertex_work
    # cursor, toplevels, edges_scanned, merges, slots the next fold needs
    ctr = np.array(
        [arena.used, len(toplevel), stats.edges_scanned, stats.merges, 0],
        dtype=np.int64,
    )
    head = (
        indptr.ctypes.data,
        indices.ctypes.data,
        None if weights is None else weights.ctypes.data,
        order.ctypes.data,
    )
    state = tuple(a.ctypes.data for a in (dest, child, sibling, comm_deg))
    tail = (
        pos.ctypes.data,
        top.ctypes.data,
        None if vw is None else vw.ctypes.data,
        two_m,
        float(merge_threshold),
        ctr.ctypes.data,
    )

    def sync_stats() -> None:
        stats.toplevels = int(ctr[1])
        stats.edges_scanned = int(ctr[2])
        stats.merges = int(ctr[3])

    i = announced = start
    while i < n:
        j = min(n, i + NATIVE_CHUNK)
        if ckpt is not None:
            j = min(j, ckpt.next_due(i))
        heartbeat(max(j - announced, 0))
        announced = max(announced, j)
        reached = kernel(
            *head, i, j, *state,
            arena.offset.ctypes.data, arena.length.ctypes.data,
            arena.keys.ctypes.data, arena.ws.ctypes.data, arena.capacity,
            *tail,
        )
        # The kernel filled and committed [used, ctr[0]); claim it.
        arena.reserve(int(ctr[0]) - arena.used)
        if reached < j:
            arena.grow(int(ctr[4]))
        elif ckpt is not None and ckpt.due(reached):
            sync_stats()
            ckpt.save(snapshot(reached, top[: int(ctr[1])]))
        i = reached
    sync_stats()
    return top[: int(ctr[1])].copy()


def community_detection_fastseq(
    graph: CSRGraph,
    *,
    collect_vertex_work: bool = False,
    merge_threshold: float = 0.0,
    visit: str = "degree",
    visit_rng: int | None = 0,
    checkpoint=None,
    resume: Snapshot | None = None,
) -> tuple[Dendrogram, RabbitStats]:
    """Flat-array sequential community detection on the C kernel.

    Same parameters and ``(dendrogram, stats)`` contract as the dict
    engine, bit-identical output.  Raises :class:`~repro.errors.ReproError`
    when the native library is unavailable; call
    :func:`~repro.rabbit.seq.community_detection_seq`, which falls back
    to the dict engine, to run on any host.

    Parameters
    ----------
    checkpoint:
        :class:`~repro.resilience.checkpoint.CheckpointConfig` or
        :class:`~repro.resilience.checkpoint.Checkpointer`: snapshot the
        aggregation state every ``every`` decided vertices.
    resume:
        :class:`~repro.resilience.checkpoint.Snapshot` to restore and
        continue from (fingerprint-checked; any engine's snapshot).
    """
    kernel = load_kernel()
    if kernel is None:
        raise ReproError(
            "the fast sequential engine needs the native library, which "
            "did not load; community_detection_seq falls back to the "
            "dict engine"
        )
    require_symmetric(graph, "Rabbit Order")
    check_weights(graph)
    ckpt = as_checkpointer(checkpoint)
    n = graph.num_vertices
    with span("rabbit.seq.setup", n=n, engine="native"):
        stats = RabbitStats()
        if collect_vertex_work:
            stats.vertex_work = np.zeros(n, dtype=np.int64)
        comm_deg = newman_degrees(graph)
        m = graph.total_edge_weight()
    if m <= 0.0:
        # Edgeless graph: every vertex is trivially top-level.
        stats.toplevels = n
        return (
            Dendrogram(
                child=np.full(n, NO_VERTEX, dtype=np.int64),
                sibling=np.full(n, NO_VERTEX, dtype=np.int64),
                toplevel=np.arange(n, dtype=np.int64),
            ),
            stats,
        )

    two_m = 2.0 * m
    fingerprint = graph_fingerprint(
        graph, merge_threshold=merge_threshold, visit=visit, visit_rng=visit_rng
    )
    start = 0
    if resume is None:
        order = visit_order(graph, visit, visit_rng)
        dest = np.arange(n, dtype=np.int64)
        child = np.full(n, NO_VERTEX, dtype=np.int64)
        sibling = np.full(n, NO_VERTEX, dtype=np.int64)
        arena = AdjacencyArena(n, capacity=graph.num_edges + n + 1)
        toplevel: list[int] = []
    else:
        require_fingerprint_match(resume, fingerprint)
        start = resume.progress
        # Fresh C-contiguous int64/float64 copies: the kernel writes
        # through raw pointers.
        order = np.array(resume.order, dtype=np.int64)
        dest = np.array(resume.dest, dtype=np.int64)
        child = np.array(resume.child, dtype=np.int64)
        sibling = np.array(resume.sibling, dtype=np.int64)
        # Merged vertices carry INVALID_DEGREE (never read again);
        # roots carry their exact accumulated community degree.
        comm_deg = np.array(resume.degrees, dtype=np.float64)
        arena = AdjacencyArena.from_pools(
            resume.adj_offsets,
            resume.adj_lengths,
            resume.adj_keys,
            resume.adj_ws,
            extra_capacity=graph.num_edges + n + 1,
        )
        toplevel = resume.toplevel.tolist()
        restore_stats(stats, resume)
    config = {
        "engine": "fast",
        "visit": visit,
        "visit_rng": visit_rng,
        "collect_vertex_work": collect_vertex_work,
        "parallel": False,
    }

    def snapshot(progress, toplevel):
        return build_snapshot(
            engine="fast",
            progress=progress,
            order=order,
            dest=dest,
            child=child,
            sibling=sibling,
            comm_deg=comm_deg,
            toplevel=toplevel,
            adjacency=arena.entries(),
            stats=stats,
            fingerprint=fingerprint,
            config=config,
        )

    with span("rabbit.seq.aggregate", n=n, engine="native"):
        top = _sweep_native(
            kernel.rabbit_fold_sweep, graph, order, start, dest,
            child, sibling, comm_deg, arena, toplevel, stats, two_m,
            merge_threshold, ckpt, snapshot,
        )
    get_registry().absorb_rabbit_stats(stats)
    return Dendrogram(child=child, sibling=sibling, toplevel=top), stats
