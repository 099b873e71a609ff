"""Eager-aggregation ablation baseline.

The paper's *lazy* aggregation defers edge rewriting until a community's
representative is itself processed, touching every community's edge set
once.  This module implements the straightforward alternative —
**eager** aggregation, which merges the source vertex's adjacency into
the destination at every single merge — so the ablation bench
(``benchmarks/bench_abl_lazy.py``) can measure what laziness buys.

Both variants produce the same greedy decisions when run sequentially in
the same visit order (each merge sees identical community edge sets);
only the *work* differs: eager re-merges a growing community's dict over
and over, lazy folds it once.
"""

from __future__ import annotations

import numpy as np

from repro.community.dendrogram import NO_VERTEX, Dendrogram
from repro.community.modularity import newman_degrees
from repro.graph.csr import CSRGraph
from repro.graph.validate import check_weights, require_symmetric
from repro.rabbit.common import RabbitStats

__all__ = ["community_detection_eager"]


def community_detection_eager(
    graph: CSRGraph,
    *,
    merge_threshold: float = 0.0,
) -> tuple[Dendrogram, RabbitStats]:
    """Sequential incremental aggregation with eager edge rewriting.

    Returns the same ``(dendrogram, stats)`` pair as
    :func:`~repro.rabbit.seq.community_detection_seq`; ``stats`` counts
    the (larger) eager work.
    """
    require_symmetric(graph, "Rabbit Order (eager ablation)")
    check_weights(graph)
    n = graph.num_vertices
    stats = RabbitStats()
    child = np.full(n, NO_VERTEX, dtype=np.int64)
    sibling = np.full(n, NO_VERTEX, dtype=np.int64)
    m = graph.total_edge_weight()
    if m <= 0.0:
        stats.toplevels = n
        return (
            Dendrogram(
                child=child, sibling=sibling, toplevel=np.arange(n, dtype=np.int64)
            ),
            stats,
        )
    # Materialise every adjacency up front (already "aggregated").
    adj: list[dict[int, float]] = []
    for v in range(n):
        row: dict[int, float] = {}
        nbrs = graph.neighbors(v)
        wts = graph.neighbor_weights(v)
        for t, w in zip(nbrs.tolist(), wts.tolist()):
            row[t] = row.get(t, 0.0) + (2.0 * w if t == v else w)
        adj.append(row)
        stats.edges_scanned += len(row)
    comm_deg = newman_degrees(graph)
    alive = np.ones(n, dtype=bool)
    dest = np.arange(n, dtype=np.int64)
    toplevel: list[int] = []
    two_m = 2.0 * m
    order = np.argsort(graph.degrees(), kind="stable")
    for u_np in order:
        u = int(u_np)
        if not alive[u]:
            # Already folded into another vertex by an eager merge; its
            # edges live at its destination now.
            continue
        neighbors = adj[u]
        best_v = -1
        best_dq = -np.inf
        d_u = comm_deg[u]
        inv_2m = 1.0 / two_m
        penalty = d_u / (two_m * two_m)
        for v, w in neighbors.items():
            if v == u:
                continue
            dq = 2.0 * (w * inv_2m - comm_deg[v] * penalty)
            if dq > best_dq:
                best_dq = dq
                best_v = v
        if best_v < 0 or best_dq <= merge_threshold:
            toplevel.append(u)
            stats.toplevels += 1
            continue
        # Eager merge: rewrite u's whole edge set into best_v right now.
        v = best_v
        loop_gain = 2.0 * neighbors.get(v, 0.0)
        for t, w in neighbors.items():
            if t == u or t == v:
                stats.edges_scanned += 1
                continue
            # Move edge {u, t} to {v, t} on both endpoints: three touches
            # (insert at v, insert at t, delete at t) versus lazy's single
            # fold — this is exactly the overhead laziness avoids.
            adj[v][t] = adj[v].get(t, 0.0) + w
            row_t = adj[t]
            row_t[v] = row_t.get(v, 0.0) + w
            row_t.pop(u, None)
            stats.edges_scanned += 3
        adj[v][v] = adj[v].get(v, 0.0) + neighbors.get(u, 0.0) + loop_gain
        adj[v].pop(u, None)
        adj[u] = {}
        alive[u] = False
        dest[u] = v
        sibling[u] = child[v]
        child[v] = u
        comm_deg[v] += d_u
        stats.merges += 1
    return (
        Dendrogram(
            child=child,
            sibling=sibling,
            toplevel=np.array(toplevel, dtype=np.int64),
        ),
        stats,
    )
