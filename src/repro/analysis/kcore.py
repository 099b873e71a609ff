"""k-core decomposition — Batagelj–Zaveršnik O(m) bucket algorithm
(paper §IV-E; reference [29] of the paper).

Returns each vertex's *core number*: the largest k such that the vertex
belongs to a subgraph where every vertex has degree ≥ k.  Self-loops are
ignored (the conventional treatment; they would otherwise inflate a
vertex's degree by an edge that cannot help its neighbours).

The peel runs in C (``repro_core_numbers`` in :mod:`repro.native`) when
the library loads, and in the Python loop below otherwise; both bucket
vertices in id order and scan neighbours in slot order, so their core
numbers are array-equal.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.validate import require_symmetric
from repro.native import load_kernel
from repro.obs.trace import span

__all__ = ["core_numbers", "kcore_subgraph"]


def core_numbers(graph: CSRGraph) -> np.ndarray:
    """Core number per vertex via bucketed peeling, O(m)."""
    with span("analysis.kcore", n=graph.num_vertices):
        return _core_numbers(graph)


def _core_numbers(graph: CSRGraph) -> np.ndarray:
    require_symmetric(graph, "k-core decomposition")
    lib = load_kernel()
    if lib is not None:
        # The C peel skips self-loops in place: no loop-free copy.  The
        # symmetry check admits only duplicate-free rows, so every
        # degree is below n and the kernel's n + 1 buckets suffice.
        n = graph.num_vertices
        indptr = np.ascontiguousarray(graph.indptr)
        indices = np.ascontiguousarray(graph.indices)
        core = np.empty(n, dtype=np.int64)
        scratch = np.empty(3 * n + 1, dtype=np.int64)
        lib.repro_core_numbers(
            n, indptr.ctypes.data, indices.ctypes.data, core.ctypes.data,
            scratch.ctypes.data,
        )
        return core
    g = graph.without_self_loops()
    n = g.num_vertices
    deg = g.degrees().astype(np.int64)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    max_deg = int(deg.max(initial=0))
    # Bucket sort vertices by degree: pos[v] is v's slot in vert, which is
    # kept partitioned by current degree via swap-updates.
    bin_start = np.zeros(max_deg + 2, dtype=np.int64)
    np.cumsum(np.bincount(deg, minlength=max_deg + 1), out=bin_start[1:])
    bin_ptr = bin_start[:-1].copy()  # next free slot per degree bucket
    vert = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    for v in range(n):
        p = bin_ptr[deg[v]]
        vert[p] = v
        pos[v] = p
        bin_ptr[deg[v]] += 1
    # bin_cur[d]: start of the region of vertices with current degree >= d.
    bin_cur = bin_start[:-1].copy()
    core = deg.copy()
    indptr, indices = g.indptr, g.indices
    for i in range(n):
        v = int(vert[i])
        dv = core[v]
        for k in range(indptr[v], indptr[v + 1]):
            u = int(indices[k])
            du = core[u]
            if du <= dv:
                continue
            # Move u to the front of its bucket and shrink the bucket.
            pu = pos[u]
            pw = bin_cur[du]
            w = int(vert[pw])
            if u != w:
                vert[pu], vert[pw] = w, u
                pos[u], pos[w] = pw, pu
            bin_cur[du] += 1
            core[u] = du - 1
    return core


def kcore_subgraph(graph: CSRGraph, k: int) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph on vertices with core number >= k.

    Returns ``(subgraph, old_ids)``.
    """
    core = core_numbers(graph)
    return graph.subgraph(np.flatnonzero(core >= k))
