"""Sparse matrix–vector multiplication over CSR (paper Algorithm 1).

Two kernels:

* :func:`spmv` — the production kernel: Algorithm 1's row loop in C
  (``repro_spmv`` in :mod:`repro.native`), or a ``bincount`` row
  reduction where the library does not build.  Both sum each row from
  0.0 in slot order, so they are array-equal to each other and to the
  oracle.
* :func:`spmv_naive` — a line-for-line transcription of Algorithm 1, used
  as the test oracle and as the definition of the memory-access stream the
  cache simulator replays (:mod:`repro.cache.trace` generates addresses in
  exactly this loop order, which is also the C kernel's).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.validate import check_weights
from repro.native import load_kernel

__all__ = ["inverse_degrees", "spmv", "spmv_naive"]


def _check_vector(graph: CSRGraph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (graph.num_vertices,):
        raise GraphFormatError(
            f"x must have shape ({graph.num_vertices},), got {x.shape}"
        )
    return x


def spmv(graph: CSRGraph, x) -> np.ndarray:
    """Compute ``y = A x`` where ``A`` is *graph*'s (weighted) adjacency
    matrix in CSR form."""
    x = _check_vector(graph, x)
    n = graph.num_vertices
    if graph.num_edges == 0:
        return np.zeros(n, dtype=np.float64)
    lib = load_kernel()
    if lib is None:
        contrib = graph.edge_weights() * x[graph.indices]
        return np.bincount(graph.row_of_slot(), weights=contrib, minlength=n)
    # Locals keep any contiguous copies alive through the call.
    x = np.ascontiguousarray(x)
    indptr = np.ascontiguousarray(graph.indptr)
    indices = np.ascontiguousarray(graph.indices)
    weights = graph.weights
    if weights is not None:
        weights = np.ascontiguousarray(weights)
    y = np.empty(n, dtype=np.float64)
    lib.repro_spmv(
        n, indptr.ctypes.data, indices.ctypes.data,
        None if weights is None else weights.ctypes.data, x.ctypes.data,
        y.ctypes.data,
    )
    return y


def inverse_degrees(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """``(1 / d(v), dangling)`` for the random-walk solvers (PageRank,
    RWR), with ``0.0`` at dangling (degree-0) vertices.

    Raises :class:`GraphFormatError` on a NaN, infinite or negative edge
    weight, and on a degree so small (subnormal) that its reciprocal
    overflows: ``spmv`` would multiply that ``inf`` by a zero weight and
    every score would turn NaN.
    """
    check_weights(graph)
    deg = graph.weighted_degrees()
    dangling = deg == 0.0
    with np.errstate(divide="ignore", over="ignore"):
        inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    bad = np.flatnonzero(~np.isfinite(inv_deg))
    if bad.size:
        v = int(bad[0])
        raise GraphFormatError(
            f"vertex {v} has weighted degree {float(deg[v])!r}, whose "
            "reciprocal overflows; a random walk needs 1/degree finite"
        )
    return inv_deg, dangling


def spmv_naive(graph: CSRGraph, x) -> np.ndarray:
    """Algorithm 1, verbatim: the scalar CSR SpMV loop.

    The irregular indirect access is ``x[A_C[k]]`` (line 4) — the access
    whose locality vertex reordering optimises.
    """
    x = _check_vector(graph, x)
    n = graph.num_vertices
    a_i, a_c = graph.indptr, graph.indices
    a_v = graph.edge_weights()
    y = np.zeros(n, dtype=np.float64)
    for v in range(n):
        acc = 0.0
        for k in range(a_i[v], a_i[v + 1]):
            acc += a_v[k] * x[a_c[k]]
        y[v] = acc
    return y
