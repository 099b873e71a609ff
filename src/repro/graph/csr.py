"""Compressed Sparse Row (CSR) graph structure.

This is the canonical in-memory graph representation used throughout the
library, mirroring the three-array CSR layout of the paper's Figure 2:
an index array (``indptr``), a column array (``indices``), and an optional
value array (``weights``).  All reordering algorithms consume and produce
:class:`CSRGraph` instances, and the cache simulator derives its address
streams directly from these arrays.

Vertices are ``0..n-1``.  Undirected graphs are stored symmetrised: each
undirected edge ``{u, v}`` occupies two directed slots ``(u, v)`` and
``(v, u)``; a self-loop occupies a single slot.  ``num_edges`` counts
directed slots (i.e. ``len(indices)``); ``num_undirected_edges`` counts
undirected edges for symmetric graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSRGraph", "coalesce_edges", "rows_strictly_increasing"]


def rows_strictly_increasing(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """True if each row's column indices are strictly increasing: the
    canonical (sorted, duplicate-free) form :meth:`CSRGraph.from_edges`
    produces.  O(m)."""
    if indices.size < 2:
        return True
    increasing = indices[1:] > indices[:-1]
    # Positions where a new row starts need no ordering constraint.
    row_starts = np.zeros(indices.size - 1, dtype=bool)
    interior = indptr[(indptr > 0) & (indptr < indices.size)]
    row_starts[interior - 1] = True
    return bool(np.all(increasing | row_starts))


def _as_index_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise GraphFormatError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise GraphFormatError(f"{name} must be an integer array, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def coalesce_edges(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sort edges by ``(src, dst)`` and merge duplicates by summing weights.

    Returns the coalesced ``(src, dst, weights)`` triple.  When *weights* is
    ``None`` the duplicates are merged without accumulating multiplicity
    (i.e. the result is an unweighted simple edge set).
    """
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    if weights is not None:
        weights = weights[order]
    if src.size == 0:
        return src, dst, weights
    keep = np.empty(src.size, dtype=bool)
    keep[0] = True
    np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:])
    if weights is not None:
        # Sum weights of duplicate edges into the first slot of each group.
        group = np.cumsum(keep) - 1
        summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
        np.add.at(summed, group, weights)
        weights = summed
    return src[keep], dst[keep], weights


@dataclass(frozen=True)
class CSRGraph:
    """Immutable CSR graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``v``'s neighbours live in
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64`` array of length ``m`` (directed edge slots), sorted within
        each row.
    weights:
        optional ``float64`` array parallel to ``indices``.  ``None`` means
        the graph is unweighted (all edges weight 1).
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None
    _symmetric_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        indptr = _as_index_array(self.indptr, "indptr")
        indices = _as_index_array(self.indices, "indices")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indptr.size < 1:
            raise GraphFormatError("indptr must have at least one element")
        if indptr[0] != 0:
            raise GraphFormatError(f"indptr[0] must be 0, got {indptr[0]}")
        if indptr[-1] != indices.size:
            raise GraphFormatError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({indices.size})"
            )
        if indptr.size > 1 and np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise GraphFormatError(
                f"column indices must lie in [0, {n}), got range "
                f"[{indices.min()}, {indices.max()}]"
            )
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != indices.shape:
                raise GraphFormatError(
                    f"weights shape {w.shape} must match indices shape {indices.shape}"
                )
            object.__setattr__(self, "weights", w)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src,
        dst,
        num_vertices: int | None = None,
        weights=None,
        *,
        symmetrize: bool = True,
        coalesce: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel source/destination arrays.

        Parameters
        ----------
        symmetrize:
            add the reversed copy of every non-loop edge, producing an
            undirected (symmetric) graph.
        coalesce:
            sort and merge duplicate edges (weights summed).
        """
        src = _as_index_array(np.asarray(src), "src")
        dst = _as_index_array(np.asarray(dst), "dst")
        if src.shape != dst.shape:
            raise GraphFormatError(
                f"src shape {src.shape} must match dst shape {dst.shape}"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise GraphFormatError("weights must be parallel to src/dst")
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise GraphFormatError("vertex ids must be non-negative")
        observed = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        n = observed if num_vertices is None else int(num_vertices)
        if n < observed:
            raise GraphFormatError(
                f"num_vertices={n} is smaller than max vertex id {observed - 1}"
            )
        if symmetrize:
            nonloop = src != dst
            rev_src, rev_dst = dst[nonloop], src[nonloop]
            src = np.concatenate([src, rev_src])
            dst = np.concatenate([dst, rev_dst])
            if weights is not None:
                weights = np.concatenate([weights, weights[nonloop]])
        if coalesce:
            src, dst, weights = coalesce_edges(src, dst, weights)
        else:
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            if weights is not None:
                weights = weights[order]
        counts = np.bincount(src, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=dst, weights=weights)

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        """Graph with *num_vertices* vertices and no edges."""
        return cls(
            indptr=np.zeros(int(num_vertices) + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edge slots (``len(indices)``)."""
        return self.indices.size

    @property
    def num_undirected_edges(self) -> int:
        """Number of undirected edges: ``(m + #loops) / 2`` for a symmetric
        graph (each non-loop edge occupies two slots, a loop one)."""
        loops = self.num_self_loops
        return (self.num_edges - loops) // 2 + loops

    @property
    def num_self_loops(self) -> int:
        row = self.row_of_slot()
        return int(np.count_nonzero(self.indices == row))

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def row_of_slot(self) -> np.ndarray:
        """Array of length ``m`` giving the source vertex of each slot.

        Cached after the first call (O(m) to rebuild, and hot: SpMV asks
        for it every iteration) and marked read-only — copy before
        mutating.
        """
        cache = self._symmetric_cache
        if "row_of_slot" not in cache:
            arr = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
            )
            arr.setflags(write=False)
            cache["row_of_slot"] = arr
        return cache["row_of_slot"]

    def degrees(self) -> np.ndarray:
        """Out-degree of each vertex (number of slots).

        Cached after the first call and marked read-only — copy before
        mutating.
        """
        cache = self._symmetric_cache
        if "degrees" not in cache:
            arr = np.diff(self.indptr)
            arr.setflags(write=False)
            cache["degrees"] = arr
        return cache["degrees"]

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per vertex (slot weights; a loop's
        stored weight counts once, matching the paper's additive degree)."""
        if self.weights is None:
            return np.diff(self.indptr).astype(np.float64)
        out = np.zeros(self.num_vertices, dtype=np.float64)
        np.add.at(out, self.row_of_slot(), self.weights)
        return out

    def edge_weights(self) -> np.ndarray:
        """Weights array, materialising implicit unit weights.

        The materialised unit array is cached after the first call and
        marked read-only — copy before mutating.  (Weighted graphs return
        ``self.weights`` directly, as before.)
        """
        if self.weights is not None:
            return self.weights
        cache = self._symmetric_cache
        if "unit_weights" not in cache:
            arr = np.ones(self.num_edges, dtype=np.float64)
            arr.setflags(write=False)
            cache["unit_weights"] = arr
        return cache["unit_weights"]

    def total_edge_weight(self) -> float:
        """Total undirected edge weight: half the slot-weight sum plus half
        the loop weight again (loops occupy a single slot)."""
        w = self.edge_weights()
        row = self.row_of_slot()
        loop_w = float(w[self.indices == row].sum())
        return (float(w.sum()) - loop_w) / 2.0 + loop_w

    def neighbors(self, v: int) -> np.ndarray:
        """View of vertex *v*'s neighbour slots."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.indptr[v + 1] - self.indptr[v], dtype=np.float64)
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(u, v, w)`` for every directed slot."""
        w = self.edge_weights()
        row = self.row_of_slot()
        for k in range(self.num_edges):
            yield int(row[k]), int(self.indices[k]), float(w[k])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, w)`` arrays over all directed slots.

        ``src`` and ``dst`` are fresh writable copies; ``w`` aliases the
        (possibly cached) weights array."""
        return self.row_of_slot().copy(), self.indices.copy(), self.edge_weights()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        k = np.searchsorted(self.indices[lo:hi], v)
        return bool(k < hi - lo and self.indices[lo + k] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge (u, v); 0.0 if absent."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        k = np.searchsorted(self.indices[lo:hi], v)
        if k < hi - lo and self.indices[lo + k] == v:
            return 1.0 if self.weights is None else float(self.weights[lo + k])
        return 0.0

    def is_symmetric(self) -> bool:
        """True if every slot (u, v, w) has a matching (v, u, w).

        Rows must be in canonical form (strictly increasing, so no
        duplicate slots); weights match under ``np.allclose(w(u, v),
        w(v, u))``.  Sorting the slots' reversed ``(v, u)`` keys gives
        the transpose without rebuilding a graph: O(m) plus one integer
        sort."""
        key = "symmetric"
        if key not in self._symmetric_cache:
            self._symmetric_cache[key] = self._check_symmetric()
        return self._symmetric_cache[key]

    def _check_symmetric(self) -> bool:
        if not rows_strictly_increasing(self.indptr, self.indices):
            return False
        n = self.num_vertices
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        # Canonical rows make the (u, v) keys strictly increasing, so the
        # pattern is symmetric iff the sorted (v, u) keys equal them.
        keys = rows * n + self.indices
        reversed_keys = self.indices * n + rows
        del rows
        if self.weights is None:
            return np.array_equal(np.sort(reversed_keys), keys)
        # reverse_slot[k] = the slot holding the reverse of slot k
        reverse_slot = np.argsort(reversed_keys)
        if not np.array_equal(reversed_keys[reverse_slot], keys):
            return False
        return bool(np.allclose(self.weights, self.weights[reverse_slot]))

    def reverse(self) -> "CSRGraph":
        """Transpose: edge (u, v) becomes (v, u)."""
        src, dst, w = self.edge_array()
        return CSRGraph.from_edges(
            dst,
            src,
            num_vertices=self.num_vertices,
            weights=None if self.weights is None else w,
            symmetrize=False,
            coalesce=True,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def permute(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: old vertex ``v`` becomes ``perm[v]``.

        ``perm`` must be a bijection on ``range(n)``.  This implements the
        paper's Problem 1 application step: the returned graph's adjacency
        matrix is ``P A Pᵀ``.
        """
        from repro.graph.perm import validate_permutation

        perm = validate_permutation(perm, self.num_vertices)
        if rows_strictly_increasing(self.indptr, self.indices):
            return self._permute_rows(perm)
        src, dst, w = self.edge_array()
        return CSRGraph.from_edges(
            perm[src],
            perm[dst],
            num_vertices=self.num_vertices,
            weights=None if self.weights is None else w,
            symmetrize=False,
            coalesce=True,
        )

    def _permute_rows(self, perm: np.ndarray) -> "CSRGraph":
        """O(m) :meth:`permute` for canonical rows, which a bijection
        keeps duplicate-free: gather each new row's old slots, relabel,
        then sort within rows.  Array-equal to the coalescing path."""
        n, m = self.num_vertices, self.num_edges
        old_of = np.empty(n, dtype=np.int64)
        old_of[perm] = np.arange(n, dtype=np.int64)
        degrees = np.diff(self.indptr)[old_of]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        # slot[k] = old slot of new slot k (row-major over the new rows)
        slot = np.repeat(self.indptr[:-1][old_of] - indptr[:-1], degrees)
        slot += np.arange(m, dtype=np.int64)
        cols = perm[self.indices[slot]]
        key = np.repeat(np.arange(n, dtype=np.int64) * n, degrees)
        key += cols
        within = np.argsort(key)  # row-major (row, col) keys, all distinct
        slot = slot[within]
        return CSRGraph(
            indptr=indptr,
            indices=cols[within],
            weights=None if self.weights is None else self.weights[slot],
        )

    def without_self_loops(self) -> "CSRGraph":
        src, dst, w = self.edge_array()
        keep = src != dst
        return CSRGraph.from_edges(
            src[keep],
            dst[keep],
            num_vertices=self.num_vertices,
            weights=None if self.weights is None else w[keep],
            symmetrize=False,
            coalesce=False,
        )

    def subgraph(self, vertices) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on *vertices* (array of old ids).

        Returns ``(sub, old_ids)`` where the subgraph's vertex ``i``
        corresponds to ``old_ids[i]`` in ``self``.
        """
        vertices = _as_index_array(np.asarray(vertices), "vertices")
        vertices = np.unique(vertices)
        if vertices.size and (
            vertices[0] < 0 or vertices[-1] >= self.num_vertices
        ):
            raise GraphFormatError("subgraph vertices out of range")
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[vertices] = np.arange(vertices.size, dtype=np.int64)
        src, dst, w = self.edge_array()
        keep = (new_id[src] >= 0) & (new_id[dst] >= 0)
        sub = CSRGraph.from_edges(
            new_id[src[keep]],
            new_id[dst[keep]],
            num_vertices=vertices.size,
            weights=None if self.weights is None else w[keep],
            symmetrize=False,
            coalesce=False,
        )
        return sub, vertices

    def with_unit_weights(self) -> "CSRGraph":
        """Copy with explicit unit weights (used to seed aggregation)."""
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            weights=np.ones(self.num_edges, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_scipy(self):
        """Export as a ``scipy.sparse.csr_matrix`` (weights or 1s)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.edge_weights(), self.indices, self.indptr),
            shape=(self.num_vertices, self.num_vertices),
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSRGraph":
        csr = mat.tocsr()
        csr.sort_indices()
        return cls(
            indptr=csr.indptr.astype(np.int64),
            indices=csr.indices.astype(np.int64),
            weights=np.asarray(csr.data, dtype=np.float64),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.is_weighted else "unweighted"
        return (
            f"CSRGraph(n={self.num_vertices}, slots={self.num_edges}, {kind})"
        )
