"""Strongly connected components — iterative Tarjan (paper §IV-E).

Works on any directed CSR graph; on the symmetric graphs used in the
experiments the SCCs coincide with the connected components, which the
test suite exploits as a cross-check against
:mod:`repro.analysis.components`.

The search runs in C (``repro_scc`` in :mod:`repro.native`) when the
library loads, and in :func:`_tarjan` otherwise; both take roots in id
order and neighbours in slot order, so their labels are array-equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.native import load_kernel
from repro.obs.trace import span

__all__ = ["SCCResult", "strongly_connected_components"]


@dataclass(frozen=True)
class SCCResult:
    """``labels[v]`` is the component id of vertex v (ids are dense,
    assigned in order of component completion)."""

    labels: np.ndarray
    num_components: int

    def component_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_components)


def strongly_connected_components(graph: CSRGraph) -> SCCResult:
    """Tarjan's algorithm, fully iterative (explicit stack; no recursion,
    so million-vertex path graphs are fine)."""
    with span("analysis.scc", n=graph.num_vertices):
        lib = load_kernel()
        if lib is None:
            return _tarjan(graph)
        n = graph.num_vertices
        indptr = np.ascontiguousarray(graph.indptr)
        indices = np.ascontiguousarray(graph.indices)
        labels = np.empty(n, dtype=np.int64)
        scratch = np.empty(5 * n, dtype=np.int64)
        num_components = lib.repro_scc(
            n, indptr.ctypes.data, indices.ctypes.data, labels.ctypes.data,
            scratch.ctypes.data,
        )
        return SCCResult(labels=labels, num_components=int(num_components))


def _tarjan(graph: CSRGraph) -> SCCResult:
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    UNVISITED = -1
    index = np.full(n, UNVISITED, dtype=np.int64)
    lowlink = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    labels = np.full(n, -1, dtype=np.int64)
    tarjan_stack: list[int] = []
    next_index = 0
    num_components = 0

    for root in range(n):
        if index[root] != UNVISITED:
            continue
        # Each frame: [vertex, cursor]; cursor walks the CSR row.
        work: list[list[int]] = [[root, int(indptr[root])]]
        index[root] = lowlink[root] = next_index
        next_index += 1
        tarjan_stack.append(root)
        on_stack[root] = True
        while work:
            frame = work[-1]
            v, cursor = frame
            end = int(indptr[v + 1])
            advanced = False
            while cursor < end:
                t = int(indices[cursor])
                cursor += 1
                if index[t] == UNVISITED:
                    frame[1] = cursor
                    index[t] = lowlink[t] = next_index
                    next_index += 1
                    tarjan_stack.append(t)
                    on_stack[t] = True
                    work.append([t, int(indptr[t])])
                    advanced = True
                    break
                if on_stack[t] and index[t] < lowlink[v]:
                    lowlink[v] = index[t]
            if advanced:
                continue
            # v is finished; close its component if it is a root.
            if lowlink[v] == index[v]:
                while True:
                    w = tarjan_stack.pop()
                    on_stack[w] = False
                    labels[w] = num_components
                    if w == v:
                        break
                num_components += 1
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
    return SCCResult(labels=labels, num_components=num_components)
