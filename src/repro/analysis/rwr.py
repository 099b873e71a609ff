"""Random Walk with Restart (paper §II-A's second SpMV workload).

RWR scores vertices by proximity to a *seed* vertex: a walker follows
edges with probability ``1 - c`` and teleports back to the seed with
probability ``c`` (Pan et al., KDD'04 — the paper's reference [14]).
The iteration is the same SpMV pattern as PageRank with a personalised
restart vector, so it inherits exactly the locality behaviour reordering
targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.spmv import inverse_degrees, spmv
from repro.errors import ConvergenceError, GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["RWRResult", "random_walk_with_restart"]


@dataclass(frozen=True)
class RWRResult:
    scores: np.ndarray
    iterations: int
    residual: float


def random_walk_with_restart(
    graph: CSRGraph,
    seed: int,
    *,
    restart: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    raise_on_no_convergence: bool = False,
) -> RWRResult:
    """Steady-state visiting distribution of a restarting walker.

    Returns scores summing to 1; ``scores[seed]`` is always the largest
    for restart probabilities above the graph's mixing threshold.
    Raises :class:`GraphFormatError` on a NaN, infinite or negative edge
    weight, or a degree whose reciprocal overflows.
    """
    n = graph.num_vertices
    seed = int(seed)
    if not (0 <= seed < n):
        raise GraphFormatError(f"seed {seed} out of range [0, {n})")
    if not (0.0 < restart <= 1.0):
        raise GraphFormatError(f"restart must be in (0, 1], got {restart}")
    inv_deg, dangling = inverse_degrees(graph)
    e = np.zeros(n, dtype=np.float64)
    e[seed] = 1.0
    s = e.copy()
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        spread = spmv(graph, s * inv_deg)
        # Dangling mass restarts at the seed (walker has nowhere to go).
        spread[seed] += float(s[dangling].sum())
        s_next = (1.0 - restart) * spread + restart * e
        residual = float(np.abs(s_next - s).sum())
        s = s_next
        if residual < tolerance:
            break
    else:
        if raise_on_no_convergence:
            raise ConvergenceError(
                f"RWR did not reach {tolerance} within {max_iterations} "
                f"iterations (residual {residual:.3e})"
            )
    return RWRResult(scores=s, iterations=iterations, residual=residual)
