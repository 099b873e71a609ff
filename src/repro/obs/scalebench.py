"""Scaling bench suite: the process executor × worker counts.

One cell per engine configuration — the two sequential engines plus the
process executor at 1/2/4/8 workers — all reordering the
*largest* bench graph (R-MAT scale 13, edge factor 8; an order of
magnitude beyond the ``core`` suite's graphs).  The committed
``BENCH_scale.json`` is the scaling record the ROADMAP's "parallel
engine beats sequential" claim reports against, and the CI ``--compare``
gate keeps any engine from silently regressing.

Reading the numbers
-------------------
Wall-clock scaling is a property of the *host*, not just the code: on a
single-core container every executor's worker compute serialises, so
``procs-w4`` can never beat ``fastseq`` there no matter how good the
engine is.  Each cell therefore records the detected topology
(``machine.physical_cores`` / ``machine.hardware_threads`` counters, via
:meth:`~repro.parallel.costmodel.ParallelMachine.detect`) so a baseline
is always interpreted against the machine that produced it, and
cross-machine comparisons use the generous tolerance the CI gate passes
explicitly.

Correctness is gated alongside speed: every cell (the dict engine and
each ``procs-wN`` cell) must reproduce the flat sequential oracle's
permutation bit-for-bit.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.errors import ReproError
from repro.graph import validate_permutation
from repro.graph.generators.rmat import rmat_graph
from repro.metrics.locality import (
    average_neighbor_gap,
    bandwidth,
    diagonal_block_density,
)
from repro.obs.bench import ANALYSES, percentile_summary
from repro.obs.metrics import counter_delta, get_registry
from repro.parallel.costmodel import ParallelMachine
from repro.rabbit.order import rabbit_order

__all__ = ["run_scale_suite", "WORKER_COUNTS", "SCALE_GRAPH"]

#: Worker counts probed for the process executor.
WORKER_COUNTS = (1, 2, 4, 8)

#: The largest bench graph: R-MAT scale 13, edge factor 8 (~8k vertices,
#: ~100k undirected edges) — big enough that folding dominates fixed
#: overheads, small enough for a CI job.
SCALE_GRAPH = ("rmat-s13", 13, 8, 7)


def _configs() -> list[tuple[str, dict[str, Any]]]:
    configs: list[tuple[str, dict[str, Any]]] = [
        ("fastseq", dict(engine="fast")),
        ("seq-dict", dict(engine="dict")),
    ]
    for w in WORKER_COUNTS:
        configs.append(
            (f"procs-w{w}",
             dict(parallel=True, executor="procs", num_threads=w))
        )
    return configs


def run_scale_suite(repeats: int = 1) -> list[dict[str, Any]]:
    """Run every scaling cell; returns the schema-valid ``results`` list
    of the ``scale`` bench suite."""
    repeats = max(1, int(repeats))
    name, scale, edge_factor, seed = SCALE_GRAPH
    graph = rmat_graph(scale, edge_factor=edge_factor, rng=seed)
    machine = ParallelMachine.detect()
    registry = get_registry()
    results: list[dict[str, Any]] = []
    oracle: np.ndarray | None = None
    for ordering, kwargs in _configs():
        before = registry.counter_values()
        samples: list[float] = []
        result = None
        t_cell = time.perf_counter()
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = rabbit_order(graph, **kwargs)
            samples.append(time.perf_counter() - t0)
        assert result is not None
        perm = result.permutation
        validate_permutation(perm, graph.num_vertices)
        if ordering == "fastseq":
            oracle = perm
        else:
            # Every cell is also the equivalence gate: a scaling win that
            # changes the answer is not a win.
            assert oracle is not None
            if not np.array_equal(perm, oracle):
                raise ReproError(
                    f"scale cell {ordering!r} diverged from the "
                    "sequential oracle permutation"
                )
        permuted = graph.permute(perm)
        locality = {
            "bandwidth": float(bandwidth(permuted)),
            "block_density_64": float(diagonal_block_density(permuted, 64)),
            "average_neighbor_gap": float(average_neighbor_gap(permuted)),
        }
        t1 = time.perf_counter()
        ANALYSES["pagerank"](permuted)
        pagerank_s = time.perf_counter() - t1
        total_s = time.perf_counter() - t_cell
        counters = counter_delta(before, registry.counter_values())
        counters["machine.physical_cores"] = float(machine.physical_cores)
        counters["machine.hardware_threads"] = float(machine.hardware_threads)
        results.append({
            "graph": name,
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_undirected_edges),
            "ordering": ordering,
            "repeats": repeats,
            "phases": {
                "reorder_s": min(samples),
                "analysis_s": {"pagerank": pagerank_s},
                "analysis_total_s": pagerank_s,
            },
            "total_s": total_s,
            "spans": {},
            "locality": locality,
            "counters": counters,
            "percentiles": {"reorder_s": percentile_summary(samples)},
        })
    return results
