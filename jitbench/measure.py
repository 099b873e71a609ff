"""Measurement loops: the untraced run (end-to-end metrics) and the traced
run (per-layer metrics).

Both loops run whole repetitions until the next one would overrun the
time budget, with a floor of ``MIN_REPS`` repetitions, and report medians.
The untraced run reports its seconds as reference seconds
(:mod:`jitbench.reference`), so that they do not follow the host's drift;
the traced run's seconds are raw.  Every repetition's output is checked; a repetition that fails a check or
raises a :class:`~repro.errors.ReproError` counts as a failed operation.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from repro import CSRGraph, rabbit_order, spmv
from repro.errors import ReproError
from repro.metrics import average_neighbor_gap
from repro.obs.metrics import counter_delta, get_registry
from repro.obs.trace import capture

from jitbench.layers import LAYERS, self_times, spans_total
from jitbench.pipeline import (
    TRAVERSALS,
    Workload,
    check_run,
    fresh,
    run_analysis,
    run_baseline,
    run_jit,
    setup,
)
from jitbench.reference import time_kernel, to_reference

__all__ = ["Outcome", "measure", "measure_traced", "host_record"]

#: Fewest repetitions a run makes, whatever its time budget.
MIN_REPS = 3
#: A run sets up at least ``SETUP_REPEATS`` times and keeps setting up
#: until ``SETUP_SECONDS`` have passed; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
#: Extra analysis samples per side and repetition: enough to fill this
#: many seconds, at most ``MAX_EXTRA_ANALYSES``.
ANALYSIS_SECONDS = 0.3
MAX_EXTRA_ANALYSES = 8
#: Reference-kernel calls at each point where the kernel is timed.
REF_CALLS = 2
#: Direct ``spmv`` calls per order in the traced run.
SPMV_CALLS = 30


@dataclass
class Outcome:
    """What one benchmark run found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: printed with the metrics but not part of the result object
    notes: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()
            },
        }


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _setups(workload: Workload, seed: int, n: int | None):
    """Set up at least ``SETUP_REPEATS`` times and for ``SETUP_SECONDS``,
    timing the reference kernel before and after each set-up.  Returns the
    inputs, the raw seconds of each set-up and the kernel's times."""
    times, inputs = [], None
    kernel = time_kernel(REF_CALLS)
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        inputs = setup(workload, seed, n)
        times.append(time.perf_counter() - t0)
        kernel += time_kernel(REF_CALLS)
    return inputs, times, kernel


class _Budget:
    """Decides whether one more repetition fits in the time budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.reps = 0
        self.longest = 0.0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.reps:
            self.longest = max(self.longest, now - self._rep_start)
        if self.reps >= MIN_REPS and now - self.start + self.longest > self.seconds:
            return False
        self.reps += 1
        self._rep_start = now
        return True


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (a pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _rep(workload: Workload, inputs, kernel: list) -> tuple:
    """One untraced repetition: the baseline, then the JIT pipeline, with
    the reference kernel timed into *kernel* before, between and after
    them.

    A short analysis gets extra samples on fresh copies of both graphs, so
    each side's per-repetition median rests on about ``ANALYSIS_SECONDS``.
    Returns the run, the baseline output and the repetition's raw seconds.
    """
    kernel += time_kernel(REF_CALLS)
    b_s, base = run_baseline(workload, inputs)
    kernel += time_kernel(REF_CALLS)
    run = run_jit(workload, inputs)
    kernel += time_kernel(REF_CALLS)
    base_s, analysis_s = [b_s], [run.analysis_s]
    source = int(run.result.permutation[inputs.source])
    for _ in range(min(int(ANALYSIS_SECONDS / b_s), MAX_EXTRA_ANALYSES)):
        base_s.append(run_analysis(workload, inputs.graph, inputs.source)[0])
        analysis_s.append(run_analysis(workload, run.graph, source)[0])
    seconds = {
        "jit_s": run.jit_s,
        "baseline_s": _median(base_s),
        "reorder_s": run.reorder_s,
        "analysis_s": _median(analysis_s),
    }
    return run, base, seconds


#: The end-to-end seconds, reported in reference seconds.
SECONDS = ("jit_s", "baseline_s", "reorder_s", "analysis_s")


def _ratios(t: dict[str, float]) -> dict[str, float]:
    """The claim's ratios, from one repetition's seconds."""
    return {
        "jit_speedup": t["baseline_s"] / t["jit_s"],
        "reorder_cost": t["reorder_s"] / t["baseline_s"],
        "analysis_gain": t["baseline_s"] / t["analysis_s"],
    }


#: Units of the ratios.
RATIO_UNITS = {"jit_speedup": "ratio", "reorder_cost": "analyses",
               "analysis_gain": "ratio"}


def _add_samples(samples: dict, rep_s: dict[str, float]) -> None:
    """Record one repetition's raw seconds, as ``wall.*``, and its ratios."""
    for k, v in rep_s.items():
        samples.setdefault(f"wall.{k}", []).append(v)
    for k, v in _ratios(rep_s).items():
        samples.setdefault(k, []).append(v)


def measure(
    workload: Workload, seed: int, seconds: float, n: int | None = None
) -> tuple[Outcome, CSRGraph]:
    """The untraced run: end-to-end metrics.  Returns the outcome and the
    random-order input graph."""
    out = Outcome()
    inputs, setup_times, setup_kernel = _setups(workload, seed, n)
    kernel: list[float] = []
    samples: dict[str, list[float]] = {}
    last = None
    budget = _Budget(seconds)
    while budget.another():
        try:
            run, base, rep_s = _rep(workload, inputs, kernel)
        except ReproError as exc:
            out.record([f"{type(exc).__name__}: {exc}"])
            continue
        out.record(check_run(workload, base, run))
        _add_samples(samples, rep_s)
        last = run
    if last is None:
        return out, inputs.graph
    m = out.metrics
    for k in SECONDS:
        m[k] = (to_reference(_median(samples[f"wall.{k}"]), kernel), "s")
    m["setup_s"] = (to_reference(_median(setup_times), setup_kernel), "s")
    m["peak_rss_mb"] = (_peak_rss_mb(), "MiB")
    m["avg_gap"] = (average_neighbor_gap(last.graph), "vertices")
    for k, unit in RATIO_UNITS.items():
        out.notes[k] = (_median(samples[k]), unit)
    for k in SECONDS:
        out.notes[f"wall.{k}"] = (_median(samples[f"wall.{k}"]), "s")
    out.notes["wall.setup_s"] = (_median(setup_times), "s")
    out.notes["host.reference_ms"] = (statistics.fmean(kernel) * 1e3, "ms")
    return out, inputs.graph


def _spmv_ms(random_graph, rabbit_graph, x: np.ndarray) -> tuple[float, float]:
    """Median milliseconds of one direct ``spmv`` call on each warm graph,
    the calls alternating so both orders see the same host conditions."""
    spmv(random_graph, x)
    spmv(rabbit_graph, x)
    times: tuple[list[float], list[float]] = ([], [])
    for _ in range(SPMV_CALLS):
        for graph, sink in zip((random_graph, rabbit_graph), times):
            t0 = time.perf_counter()
            spmv(graph, x)
            sink.append(time.perf_counter() - t0)
    return _median(times[0]) * 1e3, _median(times[1]) * 1e3


#: Counters read through the metrics registry, as deltas over one traced run.
PARALLEL_COUNTERS = {
    "parallel.speculation_conflicts": "procpool.speculation.conflicts",
    "parallel.tasks_retried": "procpool.tasks.retried",
    "parallel.workers_lost": "procpool.workers.lost",
    "parallel.fallback_tasks": "procpool.fallback.tasks",
}


def _layer_sample(workload: Workload, root, base_root, run, counters) -> dict:
    """Per-layer numbers from one traced repetition."""
    n = run.graph.num_vertices
    stats = run.result.stats
    sample = {
        "graph.permute_s": spans_total(root, "bench.permute"),
        "rabbit.detect_s": spans_total(root, "rabbit.detect", parallel=False),
        "rabbit.detect.setup_s": spans_total(root, "rabbit.seq.setup"),
        "rabbit.detect.aggregate_s": spans_total(root, "rabbit.seq.aggregate"),
        "rabbit.ordgen_s": spans_total(root, "rabbit.ordering"),
        "rabbit.merges": float(stats.merges),
        "rabbit.toplevels": float(stats.toplevels),
        "rabbit.edges_scanned": float(stats.edges_scanned),
        "rabbit.merge_ratio": stats.merges / n,
        "parallel.detect_s": spans_total(root, "rabbit.detect", parallel=True),
        "parallel.setup_s": spans_total(root, "rabbit.procs.setup"),
        "parallel.aggregate_s": spans_total(root, "rabbit.procs.aggregate"),
        "analysis.pagerank_random_s": spans_total(base_root, "bench.pagerank"),
        "analysis.pagerank_rabbit_s": spans_total(root, "bench.pagerank"),
        "obs.jit_traced_s": root.duration,
    }
    pr = run.output.get("pagerank")
    sample["analysis.pagerank_iters"] = float(pr.iterations) if pr is not None else 0.0
    for key, name in PARALLEL_COUNTERS.items():
        sample[key] = counters.get(name, 0.0)
    sample["parallel.conflict_ratio"] = sample["parallel.speculation_conflicts"] / n
    report = run.report
    if report is not None:
        sample["resilience.overhead_s"] = (
            spans_total(root, "bench.reorder")
            - spans_total(root, "rabbit.detect")
            - spans_total(root, "rabbit.ordering")
        )
        sample["resilience.attempts"] = float(len(report.attempts))
        sample["resilience.degradations"] = float(report.degradations)
    else:
        sample["resilience.overhead_s"] = 0.0
        sample["resilience.attempts"] = 0.0
        sample["resilience.degradations"] = 0.0
    for op in TRAVERSALS:
        sample[f"analysis.{op}_random_s"] = spans_total(base_root, f"bench.{op}")
        sample[f"analysis.{op}_rabbit_s"] = spans_total(root, f"bench.{op}")
    selfs = self_times(root, workload.supervised)
    for layer in LAYERS:
        sample[f"self.{layer}_s"] = selfs[layer]
    # Share of the traced jit_s that the layers' self times account for.
    sample["obs.self_coverage"] = (root.duration - selfs["bench"]) / root.duration
    return sample


#: Units of the per-layer metrics that are not seconds.
_UNITS = {
    "graph.edges": "count",
    "rabbit.merges": "count",
    "rabbit.toplevels": "count",
    "rabbit.edges_scanned": "count",
    "rabbit.merge_ratio": "ratio",
    "parallel.speculation_conflicts": "count",
    "parallel.conflict_ratio": "ratio",
    "parallel.tasks_retried": "count",
    "parallel.workers_lost": "count",
    "parallel.fallback_tasks": "count",
    "resilience.attempts": "count",
    "resilience.degradations": "count",
    "analysis.spmv_random_ms": "ms",
    "analysis.spmv_rabbit_ms": "ms",
    "analysis.spmv_flops": "FLOP",
    "analysis.spmv_bytes": "bytes",
    "analysis.pagerank_iters": "count",
    "analysis.spmv_gain": "ratio",
    "host.reference_ms": "ms",
    **RATIO_UNITS,
    "obs.trace_overhead": "ratio",
    "obs.self_coverage": "ratio",
}


def measure_traced(
    workload: Workload, seed: int, seconds: float, n: int | None = None
) -> tuple[Outcome, CSRGraph]:
    """The traced run: per-layer metrics; returns what :func:`measure` does.

    Repetitions come in pairs, one untraced and one traced, so that
    ``obs.trace_overhead`` compares runs made under the same conditions.
    """
    out = Outcome()
    with capture() as setup_cap:
        inputs, _, _ = _setups(workload, seed, n)
    kernel: list[float] = []
    graph = inputs.graph
    samples: dict[str, list[float]] = {}
    registry = get_registry()
    last = None
    budget = _Budget(seconds)
    while budget.another():
        try:
            if budget.reps % 2:
                run, base, rep_s = _rep(workload, inputs, kernel)
                _add_samples(samples, rep_s)
            else:
                before = registry.counter_values()
                with capture() as cap:
                    _, base = run_baseline(workload, inputs)
                    run = run_jit(workload, inputs)
                counters = counter_delta(before, registry.counter_values())
                (base_root,) = cap.find("bench.baseline")
                (root,) = cap.find("bench.jit")
                for k, v in _layer_sample(workload, root, base_root, run,
                                          counters).items():
                    samples.setdefault(k, []).append(v)
        except ReproError as exc:
            out.record([f"{type(exc).__name__}: {exc}"])
            continue
        out.record(check_run(workload, base, run))
        last = run
    if last is None or not {"obs.jit_traced_s", "wall.jit_s"} <= samples.keys():
        return out, graph
    if workload.supervised:
        # The parallel path must give the sequential default's permutation.
        same = np.array_equal(rabbit_order(fresh(graph)).permutation,
                              last.result.permutation)
        out.record([] if same else ["par-procs permutation differs from fastseq"])
    m = out.metrics
    m["graph.generate_s"] = (_median([s.duration for s in
                                      setup_cap.find("bench.generate")]), "s")
    m["graph.edges"] = (float(graph.num_edges), "count")
    for k, v in samples.items():
        m[k] = (_median(v), _UNITS.get(k, "s"))
    m["host.reference_ms"] = (statistics.fmean(kernel) * 1e3, "ms")
    x = np.random.default_rng(seed).random(graph.num_vertices)
    random_ms, rabbit_ms = _spmv_ms(fresh(graph), fresh(last.graph), x)
    n_vertices, n_slots = graph.num_vertices, graph.num_edges
    m["analysis.spmv_random_ms"] = (random_ms, "ms")
    m["analysis.spmv_rabbit_ms"] = (rabbit_ms, "ms")
    m["analysis.spmv_flops"] = (2.0 * n_slots, "FLOP")
    m["analysis.spmv_bytes"] = (spmv_bytes(n_vertices, n_slots), "bytes")
    m["analysis.spmv_gain"] = (random_ms / rabbit_ms, "ratio")
    # Printed, not a metric: "never" has no place on a better-lower scale.
    gain_s = (random_ms - rabbit_ms) / 1e3
    out.notes["analysis.break_even_iters"] = (
        m["wall.reorder_s"][0] / gain_s if gain_s > 0 else float("inf"),
        "iterations")
    m["obs.trace_overhead"] = (
        m["obs.jit_traced_s"][0] / m["wall.jit_s"][0] - 1.0, "ratio")
    return out, graph


def spmv_bytes(n: int, m: int) -> float:
    """Bytes the ``bincount`` SpMV kernel moves, computed from its arrays
    (not measured): per slot it reads the column index, the weight, the
    gathered ``x`` value and the slot's row, and writes then re-reads the
    product (six 8-byte accesses); per vertex it reads ``x`` once and
    writes ``y`` once."""
    return 8.0 * (6 * m + 2 * n)


def _cache_sizes() -> dict[str, int]:
    """Per-level data/unified cache sizes of CPU 0, in bytes, from sysfs."""
    sizes: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        sizes[f"l{level}_bytes"] = int(size.rstrip("KMG")) * scale
    return sizes


def host_record(workload: Workload, graph) -> dict:
    """The host and the workload's memory footprint next to its caches."""
    n = graph.num_vertices
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **_cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload.name,
        "n": n,
        "m": graph.num_edges,
        "vertex_vector_bytes": 8 * n,
        "csr_bytes": sum(a.nbytes for a in (graph.indptr, graph.indices,
                                            graph.weights) if a is not None),
    }
