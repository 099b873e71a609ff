"""fastpar ⇔ dict-oracle equivalence and race certification.

The flat arena-backed parallel engine (``repro.rabbit.fastpar``) must be
*bit-identical* to the per-vertex dict reference under every executor,
and certifiably race-free under the vector-clock
detector — the contract that lets ``engine="fast"`` be the parallel
default:

* **interleave** — same scheduler seed + thread window, dict vs flat
  engine: identical dendrogram links, stats, and permutation, in every
  scalar/vector cutoff regime;
* **unseeded, window 1** — chunks run in admission order, so the two
  engines are directly comparable; wider windows must stay valid and
  audited;
* **procs × {1,2,4,8}** — the round-based process-pool driver is
  deterministic by construction and must reproduce the *sequential*
  dict oracle exactly (the property ``tests/rabbit/test_parproc.py``
  pins for the default worker count);
* a 50-seed race-detector certification run and a seeded-mutant
  positive control (the post-CAS ``sibling`` write) on the flat state.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.rabbit.fastpar as fastpar_mod
from repro.check.races import (
    RELAXED,
    EventLog,
    TracingArray,
    analyze_log,
    tag_worker,
)
from repro.community.modularity import newman_degrees
from repro.graph import CSRGraph, validate_permutation
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    hierarchical_community_graph,
    rmat_graph,
    watts_strogatz_graph,
)
from repro.parallel.atomics import AtomicPairArray, OpCounter
from repro.parallel.scheduler import InterleavingScheduler
from repro.rabbit.common import RabbitStats
from repro.rabbit.fastpar import FlatAggregationState
from repro.rabbit.par import _worker, community_detection_par
from repro.rabbit.seq import community_detection_seq
from tests.check.test_races import _broken_worker

SEEDS = list(range(10))

#: Cutoff regimes: all-vector, mixed, all-scalar, tuned default.
CUTOFFS = [-1, 4, 1 << 30, None]


def reweighted(graph: CSRGraph, seed: int) -> CSRGraph:
    """Copy of *graph* with arbitrary uniform float edge weights."""
    rng = np.random.default_rng(seed)
    src, dst, _ = graph.edge_array()
    keep = src <= dst
    w = rng.uniform(0.1, 5.0, size=int(keep.sum()))
    return CSRGraph.from_edges(src[keep], dst[keep], weights=w, symmetrize=True)


def assert_results_identical(ref, res, ctx=""):
    assert np.array_equal(ref.dendrogram.child, res.dendrogram.child), ctx
    assert np.array_equal(ref.dendrogram.sibling, res.dendrogram.sibling), ctx
    assert np.array_equal(ref.dendrogram.toplevel, res.dendrogram.toplevel), ctx
    assert ref.stats.merges == res.stats.merges, ctx
    assert ref.stats.toplevels == res.stats.toplevels, ctx
    assert ref.stats.retries == res.stats.retries, ctx
    assert ref.stats.edges_scanned == res.stats.edges_scanned, ctx
    if ref.stats.vertex_work is not None and res.stats.vertex_work is not None:
        assert np.array_equal(ref.stats.vertex_work, res.stats.vertex_work), ctx


def assert_flat_matches_dict(
    graph, monkeypatch, *, cutoffs=CUTOFFS, seeds=(0,), threads=4
):
    """Interleave executor: dict vs flat engine under identical schedules,
    across the scalar/vector cutoff regimes."""
    for seed in seeds:
        ref = community_detection_par(
            graph,
            scheduler_seed=seed,
            num_threads=threads,
            engine="dict",
            collect_vertex_work=True,
        )
        for cutoff in cutoffs:
            if cutoff is None:
                monkeypatch.undo()
            else:
                monkeypatch.setattr(fastpar_mod, "SCALAR_CUTOFF", cutoff)
            res = community_detection_par(
                graph,
                scheduler_seed=seed,
                num_threads=threads,
                engine="fast",
                collect_vertex_work=True,
            )
            assert_results_identical(
                ref, res, f"seed={seed} scalar_cutoff={cutoff}"
            )


class TestInterleaveBitIdentical:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rmat(self, seed, monkeypatch):
        assert_flat_matches_dict(
            rmat_graph(7, edge_factor=6, rng=seed), monkeypatch
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_classic(self, seed, monkeypatch):
        # Rotate through the classic models so ten seeds cover all three.
        if seed % 3 == 0:
            g = erdos_renyi_graph(120, 0.06, rng=seed)
        elif seed % 3 == 1:
            g = watts_strogatz_graph(120, 6, 0.2, rng=seed)
        else:
            g = barabasi_albert_graph(120, 4, rng=seed)
        assert_flat_matches_dict(g, monkeypatch)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_hierarchical(self, seed, monkeypatch):
        g = hierarchical_community_graph(192, levels=2, rng=seed).graph
        assert_flat_matches_dict(g, monkeypatch, seeds=(seed,))

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_weighted_and_self_loops(self, seed, monkeypatch):
        g = reweighted(rmat_graph(7, edge_factor=6, rng=seed), 100 + seed)
        assert_flat_matches_dict(g, monkeypatch, seeds=(seed,))

    def test_zoo(self, zoo_graph, monkeypatch):
        """Empty, isolated, self-loop, star, multi-component, … graphs."""
        assert_flat_matches_dict(zoo_graph, monkeypatch, seeds=(0, 1))

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_every_window_width(self, threads, monkeypatch):
        """The scheduler window models the thread count; the engines must
        agree at every modelled width."""
        g = rmat_graph(7, edge_factor=6, rng=3)
        assert_flat_matches_dict(
            g, monkeypatch, cutoffs=[None], seeds=(0, 1), threads=threads
        )


class TestThreads:
    """Modelled thread counts (the scheduler window) without a seed."""

    def test_single_thread_bit_identical(self, monkeypatch):
        """A window of one drains chunks in order, so the engines are
        directly comparable."""
        g = rmat_graph(7, edge_factor=6, rng=5)
        ref = community_detection_par(
            g, num_threads=1, engine="dict", collect_vertex_work=True
        )
        for cutoff in CUTOFFS:
            if cutoff is None:
                monkeypatch.undo()
            else:
                monkeypatch.setattr(fastpar_mod, "SCALAR_CUTOFF", cutoff)
            res = community_detection_par(
                g, num_threads=1, engine="fast", collect_vertex_work=True
            )
            assert_results_identical(ref, res, f"scalar_cutoff={cutoff}")

    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_thread_counts_stay_valid(self, threads):
        """Wider windows race; the contract is a valid audited forest
        with conserved vertex count."""
        g = hierarchical_community_graph(400, rng=7).graph
        res = community_detection_par(
            g, num_threads=threads, engine="fast", audit=True
        )
        res.dendrogram.validate()
        validate_permutation(res.dendrogram.ordering(), g.num_vertices)
        assert res.stats.merges + res.stats.toplevels == g.num_vertices


class TestProcsBitIdentical:
    @pytest.fixture(scope="class")
    def oracle(self):
        g = rmat_graph(7, edge_factor=6, rng=11)
        dend, stats = community_detection_seq(
            g, engine="dict", collect_vertex_work=True
        )
        return g, dend, stats

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_worker_counts(self, oracle, workers):
        g, ref_dend, ref_stats = oracle
        res = community_detection_par(
            g, executor="procs", num_threads=workers, collect_vertex_work=True
        )
        ctx = f"workers={workers}"
        assert np.array_equal(ref_dend.child, res.dendrogram.child), ctx
        assert np.array_equal(ref_dend.sibling, res.dendrogram.sibling), ctx
        assert np.array_equal(ref_dend.toplevel, res.dendrogram.toplevel), ctx
        assert ref_stats.merges == res.stats.merges, ctx
        assert ref_stats.toplevels == res.stats.toplevels, ctx
        assert ref_stats.edges_scanned == res.stats.edges_scanned, ctx
        assert np.array_equal(ref_stats.vertex_work, res.stats.vertex_work), ctx
        assert np.array_equal(ref_dend.ordering(), res.dendrogram.ordering()), ctx

    def test_engine_flag_is_accepted(self, oracle):
        """The procs executor always runs the flat shared-memory layout;
        both engine spellings must reach it and agree."""
        g, ref_dend, _ = oracle
        for engine in ("fast", "dict"):
            res = community_detection_par(
                g, executor="procs", num_threads=2, engine=engine
            )
            assert np.array_equal(ref_dend.ordering(), res.dendrogram.ordering())


def _instrumented_flat_run(graph, worker_fn, seed):
    """Drive *worker_fn* over flat-array state under the interleaving
    scheduler with full tracing; returns the race report."""
    n = graph.num_vertices
    state = FlatAggregationState.initialize(graph)
    state.scalar_only = True
    counter = OpCounter()
    atoms = AtomicPairArray(newman_degrees(graph), counter)
    state.child = atoms.children_view()
    log = EventLog()
    atoms.tracer = log
    state.dest = TracingArray(state.dest, log, "dest", RELAXED)
    state.sibling = TracingArray(state.sibling, log, "sibling")
    state.child = TracingArray(state.child, log, "child")
    state.adj.tracer = log
    order = np.argsort(graph.degrees(), kind="stable")
    chunks = [order[i : i + 8] for i in range(0, n, 8)]
    tasks = [
        tag_worker(
            worker_fn(state, atoms, chunk, [], RabbitStats(),
                      merge_threshold=0.0, max_attempts=100,
                      fold=state.make_fold()),
            i,
        )
        for i, chunk in enumerate(chunks)
    ]
    InterleavingScheduler(seed=seed).run(tasks, window=4)
    log.close()
    return analyze_log(log)


class TestRaceCertification:
    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(6, edge_factor=4, rng=3)

    def test_fifty_seed_certification(self, graph):
        """The headline certification artefact: 50 distinct schedules of
        the flat engine, all provably free of unsynchronised access."""
        for seed in range(50):
            res = community_detection_par(
                graph, scheduler_seed=seed, engine="fast", detect_races=True
            )
            report = res.race_report
            assert report is not None and report.ok, f"seed={seed}"
            assert report.races == [], f"seed={seed}"
            assert not report.truncated, f"seed={seed}"

    @pytest.mark.parametrize("seed", range(5))
    def test_correct_worker_clean_on_flat_state(self, graph, seed):
        report = _instrumented_flat_run(graph, _worker, seed)
        assert report.ok and report.races == []
        assert report.sync_operations > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_mutant_flagged_on_flat_state(self, graph, seed):
        """Positive control: the post-CAS unpublished ``sibling`` write is
        caught on the flat layout too — the detector's coverage did not
        regress with the new state class."""
        report = _instrumented_flat_run(graph, _broken_worker, seed)
        assert len(report.races) >= 1
        assert any(r.loc[0] == "sibling" for r in report.races)
