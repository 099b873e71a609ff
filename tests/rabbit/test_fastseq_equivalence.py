"""Fast-engine ⇔ dict-engine equivalence: the C sweep behind
``engine="fast"`` must be *bit-identical* to the reference
implementation — same dendrogram links, same stats, same permutation —
not merely an equivalent clustering.  These tests are the contract that
lets ``engine="fast"`` be the default everywhere.

Without the native library ``engine="fast"`` runs the dict engine; the
native rows skip there, and the fallback tests reach that path by
patching ``repro.native._kernel`` to ``None``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.errors import ReproError
from repro.graph import CSRGraph
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    hierarchical_community_graph,
    rmat_graph,
    watts_strogatz_graph,
)
from repro.obs.metrics import get_registry
from repro.rabbit import fastseq, rabbit_order
from repro.rabbit.arena import AdjacencyArena
from repro.rabbit.fastpar import SCALAR_CUTOFF
from repro.rabbit.seq import community_detection_seq
from tests.conftest import GRAPH_ZOO, make_paper_graph

SEEDS = list(range(10))


def reweighted(graph: CSRGraph, seed: int) -> CSRGraph:
    """Copy of *graph* with arbitrary uniform float edge weights."""
    rng = np.random.default_rng(seed)
    src, dst, _ = graph.edge_array()
    keep = src <= dst
    w = rng.uniform(0.1, 5.0, size=int(keep.sum()))
    return CSRGraph.from_edges(src[keep], dst[keep], weights=w, symmetrize=True)


#: Whether the C library loaded here; without it the native rows skip.
NATIVE = native.load_kernel() is not None

needs_native = pytest.mark.skipif(
    not NATIVE, reason="no working C compiler here"
)


def runs(sweep: str) -> float:
    return get_registry().counter(f"rabbit.seq.runs.{sweep}").value


def assert_same_result(ref, got, ctx: str) -> None:
    (ref_dend, ref_stats), (dend, stats) = ref, got
    assert np.array_equal(ref_dend.child, dend.child), ctx
    assert np.array_equal(ref_dend.sibling, dend.sibling), ctx
    assert np.array_equal(ref_dend.toplevel, dend.toplevel), ctx
    assert np.array_equal(ref_dend.ordering(), dend.ordering()), ctx
    assert ref_stats.merges == stats.merges, ctx
    assert ref_stats.toplevels == stats.toplevels, ctx
    assert ref_stats.edges_scanned == stats.edges_scanned, ctx
    if ref_stats.vertex_work is None:
        assert stats.vertex_work is None, ctx
    else:
        assert np.array_equal(ref_stats.vertex_work, stats.vertex_work), ctx


def assert_engines_identical(graph: CSRGraph, **kwargs):
    """The native sweep, with and without per-vertex work, matches the
    dict oracle (and ticks the native counter once per run)."""
    if not NATIVE:
        pytest.skip("no working C compiler here")
    for work in (True, False):
        ref = community_detection_seq(
            graph, engine="dict", collect_vertex_work=work, **kwargs
        )
        before = runs("native")
        got = community_detection_seq(
            graph, engine="fast", collect_vertex_work=work, **kwargs
        )
        assert runs("native") == before + 1
        assert_same_result(ref, got, f"native, collect_vertex_work={work}")


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rmat(self, seed):
        assert_engines_identical(rmat_graph(7, edge_factor=6, rng=seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_classic(self, seed):
        # Rotate through the classic models so ten seeds cover all three.
        if seed % 3 == 0:
            g = erdos_renyi_graph(120, 0.06, rng=seed)
        elif seed % 3 == 1:
            g = watts_strogatz_graph(120, 6, 0.2, rng=seed)
        else:
            g = barabasi_albert_graph(120, 4, rng=seed)
        assert_engines_identical(g)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hierarchical(self, seed):
        g = hierarchical_community_graph(192, levels=2, rng=seed).graph
        assert_engines_identical(g)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_weighted_rmat(self, seed):
        g = reweighted(rmat_graph(7, edge_factor=6, rng=seed), 100 + seed)
        assert_engines_identical(g)


class TestEdgeCases:
    def test_zoo(self, zoo_graph):
        """Empty, isolated, self-loop, star, multi-component, … graphs."""
        assert_engines_identical(zoo_graph)

    def test_edgeless_stats(self):
        g = CSRGraph.empty(7)
        dend, stats = community_detection_seq(g, collect_vertex_work=True)
        assert stats.toplevels == 7
        assert stats.merges == 0
        assert np.array_equal(dend.toplevel, np.arange(7))

    def test_heavy_self_loops(self):
        g = CSRGraph.from_edges(
            [0, 0, 1, 1, 2, 3], [0, 1, 1, 2, 3, 3], symmetrize=True
        )
        assert_engines_identical(g)

    def test_weighted_paper_graph(self):
        assert_engines_identical(make_paper_graph(weighted=True))

    def test_merge_threshold_and_visit_orders(self):
        g = rmat_graph(7, edge_factor=6, rng=3)
        assert_engines_identical(g, merge_threshold=0.05)
        assert_engines_identical(g, visit="identity")
        assert_engines_identical(g, visit="random", visit_rng=11)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weights_agree(self):
        """A path whose total weight overflows to inf: not valid input,
        but every engine must still decide it the same way."""
        g = CSRGraph.from_edges([0, 1], [1, 2], weights=[1e308, 1e308])
        assert_engines_identical(g)

    def test_rejects_unknown_visit(self):
        g = GRAPH_ZOO["triangle"]
        with pytest.raises(ValueError, match="visit"):
            community_detection_seq(g, visit="bogus")


class TestNativeDriver:
    """The chunked driving of the kernel: many small calls and pools
    that must grow mid-sweep change nothing."""

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_small_chunks_and_pool_growth(self, seed, monkeypatch):
        class TinyArena(AdjacencyArena):
            def __init__(self, num_vertices, capacity=0):
                super().__init__(num_vertices, capacity=16)

        monkeypatch.setattr(fastseq, "AdjacencyArena", TinyArena)
        monkeypatch.setattr(fastseq, "NATIVE_CHUNK", 7)
        g = reweighted(rmat_graph(7, edge_factor=6, rng=seed), 200 + seed)
        assert_engines_identical(g)

    @needs_native
    def test_heartbeat_units_cover_every_vertex(self, monkeypatch):
        beats = []
        monkeypatch.setattr(fastseq, "NATIVE_CHUNK", 10)
        monkeypatch.setattr(fastseq, "heartbeat", lambda units=1: beats.append(units))
        g = rmat_graph(6, edge_factor=4, rng=1)
        community_detection_seq(g)
        assert sum(beats) == g.num_vertices
        assert len(beats) == -(-g.num_vertices // 10)


class TestPermutationEquivalence:
    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_rabbit_order_permutation(self, seed):
        g = rmat_graph(7, edge_factor=6, rng=seed)
        fast = rabbit_order(g, engine="fast")
        ref = rabbit_order(g, engine="dict")
        assert np.array_equal(fast.permutation, ref.permutation)
        assert fast.num_communities == ref.num_communities

    def test_default_engine_is_fast(self, paper_graph):
        default = rabbit_order(paper_graph)
        explicit = rabbit_order(paper_graph, engine="fast")
        assert np.array_equal(default.permutation, explicit.permutation)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_fallback_permutation(self, seed, monkeypatch):
        """With the library off, ``engine="fast"`` runs the dict engine:
        its bits, and the dict counter ticks."""
        g = rmat_graph(7, edge_factor=6, rng=seed)
        ref = community_detection_seq(
            g, engine="dict", collect_vertex_work=True
        )
        ref_perm = rabbit_order(g, engine="dict").permutation
        monkeypatch.setattr(native, "_kernel", None)
        before = runs("dict"), runs("native")
        got = community_detection_seq(
            g, engine="fast", collect_vertex_work=True
        )
        assert (runs("dict"), runs("native")) == (before[0] + 1, before[1])
        assert_same_result(ref, got, "fallback")
        fast = rabbit_order(g, engine="fast")
        assert np.array_equal(fast.permutation, ref_perm)

    def test_fastseq_needs_the_library(self, monkeypatch):
        monkeypatch.setattr(native, "_kernel", None)
        with pytest.raises(ReproError, match="native library"):
            fastseq.community_detection_fastseq(GRAPH_ZOO["triangle"])

    def test_unknown_engine_rejected(self, paper_graph):
        with pytest.raises(ValueError, match="engine"):
            community_detection_seq(paper_graph, engine="turbo")


class TestArena:
    def test_from_pools_roundtrip(self):
        """Pools in the checkpoint wire format come back entry by entry."""
        arena = AdjacencyArena.from_pools(
            np.array([0, 0, 3, 0]),
            np.array([3, -1, 2, -1]),
            np.array([7, 9, 0, 5, 2]),
            np.array([1.5, 2.5, 4.0, 0.5, 1.0]),
            extra_capacity=4,
        )
        entries = list(arena.entries())
        assert entries[1] is None and entries[3] is None
        assert entries[0][0].tolist() == [7, 9, 0]
        assert entries[0][1].tolist() == [1.5, 2.5, 4.0]
        assert entries[2][0].tolist() == [5, 2]
        assert arena.used == 5
        assert arena.capacity >= 9

    def test_geometric_growth_preserves_entries(self):
        arena = AdjacencyArena(8, capacity=4)
        off = arena.reserve(2)
        arena.keys[off : off + 2] = [1, 2]
        arena.ws[off : off + 2] = [1.0, 2.0]
        arena.length[0] = 2
        arena.grow(50)
        assert arena.grows >= 1
        assert arena.capacity >= arena.used + 50
        keys, ws = next(arena.entries())  # survived the regrowth copy
        assert keys.tolist() == [1, 2]
        assert ws.tolist() == [1.0, 2.0]

    def test_reserve_is_append_only(self):
        arena = AdjacencyArena(2, capacity=16)
        a = arena.reserve(5)
        b = arena.reserve(3)
        assert b == a + 5
        assert arena.used == 8

    def test_default_cutoff_is_tuned_constant(self):
        assert SCALAR_CUTOFF == 192
