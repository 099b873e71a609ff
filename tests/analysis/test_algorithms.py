"""SCC, pseudo-diameter, k-core and connected components."""

import numpy as np
import pytest

from repro.analysis import (
    connected_components,
    core_numbers,
    kcore_subgraph,
    largest_component,
    pseudo_diameter,
    pseudo_peripheral_vertex,
    strongly_connected_components,
)
from repro.errors import GraphFormatError
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_graph, rmat_graph
from tests.conftest import to_networkx


class TestSCC:
    def test_directed_cycle_plus_tail(self):
        # 0 -> 1 -> 2 -> 0 cycle, 2 -> 3 tail.
        g = CSRGraph.from_edges([0, 1, 2, 2], [1, 2, 0, 3], symmetrize=False)
        res = strongly_connected_components(g)
        assert res.num_components == 2
        assert res.labels[0] == res.labels[1] == res.labels[2]
        assert res.labels[3] != res.labels[0]

    def test_dag_all_singletons(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3], symmetrize=False)
        res = strongly_connected_components(g)
        assert res.num_components == 4

    def test_matches_networkx_on_directed(self):
        import networkx as nx

        rng = np.random.default_rng(3)
        src = rng.integers(0, 30, 120)
        dst = rng.integers(0, 30, 120)
        g = CSRGraph.from_edges(src, dst, num_vertices=30, symmetrize=False)
        res = strongly_connected_components(g)
        G = nx.DiGraph()
        G.add_nodes_from(range(30))
        G.add_edges_from(zip(src.tolist(), dst.tolist()))
        expected = list(nx.strongly_connected_components(G))
        assert res.num_components == len(expected)
        for comp in expected:
            labels = {int(res.labels[v]) for v in comp}
            assert len(labels) == 1

    def test_symmetric_graph_equals_components(self, zoo_graph):
        scc = strongly_connected_components(zoo_graph)
        cc = connected_components(zoo_graph)
        assert scc.num_components == cc.num_components

    def test_component_sizes(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], symmetrize=False)
        res = strongly_connected_components(g)
        assert res.component_sizes().tolist() == [2]

    def test_deep_graph_iterative(self):
        n = 30_000
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        assert strongly_connected_components(g).num_components == 1


class TestComponents:
    def test_counts(self):
        g = CSRGraph.from_edges([0, 2, 4], [1, 3, 5])
        assert connected_components(g).num_components == 3

    def test_isolated_vertices(self):
        g = CSRGraph.empty(4)
        res = connected_components(g)
        assert res.num_components == 4

    def test_largest_component(self):
        g = CSRGraph.from_edges([0, 1, 4], [1, 2, 5])
        sub, ids = largest_component(g)
        assert sub.num_vertices == 3
        assert ids.tolist() == [0, 1, 2]

    def test_requires_symmetric(self):
        g = CSRGraph.from_edges([0], [1], symmetrize=False)
        with pytest.raises(GraphFormatError):
            connected_components(g)

    def test_nan_weight_named(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], weights=[1.0, np.nan])
        with pytest.raises(GraphFormatError, match="edge weights must be finite"):
            connected_components(g)


class TestKCore:
    def test_matches_networkx(self):
        import networkx as nx

        g = rmat_graph(7, rng=8)
        core = core_numbers(g)
        expected = nx.core_number(to_networkx(g))
        assert all(core[v] == expected[v] for v in range(g.num_vertices))

    def test_clique_core(self):
        n = 5
        src, dst = np.triu_indices(n, k=1)
        g = CSRGraph.from_edges(src, dst)
        assert np.all(core_numbers(g) == n - 1)

    def test_tree_core_is_one(self):
        g = CSRGraph.from_edges([0, 0, 1, 1], [1, 2, 3, 4])
        assert np.all(core_numbers(g) == 1)

    def test_self_loops_ignored(self):
        g = CSRGraph.from_edges([0, 0], [0, 1])
        assert core_numbers(g).tolist() == [1, 1]

    def test_isolated_vertex_core_zero(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=3)
        assert core_numbers(g)[2] == 0

    def test_kcore_subgraph(self):
        # Triangle with a pendant: 2-core is the triangle.
        g = CSRGraph.from_edges([0, 1, 2, 0], [1, 2, 0, 3])
        sub, ids = kcore_subgraph(g, 2)
        assert ids.tolist() == [0, 1, 2]
        assert sub.num_undirected_edges == 3

    def test_empty_graph(self):
        assert core_numbers(CSRGraph.empty(0)).size == 0

    def test_nan_weight_named(self):
        # NaN never equals its mirror, so the graph reads as asymmetric.
        g = CSRGraph.from_edges([0, 1], [1, 2], weights=[1.0, np.nan])
        with pytest.raises(GraphFormatError, match="edge weights must be finite"):
            core_numbers(g)


class TestPseudoDiameter:
    def test_path_graph_exact(self):
        n = 20
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        res = pseudo_diameter(g)
        assert res.diameter == n - 1
        assert set(res.endpoints) == {0, n - 1}

    def test_lower_bounds_true_diameter(self):
        import networkx as nx

        g = rmat_graph(6, rng=7)
        sub, _ = largest_component(g)
        res = pseudo_diameter(sub)
        true = nx.diameter(to_networkx(sub))
        assert res.diameter <= true
        assert res.diameter >= true // 2  # double sweep guarantee-ish

    def test_single_vertex(self):
        res = pseudo_diameter(CSRGraph.empty(1))
        assert res.diameter == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphFormatError):
            pseudo_diameter(CSRGraph.empty(0))

    def test_peripheral_vertex_is_extreme(self):
        n = 15
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        assert pseudo_peripheral_vertex(g, source=7) in (0, n - 1)

    def test_sweep_budget(self):
        g = rmat_graph(6, rng=9)
        res = pseudo_diameter(g, max_sweeps=2)
        assert res.num_sweeps <= 2
