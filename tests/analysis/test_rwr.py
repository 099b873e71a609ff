"""Random Walk with Restart."""

import numpy as np
import pytest

from repro.analysis import random_walk_with_restart
from repro.errors import ConvergenceError, GraphFormatError
from repro.graph import CSRGraph
from repro.graph.generators import hierarchical_community_graph, rmat_graph


class TestRWR:
    def test_negative_weight_rejected(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], weights=[1.0, -3.0])
        with pytest.raises(GraphFormatError, match="must be non-negative"):
            random_walk_with_restart(g, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        g = CSRGraph.from_edges([0, 1], [1, 2], weights=[1.0, bad])
        with pytest.raises(GraphFormatError, match="must be finite"):
            random_walk_with_restart(g, 0)

    def test_subnormal_degree_rejected(self):
        g = CSRGraph(indptr=[0, 2, 2], indices=[0, 1], weights=[0.0, 5e-324])
        with pytest.raises(GraphFormatError, match="reciprocal overflows"):
            random_walk_with_restart(g, 0)

    def test_scores_sum_to_one(self, paper_graph):
        res = random_walk_with_restart(paper_graph, 0)
        assert res.scores.sum() == pytest.approx(1.0)

    def test_seed_scores_highest(self):
        g = rmat_graph(7, rng=1)
        res = random_walk_with_restart(g, 5, restart=0.3)
        assert int(np.argmax(res.scores)) == 5

    def test_restart_one_concentrates_on_seed(self, paper_graph):
        res = random_walk_with_restart(paper_graph, 3, restart=1.0)
        assert res.scores[3] == pytest.approx(1.0)

    def test_proximity_ordering(self):
        # Path graph: score decays with distance from the seed (compare
        # well-separated positions; the far endpoint's degree-1 boundary
        # makes immediate neighbours non-strictly ordered).
        n = 12
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        res = random_walk_with_restart(g, 0)
        assert res.scores[0] > res.scores[3] > res.scores[7] > res.scores[11]

    def test_community_proximity(self):
        """Vertices in the seed's community score above outsiders."""
        hg = hierarchical_community_graph(
            300, branching=2, levels=1, p_in=0.4, decay=0.02, rng=2, shuffle=False
        )
        g = hg.graph
        block = hg.block_of[0]
        seed = 0
        res = random_walk_with_restart(g, seed, restart=0.2)
        same = res.scores[block == block[seed]]
        other = res.scores[block != block[seed]]
        assert np.median(same) > np.median(other)

    def test_matches_networkx_personalized_pagerank(self, paper_graph_unweighted):
        import networkx as nx

        from tests.conftest import to_networkx

        res = random_walk_with_restart(paper_graph_unweighted, 2, restart=0.15)
        expected = nx.pagerank(
            to_networkx(paper_graph_unweighted),
            alpha=0.85,
            personalization={2: 1.0},
            tol=1e-12,
            max_iter=500,
        )
        for v, s in expected.items():
            assert res.scores[v] == pytest.approx(s, abs=1e-6)

    def test_dangling_mass_returns_to_seed(self):
        g = CSRGraph.from_edges([0], [1], num_vertices=3)  # vertex 2 isolated
        res = random_walk_with_restart(g, 0)
        assert res.scores.sum() == pytest.approx(1.0)
        assert res.scores[2] == pytest.approx(0.0)

    def test_invalid_seed(self, paper_graph):
        with pytest.raises(GraphFormatError):
            random_walk_with_restart(paper_graph, 99)

    def test_invalid_restart(self, paper_graph):
        with pytest.raises(GraphFormatError):
            random_walk_with_restart(paper_graph, 0, restart=0.0)

    def test_convergence_error(self):
        g = rmat_graph(7, rng=1)
        with pytest.raises(ConvergenceError):
            random_walk_with_restart(
                g, 0, max_iterations=1, raise_on_no_convergence=True
            )
