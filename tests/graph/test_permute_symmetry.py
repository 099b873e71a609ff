"""The O(m) ``permute`` and ``is_symmetric`` paths against the
coalescing reference they replaced: same arrays, same answers, on
canonical graphs and on graphs with duplicate or unsorted slots."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph


def permute_reference(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Relabel through ``from_edges``: a lexsort plus a coalesce."""
    src, dst, w = graph.edge_array()
    return CSRGraph.from_edges(
        perm[src],
        perm[dst],
        num_vertices=graph.num_vertices,
        weights=None if graph.weights is None else w,
        symmetrize=False,
        coalesce=True,
    )


def is_symmetric_reference(graph: CSRGraph) -> bool:
    """Compare the graph with its coalesced transpose."""
    t = graph.reverse()
    return (
        np.array_equal(graph.indptr, t.indptr)
        and np.array_equal(graph.indices, t.indices)
        and bool(np.allclose(graph.edge_weights(), t.edge_weights()))
    )


@st.composite
def graphs(draw):
    """Random graphs: weighted or not, symmetric or directed, with
    self-loops and isolated vertices; some keep duplicate slots and some
    have their rows shuffled out of order."""
    n = draw(st.integers(1, 24))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=70,
        )
    )
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    weighted = draw(st.booleans())
    w = None
    if weighted:
        w = np.array(
            draw(
                st.lists(
                    st.floats(0.0, 10.0, allow_nan=False),
                    min_size=len(pairs),
                    max_size=len(pairs),
                )
            ),
            dtype=np.float64,
        )
    layout = draw(st.sampled_from(["canonical", "duplicates", "unsorted"]))
    graph = CSRGraph.from_edges(
        src,
        dst,
        num_vertices=n,
        weights=w,
        symmetrize=draw(st.booleans()),
        coalesce=layout != "duplicates",
    )
    if layout == "unsorted" and graph.num_edges:
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        slots = np.arange(graph.num_edges)
        for v in range(n):
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            rng.shuffle(slots[lo:hi])
        graph = CSRGraph(
            graph.indptr,
            graph.indices[slots],
            None if graph.weights is None else graph.weights[slots],
        )
    return graph


def assert_same_graph(got: CSRGraph, want: CSRGraph) -> None:
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.indices.dtype == want.indices.dtype == np.int64
    if want.weights is None:
        assert got.weights is None
    else:
        assert np.array_equal(got.weights, want.weights)


class TestPermute:
    @settings(max_examples=300, deadline=None)
    @given(graphs(), st.integers(0, 2**31 - 1))
    def test_matches_coalescing_path(self, graph, seed):
        perm = np.random.default_rng(seed).permutation(graph.num_vertices)
        assert_same_graph(graph.permute(perm), permute_reference(graph, perm))

    def test_isolated_vertices_and_loops(self):
        g = CSRGraph.from_edges(
            [0, 3, 3], [3, 3, 5], num_vertices=8, weights=[1.5, 2.0, 0.25]
        )
        perm = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        assert_same_graph(g.permute(perm), permute_reference(g, perm))

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        perm = np.array([4, 0, 3, 1, 2])
        assert_same_graph(g.permute(perm), permute_reference(g, perm))


class TestIsSymmetric:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_matches_transpose_comparison(self, graph):
        assert graph.is_symmetric() == is_symmetric_reference(graph)

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.integers(0, 2**31 - 1), st.sampled_from([1e-12, 1e-3, 1.0]))
    def test_perturbed_weight(self, graph, seed, scale):
        if graph.num_edges == 0:
            return
        rng = np.random.default_rng(seed)
        w = graph.edge_weights().copy()
        k = int(rng.integers(graph.num_edges))
        w[k] += scale * (1.0 + w[k])
        perturbed = CSRGraph(graph.indptr, graph.indices, w)
        assert perturbed.is_symmetric() == is_symmetric_reference(perturbed)

    def test_symmetric_and_asymmetric(self):
        sym = CSRGraph.from_edges([0, 1, 2], [1, 2, 2], weights=[1.0, 2.0, 3.0])
        assert sym.is_symmetric() and is_symmetric_reference(sym)
        directed = CSRGraph.from_edges([0, 1], [1, 2], symmetrize=False)
        assert not directed.is_symmetric()
        assert not is_symmetric_reference(directed)

    def test_duplicate_slots_are_not_symmetric(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], coalesce=False)
        assert not g.is_symmetric()
        assert not is_symmetric_reference(g)
