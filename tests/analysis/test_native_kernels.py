"""The C analysis kernels against their oracles: SpMV against
``spmv_naive`` and the ``bincount`` fallback, core numbers and SCC labels
against the Python loops.  Every comparison is exact (``array_equal``):
the kernels do the same operations in the same order.

Each case computes the fallback's answer with the library patched out
(``native._kernel = None``, which every ``load_kernel`` caller sees), so
the same cases also show that the fallbacks agree with the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.analysis import (
    core_numbers,
    pagerank,
    random_walk_with_restart,
    spmv,
    spmv_naive,
    strongly_connected_components,
)
from repro.errors import GraphFormatError
from repro.graph import CSRGraph

needs_library = pytest.mark.skipif(
    native.load_kernel() is None, reason="no working C compiler here"
)


def without_library(fn, *args):
    """``fn(*args)`` with every entry point on its fallback."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_kernel", None)
        return fn(*args)


def strided(a: np.ndarray) -> np.ndarray:
    """A non-contiguous view with *a*'s values (every other element of a
    buffer twice as long)."""
    buf = np.zeros(2 * a.size, dtype=a.dtype)
    buf[::2] = a
    view = buf[::2]
    assert a.size < 2 or not view.flags.c_contiguous
    return view


@st.composite
def graphs(draw, symmetric=None):
    """Random graphs, n = 0 included: weighted or not, symmetric or
    directed, with self-loops, isolated vertices and edgeless graphs;
    some have their CSR arrays as strided views."""
    n = draw(st.integers(0, 24))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=70)) if n else []
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    w = None
    if draw(st.booleans()):
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
    if symmetric is None:
        symmetric = draw(st.booleans())
    graph = CSRGraph.from_edges(
        src, dst, num_vertices=n, weights=w, symmetrize=symmetric
    )
    if draw(st.booleans()):
        graph = CSRGraph(
            strided(graph.indptr),
            strided(graph.indices),
            None if graph.weights is None else strided(graph.weights),
        )
    return graph


def vectors(n: int):
    return st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n
    ).map(lambda xs: np.array(xs, dtype=np.float64))


def bincount_spmv(graph: CSRGraph, x) -> np.ndarray:
    return without_library(spmv, graph, x)


@needs_library
class TestSpmv:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_naive_and_bincount(self, data):
        graph = data.draw(graphs())
        x = data.draw(vectors(graph.num_vertices))
        if data.draw(st.booleans()):
            x = strided(x)
        got = spmv(graph, x)
        assert np.array_equal(got, spmv_naive(graph, x))
        assert np.array_equal(got, bincount_spmv(graph, x))

    def test_self_loops_and_isolated_vertices(self):
        g = CSRGraph.from_edges([0, 0, 1], [0, 1, 1], num_vertices=4,
                                weights=[0.1, 0.2, 0.3])
        x = np.array([0.7, 1.3, 2.9, 5.0])
        got = spmv(g, x)
        assert np.array_equal(got, spmv_naive(g, x))
        assert np.array_equal(got, bincount_spmv(g, x))
        assert got[2] == got[3] == 0.0

    def test_unit_weights_build_no_slot_arrays(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 3])
        spmv(g, np.ones(4))
        assert "row_of_slot" not in g._symmetric_cache
        assert "unit_weights" not in g._symmetric_cache

    def test_signed_zero_and_infinities_match(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], weights=[1.0, 2.0, 0.5])
        for x in ([-0.0, -0.0, -0.0], [np.inf, 1.0, -np.inf], [np.nan, 0, 1]):
            x = np.array(x, dtype=np.float64)
            want = spmv_naive(g, x)
            np.testing.assert_array_equal(spmv(g, x), want)
            np.testing.assert_array_equal(bincount_spmv(g, x), want)


@needs_library
class TestCoreNumbers:
    @settings(max_examples=150, deadline=None)
    @given(graphs(symmetric=True))
    def test_equals_python(self, graph):
        got = core_numbers(graph)
        assert got.dtype == np.int64
        assert np.array_equal(got, without_library(core_numbers, graph))

    def test_long_path(self):
        n = 100_000
        g = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n))
        got = core_numbers(g)
        assert np.array_equal(got, without_library(core_numbers, g))
        assert np.all(got == 1)


@needs_library
class TestSCC:
    @settings(max_examples=150, deadline=None)
    @given(graphs())
    def test_equals_python(self, graph):
        got = strongly_connected_components(graph)
        want = without_library(strongly_connected_components, graph)
        assert got.num_components == want.num_components
        assert np.array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("cycle", [False, True])
    def test_long_directed_path(self, cycle):
        # A 10^5-deep DFS: the frame and Tarjan stacks both reach n.
        n = 100_000
        src = np.arange(n if cycle else n - 1)
        g = CSRGraph.from_edges(src, (src + 1) % n, symmetrize=False)
        got = strongly_connected_components(g)
        want = without_library(strongly_connected_components, g)
        assert got.num_components == want.num_components == (1 if cycle else n)
        assert np.array_equal(got.labels, want.labels)


@needs_library
class TestIterativeSolvers:
    """PageRank and RWR reach the kernel through ``spmv`` only.  Both
    paths give the same scores exactly, or reject the graph with the
    same error (a degree whose reciprocal overflows)."""

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_pagerank_equals_fallback(self, graph):
        assert_same_outcome(
            outcome(pagerank, graph), without_library(outcome, pagerank, graph)
        )

    @settings(max_examples=40, deadline=None)
    @given(graphs().filter(lambda g: g.num_vertices > 0))
    def test_rwr_equals_fallback(self, graph):
        fn = random_walk_with_restart
        assert_same_outcome(
            outcome(fn, graph, 0), without_library(outcome, fn, graph, 0)
        )


def outcome(fn, *args):
    """A solver's ``(iterations, scores)``, or its rejection message."""
    try:
        result = fn(*args)
    except GraphFormatError as exc:
        return str(exc)
    return result.iterations, result.scores


def assert_same_outcome(got, want) -> None:
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
