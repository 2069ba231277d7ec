"""Unit tests for the Graph type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.graphs import Graph


class TestConstruction:
    def test_from_edges_builds_symmetric_adjacency(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.neighbors(1) == (0, 2)
        assert g.neighbors(0) == (1,)
        assert g.neighbors(2) == (1,)

    def test_isolated_nodes_are_kept(self):
        g = Graph.from_edges([(0, 1)], nodes=[0, 1, 5])
        assert 5 in g
        assert g.neighbors(5) == ()
        assert g.num_nodes == 3

    def test_duplicate_edges_are_deduplicated(self):
        g = Graph.from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1
        assert g.degree(0) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Graph({0: [0]})

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(TopologyError):
            Graph({0: [1], 1: []})

    def test_unknown_neighbor_rejected(self):
        with pytest.raises(TopologyError):
            Graph({0: [7]})

    def test_empty_graph(self):
        g = Graph({})
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.max_degree() == 0


class TestQueries:
    def test_nodes_sorted(self):
        g = Graph.from_edges([(3, 1), (2, 3)])
        assert g.nodes == (1, 2, 3)

    def test_num_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert g.num_edges == 3

    def test_degree_and_max_degree(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.max_degree() == 3

    def test_has_edge(self):
        g = Graph.from_edges([(0, 1)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 0)
        assert not g.has_edge(0, 99)

    def test_edges_each_once(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_len_iter_contains(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert len(g) == 3
        assert list(g) == [0, 1, 2]
        assert 2 in g and 9 not in g

    def test_equality(self):
        a = Graph.from_edges([(0, 1)])
        b = Graph.from_edges([(1, 0)])
        c = Graph.from_edges([(0, 2)])
        assert a == b
        assert a != c

    def test_repr_mentions_sizes(self):
        g = Graph.from_edges([(0, 1)])
        assert "n=2" in repr(g) and "m=1" in repr(g)


class TestDerivation:
    def test_with_edge_adds(self):
        g = Graph.from_edges([(0, 1)]).with_edge(1, 2)
        assert g.has_edge(1, 2)
        assert g.num_nodes == 3

    def test_with_edge_idempotent(self):
        g = Graph.from_edges([(0, 1)])
        assert g.with_edge(0, 1).num_edges == 1

    def test_without_node(self):
        g = Graph.from_edges([(0, 1), (1, 2)]).without_node(1)
        assert g.num_nodes == 2
        assert g.num_edges == 0

    def test_without_unknown_node(self):
        with pytest.raises(TopologyError):
            Graph.from_edges([(0, 1)]).without_node(9)

    def test_subgraph_induced(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        sub = g.subgraph([0, 1])
        assert sub.num_edges == 1
        assert sub.has_edge(0, 1)

    def test_subgraph_unknown_node(self):
        with pytest.raises(TopologyError):
            Graph.from_edges([(0, 1)]).subgraph([0, 9])

    def test_original_not_mutated(self):
        g = Graph.from_edges([(0, 1)])
        g.with_edge(5, 6)
        g.without_node(0)
        assert g.num_nodes == 2 and g.has_edge(0, 1)


def _reference_csr(graph):
    """The CSR the lockstep radio built for itself before Graph.csr."""
    index = {node: i for i, node in enumerate(graph.nodes)}
    indptr, indices = [0], []
    for node in graph.nodes:
        indices.extend(index[v] for v in graph.neighbors(node))
        indptr.append(len(indices))
    return indptr, indices


class TestCsr:
    def test_from_csr_builds_the_adjacency(self):
        g = Graph.from_csr([0, 1, 3, 4, 4], [1, 0, 2, 1])
        assert g == Graph.from_edges([(0, 1), (1, 2)], nodes=[3])
        assert g.neighbors(1) == (0, 2)
        assert g.num_edges == 2

    def test_from_csr_shares_one_int_per_node(self):
        g = Graph.from_csr([0, 1, 3, 4], [1, 0, 2, 1])
        assert g.neighbors(0)[0] is g.nodes[1] is g.neighbors(2)[0]

    @pytest.mark.parametrize(
        "indptr, indices",
        [
            ([0, 1], [0]),  # self-loop
            ([0, 1, 1], [1]),  # asymmetric
            ([0, 2, 3, 4], [2, 1, 0, 0]),  # unsorted row
            ([0, 2, 4], [1, 1, 0, 0]),  # repeated row entry
            ([0, 1, 2], [2, 0]),  # index out of range
            ([0, 1, 2], [-1, 0]),  # negative index
            ([], []),  # no indptr
            ([1, 2], [0]),  # indptr not starting at 0
            ([0, 2, 1], [1, 0]),  # decreasing indptr
            ([0, 1, 1], [1, 0]),  # indptr not ending at len(indices)
            ([[0, 1], [1, 2]], [1, 0]),  # two-dimensional indptr
            ([0.0, 1.0, 2.0], [1, 0]),  # non-integer indptr
        ],
    )
    def test_from_csr_rejects_malformed_input(self, indptr, indices):
        with pytest.raises(TopologyError):
            Graph.from_csr(indptr, indices)

    def test_csr_is_read_only(self):
        for g in (
            Graph.from_edges([(0, 1), (1, 2)]),
            Graph.from_csr([0, 1, 2], [1, 0]),
        ):
            indptr, indices = g.csr()
            with pytest.raises(ValueError):
                indices[0] = 0
            with pytest.raises(ValueError):
                indptr[0] = 1
            assert g.csr()[1] is indices

    def test_from_csr_keeps_private_copies(self):
        import numpy as np

        indices = np.array([1, 0])
        g = Graph.from_csr(np.array([0, 1, 2]), indices)
        indices[0] = 0
        assert indices.flags.writeable
        assert g.csr()[1].tolist() == [1, 0]

    def test_csr_positions_follow_node_order(self):
        g = Graph.from_edges([("b", "a"), ("c", "a"), ("d", "c")])
        indptr, indices = g.csr()
        assert indptr.dtype == indices.dtype == "int64"
        assert indptr.tolist() == [0, 2, 3, 5, 6]
        assert indices.tolist() == [1, 2, 0, 0, 3, 2]
        assert (indptr.tolist(), indices.tolist()) == _reference_csr(g)

    def test_empty_graph(self):
        assert Graph.from_csr([0], []) == Graph({})
        indptr, indices = Graph({}).csr()
        assert indptr.tolist() == [0] and indices.size == 0


@st.composite
def random_edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda t: t[0] != t[1])
    return n, draw(st.lists(pairs, max_size=30))


class TestProperties:
    @given(random_edge_lists())
    @settings(max_examples=60)
    def test_adjacency_always_symmetric(self, data):
        n, edges = data
        g = Graph.from_edges(edges, nodes=range(n))
        for u in g.nodes:
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    @given(random_edge_lists())
    @settings(max_examples=60)
    def test_handshake_lemma(self, data):
        n, edges = data
        g = Graph.from_edges(edges, nodes=range(n))
        assert sum(g.degree(v) for v in g.nodes) == 2 * g.num_edges

    @given(random_edge_lists())
    @settings(max_examples=40)
    def test_edges_roundtrip(self, data):
        n, edges = data
        g = Graph.from_edges(edges, nodes=range(n))
        rebuilt = Graph.from_edges(g.edges(), nodes=g.nodes)
        assert rebuilt == g

    @given(random_edge_lists())
    @settings(max_examples=60)
    def test_from_csr_matches_from_edges(self, data):
        n, edges = data
        g = Graph.from_edges(edges, nodes=range(n))
        rebuilt = Graph.from_csr(*_reference_csr(g))
        assert rebuilt == g
        assert [a.tolist() for a in rebuilt.csr()] == [
            a.tolist() for a in g.csr()
        ]
        assert [a.tolist() for a in g.csr()] == list(_reference_csr(g))

    @given(random_edge_lists())
    @settings(max_examples=60)
    def test_max_degree_is_the_scan_kept(self, data):
        # Built graphs scan their adjacency on the first call and keep
        # Δ; array-built graphs know it from construction.
        n, edges = data
        built = Graph.from_edges(edges, nodes=range(n))
        arrays = Graph.from_csr(*_reference_csr(built))
        scan = max(len(built.neighbors(v)) for v in built.nodes)
        assert built._max_degree is None
        assert arrays._max_degree == scan
        for g in (built, arrays):
            assert g.max_degree() == scan
            assert g._max_degree == scan
            assert g.max_degree() == scan
