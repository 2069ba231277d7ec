"""Unit tests for graph property computations, cross-checked vs networkx."""

import math
import random

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.graphs import (
    Graph,
    bfs_layers,
    bfs_levels,
    degree_histogram,
    diameter,
    eccentricity,
    gnp_connected,
    grid,
    is_connected,
    path,
    radius_and_center,
    random_geometric,
    require_connected,
    shortest_path,
    star,
)
from repro.graphs import generators, properties
from repro.graphs.generators import ARRAY_MIN_N
from repro.rng import derive_seed


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from(graph.edges())
    return g


class TestBfsLevels:
    def test_path_levels(self):
        levels = bfs_levels(path(5), 0)
        assert levels == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_star_levels(self):
        levels = bfs_levels(star(5), 0)
        assert levels[0] == 0
        assert all(levels[v] == 1 for v in range(1, 5))

    def test_unknown_root(self):
        with pytest.raises(TopologyError):
            bfs_levels(path(3), 99)

    def test_layers_partition_nodes(self):
        g = grid(4, 4)
        layers = bfs_layers(g, 0)
        flattened = [v for layer in layers for v in layer]
        assert sorted(flattened) == list(g.nodes)

    def test_layers_match_levels(self):
        g = grid(3, 5)
        levels = bfs_levels(g, 7)
        for depth, layer in enumerate(bfs_layers(g, 7)):
            assert all(levels[v] == depth for v in layer)


class TestConnectivity:
    def test_connected(self):
        assert is_connected(path(4))

    def test_disconnected(self):
        g = Graph.from_edges([(0, 1)], nodes=[0, 1, 2])
        assert not is_connected(g)
        with pytest.raises(TopologyError):
            require_connected(g)

    def test_empty_graph_is_connected(self):
        assert is_connected(Graph({}))

    def test_array_search_agrees_with_the_bfs(self, monkeypatch):
        # Sparse random graphs, connected and not, rebuilt by from_csr:
        # the array search must give the Python BFS's answer.
        cases = []
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 30)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 2.2 / n
            ]
            graph = Graph.from_edges(edges, nodes=range(n))
            cases.append(
                (Graph.from_csr(*graph.csr()), len(bfs_levels(graph, 0)) == n)
            )
        assert {expected for _, expected in cases} == {True, False}

        def no_bfs(graph, root):
            raise AssertionError("an array-built graph ran the Python BFS")

        monkeypatch.setattr(properties, "bfs_levels", no_bfs)
        assert [is_connected(g) for g, _ in cases] == [
            expected for _, expected in cases
        ]

    def test_first_vector_field_placement_is_still_rejected(self):
        # The perfbench ``vector`` field (n = 10⁴, mean degree 15.4,
        # field seed 1989): its first placement is disconnected, so the
        # generator must reject it and return the second.
        n = 10_000
        assert n >= ARRAY_MIN_N
        radius = math.sqrt(15.4 / (math.pi * n))
        rng = random.Random(derive_seed(1989, "vector-field"))
        points = [(rng.random(), rng.random()) for _ in range(n)]
        first = Graph.from_csr(*generators._unit_disk_csr(points, radius))
        assert len(bfs_levels(first, 0)) < n
        assert not is_connected(first)
        accepted = random_geometric(
            n, radius, random.Random(derive_seed(1989, "vector-field"))
        )
        assert is_connected(accepted)
        assert len(bfs_levels(accepted, 0)) == n
        assert accepted != first


class TestDistances:
    @pytest.mark.parametrize("seed", range(5))
    def test_diameter_matches_networkx(self, seed):
        g = gnp_connected(14, 0.25, random.Random(seed))
        assert diameter(g) == nx.diameter(to_networkx(g))

    @pytest.mark.parametrize("seed", range(3))
    def test_eccentricity_matches_networkx(self, seed):
        g = random_geometric(16, 0.45, random.Random(seed))
        ref = nx.eccentricity(to_networkx(g))
        for node in g.nodes:
            assert eccentricity(g, node) == ref[node]

    def test_diameter_of_single_node(self):
        assert diameter(path(1)) == 0

    def test_eccentricity_disconnected_raises(self):
        g = Graph.from_edges([(0, 1)], nodes=[0, 1, 2])
        with pytest.raises(TopologyError):
            eccentricity(g, 0)

    def test_radius_and_center(self):
        radius, center = radius_and_center(path(5))
        assert radius == 2
        assert center == 2

    def test_shortest_path_endpoints_and_length(self):
        g = grid(4, 4)
        sp = shortest_path(g, 0, 15)
        assert sp[0] == 0 and sp[-1] == 15
        assert len(sp) - 1 == bfs_levels(g, 0)[15]
        for u, v in zip(sp, sp[1:]):
            assert g.has_edge(u, v)

    def test_shortest_path_to_self(self):
        assert shortest_path(path(3), 1, 1) == [1]

    def test_shortest_path_unreachable(self):
        g = Graph.from_edges([(0, 1)], nodes=[0, 1, 2])
        with pytest.raises(TopologyError):
            shortest_path(g, 0, 2)


class TestDegreeHistogram:
    def test_star(self):
        assert degree_histogram(star(5)) == {4: 1, 1: 4}

    def test_sums_to_n(self):
        g = grid(3, 3)
        assert sum(degree_histogram(g).values()) == g.num_nodes
