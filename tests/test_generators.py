"""Unit tests for topology generators."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.graphs import (
    balanced_tree,
    caterpillar,
    complete,
    cycle,
    diameter,
    gnp_connected,
    grid,
    is_connected,
    layered_band,
    lollipop,
    path,
    random_geometric,
    random_tree,
    star,
)


class TestPath:
    def test_shape(self):
        g = path(5)
        assert g.num_nodes == 5
        assert g.num_edges == 4
        assert diameter(g) == 4
        assert g.max_degree() == 2

    def test_single_node(self):
        g = path(1)
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            path(0)


class TestCycle:
    def test_shape(self):
        g = cycle(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.nodes)
        assert diameter(g) == 3

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            cycle(2)


class TestStar:
    def test_shape(self):
        g = star(7)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in g.nodes if v != 0)
        assert diameter(g) == 2

    def test_star_of_one(self):
        assert star(1).num_nodes == 1


class TestComplete:
    def test_shape(self):
        g = complete(5)
        assert g.num_edges == 10
        assert diameter(g) == 1
        assert g.max_degree() == 4


class TestGrid:
    def test_shape(self):
        g = grid(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4
        assert g.max_degree() == 4
        assert diameter(g) == (3 - 1) + (4 - 1)

    def test_degenerate_is_path(self):
        assert grid(1, 6) == path(6)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            grid(0, 3)


class TestBalancedTree:
    def test_counts(self):
        g = balanced_tree(2, 3)
        assert g.num_nodes == 1 + 2 + 4 + 8
        assert g.num_edges == g.num_nodes - 1

    def test_depth_zero(self):
        assert balanced_tree(3, 0).num_nodes == 1

    def test_unary_is_path(self):
        assert balanced_tree(1, 4) == path(5)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            balanced_tree(0, 2)
        with pytest.raises(ConfigurationError):
            balanced_tree(2, -1)


class TestCaterpillar:
    def test_counts(self):
        g = caterpillar(5, 2)
        assert g.num_nodes == 5 + 10
        assert g.num_edges == 4 + 10
        assert g.max_degree() == 2 + 2

    def test_no_legs_is_path(self):
        assert caterpillar(4, 0) == path(4)

    def test_diameter_tracks_spine(self):
        assert diameter(caterpillar(6, 3)) == 5 + 2


class TestRandomTree:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25])
    def test_is_tree(self, n):
        g = random_tree(n, random.Random(5))
        assert g.num_nodes == n
        assert g.num_edges == n - 1 if n > 1 else g.num_edges == 0
        assert is_connected(g)

    def test_deterministic_given_seed(self):
        a = random_tree(20, random.Random(9))
        b = random_tree(20, random.Random(9))
        assert a == b

    def test_varies_with_seed(self):
        graphs = {
            tuple(random_tree(12, random.Random(s)).edges())
            for s in range(8)
        }
        assert len(graphs) > 1


class TestRandomGeometric:
    def test_connected_and_sized(self):
        g = random_geometric(25, radius=0.35, rng=random.Random(0))
        assert g.num_nodes == 25
        assert is_connected(g)

    def test_deterministic_given_seed(self):
        a = random_geometric(15, 0.4, random.Random(3))
        b = random_geometric(15, 0.4, random.Random(3))
        assert a == b

    def test_impossible_radius_raises(self):
        with pytest.raises(ConfigurationError):
            random_geometric(30, radius=0.01, rng=random.Random(1))


class TestGnp:
    def test_connected(self):
        g = gnp_connected(20, 0.3, random.Random(4))
        assert is_connected(g) and g.num_nodes == 20

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            gnp_connected(5, 1.5, random.Random(0))

    def test_sparse_impossible(self):
        with pytest.raises(ConfigurationError):
            gnp_connected(40, 0.0, random.Random(0))


class TestLollipop:
    def test_shape(self):
        g = lollipop(5, 4)
        assert g.num_nodes == 9
        assert g.max_degree() == 5  # clique node 0 also anchors the tail
        assert diameter(g) == 5


class TestLayeredBand:
    def test_shape(self):
        g = layered_band(4, 3)
        assert g.num_nodes == 12
        assert diameter(g) == 3
        # Interior node: 2 within layer + 3 up + 3 down.
        assert g.max_degree() == 8

    def test_single_layer_is_clique(self):
        assert layered_band(1, 4) == complete(4)


class TestHypercube:
    def test_shape(self):
        from repro.graphs import hypercube

        g = hypercube(4)
        assert g.num_nodes == 16
        assert all(g.degree(v) == 4 for v in g.nodes)
        assert diameter(g) == 4

    def test_degenerate(self):
        from repro.graphs import hypercube

        assert hypercube(0).num_nodes == 1
        assert hypercube(1) == path(2)

    def test_invalid(self):
        from repro.graphs import hypercube

        with pytest.raises(ConfigurationError):
            hypercube(-1)


class TestTorus:
    def test_shape(self):
        from repro.graphs import torus

        g = torus(4, 5)
        assert g.num_nodes == 20
        assert all(g.degree(v) == 4 for v in g.nodes)
        assert g.num_edges == 2 * 20
        assert diameter(g) == 2 + 2

    def test_connected(self):
        from repro.graphs import torus

        assert is_connected(torus(3, 3))

    def test_too_small(self):
        from repro.graphs import torus

        with pytest.raises(ConfigurationError):
            torus(2, 5)


class TestPositionedGeometric:
    def test_positions_generate_the_edges(self):
        import math

        from repro.graphs import random_geometric_with_positions

        radius = 0.35
        g, pos = random_geometric_with_positions(
            20, radius, random.Random(6)
        )
        for u, v in g.edges():
            assert math.dist(pos[u], pos[v]) <= radius + 1e-12
        # ...and non-edges are out of range.
        for u in g.nodes:
            for v in g.nodes:
                if u < v and not g.has_edge(u, v):
                    assert math.dist(pos[u], pos[v]) > radius

    def test_deterministic(self):
        from repro.graphs import random_geometric_with_positions

        a = random_geometric_with_positions(12, 0.4, random.Random(3))
        b = random_geometric_with_positions(12, 0.4, random.Random(3))
        assert a[0] == b[0] and a[1] == b[1]

    def test_matches_plain_generator(self):
        from repro.graphs import (
            random_geometric,
            random_geometric_with_positions,
        )

        plain = random_geometric(15, 0.4, random.Random(9))
        positioned, _pos = random_geometric_with_positions(
            15, 0.4, random.Random(9)
        )
        assert plain == positioned


class TestAsciiMap:
    def test_renders_all_stations(self):
        from repro.graphs import ascii_map, random_geometric_with_positions

        g, pos = random_geometric_with_positions(10, 0.5, random.Random(2))
        art = ascii_map(g, pos, width=40, height=12)
        body = "".join(art.splitlines()[1:-1])
        symbols = sum(1 for c in body if c not in " |")
        assert 1 <= symbols <= 10  # overlaps may merge into '*'

    def test_custom_labels(self):
        from repro.graphs import ascii_map
        from repro.graphs import path as make_path

        g = make_path(3)
        pos = {0: (0.0, 0.0), 1: (0.5, 0.5), 2: (1.0, 1.0)}
        art = ascii_map(g, pos, width=20, height=6, label=lambda v: "X")
        assert art.count("X") == 3

    def test_missing_positions_rejected(self):
        from repro.graphs import ascii_map
        from repro.graphs import path as make_path

        with pytest.raises(ConfigurationError):
            ascii_map(make_path(3), {0: (0, 0)}, width=10, height=5)

    def test_tiny_canvas_rejected(self):
        from repro.graphs import ascii_map
        from repro.graphs import path as make_path

        with pytest.raises(ConfigurationError):
            ascii_map(make_path(2), {0: (0, 0), 1: (1, 1)}, width=2, height=2)
