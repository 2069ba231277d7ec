"""Unit tests for topology generators."""

import gc
import math
import random
import tracemalloc
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.graphs import generators
from repro.graphs import (
    Graph,
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


def _csr_pairs(points, radius):
    """The array path's edge set, as ``(i, j)`` pairs with i < j."""
    indptr, indices = generators._unit_disk_csr(points, radius)
    return {
        (u, int(v))
        for u in range(len(points))
        for v in indices[indptr[u]:indptr[u + 1]]
        if u < v
    }


def _assert_same_edges(points, radius):
    reference = Graph.from_edges(
        generators._unit_disk_edges(points, radius), nodes=range(len(points))
    )
    assert generators._unit_disk_array_graph(points, radius) == reference


class TestUnitDiskArrayPath:
    """The array path keeps exactly the reference cell list's pairs."""

    def test_seeded_draws_of_n_and_radius(self):
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(1, 60)
            radius = rng.choice(
                (rng.uniform(0.005, 0.6), rng.uniform(0.0, 0.05))
            )
            points = [(rng.random(), rng.random()) for _ in range(n)]
            _assert_same_edges(points, radius)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("radius", [0.0, 0.3, 0.9, 1.5])
    def test_one_and_two_stations(self, n, radius):
        points = [(0.1, 0.2), (0.6, 0.8)][:n]
        _assert_same_edges(points, radius)

    @pytest.mark.parametrize(
        "radius", [0.0, -0.25, math.sqrt(2), 1.5, math.inf]
    )
    def test_degenerate_radii(self, radius):
        rng = random.Random(7)
        points = [(rng.random(), rng.random()) for _ in range(30)]
        _assert_same_edges(points, radius)
        pairs = _csr_pairs(points, radius)
        assert len(pairs) == (0 if radius <= 0 else 30 * 29 // 2)

    @pytest.mark.parametrize("radius", [0.125, 0.25, 0.625])
    def test_points_exactly_radius_apart(self, radius):
        # A dyadic lattice: axis neighbours lie exactly 0.125 apart and
        # the (3, 4) steps exactly 0.625, all on cell boundaries.
        points = [(a / 8, b / 8) for a in range(9) for b in range(9)]
        _assert_same_edges(points, radius)
        assert ((0, 1) in _csr_pairs(points, radius)) == (radius >= 0.125)

    def test_coordinates_on_cell_boundaries(self):
        radius = 0.1
        rng = random.Random(3)
        points = [
            (k * radius, j * radius) for k in range(10) for j in range(10)
        ]
        points += [
            (math.nextafter(x, 0.0), math.nextafter(y, 1.0))
            for x, y in points[11::7]
        ]
        points += [(rng.random(), rng.random()) for _ in range(40)]
        _assert_same_edges(points, radius)

    @pytest.mark.parametrize("radius", [1e-12, 1e-25])
    def test_tiny_radius_keeps_coincident_points(self, radius):
        rng = random.Random(5)
        points = [(rng.random(), rng.random()) for _ in range(20)]
        points += [points[3], (points[8][0], points[8][1] + radius / 2)]
        # No float-to-int cast overflows, however small the radius.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_same_edges(points, radius)
            assert _csr_pairs(points, radius) == {(3, 20), (8, 21)}

    def test_radius_whose_square_is_subnormal(self):
        rng = random.Random(0)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-162, -150)
            points = [
                (rng.random() * scale, rng.random() * scale)
                for _ in range(12)
            ]
            _assert_same_edges(points, scale * rng.uniform(0.2, 1.2))

    def test_nan_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            random_geometric(10, math.nan, random.Random(1))

    @pytest.mark.parametrize(
        "n",
        [generators.ARRAY_MIN_N - 1, generators.ARRAY_MIN_N],
        ids=["below", "at"],
    )
    def test_both_paths_sample_equal_fields(self, n, monkeypatch):
        radius = math.sqrt(20 / (math.pi * n))
        chosen = random_geometric(n, radius, random.Random(n))
        monkeypatch.setattr(generators, "ARRAY_MIN_N", 1)
        arrays = random_geometric(n, radius, random.Random(n))
        monkeypatch.setattr(generators, "ARRAY_MIN_N", n + 1)
        python = random_geometric(n, radius, random.Random(n))
        assert chosen == arrays == python
        assert chosen.csr()[1].tolist() == python.csr()[1].tolist()


class TestArrayPathThreshold:
    """One of the two costs the size selection exists for: memory on a
    large field.  The other, that a field below the threshold never
    imports NumPy, is the ``scalar-collection`` case of
    ``tests/test_imports.py::test_closure``."""

    def test_large_field_memory_no_worse_than_python_path(self):
        import numpy  # noqa: F401  (its import is not the build's cost)

        n = 10_000
        radius = math.sqrt(15.4 / (math.pi * n))
        rng = random.Random(11)
        points = [(rng.random(), rng.random()) for _ in range(n)]

        def traced(build):
            gc.collect()
            tracemalloc.start()
            try:
                graph = build(points, radius)
                _, peak = tracemalloc.get_traced_memory()
                # Retained with the CSR the vector engine reads: the
                # array-built graph keeps it, the other derives it.
                graph.csr()
                gc.collect()
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return graph, peak, retained

        python, python_peak, python_retained = traced(
            generators._unit_disk_graph
        )
        arrays, array_peak, array_retained = traced(
            generators._unit_disk_array_graph
        )
        assert arrays == python
        assert array_peak <= python_peak
        assert array_retained <= python_retained


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
