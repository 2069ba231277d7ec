"""Hypothesis property tests at the whole-protocol level.

Randomized topologies × randomized workloads × the protocols' own coins:
the Las-Vegas guarantees must hold on *every* sample — exactly-once
delivery, order isomorphism, interval laminarity — never just on the
hand-picked fixtures of the unit tests.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    run_broadcast,
    run_collection,
    run_dfs_preparation,
    run_point_to_point,
)
from repro.graphs import random_tree, reference_bfs_tree


@st.composite
def tree_topologies(draw):
    """A random tree (the spanned subgraph every protocol runs on)."""
    n = draw(st.integers(min_value=2, max_value=14))
    seed = draw(st.integers(0, 10**6))
    return random_tree(n, random.Random(seed))


@st.composite
def sparse_topologies(draw):
    """A random tree plus a few chords (cycles stress the radio side)."""
    graph = draw(tree_topologies())
    rng = random.Random(draw(st.integers(0, 10**6)))
    nodes = list(graph.nodes)
    for _ in range(draw(st.integers(0, 3))):
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u != v and not graph.has_edge(u, v):
            graph = graph.with_edge(u, v)
    return graph


class TestCollectionProperties:
    @given(
        sparse_topologies(),
        st.integers(0, 10**6),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_exactly_once_to_root(self, graph, seed, data):
        tree = reference_bfs_tree(graph, graph.nodes[0])
        nodes = list(graph.nodes)
        source_count = data.draw(
            st.integers(1, min(4, len(nodes))), label="sources"
        )
        sources = {}
        for i in range(source_count):
            node = nodes[(i * 7 + 1) % len(nodes)]
            sources.setdefault(node, []).append(f"p{i}")
        result = run_collection(graph, tree, sources, seed=seed)
        expected = sorted(p for v in sources.values() for p in v)
        assert sorted(m.payload for m in result.delivered) == expected
        assert len({m.msg_id for m in result.delivered}) == len(expected)


class TestPointToPointProperties:
    @given(sparse_topologies(), st.integers(0, 10**6), st.data())
    @settings(max_examples=20, deadline=None)
    def test_every_message_reaches_its_destination(self, graph, seed, data):
        tree = reference_bfs_tree(graph, graph.nodes[0])
        tree.assign_dfs_intervals()
        nodes = list(graph.nodes)
        k = data.draw(st.integers(1, 5), label="k")
        rng = random.Random(seed ^ 0x5A5A)
        batch = []
        for i in range(k):
            u, v = rng.choice(nodes), rng.choice(nodes)
            batch.append((u, v, f"m{i}"))
        result = run_point_to_point(graph, tree, batch, seed=seed)
        got = {
            (m.origin, dest, m.payload)
            for dest, messages in result.delivered.items()
            for m in messages
        }
        assert got == set(batch)


class TestDfsProperties:
    @given(sparse_topologies())
    @settings(max_examples=25, deadline=None)
    def test_distributed_dfs_matches_centralized(self, graph):
        import copy

        tree = reference_bfs_tree(graph, graph.nodes[0])
        result = run_dfs_preparation(graph, tree)
        reference = copy.deepcopy(tree)
        reference.assign_dfs_intervals()
        assert result.dfs_number == reference.dfs_number
        assert result.subtree_max == reference.subtree_max


class TestBroadcastProperties:
    @given(tree_topologies(), st.integers(0, 10**6), st.data())
    @settings(max_examples=12, deadline=None)
    def test_uniform_prefix_everywhere(self, graph, seed, data):
        tree = reference_bfs_tree(graph, graph.nodes[0])
        nodes = list(graph.nodes)
        k = data.draw(st.integers(1, 3), label="k")
        source = nodes[seed % len(nodes)]
        result = run_broadcast(
            graph, tree, {source: [f"b{i}" for i in range(k)]}, seed=seed
        )
        assert result.delivered_everywhere
