"""End-to-end integration tests: the full paper pipeline on one network.

Election → distributed BFS setup → token-DFS preparation → steady-state
protocols (collection, point-to-point, broadcast, ranking), all over the
same topology with state produced by the *distributed* protocols (no
centralized bypass anywhere).
"""

import random

import pytest

from repro.core import (
    apply_preparation,
    elect_leader,
    prepared_tree_infos,
    run_broadcast,
    run_collection,
    run_dfs_preparation,
    run_point_to_point,
    run_ranking,
    run_setup,
)
from repro.graphs import bfs_levels, grid, random_geometric


@pytest.fixture(scope="module")
def pipeline():
    """Run the full setup pipeline once for all integration tests."""
    graph = random_geometric(24, 0.38, random.Random(321))
    election = elect_leader(graph, seed=100)
    root = election.leaders[0]
    setup = run_setup(graph, root=root, seed=200)
    tree = setup.tree
    prep = run_dfs_preparation(graph, tree)
    apply_preparation(tree, prep)
    return graph, tree, election, setup, prep


class TestPipeline:
    def test_election_found_max(self, pipeline):
        graph, _tree, election, _setup, _prep = pipeline
        assert election.leaders == [max(graph.nodes)]

    def test_setup_produced_true_bfs(self, pipeline):
        graph, tree, election, setup, _prep = pipeline
        assert setup.is_true_bfs
        assert tree.level == bfs_levels(graph, election.leaders[0])

    def test_preparation_is_consistent(self, pipeline):
        graph, tree, _e, _s, prep = pipeline
        assert sorted(prep.dfs_number.values()) == list(
            range(graph.num_nodes)
        )
        infos = prepared_tree_infos(graph, tree, prep)
        assert all(info.has_addressing for info in infos.values())

    def test_collection_over_distributed_tree(self, pipeline):
        graph, tree, *_ = pipeline
        sources = {n: [f"c{n}"] for n in list(graph.nodes)[::2] if n != tree.root}
        result = run_collection(graph, tree, sources, seed=7)
        assert len(result.delivered) == len(sources)

    def test_p2p_over_distributed_tree(self, pipeline):
        graph, tree, *_ = pipeline
        nodes = list(graph.nodes)
        batch = [
            (nodes[i], nodes[-1 - i], f"x{i}")
            for i in range(6)
            if nodes[i] != nodes[-1 - i]
        ]
        result = run_point_to_point(graph, tree, batch, seed=8)
        assert result.messages_delivered == len(batch)

    def test_broadcast_over_distributed_tree(self, pipeline):
        graph, tree, *_ = pipeline
        nodes = list(graph.nodes)
        result = run_broadcast(
            graph, tree, {nodes[3]: ["b0", "b1"], nodes[-2]: ["b2"]}, seed=9
        )
        assert result.delivered_everywhere

    def test_ranking_over_distributed_tree(self, pipeline):
        graph, tree, *_ = pipeline
        result = run_ranking(graph, tree, seed=10)
        expected = {n: i + 1 for i, n in enumerate(sorted(graph.nodes))}
        assert result.ranks == expected

    def test_setup_cost_dominates_per_paper(self, pipeline):
        """Setup is a one-time cost amortized over many transmissions: a
        single later p2p batch is much cheaper than setup (§1.2)."""
        graph, tree, _e, setup, _prep = pipeline
        nodes = list(graph.nodes)
        batch = [(nodes[0], nodes[-1], "q")]
        result = run_point_to_point(graph, tree, batch, seed=11)
        assert result.slots < setup.slots


class TestGridPipeline:
    def test_grid_end_to_end(self):
        graph = grid(4, 4)
        setup = run_setup(graph, root=5, seed=42)
        tree = setup.tree
        prep = run_dfs_preparation(graph, tree)
        apply_preparation(tree, prep)
        ranking = run_ranking(graph, tree, seed=1)
        assert ranking.ranks == {n: n + 1 for n in graph.nodes}


class TestFullSetupPipeline:
    """The one-call setup API (repro.core.run_full_setup)."""

    def test_bit_election_pipeline(self):
        from repro.core import run_full_setup, run_point_to_point

        graph = random_geometric(20, 0.4, random.Random(10))
        setup = run_full_setup(graph, seed=5)
        assert setup.root == max(graph.nodes)
        assert setup.tree.has_dfs_intervals
        assert setup.total_slots == (
            setup.election_slots
            + setup.bfs_slots
            + setup.preparation_slots
        )
        result = run_point_to_point(
            graph, setup.tree, [(graph.nodes[0], graph.nodes[-2], "go")],
            seed=6,
        )
        assert result.messages_delivered == 1

    def test_infos_have_addressing(self):
        from repro.core import run_full_setup

        graph = random_geometric(14, 0.45, random.Random(2))
        setup = run_full_setup(graph, seed=9)
        assert all(
            info.has_addressing for info in setup.tree_infos.values()
        )
