"""Tests for the baseline protocols (experiment E10/E12 machinery)."""

import random

import pytest

from repro.baselines import (
    AlohaSession,
    aloha_session_factory,
    aloha_success_probability,
    naive_broadcast_reference_slots,
    run_naive_broadcast,
    run_sequential_p2p,
    run_single_flood,
    run_tdma_collection,
    sequential_reference_slots,
    tdma_reference_slots,
)
from repro.errors import ConfigurationError
from repro.graphs import grid, path, random_geometric, reference_bfs_tree, star


class TestTdma:
    def test_all_messages_collected(self):
        graph = grid(3, 3)
        tree = reference_bfs_tree(graph, 0)
        sources = {n: [f"m{n}"] for n in graph.nodes if n != 0}
        result = run_tdma_collection(graph, tree, sources)
        assert sorted(m.payload for m in result.delivered) == sorted(
            f"m{n}" for n in graph.nodes if n != 0
        )

    def test_collision_free(self):
        from repro.radio import EventTrace, RadioNetwork

        graph = star(8)
        tree = reference_bfs_tree(graph, 0)
        sources = {n: ["x"] for n in range(1, 8)}
        # re-run with a trace by rebuilding manually
        from repro.baselines.tdma import TdmaCollectionProcess
        from repro.core.tree import tree_info_from_bfs_tree

        infos = tree_info_from_bfs_tree(tree)
        trace = EventTrace()
        net = RadioNetwork(graph, trace=trace)
        procs = {}
        for rank, node in enumerate(graph.nodes):
            proc = TdmaCollectionProcess(
                infos[node], rank, graph.num_nodes, sources.get(node, ())
            )
            procs[node] = proc
            net.attach(proc)
        net.run(
            5_000, until=lambda n: len(procs[0].delivered) >= 7
        )
        assert len(trace.collisions) == 0

    def test_unknown_source(self):
        graph = path(3)
        with pytest.raises(ConfigurationError):
            run_tdma_collection(
                graph, reference_bfs_tree(graph, 0), {99: ["x"]}
            )

    def test_cost_scales_with_n(self):
        """TDMA pays ~n slots per frame: a path of 2n nodes is ~2× slower
        per message-hop than a path of n."""
        slots = {}
        for n in (8, 16):
            graph = path(n)
            tree = reference_bfs_tree(graph, 0)
            result = run_tdma_collection(graph, tree, {n - 1: ["m"]})
            slots[n] = result.slots
        # One message, D hops, one hop per frame: ≈ n·(n−1) slots.
        assert slots[16] > 3 * slots[8]

    def test_reference_formula(self):
        assert tdma_reference_slots(5, 3, 10) == 80.0


class TestSequential:
    def test_delivery_and_hop_accounting(self):
        graph = grid(3, 3)
        tree = reference_bfs_tree(graph, 0)
        tree.assign_dfs_intervals()
        batch = [(8, 0, "a"), (6, 2, "b"), (4, 4, "self")]
        result = run_sequential_p2p(graph, tree, batch)
        assert result.delivered == 3
        assert result.slots == result.hop_total
        assert result.hop_total == sequential_reference_slots(batch, tree)

    def test_requires_prepared_tree(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        with pytest.raises(ConfigurationError):
            run_sequential_p2p(graph, tree, [(0, 2, "x")])

    def test_cost_is_sum_of_paths(self):
        graph = path(10)
        tree = reference_bfs_tree(graph, 0)
        tree.assign_dfs_intervals()
        batch = [(9, 0, i) for i in range(4)]
        result = run_sequential_p2p(graph, tree, batch)
        assert result.slots == 4 * 9  # no pipelining: k×D


class TestNaiveBroadcast:
    def test_single_flood_informs_everyone(self):
        graph = random_geometric(15, 0.45, random.Random(3))
        result = run_single_flood(graph, 0, "hello", seed=4)
        assert result.informed == graph.num_nodes

    def test_sequential_floods_accumulate(self):
        graph = path(6)
        result = run_naive_broadcast(graph, 0, k=3, seed=2)
        assert result.messages == 3
        assert result.slots == sum(result.per_message_slots)
        assert all(s > 0 for s in result.per_message_slots)

    def test_zero_messages(self):
        result = run_naive_broadcast(path(3), 0, k=0, seed=0)
        assert result.slots == 0

    def test_reference_formula_scales_with_k_times_d(self):
        assert naive_broadcast_reference_slots(
            10, 8, 4, 32
        ) == pytest.approx(2 * naive_broadcast_reference_slots(5, 8, 4, 32))


class TestAloha:
    def test_session_interface(self):
        rng = random.Random(0)
        session = AlohaSession(1.0, rng)
        assert session.should_transmit() is True
        session.kill()
        assert session.should_transmit() is False
        assert not session.alive

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            AlohaSession(0.0, random.Random(0))
        with pytest.raises(ConfigurationError):
            AlohaSession(1.5, random.Random(0))

    def test_success_formula_against_simulation(self):
        m, p, window = 4, 0.25, 6
        predicted = aloha_success_probability(m, p, window)
        rng = random.Random(8)
        trials = 30_000
        hits = 0
        for _ in range(trials):
            for _slot in range(window):
                transmitting = sum(1 for _ in range(m) if rng.random() < p)
                if transmitting == 1:
                    hits += 1
                    break
        assert hits / trials == pytest.approx(predicted, rel=0.03)

    def test_aloha_plugs_into_collection(self):
        """End-to-end: collection works (slower) with ALOHA sessions."""
        from repro.core import SlotStructure, decay_budget
        from repro.core.collection import CollectionProcess
        from repro.core.tree import tree_info_from_bfs_tree
        from repro.radio import RadioNetwork
        from repro.rng import RngFactory

        graph = star(6)
        tree = reference_bfs_tree(graph, 0)
        infos = tree_info_from_bfs_tree(tree)
        factory = RngFactory(11)
        slots = SlotStructure(decay_budget(graph.max_degree()), 3, True)
        net = RadioNetwork(graph, num_channels=1)
        procs = {}
        for node in graph.nodes:
            rng = factory.for_node(node)
            proc = CollectionProcess(
                infos[node],
                slots,
                rng,
                initial_payloads=[f"m{node}"] if node != 0 else [],
            )
            proc.lane.session_factory = aloha_session_factory(
                1.0 / graph.max_degree(), rng
            )
            procs[node] = proc
            net.attach(proc)
        net.run(
            500_000,
            until=lambda n: len(procs[0].delivered) >= 5,
        )
        assert len(procs[0].delivered) == 5

    def test_decay_beats_fixed_aloha_for_small_contender_sets(self):
        """The motivating comparison: with m ≪ Δ, ALOHA(1/Δ) underperforms
        Decay's ≥ 1/2 guarantee over the same window."""
        from repro.core import decay_budget, success_probability_exact

        max_degree = 64
        window = decay_budget(max_degree)
        m = 2
        aloha = aloha_success_probability(m, 1.0 / max_degree, window)
        decay = float(success_probability_exact(m, window))
        assert decay >= 0.5
        assert aloha < 0.4


class TestSpatialTdma:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path(12),
            lambda: grid(4, 4),
            lambda: star(9),
            lambda: random_geometric(20, 0.4, random.Random(3)),
        ],
        ids=["path", "grid", "star", "rgg"],
    )
    def test_coloring_is_valid_distance2(self, graph_factory):
        from repro.baselines import distance2_coloring, verify_distance2_coloring

        graph = graph_factory()
        colors = distance2_coloring(graph)
        assert verify_distance2_coloring(graph, colors)
        assert max(colors.values()) + 1 <= graph.max_degree() ** 2 + 1

    def test_collection_delivers_everything(self):
        from repro.baselines import run_spatial_tdma_collection

        graph = grid(4, 4)
        tree = reference_bfs_tree(graph, 0)
        sources = {n: [f"m{n}"] for n in graph.nodes if n != 0}
        result = run_spatial_tdma_collection(graph, tree, sources)
        assert sorted(m.payload for m in result.delivered) == sorted(
            f"m{n}" for n in graph.nodes if n != 0
        )

    def test_collision_free(self):
        from repro.baselines.spatial_tdma import distance2_coloring
        from repro.baselines.tdma import TdmaCollectionProcess
        from repro.core.tree import tree_info_from_bfs_tree
        from repro.radio import EventTrace, RadioNetwork

        graph = random_geometric(18, 0.45, random.Random(6))
        tree = reference_bfs_tree(graph, 0)
        colors = distance2_coloring(graph)
        frame = max(colors.values()) + 1
        infos = tree_info_from_bfs_tree(tree)
        trace = EventTrace()
        net = RadioNetwork(graph, trace=trace)
        procs = {}
        for node in graph.nodes:
            proc = TdmaCollectionProcess(
                infos[node],
                colors[node],
                frame,
                ["x"] if node != 0 else (),
            )
            procs[node] = proc
            net.attach(proc)
        net.run(
            20_000,
            until=lambda n: len(procs[0].delivered)
            >= graph.num_nodes - 1,
        )
        assert len(trace.collisions) == 0

    def test_beats_plain_tdma_on_deep_sparse_networks(self):
        """Spatial reuse: frame O(Δ²) « O(n) on a path, so it forwards
        in parallel and wins big."""
        from repro.baselines import (
            run_spatial_tdma_collection,
            run_tdma_collection,
        )

        graph = path(32)
        tree = reference_bfs_tree(graph, 0)
        sources = {31: [f"m{i}" for i in range(6)]}
        plain = run_tdma_collection(graph, tree, sources)
        spatial = run_spatial_tdma_collection(graph, tree, sources)
        assert len(spatial.delivered) == 6
        assert spatial.slots * 3 < plain.slots
        assert spatial.frame_length <= 5  # Δ=2 → tiny frames

    def test_unknown_source(self):
        from repro.baselines import run_spatial_tdma_collection

        graph = path(4)
        with pytest.raises(ConfigurationError):
            run_spatial_tdma_collection(
                graph, reference_bfs_tree(graph, 0), {99: ["x"]}
            )

    def test_reference_formula(self):
        from repro.baselines import spatial_tdma_reference_slots

        assert spatial_tdma_reference_slots(5, 3, 7) == 56.0
