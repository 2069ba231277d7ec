"""Tests for the collection protocol (§4)."""

import random

import pytest

from repro.core import (
    LAMBDA_STAR,
    MU,
    expected_collection_phases,
    expected_collection_slots,
    run_collection,
    theorem_44_constant,
)
from repro.core import collection
from repro.core.collection import build_collection_network
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs import (
    balanced_tree,
    caterpillar,
    grid,
    layered_band,
    path,
    random_geometric,
    reference_bfs_tree,
    star,
)


def collect(graph, sources, seed=0, level_classes=3):
    tree = reference_bfs_tree(graph, 0)
    return run_collection(
        graph, tree, sources, seed, level_classes=level_classes
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path(6),
            lambda: star(7),
            lambda: grid(3, 3),
            lambda: balanced_tree(2, 3),
            lambda: caterpillar(5, 2),
            lambda: layered_band(3, 3),
            lambda: random_geometric(20, 0.4, random.Random(5)),
        ],
        ids=["path", "star", "grid", "tree", "caterpillar", "band", "rgg"],
    )
    def test_all_messages_reach_root(self, graph_factory):
        graph = graph_factory()
        sources = {n: [f"p{n}a", f"p{n}b"] for n in list(graph.nodes)[1:]}
        result = collect(graph, sources, seed=1)
        expected = sorted(p for v in sources.values() for p in v)
        assert sorted(m.payload for m in result.delivered) == expected

    def test_origin_recorded(self):
        result = collect(path(5), {4: ["hello"]}, seed=0)
        assert result.delivered[0].origin == 4

    def test_root_submission_is_immediate(self):
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_collection(graph, tree, {0: ["self"]}, seed=0)
        assert result.slots == 0
        assert result.delivered[0].payload == "self"

    def test_empty_workload(self):
        result = collect(path(4), {}, seed=0)
        assert result.slots == 0
        assert result.delivered == []

    def test_single_node_network(self):
        graph = path(1)
        tree = reference_bfs_tree(graph, 0)
        result = run_collection(graph, tree, {0: ["x"]}, seed=0)
        assert [m.payload for m in result.delivered] == ["x"]

    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigurationError):
            collect(path(3), {99: ["x"]})

    def test_per_source_fifo_order(self):
        """Messages from one source arrive in submission order."""
        result = collect(path(6), {5: [f"m{i}" for i in range(6)]}, seed=3)
        payloads = [m.payload for m in result.delivered]
        assert payloads == [f"m{i}" for i in range(6)]

    def test_single_level_classes_also_correct(self):
        """Ablation E11: without mod-3 multiplexing, still exactly-once."""
        graph = grid(3, 3)
        sources = {n: ["v"] for n in graph.nodes if n != 0}
        result = collect(graph, sources, seed=4, level_classes=1)
        assert len(result.delivered) == 8

    def test_reactive_mid_run_submission(self):
        graph = path(5)
        tree = reference_bfs_tree(graph, 0)
        network, processes, slots = build_collection_network(
            graph, tree, {4: ["early"]}, seed=9
        )
        root = processes[0]
        network.run(200_000, until=lambda n: len(root.delivered) >= 1)
        processes[2].submit("late")
        network.run(200_000, until=lambda n: len(root.delivered) >= 2)
        assert sorted(m.payload for m in root.delivered) == ["early", "late"]

    def test_deterministic_given_seed(self):
        graph = grid(3, 3)
        sources = {8: ["a"], 5: ["b"]}
        r1 = collect(graph, sources, seed=77)
        r2 = collect(graph, sources, seed=77)
        assert r1.slots == r2.slots
        assert [m.msg_id for m in r1.delivered] == [
            m.msg_id for m in r2.delivered
        ]

    def test_varies_across_seeds(self):
        graph = layered_band(3, 4)
        sources = {n: ["x"] for n in graph.nodes if n >= 8}
        slots = {collect(graph, sources, seed=s).slots for s in range(6)}
        assert len(slots) > 1

    @pytest.mark.parametrize("bound,cap", [(0.0, 10_000), (550.0, 11_000)])
    def test_timeout_cap_is_derived(self, monkeypatch, bound, cap):
        # One hop from the root (Δ = 1, 12-slot phases) 1000 messages
        # drain one per phase, in about 12_000 slots.  The cap is 20x
        # Theorem 4.4's bound, and never under 10_000 slots.
        monkeypatch.setattr(
            collection, "expected_collection_slots", lambda *args: bound
        )
        with pytest.raises(SimulationTimeout) as excinfo:
            collect(path(2), {1: [f"m{i}" for i in range(1000)]})
        assert excinfo.value.slots_elapsed == cap


class TestPerformanceEnvelope:
    def test_within_theorem_44_bound_path(self):
        """Average over seeds stays under the Thm 4.4 envelope (×3 classes)."""
        graph = path(10)
        tree = reference_bfs_tree(graph, 0)
        k = 6
        sources = {9: ["m"] * k}
        bound = expected_collection_slots(
            k, tree.depth, graph.max_degree(), level_classes=3
        )
        totals = [
            run_collection(graph, tree, sources, seed=s).slots
            for s in range(10)
        ]
        assert sum(totals) / len(totals) <= bound

    def test_within_bound_star(self):
        graph = star(16)
        tree = reference_bfs_tree(graph, 0)
        sources = {n: ["m"] for n in range(1, 16)}
        bound = expected_collection_slots(
            15, tree.depth, graph.max_degree(), level_classes=3
        )
        totals = [
            run_collection(graph, tree, sources, seed=s).slots
            for s in range(10)
        ]
        assert sum(totals) / len(totals) <= bound

    def test_constants(self):
        assert abs(MU - 0.23254) < 1e-4
        assert abs(LAMBDA_STAR - 0.123954) < 1e-5
        assert abs(theorem_44_constant() - 32.27) < 0.01

    def test_phase_bound_formula(self):
        assert expected_collection_phases(0, 0) == 0
        assert (
            abs(expected_collection_phases(10, 5) - 15 / LAMBDA_STAR) < 1e-9
        )

    def test_slot_bound_scaling(self):
        base = expected_collection_slots(10, 5, 8)
        assert expected_collection_slots(10, 5, 8, level_classes=3) == 3 * base
        assert expected_collection_slots(25, 5, 8) > base
