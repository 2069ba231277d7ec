"""Tests for the §8-remark extensions and observability tools.

Remark (1): setup knowing only an upper bound N on n.
Remark (2): anonymous stations choosing random IDs.
Remark (3): the capture-effect conflict model (breaks Thm 3.1).
Remark (4): collision detection exposed (unused by the protocols).
Remark (5): congestion concentrates toward the root.
Plus the timeline recorder/renderer and the CLI.
"""

import random

import pytest

from repro.analysis import (
    congestion_profile,
    record_collection_timeline,
    render_timeline,
)
from repro.core import (
    choose_random_ids,
    collision_probability_bound,
    elect_leader,
    id_space_size,
    relabel_graph,
    run_setup_unknown_n,
)
from repro.errors import ConfigurationError
from repro.graphs import (
    balanced_tree,
    bfs_levels,
    grid,
    path,
    random_geometric,
    reference_bfs_tree,
    star,
)
from repro.radio import RadioNetwork, Transmission
from tests.conftest import ScriptedProcess


class TestUnknownNSetup:
    @pytest.mark.parametrize(
        "graph_factory",
        [lambda: path(10), lambda: grid(3, 3), lambda: star(8)],
        ids=["path", "grid", "star"],
    )
    def test_completes_with_loose_bound(self, graph_factory):
        graph = graph_factory()
        result = run_setup_unknown_n(
            graph, root=0, seed=5, n_bound=4 * graph.num_nodes
        )
        assert result.complete
        assert result.joined == graph.num_nodes
        assert result.tree is not None
        assert result.tree.level == bfs_levels(graph, 0)

    def test_default_bound(self):
        graph = path(6)
        result = run_setup_unknown_n(graph, root=0, seed=1)
        assert result.complete

    def test_bound_below_n_rejected(self):
        with pytest.raises(ConfigurationError):
            run_setup_unknown_n(path(10), root=0, seed=0, n_bound=5)

    def test_costs_more_than_known_n(self):
        """Quiescence termination pays a quiet-window tail the counting
        version avoids."""
        from repro.core import run_setup

        graph = grid(3, 3)
        known = run_setup(graph, root=0, seed=3)
        unknown = run_setup_unknown_n(
            graph, root=0, seed=3, n_bound=2 * graph.num_nodes
        )
        assert unknown.slots > known.slots


class TestAnonymousIds:
    def test_id_space_size_birthday_bound(self):
        space = id_space_size(100, epsilon=0.01)
        assert collision_probability_bound(100, space) <= 0.01

    def test_assignment_distinct_and_reproducible(self):
        stations = list(range(50))
        a = choose_random_ids(stations, 64, random.Random(7))
        b = choose_random_ids(stations, 64, random.Random(7))
        assert a.distinct
        assert a.ids == b.ids

    def test_collision_rate_matches_bound(self):
        """Empirical collision frequency ≤ the birthday bound."""
        stations = list(range(20))
        space = id_space_size(20, epsilon=0.05)
        collisions = 0
        trials = 3_000
        rng = random.Random(11)
        for _ in range(trials):
            ids = [rng.randrange(space) for _ in stations]
            if len(set(ids)) != len(ids):
                collisions += 1
        assert collisions / trials <= 0.05 * 1.5  # sampling slack

    def test_relabel_preserves_structure(self):
        graph = grid(3, 3)
        assignment = choose_random_ids(
            list(graph.nodes), 16, random.Random(3)
        )
        relabeled = relabel_graph(graph, assignment)
        assert relabeled.num_nodes == graph.num_nodes
        assert relabeled.num_edges == graph.num_edges
        assert relabeled.max_degree() == graph.max_degree()

    def test_anonymous_network_elects_a_leader(self):
        """End-to-end remark (2): random IDs then the usual election."""
        graph = random_geometric(12, 0.5, random.Random(9))
        assignment = choose_random_ids(
            list(graph.nodes), 16, random.Random(10)
        )
        relabeled = relabel_graph(graph, assignment)
        result = elect_leader(relabeled, seed=4)
        assert result.leaders == [max(relabeled.nodes)]

    def test_too_many_stations_rejected(self):
        with pytest.raises(ConfigurationError):
            choose_random_ids(list(range(10)), 5, random.Random(0))

    def test_relabel_requires_distinct(self):
        from repro.core import AnonymousIdAssignment

        bad = AnonymousIdAssignment(ids={0: 7, 1: 7}, space=10, attempts=1)
        with pytest.raises(ConfigurationError):
            relabel_graph(path(2), bad)


class TestCaptureEffectModel:
    def test_collision_delivers_one_message(self):
        graph = star(3)
        net = RadioNetwork(graph, capture_effect=True, capture_seed=5)
        center = ScriptedProcess(0)
        net.attach(center)
        net.attach(ScriptedProcess(1, {0: Transmission("a")}))
        net.attach(ScriptedProcess(2, {0: Transmission("b")}))
        net.step()
        assert len(center.heard) == 1
        assert center.heard[0][2] in ("a", "b")

    def test_capture_choice_is_seeded(self):
        def run(seed):
            graph = star(3)
            net = RadioNetwork(graph, capture_effect=True, capture_seed=seed)
            center = ScriptedProcess(0)
            net.attach(center)
            net.attach(ScriptedProcess(1, {0: Transmission("a")}))
            net.attach(ScriptedProcess(2, {0: Transmission("b")}))
            net.step()
            return center.heard[0][2]

        assert run(3) == run(3)

    def test_ack_determinism_breaks_under_capture(self):
        """Remark (3): 'In this model our deterministic acknowledgement
        mechanism is no longer valid' — duplicates appear (non-strict
        transport tolerates and dedupes them; delivery still completes)."""
        from repro.core.collection import build_collection_network
        from repro.graphs import Graph

        # The paper's Figure 1 shape: u, u' at level 2 with *distinct*
        # designated parents v, v', plus the cross edges that make the
        # two acknowledgements collide at both senders.
        graph = Graph.from_edges(
            [(0, 1), (0, 2), (1, 3), (2, 4), (3, 2), (4, 1)]
        )
        # Force the Figure-1 parent assignment (3 under 1, 4 under 2);
        # the smallest-ID rule of reference_bfs_tree would hang both
        # leaves under 1 and the scenario would vanish.
        from repro.graphs import BFSTree

        tree = BFSTree(
            root=0,
            parent={0: 0, 1: 0, 2: 0, 3: 1, 4: 2},
            level={0: 0, 1: 1, 2: 1, 3: 2, 4: 2},
        )
        sources = {3: ["x1", "x2", "x3"], 4: ["y1", "y2", "y3"]}
        duplicates = 0
        for seed in range(10):
            network, processes, _ = build_collection_network(
                graph, tree, sources, seed=seed, strict=False
            )
            # Rebuild the network with capture semantics.
            capture_net = RadioNetwork(
                graph, num_channels=1, capture_effect=True, capture_seed=seed
            )
            for process in processes.values():
                capture_net.attach(process)
            total = sum(len(v) for v in sources.values())
            root = processes[tree.root]
            capture_net.run(
                400_000,
                until=lambda n: len(root.delivered) >= total
                and all(p.is_done() for p in processes.values()),
            )
            assert len(root.delivered) == total  # dedupe keeps exactly-once
            duplicates += sum(
                p.lane.duplicates_seen for p in processes.values()
            )
        assert duplicates > 0  # Thm 3.1 premises really are load-bearing

    def test_base_model_unaffected_by_flag_default(self):
        graph = star(3)
        net = RadioNetwork(graph)
        assert not net.capture_effect


class TestCollisionDetectionModel:
    def test_no_callback_without_flag(self):
        """§8 remark (4) is not built: a collision reaches no process."""
        net = RadioNetwork(star(3))
        center = ScriptedProcess(0)
        net.attach(center)
        net.attach(ScriptedProcess(1, {0: Transmission("a")}))
        net.attach(ScriptedProcess(2, {0: Transmission("b")}))
        net.step()
        assert net.stats.channel(0).collisions == 1
        assert center.heard == []


class TestTimeline:
    def test_records_one_row_per_phase_until_drained(self):
        graph = path(6)
        tree = reference_bfs_tree(graph, 0)
        timeline = record_collection_timeline(
            graph, tree, {5: ["a", "b"]}, seed=1
        )
        assert timeline.occupancy[0][5] == 2  # both start at level 5
        assert sum(timeline.occupancy[-1]) == 0  # drained
        totals = timeline.total_series()
        assert all(x >= y for x, y in zip(totals, totals[1:]))

    def test_pipeline_moves_at_most_one_level_per_phase(self):
        """The §4.1 granularity: between consecutive phases, occupancy can
        shift only between adjacent levels."""
        graph = path(8)
        tree = reference_bfs_tree(graph, 0)
        timeline = record_collection_timeline(
            graph, tree, {7: ["a", "b", "c"]}, seed=2
        )
        for before, after in zip(timeline.occupancy, timeline.occupancy[1:]):
            depth = len(before)
            for level in range(depth):
                # Everything at `level` after the phase must have been at
                # `level` or `level+1` before it.
                upstream = before[level] + (
                    before[level + 1] if level + 1 < depth else 0
                )
                assert after[level] <= upstream

    def test_render_ascii(self):
        graph = path(5)
        tree = reference_bfs_tree(graph, 0)
        timeline = record_collection_timeline(graph, tree, {4: ["a"]}, seed=0)
        art = render_timeline(timeline)
        assert "L 0" in art and "L 4" in art
        assert "|" in art

    def test_render_empty(self):
        from repro.analysis import Timeline

        assert "empty" in render_timeline(
            Timeline(occupancy=[], phase_length=1)
        )


class TestCongestion:
    def test_root_side_levels_carry_the_load(self):
        """Remark (5): with sources at the leaves of a branching tree, the
        per-station load grows toward the root (level 1 stations forward
        everything while being few)."""
        graph = balanced_tree(3, 3)
        tree = reference_bfs_tree(graph, 0)
        sources = {
            n: ["r"] for n in tree.nodes if tree.level[n] == tree.depth
        }
        profile = congestion_profile(graph, tree, sources, seed=4)
        per_station = {
            level: profile.per_level_transmissions[level]
            / len(tree.layer(level))
            for level in range(1, tree.depth + 1)
        }
        assert per_station[1] > per_station[tree.depth]
        assert profile.load_share(0) == 0.0  # the root only receives

    def test_profile_totals_match(self):
        graph = path(5)
        tree = reference_bfs_tree(graph, 0)
        profile = congestion_profile(graph, tree, {4: ["a"]}, seed=1)
        assert sum(profile.per_level_transmissions.values()) == sum(
            profile.per_node_transmissions.values()
        )


class TestCli:
    def test_info_and_demo(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "32.27" in out
        assert main(["demo", "3"]) == 0
        out = capsys.readouterr().out
        assert "collection:" in out and "ranking:" in out

    def test_timeline_and_congestion_commands(self, capsys):
        from repro.__main__ import main

        assert main(["timeline", "2"]) == 0
        assert "level occupancy" in capsys.readouterr().out
        assert main(["congestion", "2"]) == 0
        assert "L1" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        from repro.__main__ import main

        assert main(["bogus"]) == 2
        # The command is checked before its seed is parsed.
        assert main(["bogus", "xyz"]) == 2
        assert "unknown command 'bogus'" in capsys.readouterr().err

    def test_non_integer_seed_is_a_one_line_error(self, capsys):
        from repro.__main__ import main

        assert main(["demo", "abc"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "demo: seed must be an integer, got 'abc'"

    def test_help(self, capsys):
        from repro.__main__ import main

        assert main(["--help"]) == 0
        assert "demo" in capsys.readouterr().out


class TestValidate:
    def test_all_quick_checks_pass(self, capsys):
        from repro.validate import run_validation

        results = run_validation()
        out = capsys.readouterr().out
        assert all(r.passed for r in results), out
        assert "claims verified" in out

    def test_cli_validate_exit_code(self, capsys):
        from repro.__main__ import main

        assert main(["validate"]) == 0

    def test_crashing_check_reported_not_raised(self, capsys):
        from repro.validate import run_validation
        import repro.validate as validate_module

        def boom():
            raise RuntimeError("kaput")

        original = validate_module.CHECKS
        validate_module.CHECKS = [boom]
        try:
            results = run_validation()
        finally:
            validate_module.CHECKS = original
        assert len(results) == 1
        assert not results[0].passed
        assert "kaput" in results[0].detail
        assert "0/1 claims verified — 1 FAILED" in capsys.readouterr().out

    def test_map_command(self, capsys):
        from repro.__main__ import main

        assert main(["map", "4"]) == 0
        out = capsys.readouterr().out
        assert "unit-disk field" in out and "R" in out
