"""Tests for the setup phase: leader election and distributed BFS (§2)."""

import math
import random

import pytest

from repro.core import (
    elect_leader,
    expected_setup_slots,
    run_bit_election,
    run_full_setup,
    run_setup,
)
from repro.core.bfs import expansion_parameters
from repro.errors import ConfigurationError, SimulationTimeout
from repro.graphs import (
    Graph,
    bfs_levels,
    complete,
    grid,
    path,
    random_geometric,
    star,
)


def retrying_cycle():
    """A 4-cycle whose tournament at seed 107 ends in disagreement:
    stations 0 and 1 each hear both top-bit sources, 2 and 3, whose
    floods can collide."""
    return Graph.from_edges([(0, 2), (2, 1), (1, 3), (3, 0)])


class TestLeaderElection:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path(8),
            lambda: star(8),
            lambda: grid(3, 3),
            lambda: complete(6),
            lambda: random_geometric(15, 0.4, random.Random(1)),
        ],
        ids=["path", "star", "grid", "complete", "rgg"],
    )
    def test_unique_leader_is_max_id(self, graph_factory):
        graph = graph_factory()
        result = elect_leader(graph, seed=3)
        assert result.unique
        assert result.leaders == [max(graph.nodes)]
        assert result.agreed

    def test_single_station(self):
        result = elect_leader(path(1), seed=0)
        assert result.leaders == [0]
        assert result.agreed

    def test_slots_accumulate_across_attempts(self):
        graph = retrying_cycle()
        first = run_bit_election(graph, seed=107)
        assert not first.agreed
        second = run_bit_election(graph, seed=107 + 101)
        assert second.unique and second.agreed
        wrapped = elect_leader(graph, seed=107)
        assert wrapped.leaders == second.leaders == [3]
        assert wrapped.slots == first.slots + second.slots

    def test_gives_up_after_ten_attempts(self, monkeypatch):
        from repro.core import leader

        seeds = []

        def disagreeing(graph, seed):
            seeds.append(seed)
            return leader.LeaderElectionResult(
                leaders=[0, 1], true_max=1, slots=5, agreed=False
            )

        monkeypatch.setattr(leader, "run_bit_election", disagreeing)
        with pytest.raises(SimulationTimeout):
            elect_leader(path(2), seed=4)
        assert seeds == [4 + 101 * attempt for attempt in range(10)]


#: Recorded ``run_full_setup`` outputs, which a change to the setup path
#: must keep: (field, seed, root, election, BFS and preparation slots,
#: BFS attempts, tree parents, DFS intervals).
PINNED_SETUPS = [
    (
        lambda: grid(3, 3), 3, 8, 256, 339, 33, 1,
        {0: 1, 1: 4, 2: 5, 3: 4, 4: 7, 5: 8, 6: 7, 7: 8, 8: 8},
        {0: (6, 6), 1: (5, 6), 2: (2, 2), 3: (7, 7), 4: (4, 7),
         5: (1, 2), 6: (8, 8), 7: (3, 8), 8: (0, 8)},
    ),
    (
        lambda: random_geometric(20, 0.4, random.Random(10)), 5, 19,
        1160, 1059, 77, 1,
        {0: 19, 1: 10, 2: 8, 3: 10, 4: 5, 5: 10, 6: 10, 7: 10, 8: 19,
         9: 5, 10: 19, 11: 19, 12: 19, 13: 10, 14: 3, 15: 5, 16: 19,
         17: 19, 18: 19, 19: 19},
        {0: (1, 1), 1: (5, 5), 2: (3, 3), 3: (6, 7), 4: (9, 9),
         5: (8, 11), 6: (12, 12), 7: (13, 13), 8: (2, 3), 9: (10, 10),
         10: (4, 14), 11: (15, 15), 12: (16, 16), 13: (14, 14),
         14: (7, 7), 15: (11, 11), 16: (17, 17), 17: (18, 18),
         18: (19, 19), 19: (0, 19)},
    ),
    (
        retrying_cycle, 107, 3, 56, 1043, 13, 2,
        {0: 3, 1: 3, 2: 1, 3: 3},
        {0: (1, 1), 1: (2, 3), 2: (3, 3), 3: (0, 3)},
    ),
]


class TestPinnedSetupPath:
    """``run_full_setup`` and ``elect_leader`` reproduce recorded runs."""

    @pytest.mark.parametrize(
        "graph_factory,seed,root,election,bfs,preparation,attempts,"
        "parents,intervals",
        PINNED_SETUPS,
        ids=["grid-3x3", "rgg-20", "retrying-cycle"],
    )
    def test_matches_recorded_run(
        self, graph_factory, seed, root, election, bfs, preparation,
        attempts, parents, intervals,
    ):
        graph = graph_factory()
        setup = run_full_setup(graph, seed)
        assert setup.root == root
        assert setup.election_slots == election
        assert setup.bfs_slots == bfs
        assert setup.preparation_slots == preparation
        assert setup.bfs_attempts == attempts
        assert setup.tree.parent == parents
        assert {
            v: (setup.tree.dfs_number[v], setup.tree.subtree_max[v])
            for v in setup.tree.nodes
        } == intervals
        elected = elect_leader(graph, seed)
        assert elected.leaders == [root]
        assert elected.slots == election


class TestBfsSetup:
    @pytest.mark.parametrize(
        "graph_factory,root",
        [
            (lambda: path(8), 0),
            (lambda: path(8), 4),
            (lambda: star(9), 0),
            (lambda: star(9), 3),
            (lambda: grid(3, 4), 0),
            (lambda: random_geometric(20, 0.4, random.Random(3)), 7),
        ],
        ids=["path0", "path-mid", "star-center", "star-leaf", "grid", "rgg"],
    )
    def test_spanning_bfs_tree(self, graph_factory, root):
        graph = graph_factory()
        result = run_setup(graph, root=root, seed=11)
        tree = result.tree
        assert tree.root == root
        assert set(tree.nodes) == set(graph.nodes)
        # Tree edges are graph edges.
        for child, parent in tree.tree_edges():
            assert graph.has_edge(child, parent)

    @pytest.mark.parametrize("seed", range(4))
    def test_levels_are_true_distances(self, seed):
        """With 2·log n invocations per stage, failures are ~1/n: the tree
        is the true BFS tree in essentially every run, and at these seeds
        in the first attempt's."""
        graph = random_geometric(18, 0.42, random.Random(seed))
        result = run_setup(graph, root=0, seed=seed)
        assert result.is_true_bfs
        assert result.tree.level == bfs_levels(graph, 0)

    def test_single_station(self):
        result = run_setup(path(1), root=0, seed=0)
        assert result.tree.num_nodes == 1
        assert result.slots == 0

    def test_two_stations(self):
        result = run_setup(path(2), root=1, seed=0)
        assert result.tree.parent[0] == 1
        assert result.tree.level[0] == 1

    def test_unknown_root(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_setup(path(3), root=9, seed=0)

    def test_tree_infos_match_tree(self):
        graph = grid(3, 3)
        result = run_setup(graph, root=0, seed=2)
        for node, info in result.tree_infos.items():
            assert info.parent == result.tree.parent[node]
            assert info.level == result.tree.level[node]
            assert info.root == 0

    def test_setup_time_within_las_vegas_budget(self):
        """Measured slots stay within 2× the §2 reference (per attempt)."""
        graph = grid(4, 4)
        levels = bfs_levels(graph, 0)
        budget = 2 * expected_setup_slots(
            graph.num_nodes, max(levels.values()), graph.max_degree()
        )
        result = run_setup(graph, root=0, seed=6)
        assert result.slots <= budget * result.attempts

    def test_deterministic_given_seed(self):
        graph = grid(3, 3)
        a = run_setup(graph, root=0, seed=9)
        b = run_setup(graph, root=0, seed=9)
        assert a.slots == b.slots
        assert a.tree.parent == b.tree.parent


class TestExpansionParameters:
    def test_budget_matches_paper(self):
        budget, invocations = expansion_parameters(16, 8)
        assert budget == 6  # 2·ceil(log2 8)
        assert invocations == 8  # 2·ceil(log2 16)

    def test_minimums(self):
        budget, invocations = expansion_parameters(1, 0)
        assert budget >= 2 and invocations >= 2


class TestBitElection:
    """The bitwise tournament election (the [4]-shaped substitute)."""

    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path(12),
            lambda: star(9),
            lambda: grid(4, 4),
            lambda: random_geometric(18, 0.4, random.Random(2)),
        ],
        ids=["path", "star", "grid", "rgg"],
    )
    def test_unique_leader_and_agreement(self, graph_factory):
        from repro.core import run_bit_election

        graph = graph_factory()
        result = run_bit_election(graph, seed=5)
        assert result.leaders == [max(graph.nodes)]
        assert result.agreed

    def test_every_station_learns_the_max(self):
        from repro.core.leader import BitElectionProcess, run_bit_election

        graph = grid(3, 3)
        result = run_bit_election(graph, seed=7)
        assert result.true_max == 8

    def test_single_station(self):
        from repro.core import run_bit_election

        result = run_bit_election(path(1), seed=0)
        assert result.leaders == [0]

    def test_non_integer_ids_rejected(self):
        from repro.core import run_bit_election
        from repro.graphs import Graph

        graph = Graph.from_edges([("a", "b")])
        with pytest.raises(ConfigurationError):
            run_bit_election(graph, seed=0)

    def test_cost_scales_with_id_bits(self):
        from repro.core import run_bit_election

        from repro.graphs import Graph

        narrow = run_bit_election(path(8), seed=3)  # ids < 8 -> 3 bits
        # The same path with its top ID widened to 12 bits.
        edges = [(v, v + 1) for v in range(6)] + [(6, 2 ** 11)]
        wide = run_bit_election(Graph.from_edges(edges), seed=3)
        assert wide.slots == 4 * narrow.slots
        assert narrow.leaders == [7]
        assert wide.leaders == [2 ** 11]

    @staticmethod
    def _relay_transmissions(station, heard_at=None):
        """Poll ``station`` every slot of round 0; its transmitting slots."""
        from repro.core.messages import LeaderMessage

        sent = []
        for slot in range(station.window_slots):
            if station.on_slot(slot) is not None:
                sent.append(slot)
            if slot == heard_at:
                station.on_receive(slot, 0, LeaderMessage(7, 0))
        return sent

    def test_relay_is_capped_at_k_invocations(self):
        from repro.core.leader import BitElectionProcess

        def station(node_id, seed):
            return BitElectionProcess(
                node_id=node_id,
                id_bits=1,
                budget=4,
                window_invocations=10,
                relay_invocations=3,
                rng=random.Random(seed),
            )

        for seed in range(20):
            # A source relays for K invocations from the round's start;
            # once its relay is spent it declares the next round.
            source = station(1, seed)
            sent = self._relay_transmissions(source)
            assert sent and max(sent) // 4 < 3
            assert source.quiet_until(3 * 4) == source.window_slots
            # A relay hearing in invocation 2 finishes it, then K more.
            relay = station(0, seed)
            sent = self._relay_transmissions(relay, heard_at=9)
            assert sent and min(sent) >= 10 and max(sent) // 4 < 2 + 1 + 3
            assert relay.quiet_until(6 * 4) == relay.window_slots
            # A station that never hears sleeps to the next round.
            silent = station(0, seed)
            assert self._relay_transmissions(silent) == []
            assert silent.quiet_until(1) == silent.window_slots

    def test_signal_is_one_object_per_round(self):
        from repro.core.leader import BitElectionProcess

        # Station 3 sources both rounds of a two-bit election.
        station = BitElectionProcess(
            node_id=3,
            id_bits=2,
            budget=4,
            window_invocations=3,
            relay_invocations=3,
            rng=random.Random(2),
        )
        sent = {}
        for slot in range(station.horizon_slots):
            tx = station.on_slot(slot)
            if tx is not None:
                sent.setdefault(slot // station.window_slots, []).append(tx)
        assert sorted(sent) == [0, 1]
        assert any(len(txs) > 1 for txs in sent.values())
        for round_index, txs in sent.items():
            assert all(tx is txs[0] for tx in txs)
            assert txs[0].payload.round == round_index
        assert sent[0][0] is not sent[1][0]

    def test_relay_cap_derivation(self, monkeypatch):
        from repro.core import leader

        caps = []
        original = leader.BitElectionProcess.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            caps.append((self.relay_invocations, self.window_invocations))

        monkeypatch.setattr(leader.BitElectionProcess, "__init__", init)
        leader.run_bit_election(random_geometric(48, 0.3, random.Random(1)), 1)
        assert set(caps) == {(14, 47 + 12)}  # ceil(log2(48² · 6)) = 14
        caps.clear()
        leader.run_bit_election(star(16), seed=1)
        assert set(caps) == {(10, 15 + 8)}  # ceil(log2(16² · 4)) = 10
        caps.clear()
        # A sparse ID space: 41 rounds on two stations, whose window of
        # 1 + 2 invocations caps K = ceil(log2(2² · 41)) = 8.
        leader.run_bit_election(
            Graph.from_edges([(0, 2 ** 40)]), seed=1
        )
        assert set(caps) == {(3, 3)}

    def test_unique_and_agreed_on_generated_fields(self):
        from repro.core import run_bit_election

        radius = math.sqrt(12 / (math.pi * 48))  # mean degree about 12
        for seed in range(20):
            graph = random_geometric(48, radius, random.Random(seed))
            result = run_bit_election(graph, seed=seed)
            assert result.leaders == [max(graph.nodes)], seed
            assert result.agreed, seed
