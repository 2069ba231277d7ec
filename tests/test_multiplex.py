"""Tests for time-division multiplexing (§1.4's single-transceiver option)."""

import pytest

from repro.core import run_point_to_point
from repro.core.point_to_point import PointToPointProcess
from repro.core.broadcast import (
    BroadcastProcess,
    next_level_neighbors,
    superphase_invocations,
)
from repro.core.slots import SlotStructure, decay_budget
from repro.core.tree import tree_info_from_bfs_tree
from repro.errors import ConfigurationError
from repro.graphs import grid, path, reference_bfs_tree, star
from repro.radio import (
    Process,
    TimeDivisionProcess,
    Transmission,
    logical_slots,
    multiplex_network,
)
from repro.rng import RngFactory
from tests.conftest import ScriptedProcess


class TestAdapterSemantics:
    def test_sub_slot_layout(self):
        """Channel-c traffic of logical slot s occupies physical 2s+c."""
        inner0 = ScriptedProcess(
            0,
            {
                0: [Transmission("up", channel=0), Transmission("dn", channel=1)],
                1: Transmission("later", channel=1),
            },
        )
        inner1 = ScriptedProcess(1, {})
        net = multiplex_network(
            path(2),
            {0: lambda n: inner0, 1: lambda n: inner1}.__getitem__(0)
            if False
            else (lambda n: inner0 if n == 0 else inner1),
            logical_channels=2,
        )
        net.run(4)
        # inner1 should have heard: (slot 0, ch 0, "up"), (0, 1, "dn"),
        # (1, 1, "later") — in logical coordinates.
        assert inner1.heard == [
            (0, 0, "up"),
            (0, 1, "dn"),
            (1, 1, "later"),
        ]
        assert logical_slots(net, 2) == 2

    def test_excess_logical_channel_rejected(self):
        inner = ScriptedProcess(0, {0: Transmission("x", channel=3)})
        wrapped = TimeDivisionProcess(inner, logical_channels=2)
        with pytest.raises(ConfigurationError):
            wrapped.on_slot(0)

    def test_double_transmit_same_logical_channel_rejected(self):
        inner = ScriptedProcess(
            0, {0: [Transmission("a", channel=0), Transmission("b", channel=0)]}
        )
        wrapped = TimeDivisionProcess(inner, logical_channels=2)
        with pytest.raises(ConfigurationError):
            wrapped.on_slot(0)

    def test_invalid_channel_count(self):
        with pytest.raises(ConfigurationError):
            TimeDivisionProcess(ScriptedProcess(0), logical_channels=0)

    def test_slot_end_forwarded_once_per_logical_slot(self):
        ends = []

        class EndCounter(Process):
            def on_slot_end(self, slot):
                ends.append(slot)

        net = multiplex_network(
            path(2), lambda n: EndCounter(n), logical_channels=2
        )
        net.run(6)
        # Two stations × 3 logical slots.
        assert sorted(ends) == [0, 0, 1, 1, 2, 2]

    def test_is_done_delegates(self):
        class Done(Process):
            def is_done(self):
                return True

        assert TimeDivisionProcess(Done(0), 2).is_done()


def build_p2p_process(graph, tree, seed):
    factory = RngFactory(seed)
    slot_structure = SlotStructure(
        decay_budget(graph.max_degree()), level_classes=3, with_acks=True
    )
    infos = tree_info_from_bfs_tree(tree)

    def make(node):
        return PointToPointProcess(
            infos[node], slot_structure, factory.for_node(node)
        )

    return make


class TestProtocolsOverOneTransceiver:
    def test_p2p_runs_multiplexed(self):
        """The two-channel point-to-point stack on a single channel."""
        graph = grid(3, 3)
        tree = reference_bfs_tree(graph, 0)
        tree.assign_dfs_intervals()
        make = build_p2p_process(graph, tree, seed=4)
        inners = {}

        def factory(node):
            inners[node] = make(node)
            return inners[node]

        net = multiplex_network(graph, factory, logical_channels=2)
        inners[8].submit(tree.dfs_number[1], "across")
        inners[0].submit(tree.dfs_number[6], "down")
        net.run(
            400_000,
            until=lambda n: len(inners[1].delivered) >= 1
            and len(inners[6].delivered) >= 1,
        )
        assert inners[1].delivered[0].payload == "across"
        assert inners[6].delivered[0].payload == "down"

    def test_multiplexed_costs_twice_the_logical_slots(self):
        """Same seed, same workload: the multiplexed run consumes ~2×
        physical slots (identical logical behaviour)."""
        graph = path(6)
        tree = reference_bfs_tree(graph, 0)
        tree.assign_dfs_intervals()
        batch = [(5, 0, "m1"), (0, 5, "m2")]
        two_channel = run_point_to_point(graph, tree, batch, seed=9)

        make = build_p2p_process(graph, tree, seed=9)
        inners = {}

        def factory(node):
            inners[node] = make(node)
            return inners[node]

        net = multiplex_network(graph, factory, logical_channels=2)
        inners[5].submit(tree.dfs_number[0], "m1")
        inners[0].submit(tree.dfs_number[5], "m2")
        net.run(
            400_000,
            until=lambda n: len(inners[0].delivered) >= 1
            and len(inners[5].delivered) >= 1
            and all(p.is_done() for p in inners.values()),
        )
        # Identical coin streams → identical logical schedule → exactly
        # twice the physical slots (up to the 1-sub-slot rounding).
        assert abs(net.slot - 2 * two_channel.slots) <= 2

    def test_broadcast_runs_multiplexed(self):
        graph = star(6)
        tree = reference_bfs_tree(graph, 0)
        infos = tree_info_from_bfs_tree(tree)
        factory_rng = RngFactory(3)
        budget = decay_budget(graph.max_degree())
        up_slots = SlotStructure(budget, 3, True)
        dist_slots = SlotStructure(budget, 3, False)
        relay_to = next_level_neighbors(graph, infos)
        inners = {}

        def factory(node):
            inners[node] = BroadcastProcess(
                infos[node],
                up_slots,
                dist_slots,
                superphase_invocations(graph.num_nodes),
                factory_rng.for_node(node),
                graph.num_nodes ** 2,
                relay_to[node],
            )
            return inners[node]

        net = multiplex_network(graph, factory, logical_channels=2)
        inners[2].submit("multiplexed alert")
        net.run(
            600_000,
            until=lambda n: all(p.has_prefix(1) for p in inners.values()),
            check_every=8,
        )
        for process in inners.values():
            assert process.received[0].payload == "multiplexed alert"


class TestThreeChannelMultiplex:
    def test_three_logical_channels(self):
        """C=3: logical channel c of slot s occupies physical 3s+c."""
        inner0 = ScriptedProcess(
            0,
            {
                0: [
                    Transmission("a", channel=0),
                    Transmission("b", channel=2),
                ],
                1: Transmission("c", channel=1),
            },
        )
        inner1 = ScriptedProcess(1, {})
        net = multiplex_network(
            path(2),
            lambda n: inner0 if n == 0 else inner1,
            logical_channels=3,
        )
        net.run(6)
        assert inner1.heard == [(0, 0, "a"), (0, 2, "b"), (1, 1, "c")]

    def test_multiplexed_with_failures(self):
        """Crashes interact sanely with the adapter: a down station's
        sub-slots all go silent."""
        from repro.radio import PermanentCrashes, RadioNetwork

        inner0 = ScriptedProcess(
            0, {s: Transmission("x", channel=0) for s in range(4)}
        )
        inner1 = ScriptedProcess(1, {})
        net = RadioNetwork(path(2), failures=PermanentCrashes({0}))
        net.attach(TimeDivisionProcess(inner0, 2))
        net.attach(TimeDivisionProcess(inner1, 2))
        net.run(8)
        assert inner1.heard == []
