"""Tests for k-broadcast (§6): pipelined distribution with NACK recovery."""

import random

import pytest

from repro.core import run_broadcast, superphase_invocations
from repro.core.broadcast import EOS, build_broadcast_network
from repro.core.messages import BroadcastMessage
from repro.errors import ConfigurationError
from repro.graphs import (
    balanced_tree,
    grid,
    path,
    random_geometric,
    reference_bfs_tree,
    star,
)
from repro.radio import DOWN_CHANNEL


def tree_of(graph, root=0):
    return reference_bfs_tree(graph, root)


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path(7),
            lambda: star(8),
            lambda: grid(3, 3),
            lambda: balanced_tree(2, 3),
            lambda: random_geometric(16, 0.45, random.Random(5)),
        ],
        ids=["path", "star", "grid", "tree", "rgg"],
    )
    def test_every_station_gets_every_message(self, graph_factory):
        graph = graph_factory()
        tree = tree_of(graph)
        submissions = {
            list(graph.nodes)[1]: ["a", "b"],
            list(graph.nodes)[-1]: ["c"],
        }
        result = run_broadcast(graph, tree, submissions, seed=4)
        assert result.delivered_everywhere
        assert result.messages == 3

    def test_root_sourced_broadcast(self):
        graph = path(6)
        tree = tree_of(graph)
        result = run_broadcast(graph, tree, {0: ["r1", "r2"]}, seed=1)
        assert result.delivered_everywhere

    def test_messages_delivered_in_sequence_order(self):
        graph = path(5)
        tree = tree_of(graph)
        network, processes = build_broadcast_network(graph, tree, seed=7)
        for payload in ["m0", "m1", "m2"]:
            processes[0].submit(payload)
        network.run(
            200_000,
            until=lambda n: all(
                p.has_prefix(3) for p in processes.values()
            ),
            check_every=4,
        )
        for process in processes.values():
            ordered = process.delivered_in_order()
            assert [m.seq for m in ordered] == [0, 1, 2]
            assert [m.payload for m in ordered] == ["m0", "m1", "m2"]

    def test_multi_source_sequencing_is_global(self):
        """All stations agree on one global message order (root order)."""
        graph = star(6)
        tree = tree_of(graph)
        submissions = {n: [f"s{n}"] for n in range(1, 6)}
        network, processes = build_broadcast_network(graph, tree, seed=9)
        for node, payloads in submissions.items():
            for p in payloads:
                processes[node].submit(p)
        network.run(
            400_000,
            until=lambda n: all(
                p.has_prefix(5) for p in processes.values()
            ),
            check_every=4,
        )
        orders = {
            tuple(m.payload for m in p.delivered_in_order())
            for p in processes.values()
        }
        assert len(orders) == 1  # identical everywhere

    def test_origin_preserved(self):
        graph = path(4)
        tree = tree_of(graph)
        network, processes = build_broadcast_network(graph, tree, seed=3)
        processes[3].submit("from-leaf")
        network.run(
            200_000,
            until=lambda n: all(
                p.has_prefix(1) for p in processes.values()
            ),
            check_every=4,
        )
        for process in processes.values():
            assert process.received[0].origin == 3

    def test_empty_workload_trivially_complete(self):
        graph = path(4)
        tree = tree_of(graph)
        result = run_broadcast(graph, tree, {}, seed=0)
        assert result.delivered_everywhere
        assert result.slots == 0

    def test_unknown_station_rejected(self):
        graph = path(3)
        with pytest.raises(ConfigurationError):
            run_broadcast(graph, tree_of(graph), {42: ["x"]}, seed=0)


class TestGapRecovery:
    def test_tiny_superphases_force_losses_and_recovery(self):
        """invocations=1 gives each hop only one Decay try per superphase;
        with several same-level relays contending (layered band), pipeline
        misses are common — the NACK path must heal them all."""
        from repro.graphs import layered_band

        graph = layered_band(4, 3)
        tree = tree_of(graph)
        result = run_broadcast(
            graph,
            tree,
            {0: [f"m{i}" for i in range(6)]},
            seed=2,
            invocations=1,
        )
        assert result.delivered_everywhere

    def test_resends_counted(self):
        from repro.graphs import layered_band

        graph = layered_band(5, 3)
        tree = tree_of(graph)
        total_resends = 0
        for seed in range(4):
            result = run_broadcast(
                graph,
                tree,
                {0: [f"m{i}" for i in range(8)]},
                seed=seed,
                invocations=1,
            )
            assert result.delivered_everywhere
            total_resends += result.resends
        assert total_resends > 0  # contention with one try/hop loses some

    def test_path_never_loses(self):
        """On a path every hop has a single transmitter, so even one
        invocation per superphase delivers without any NACK traffic."""
        graph = path(10)
        tree = tree_of(graph)
        result = run_broadcast(
            graph,
            tree,
            {0: [f"m{i}" for i in range(8)]},
            seed=1,
            invocations=1,
        )
        assert result.delivered_everywhere
        assert result.resends == 0

    def test_default_invocations_rarely_need_resends(self):
        graph = grid(3, 3)
        tree = tree_of(graph)
        result = run_broadcast(
            graph, tree, {0: [f"m{i}" for i in range(5)]}, seed=3
        )
        assert result.delivered_everywhere
        assert result.resends <= 2


class TestCheckpointing:
    def test_checkpoint_acks_collected(self):
        """Checkpoints fall every n² messages (§6): on a 3-station path a
        station that holds messages 0-8 acks checkpoint 1, so ten root
        broadcasts draw that ack from both non-root stations."""
        graph = path(3)
        tree = tree_of(graph)
        network, processes = build_broadcast_network(graph, tree, seed=5)
        assert processes[1].checkpoint_interval == 9
        for i in range(10):
            processes[0].submit(f"m{i}")
        network.run(
            20_000,
            until=lambda n: all(
                p.has_prefix(10) for p in processes.values()
            )
            and len(processes[0].checkpoint_acks.get(1, ())) >= 2,
            check_every=8,
        )
        acks = processes[0].checkpoint_acks
        assert set(acks) == {1}  # checkpoint 2 falls at message 18
        assert set(acks[1]) == {1, 2}
        assert network.slot <= 248


class TestRelayAddress:
    def test_relay_is_addressed_to_the_next_level_in_neighbour_order(self):
        # Exactly the neighbours whose _handle_distribution accepts the
        # relay's level: one level down, none at the same level.
        graph = random_geometric(16, 0.45, random.Random(5))
        tree = tree_of(graph)
        _, processes = build_broadcast_network(graph, tree, seed=1)
        level = tree.level
        for node, process in processes.items():
            assert process.relay_to == tuple(
                v for v in graph.neighbors(node) if level[v] == level[node] + 1
            )
        assert any(
            level[u] == level[v] for u, v in graph.edges()
        ), "no same-level neighbours to leave out"


class TestRepeatedRelay:
    """A relay builds its down-channel transmission once per superphase,
    and a receiver files a repeat of the object it handled last once."""

    def test_relay_sends_one_object_per_superphase(self):
        graph = path(4)
        network, processes = build_broadcast_network(
            graph, tree_of(graph), seed=3
        )
        relay = processes[1]
        sent = {}
        on_slot = relay.on_slot

        def spy(slot):
            action = on_slot(slot)
            for tx in action if isinstance(action, list) else [action]:
                if tx is not None and tx.channel == DOWN_CHANNEL:
                    sent.setdefault(relay.superphase(slot), []).append(tx)
            return action

        relay.on_slot = spy
        for payload in ("a", "b", "c"):
            processes[0].submit(payload)
        network.run(
            100_000,
            until=lambda net: all(
                p.has_prefix(3) for p in processes.values()
            ) and len(sent) >= 6,
            check_every=8,
        )
        assert any(len(txs) > 1 for txs in sent.values())
        for txs in sent.values():
            assert all(tx is txs[0] for tx in txs)
        firsts = [txs[0] for _, txs in sorted(sent.items())]
        # A fresh transmission and a fresh stamped message each
        # superphase, even where the message repeats an equal one (the
        # root's end-of-stream announcements).
        for i, tx in enumerate(firsts):
            for later in firsts[i + 1:]:
                assert later is not tx and later.payload is not tx.payload
        payloads = [tx.payload for tx in firsts]
        assert any(
            a == b for i, a in enumerate(payloads) for b in payloads[i + 1:]
        )

    def _station(self):
        graph = path(3)
        _, processes = build_broadcast_network(graph, tree_of(graph), seed=1)
        station = processes[1]
        handled = []
        handle = station._handle_distribution

        def spy(slot, message):
            handled.append(message)
            handle(slot, message)

        station._handle_distribution = spy
        return station, handled

    def test_same_object_heard_twice_is_handled_once(self):
        station, handled = self._station()
        message = BroadcastMessage(seq=0, origin=0, payload="x")
        assert station.on_receive(5, DOWN_CHANNEL, message) is False
        assert station.on_receive(6, DOWN_CHANNEL, message) is False
        assert handled == [message]
        assert station.received[0] == message

    def test_an_equal_copy_is_handled_again(self):
        # The skip is by identity: an equal message from another relay,
        # or from the same relay in a later superphase, is filed.
        station, handled = self._station()
        first = BroadcastMessage(seq=0, origin=0, payload=EOS)
        copy = BroadcastMessage(seq=0, origin=0, payload=EOS)
        later = station.superphase_slots + 5
        station.on_receive(5, DOWN_CHANNEL, first)
        station.on_receive(later, DOWN_CHANNEL, copy)
        assert len(handled) == 2 and handled[1] is copy
        assert station._inbox[1] == (copy, False)


class TestSuperphaseArithmetic:
    def test_invocations_formula(self):
        assert superphase_invocations(2) == 2
        assert superphase_invocations(16) == 8
        assert superphase_invocations(17) == 10

    def test_eos_announcements_carry_count(self):
        graph = path(3)
        tree = tree_of(graph)
        network, processes = build_broadcast_network(graph, tree, seed=0)
        processes[0].submit("only")
        network.run(
            100_000,
            until=lambda n: all(
                p.has_prefix(1) for p in processes.values()
            )
            and processes[2].announced_count >= 1,
            check_every=4,
        )
        assert processes[1].announced_count == 1
        assert processes[2].announced_count == 1
        # EOS itself is never stored as a message.
        for process in processes.values():
            assert all(m.payload != EOS for m in process.received.values())
