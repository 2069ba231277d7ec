"""Tests for the transport lane and §3's deterministic acknowledgements.

The headline property (Theorem 3.1): *every* data message that is
successfully received by its designated destination is acknowledged with
certainty — even though reception itself is probabilistic.  We verify it
engine-wide on adversarially shaped topologies (including the paper's
Figure 1 configuration) by instrumenting collection runs.
"""

import random

import pytest

from repro.core import (
    DataMessage,
    SlotStructure,
    TransportLane,
    run_collection,
)
from repro.core.decay import DecaySession
from repro.core.messages import AckMessage
from repro.core.transport import BacklogTotal
from repro.errors import ConfigurationError, ProtocolError
from repro.graphs import (
    Graph,
    grid,
    layered_band,
    path,
    random_geometric,
    reference_bfs_tree,
    star,
)
from repro.radio import EventTrace
from repro.core.collection import build_collection_network


def make_lane(level=1, channel=0, strict=True, budget=2):
    slots = SlotStructure(decay_budget=budget, level_classes=3)
    return (
        TransportLane(
            node_id="me",
            level=level,
            slots=slots,
            rng=random.Random(0),
            channel=channel,
            strict=strict,
        ),
        slots,
    )


def data(msg_id, sender, dest):
    return DataMessage(
        msg_id=msg_id,
        origin=sender,
        hop_sender=sender,
        hop_dest=dest,
        payload=None,
    )


class TestTransportLaneUnit:
    def test_enqueue_requires_own_hop_sender(self):
        lane, _ = make_lane()
        with pytest.raises(ProtocolError):
            lane.enqueue(data(("x", 0), sender="other", dest="me"))

    def test_transmits_only_on_own_data_slots(self):
        lane, slots = make_lane(level=1)
        lane.enqueue(data(("me", 0), "me", "parent"))
        for t in range(slots.phase_length):
            tx = lane.on_slot(t)
            if tx is not None:
                assert slots.is_data_slot_for(t, 1)

    def test_ack_scheduled_for_next_slot(self):
        lane, slots = make_lane(level=1)
        # Our data slots are class 1: slot 2 in the first round.
        message = data(("child", 0), "child", "me")
        assert lane.accept_data(2, message) is True
        tx = lane.on_slot(3)
        assert tx is not None
        ack = tx.payload
        assert isinstance(ack, AckMessage)
        assert ack.msg_id == ("child", 0)
        assert ack.hop_dest == "child"

    def test_ack_has_priority_and_is_one_shot(self):
        lane, _ = make_lane(level=1)
        lane.accept_data(2, data(("c", 0), "c", "me"))
        assert lane.on_slot(3) is not None
        assert lane.on_slot(3) is None  # consumed

    def test_accept_data_for_wrong_destination_raises(self):
        lane, _ = make_lane()
        with pytest.raises(ProtocolError):
            lane.accept_data(2, data(("c", 0), "c", "someone-else"))

    def test_duplicate_designated_reception_strict(self):
        lane, slots = make_lane(level=1)
        message = data(("c", 0), "c", "me")
        lane.accept_data(2, message)
        lane.on_slot(3)  # drain the ack
        with pytest.raises(ProtocolError):
            lane.accept_data(2 + slots.phase_length, message)

    def test_duplicate_designated_reception_lenient(self):
        lane, slots = make_lane(level=1, strict=False)
        message = data(("c", 0), "c", "me")
        assert lane.accept_data(2, message) is True
        lane.on_slot(3)
        assert lane.accept_data(2 + slots.phase_length, message) is False
        assert lane.duplicates_seen == 1

    def test_ack_removes_head(self):
        lane, _ = make_lane(level=1)
        message = data(("me", 0), "me", "parent")
        lane.enqueue(message)
        lane.on_slot(2)  # start transmitting
        lane.accept_ack(
            AckMessage(msg_id=("me", 0), hop_sender="parent", hop_dest="me")
        )
        assert lane.backlog == 0
        assert lane.idle

    def test_unmatched_ack_strict_raises(self):
        lane, _ = make_lane(level=1)
        with pytest.raises(ProtocolError):
            lane.accept_ack(
                AckMessage(msg_id=("me", 9), hop_sender="p", hop_dest="me")
            )

    def test_unmatched_ack_lenient_ignored(self):
        lane, _ = make_lane(level=1, strict=False)
        lane.accept_ack(
            AckMessage(msg_id=("me", 9), hop_sender="p", hop_dest="me")
        )
        assert lane.idle

    def test_ack_for_wrong_station_raises(self):
        lane, _ = make_lane()
        with pytest.raises(ProtocolError):
            lane.accept_ack(
                AckMessage(msg_id=("x", 0), hop_sender="p", hop_dest="other")
            )

    def test_head_resent_across_phases_until_acked(self):
        lane, slots = make_lane(level=1)
        lane.enqueue(data(("me", 0), "me", "parent"))
        transmissions = 0
        for t in range(4 * slots.phase_length):
            if lane.on_slot(t) is not None:
                transmissions += 1
        assert transmissions >= 4  # at least one per phase
        assert lane.backlog == 1  # never acked, never dropped

    def test_hops_and_acks_are_addressed_to_their_destination(self):
        lane, slots = make_lane(level=1)
        lane.accept_data(2, data(("c", 0), "c", "me"))
        assert lane.on_slot(3).to == ("c",)  # the ack
        lane.enqueue(data(("me", 0), "me", "parent"))
        sent = [lane.on_slot(t) for t in range(4 * slots.phase_length)]
        assert {tx.to for tx in sent if tx is not None} == {("parent",)}

    def test_backlog_total_follows_enqueue_ack_and_retarget(self):
        lane, _ = make_lane(level=1)
        other, _ = make_lane(level=2)
        lane.enqueue(data(("me", 0), "me", "parent"))
        total = BacklogTotal()
        lane.join_total(total)
        other.join_total(total)
        assert total.messages == 1  # joining counts what is buffered
        lane.enqueue(data(("me", 1), "me", "parent"))
        other.enqueue(data(("me", 2), "me", "parent"))
        assert total.messages == 3
        lane.retarget("stepparent", new_level=2)  # replaces the buffer
        assert total.messages == 3
        lane.accept_ack(
            AckMessage(msg_id=("me", 0), hop_sender="p", hop_dest="me")
        )
        assert total.messages == 2 == lane.backlog + other.backlog
        with pytest.raises(ConfigurationError):
            lane.join_total(BacklogTotal())

    def test_dead_session_sleeps_to_next_phase(self):
        # Once the head's session dies mid-phase the lane is silent for
        # the rest of the phase (a dead session draws no coin), so its
        # next active slot is its first own data slot of the next phase.
        class CoinAlwaysFalls(random.Random):
            def random(self):
                return 0.0

        slots = SlotStructure(decay_budget=4, level_classes=3)
        lane = TransportLane(
            node_id="me",
            level=1,
            slots=slots,
            rng=random.Random(0),
            channel=0,
        )
        lane.session_factory = lambda: DecaySession(4, CoinAlwaysFalls())
        lane.enqueue(data(("me", 0), "me", "parent"))
        first = slots.next_data_slot_for(0, 1)
        assert lane.next_active_slot(0) == first
        assert lane.on_slot(first) is not None  # transmits, then dies
        next_phase = slots.next_data_slot_for(slots.first_slot_of_phase(1), 1)
        assert lane.next_active_slot(first + 1) == next_phase
        for t in range(first + 1, next_phase):
            assert lane.on_slot(t) is None
        assert lane.on_slot(next_phase) is not None  # a fresh session


def ack_determinism_scenario(graph, sources, seed):
    """Run collection with a trace and check Theorem 3.1 globally.

    For every delivery of a DataMessage to its designated destination at
    slot t, the original transmitter must receive the matching AckMessage
    at slot t+1.
    """
    tree = reference_bfs_tree(graph, 0)
    network, processes, slots = build_collection_network(
        graph, tree, sources, seed
    )
    trace = EventTrace()
    network.trace = trace
    total = sum(len(v) for v in sources.values())
    root = processes[tree.root]
    network.run(
        200_000,
        until=lambda net: len(root.delivered) >= total
        and all(p.is_done() for p in processes.values()),
    )
    deliveries = trace.deliveries
    data_deliveries = [
        e
        for e in deliveries
        if isinstance(e.payload, DataMessage)
        and e.payload.hop_dest == e.receiver
    ]
    assert data_deliveries, "scenario produced no designated deliveries"
    ack_deliveries = {
        (e.slot, e.receiver, e.payload.msg_id): e
        for e in deliveries
        if isinstance(e.payload, AckMessage)
    }
    for event in data_deliveries:
        key = (event.slot + 1, event.sender, event.payload.msg_id)
        assert key in ack_deliveries, (
            f"message {event.payload.msg_id} received by "
            f"{event.receiver} at slot {event.slot} was never acked back "
            f"to {event.sender}"
        )


class TestAckDeterminism:
    def test_figure_one_topology(self):
        """The paper's Fig. 1: u-v, u'-v', plus cross edges u-v' and u'-v."""
        # 0 = root/parent layer: make both v (1) and v' (2) children of 0;
        # u (3) child of 1, u' (4) child of 2; cross edges 3-2 and 4-1.
        g = Graph.from_edges(
            [(0, 1), (0, 2), (1, 3), (2, 4), (3, 2), (4, 1)]
        )
        sources = {3: ["m1", "m2"], 4: ["m3", "m4"]}
        for seed in range(5):
            ack_determinism_scenario(g, sources, seed)

    def test_dense_layered_band(self):
        g = layered_band(4, 4)
        sources = {n: ["x"] for n in g.nodes if n >= 8}
        ack_determinism_scenario(g, sources, seed=1)

    def test_star_contention(self):
        g = star(9)
        sources = {n: [f"p{n}"] for n in range(1, 9)}
        ack_determinism_scenario(g, sources, seed=3)

    def test_random_geometric(self):
        g = random_geometric(25, 0.35, random.Random(11))
        sources = {n: ["y"] for n in list(g.nodes)[1::3]}
        ack_determinism_scenario(g, sources, seed=7)

    def test_no_duplicates_ever_strict(self):
        """Strict mode would raise on any Thm 3.1 violation; none occurs."""
        g = grid(4, 4)
        tree = reference_bfs_tree(g, 0)
        sources = {n: ["z", "w"] for n in g.nodes if n != 0}
        result = run_collection(g, tree, sources, seed=5)
        assert len(result.delivered) == 2 * (g.num_nodes - 1)

    def test_exactly_once_delivery(self):
        g = path(8)
        tree = reference_bfs_tree(g, 0)
        sources = {7: [f"m{i}" for i in range(5)], 4: ["n0"]}
        result = run_collection(g, tree, sources, seed=2)
        payloads = [m.payload for m in result.delivered]
        assert sorted(payloads) == sorted(
            [f"m{i}" for i in range(5)] + ["n0"]
        )
        assert len(set(m.msg_id for m in result.delivered)) == 6


class TestSessionFactoryParameter:
    def test_constructor_injected_policy(self):
        """The public session_factory attribute plugs in another policy."""
        import random as random_module

        from repro.baselines import aloha_session_factory

        slots = SlotStructure(decay_budget=4, level_classes=1)
        rng = random_module.Random(3)
        lane = TransportLane(
            node_id="me",
            level=0,
            slots=slots,
            rng=rng,
            channel=0,
        )
        lane.session_factory = aloha_session_factory(1.0, rng)
        lane.enqueue(
            DataMessage(
                msg_id=("me", 0),
                origin="me",
                hop_sender="me",
                hop_dest="parent",
            )
        )
        # p=1.0 ALOHA transmits at every data opportunity of the phase.
        transmissions = sum(
            1
            for t in range(slots.phase_length)
            if lane.on_slot(t) is not None
        )
        assert transmissions == slots.decay_budget
