"""Unit tests for the radio simulation engine (model semantics of §1.1)."""

import gc
import random
import weakref

import pytest

from repro.core import (
    SlotStructure,
    build_collection_network,
    decay_budget,
    run_broadcast,
    run_collection,
    run_point_to_point,
    run_ranking,
    run_setup,
)
from repro.errors import ConfigurationError, ProtocolError, SimulationTimeout
from repro.graphs import (
    Graph,
    path,
    random_geometric,
    reference_bfs_tree,
    star,
)
from repro.radio import (
    CollisionEvent,
    DeliverEvent,
    EventTrace,
    PermanentCrashes,
    Process,
    RadioNetwork,
    SilentProcess,
    Transmission,
)
from repro.service import run_service
from repro.workloads import BernoulliArrivals
from tests.conftest import ScriptedProcess


def wire(graph, scripts):
    """Build a network with ScriptedProcesses (listeners elsewhere)."""
    net = RadioNetwork(graph, num_channels=2)
    procs = {}
    for node in graph.nodes:
        proc = ScriptedProcess(node, scripts.get(node))
        procs[node] = proc
        net.attach(proc)
    return net, procs


class TestReceptionSemantics:
    def test_single_transmitter_is_received(self):
        net, procs = wire(path(3), {0: {0: Transmission("hi")}})
        net.step()
        assert procs[1].heard == [(0, 0, "hi")]
        assert procs[2].heard == []  # out of range

    def test_two_transmitters_collide(self):
        g = star(3)  # 0 center; 1, 2 leaves
        net, procs = wire(
            g, {1: {0: Transmission("a")}, 2: {0: Transmission("b")}}
        )
        net.step()
        assert procs[0].heard == []  # collision, and no detection signal

    def test_collision_is_local_not_global(self):
        # 1 - 0 - 2 and isolated edge 3 - 4; 1, 2 and 3 transmit.
        g = Graph.from_edges([(0, 1), (0, 2), (3, 4)])
        net, procs = wire(
            g,
            {
                1: {0: Transmission("a")},
                2: {0: Transmission("b")},
                3: {0: Transmission("c")},
            },
        )
        net.step()
        assert procs[0].heard == []
        assert procs[4].heard == [(0, 0, "c")]

    def test_transmitter_does_not_hear_its_own_channel(self):
        g = path(2)
        net, procs = wire(
            g, {0: {0: Transmission("x")}, 1: {0: Transmission("y")}}
        )
        net.step()
        assert procs[0].heard == []
        assert procs[1].heard == []

    def test_channels_are_independent(self):
        g = path(2)
        net, procs = wire(
            g,
            {
                0: {0: Transmission("up", channel=0)},
                1: {0: Transmission("down", channel=1)},
            },
        )
        net.step()
        # Each node transmits on one channel and hears the other.
        assert procs[0].heard == [(0, 1, "down")]
        assert procs[1].heard == [(0, 0, "up")]

    def test_simultaneous_transmissions_on_two_channels(self):
        g = path(2)
        net, procs = wire(
            g,
            {
                0: {
                    0: [
                        Transmission("a", channel=0),
                        Transmission("b", channel=1),
                    ]
                }
            },
        )
        net.step()
        assert sorted(procs[1].heard) == [(0, 0, "a"), (0, 1, "b")]

    def test_reception_requires_exactly_one_even_across_slots(self):
        g = star(3)
        net, procs = wire(
            g,
            {
                1: {0: Transmission("a"), 1: Transmission("a2")},
                2: {0: Transmission("b")},
            },
        )
        net.step()  # slot 0: collision
        net.step()  # slot 1: only node 1 transmits
        assert procs[0].heard == [(1, 0, "a2")]


class TestEngineValidation:
    def test_channel_out_of_range(self):
        net, _ = wire(path(2), {0: {0: Transmission("x", channel=5)}})
        with pytest.raises(ProtocolError):
            net.step()

    def test_negative_channel_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Transmission("x", channel=-1)

    def test_double_transmit_same_channel(self):
        net, _ = wire(
            path(2),
            {0: {0: [Transmission("x"), Transmission("y")]}},
        )
        with pytest.raises(ProtocolError):
            net.step()

    def test_attach_unknown_station(self):
        net = RadioNetwork(path(2))
        with pytest.raises(ConfigurationError):
            net.attach(SilentProcess(99))

    def test_step_requires_full_attachment(self):
        net = RadioNetwork(path(3))
        net.attach(SilentProcess(0))
        with pytest.raises(ConfigurationError):
            net.step()

    def test_zero_channels_rejected(self):
        with pytest.raises(ConfigurationError):
            RadioNetwork(path(2), num_channels=0)


class TestRunLoop:
    def test_run_counts_slots(self):
        net = RadioNetwork(path(2))
        net.attach_all(SilentProcess)
        assert net.run(7) == 7
        assert net.slot == 7

    def test_until_predicate_stops_early(self):
        net = RadioNetwork(path(2))
        net.attach_all(SilentProcess)
        executed = net.run(100, until=lambda n: n.slot >= 5)
        assert executed == 5

    def test_until_already_true(self):
        net = RadioNetwork(path(2))
        net.attach_all(SilentProcess)
        assert net.run(10, until=lambda n: True) == 0

    def test_timeout_raises(self):
        net = RadioNetwork(path(2))
        net.attach_all(SilentProcess)
        with pytest.raises(SimulationTimeout):
            net.run(3, until=lambda n: False)

    def test_run_until_done(self):
        class DoneAfter(Process):
            def is_done(self):
                return True

        net = RadioNetwork(path(2))
        net.attach_all(DoneAfter)
        assert net.run_until_done(10) == 0

    def test_negative_max_slots(self):
        net = RadioNetwork(path(2))
        net.attach_all(SilentProcess)
        with pytest.raises(ConfigurationError):
            net.run(-1)


class TestStatsAndTrace:
    def test_counters(self):
        g = star(3)
        net, _ = wire(
            g, {1: {0: Transmission("a")}, 2: {0: Transmission("b")}}
        )
        net.step()
        assert net.stats.transmissions == 2
        assert net.stats.collisions == 1
        assert net.stats.deliveries == 0
        assert net.stats.slots == 1

    def test_delivery_counter(self):
        net, _ = wire(path(3), {1: {0: Transmission("m")}})
        net.step()
        assert net.stats.deliveries == 2  # both path neighbors hear

    def test_trace_events(self):
        trace = EventTrace()
        g = star(3)
        net = RadioNetwork(g, trace=trace)
        net.attach(ScriptedProcess(0, {}))
        net.attach(ScriptedProcess(1, {0: Transmission("a")}))
        net.attach(ScriptedProcess(2, {0: Transmission("b")}))
        net.step()
        assert len(trace.transmissions) == 2
        collisions = trace.collisions
        assert len(collisions) == 1
        assert isinstance(collisions[0], CollisionEvent)
        assert collisions[0].receiver == 0
        assert set(collisions[0].senders) == {1, 2}

    def test_trace_delivery_records_sender(self):
        trace = EventTrace()
        net = RadioNetwork(path(2), trace=trace)
        net.attach(ScriptedProcess(0, {0: Transmission("z")}))
        net.attach(ScriptedProcess(1, {}))
        net.step()
        deliveries = trace.deliveries
        assert len(deliveries) == 1
        event = deliveries[0]
        assert isinstance(event, DeliverEvent)
        assert (event.sender, event.receiver, event.payload) == (0, 1, "z")

    def test_trace_is_never_truncated(self):
        trace = EventTrace()
        net = RadioNetwork(path(3), trace=trace)
        net.attach(ScriptedProcess(0, {0: Transmission("z")}))
        net.attach(ScriptedProcess(1, {1: Transmission("y")}))
        net.attach(ScriptedProcess(2, {}))
        net.run(2)
        assert len(trace.transmissions) == 2
        assert len(trace.deliveries) == net.stats.deliveries == 3
        assert len(trace) == 5


class TestFailureIntegration:
    def test_crashed_station_neither_sends_nor_receives(self):
        g = path(3)
        net = RadioNetwork(g, failures=PermanentCrashes({1}))
        net.attach(ScriptedProcess(0, {0: Transmission("m")}))
        p1 = ScriptedProcess(1, {0: Transmission("x")})
        net.attach(p1)
        p2 = ScriptedProcess(2, {})
        net.attach(p2)
        net.step()
        assert p1.heard == []
        # node 2 hears nothing (its only neighbor, 1, is down)
        assert p2.heard == []
        assert net.stats.transmissions == 1  # only node 0 got to transmit

    def test_crashed_station_does_not_cause_collisions(self):
        g = star(3)
        net = RadioNetwork(g, failures=PermanentCrashes({2}))
        net.attach(ScriptedProcess(0, {}))
        net.attach(ScriptedProcess(1, {0: Transmission("a")}))
        net.attach(ScriptedProcess(2, {0: Transmission("b")}))
        center = net.process(0)
        net.step()
        assert center.heard == [(0, 0, "a")]


class TestTopologyCache:
    def test_graph_swap_rebuilds_neighbor_cache(self):
        from repro.radio import RadioNetwork, SilentProcess

        network = RadioNetwork(path(4))
        network.attach_all(SilentProcess)
        cached = network._neighbors
        network.run(10)
        assert network._neighbors is cached  # hot loop never rebuilds

        network.graph = star(5)
        assert network._neighbors is not cached
        assert set(network._neighbors[0]) == set(star(5).neighbors(0))
        # The swap re-arms full-attachment validation: star-5 has an
        # extra station with no process.
        with pytest.raises(ConfigurationError):
            network.step()


class TestCaptureEffect:
    """§8 remark (3): collisions deliver one captured message at random."""

    def star_net(self, capture_seed=0, trace=None):
        # Leaves 1..3 all transmit to the center in slot 0.
        g = star(4)
        net = RadioNetwork(
            g, capture_effect=True, capture_seed=capture_seed, trace=trace
        )
        net.attach(ScriptedProcess(0, {}))
        for leaf in (1, 2, 3):
            net.attach(
                ScriptedProcess(leaf, {0: Transmission(f"m{leaf}")})
            )
        return net

    def test_collision_delivers_exactly_one_colliding_payload(self):
        net = self.star_net()
        net.step()
        heard = net.process(0).heard
        assert len(heard) == 1
        assert heard[0][2] in {"m1", "m2", "m3"}
        # It still counts as a collision AND a delivery.
        assert net.stats.channel(0).collisions == 1
        assert net.stats.channel(0).deliveries == 1

    def test_capture_choice_is_seed_deterministic(self):
        for seed in (0, 1, 7, 42):
            first = self.star_net(capture_seed=seed)
            second = self.star_net(capture_seed=seed)
            first.step()
            second.step()
            assert first.process(0).heard == second.process(0).heard

    def test_colliders_tuple_records_all_in_range_senders(self):
        trace = EventTrace()
        net = self.star_net(trace=trace)
        net.step()
        collisions = [
            e for e in trace.events if isinstance(e, CollisionEvent)
        ]
        assert len(collisions) == 1
        assert sorted(collisions[0].senders) == [1, 2, 3]
        # The captured payload is one of the colliders' transmissions.
        delivery = [
            e for e in trace.events if isinstance(e, DeliverEvent)
        ][0]
        assert delivery.sender in collisions[0].senders
        assert delivery.payload == f"m{delivery.sender}"

    def test_colliders_are_local_to_the_receiver(self):
        # 1 - 0 - 2, plus 3 - 4: node 3 transmits too, but it is out of
        # range of node 0, so it must not appear among 0's colliders.
        g = Graph.from_edges([(0, 1), (0, 2), (3, 4)])
        trace = EventTrace()
        net = RadioNetwork(
            g, capture_effect=True, capture_seed=0, trace=trace
        )
        scripts = {
            1: {0: Transmission("a")},
            2: {0: Transmission("b")},
            3: {0: Transmission("c")},
        }
        for node in g.nodes:
            net.attach(ScriptedProcess(node, scripts.get(node)))
        net.step()
        collision = [
            e for e in trace.events if isinstance(e, CollisionEvent)
        ][0]
        assert collision.receiver == 0
        assert sorted(collision.senders) == [1, 2]
        assert net.process(0).heard[0][2] in {"a", "b"}
        # Node 4 heard node 3 cleanly — no collision there.
        assert net.process(4).heard == [(0, 0, "c")]

    def test_capture_ignored_when_exactly_one_transmits(self):
        g = star(3)
        net = RadioNetwork(g, capture_effect=True, capture_seed=0)
        net.attach(ScriptedProcess(0, {}))
        net.attach(ScriptedProcess(1, {0: Transmission("solo")}))
        net.attach(ScriptedProcess(2, {}))
        net.step()
        assert net.process(0).heard == [(0, 0, "solo")]
        assert net.stats.channel(0).collisions == 0


class TestMultiChannelReception:
    def test_collision_and_delivery_are_per_channel(self):
        # Channel 0 collides at the center; channel 1 delivers cleanly
        # in the very same slot.
        g = star(4)
        net = RadioNetwork(g, num_channels=2)
        net.attach(ScriptedProcess(0, {}))
        net.attach(ScriptedProcess(1, {0: Transmission("a", channel=0)}))
        net.attach(ScriptedProcess(2, {0: Transmission("b", channel=0)}))
        net.attach(ScriptedProcess(3, {0: Transmission("c", channel=1)}))
        net.step()
        assert net.process(0).heard == [(0, 1, "c")]
        assert net.stats.channel(0).collisions == 1
        assert net.stats.channel(1).deliveries == 1

    def test_capture_effect_resolves_each_channel_independently(self):
        g = star(5)
        trace = EventTrace()
        net = RadioNetwork(
            g,
            num_channels=2,
            capture_effect=True,
            capture_seed=3,
            trace=trace,
        )
        net.attach(ScriptedProcess(0, {}))
        net.attach(ScriptedProcess(1, {0: Transmission("a0", channel=0)}))
        net.attach(ScriptedProcess(2, {0: Transmission("b0", channel=0)}))
        net.attach(ScriptedProcess(3, {0: Transmission("a1", channel=1)}))
        net.attach(ScriptedProcess(4, {0: Transmission("b1", channel=1)}))
        net.step()
        heard = sorted(net.process(0).heard)
        assert len(heard) == 2
        assert heard[0][1] == 0 and heard[0][2] in {"a0", "b0"}
        assert heard[1][1] == 1 and heard[1][2] in {"a1", "b1"}
        collisions = [
            e for e in trace.events if isinstance(e, CollisionEvent)
        ]
        assert {(c.channel, tuple(sorted(c.senders))) for c in collisions} \
            == {(0, (1, 2)), (1, (3, 4))}

    def test_transmitter_on_one_channel_receives_on_the_other(self):
        g = path(2)
        net = RadioNetwork(g, num_channels=2)
        net.attach(ScriptedProcess(0, {0: Transmission("up", channel=0)}))
        net.attach(ScriptedProcess(1, {0: Transmission("down", channel=1)}))
        net.step()
        # Each station is busy on its own channel but listening on the
        # other (one transceiver per channel, §1.4).
        assert net.process(0).heard == [(0, 1, "down")]
        assert net.process(1).heard == [(0, 0, "up")]


class TestLifetime:
    def test_finished_network_is_freed_by_reference_counting(self):
        # No reference cycle may keep a finished run alive until the
        # cycle collector happens to run: callers that keep many results
        # (sweeps, benchmarks) would otherwise hold every network too.
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            network, processes, _ = build_collection_network(
                graph, tree, {3: ["x"]}, seed=1
            )
            network.run(200)
            network_ref = weakref.ref(network)
            lane_ref = weakref.ref(processes[2].lane)
            source = processes[3]
            del network, processes
            assert network_ref() is None
            assert lane_ref() is None
            source.submit("late")  # wake() once the network is gone: no-op
        finally:
            if enabled:
                gc.enable()


class EndRecorder(SilentProcess):
    """A listener that records every slot end it is called for."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.ended = []

    def on_slot_end(self, slot):
        self.ended.append(slot)


class TestSlotEndCalls:
    """The engine calls ``on_slot_end`` only where a process overrides
    it, decided from the bound method when the process is attached."""

    @pytest.mark.parametrize("idle", [True, False])
    def test_class_override_is_called_every_slot(self, idle):
        net = RadioNetwork(path(3))
        net.idle_scheduling = idle
        net.attach_all(EndRecorder)
        net.run(3)
        assert [net.process(v).ended for v in range(3)] == [[0, 1, 2]] * 3

    @pytest.mark.parametrize("idle", [True, False])
    def test_instance_override_is_called(self, idle):
        net = RadioNetwork(path(2))
        net.idle_scheduling = idle
        ended = []
        listener = SilentProcess(0)
        listener.on_slot_end = ended.append
        net.attach(listener)
        net.attach(SilentProcess(1))
        net.run(2)
        assert ended == [0, 1]

    def test_base_no_op_is_never_called(self, monkeypatch):
        calls = []
        # Patched before attach: the engine sees the base method and
        # skips it, so the recorder must stay empty.
        monkeypatch.setattr(
            Process, "on_slot_end", lambda self, slot: calls.append(slot)
        )
        for idle in (True, False):
            net = RadioNetwork(path(3))
            net.idle_scheduling = idle
            net.attach_all(SilentProcess)
            net.run(3)
        assert calls == []

    @pytest.mark.parametrize("idle", [True, False])
    def test_reattach_switches_the_calls(self, idle):
        net = RadioNetwork(path(2))
        net.idle_scheduling = idle
        net.attach_all(SilentProcess)
        net.run(1)
        recorder = EndRecorder(0)
        net.attach(recorder)  # a process whose class overrides it
        net.run(2)
        assert recorder.ended == [1, 2]
        net.attach(SilentProcess(0))  # and back: the calls stop
        net.run(2)
        assert recorder.ended == [1, 2]
        again = EndRecorder(0)
        net.attach(again)
        net.run(1)
        assert again.ended == [5]


class TestTransmissionValue:
    def test_equality_hash_and_repr_are_by_field(self):
        tx = Transmission("m", 1, (2, 3))
        assert tx == Transmission("m", 1, (2, 3))
        assert hash(tx) == hash(Transmission("m", 1, (2, 3)))
        assert tx != Transmission("m", 0, (2, 3))
        assert tx != Transmission("m", 1)
        assert tx != Transmission("n", 1, (2, 3))
        assert tx != ("m", 1, (2, 3))
        assert repr(tx) == "Transmission(payload='m', channel=1, to=(2, 3))"
        assert repr(Transmission("hi")) == (
            "Transmission(payload='hi', channel=0, to=None)"
        )

    def test_one_object_sent_at_many_slots_counts_each_time(self):
        # The sharing contract: a sender may return the same object at
        # every slot it transmits; each slot is its own transmission.
        tx = Transmission("again")
        net, procs = wire(path(3), {1: {s: tx for s in range(4)}})
        net.run(4)
        assert net.stats.transmissions == 4
        assert net.stats.deliveries == 8
        assert procs[0].heard == [(s, 0, "again") for s in range(4)]

    def test_transmissions_count_every_sender_of_every_channel(self):
        net, _ = wire(
            star(4),
            {
                1: {0: [Transmission("a", 0), Transmission("b", 1)]},
                2: {0: Transmission("c", 0)},
                3: {0: Transmission("d", 1)},
            },
        )
        net.step()
        assert net.stats.channel(0).transmissions == 2
        assert net.stats.channel(1).transmissions == 2
        assert net.stats.transmissions == 4


class TestAddressedDelivery:
    """A transmission's ``to`` names the only stations the engine calls.

    Without a trace, failure model or capture effect the engine counts
    every reception but calls ``on_receive`` only for addressees that
    hear exactly one sender and are not transmitting on that channel.
    """

    def test_addressee_hit_by_two_senders_is_not_called(self):
        # 1 - 0 - 2: both leaves address the centre in the same slot.
        net, procs = wire(
            star(3),
            {
                1: {0: Transmission("a", to=(0,))},
                2: {0: Transmission("b", to=(0,))},
            },
        )
        net.step()
        assert procs[0].heard == []
        assert net.stats.collisions == 1
        assert net.stats.deliveries == 0

    def test_transmitting_addressee_is_not_called(self):
        net, procs = wire(
            path(2),
            {
                0: {0: Transmission("x", to=(1,))},
                1: {0: Transmission("y", to=(0,))},
            },
        )
        net.step()
        assert procs[0].heard == procs[1].heard == []
        assert net.stats.deliveries == net.stats.collisions == 0

    def test_addressee_transmitting_on_another_channel_is_called(self):
        net, procs = wire(
            path(2),
            {
                0: {0: Transmission("up", channel=0, to=(1,))},
                1: {0: Transmission("down", channel=1, to=(0,))},
            },
        )
        net.step()
        assert procs[0].heard == [(0, 1, "down")]
        assert procs[1].heard == [(0, 0, "up")]

    @pytest.mark.parametrize("traced", [False, True])
    def test_non_neighbor_addressee_raises(self, traced):
        net, _ = wire(path(3), {0: {0: Transmission("m", to=(1, 2))}})
        if traced:
            net.trace = EventTrace()
        with pytest.raises(ProtocolError, match="not its neighbour"):
            net.step()

    @pytest.mark.parametrize("traced", [False, True])
    def test_address_of_another_senders_receiver_raises(self, traced):
        # 3 hears 2 alone, so an unchecked address from 0 would hand it
        # 0's message.
        graph = Graph.from_edges([(0, 1), (2, 3)])
        net, procs = wire(
            graph,
            {0: {0: Transmission("m", to=(3,))}, 2: {0: Transmission("n")}},
        )
        if traced:
            net.trace = EventTrace()
        with pytest.raises(ProtocolError, match="not its neighbour"):
            net.step()
        assert procs[3].heard == []

    def test_only_the_addressee_is_called(self):
        net, procs = wire(star(4), {0: {0: Transmission("m", to=(2,))}})
        net.step()
        assert [procs[v].heard for v in (1, 2, 3)] == [
            [], [(0, 0, "m")], []
        ]

    def test_deliveries_count_non_addressees(self):
        # Two hubs with overlapping reach, each addressing one station:
        # every counter equals the unaddressed run's and the traced
        # run's, which call every receiver.
        graph = Graph.from_edges(
            [(0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (5, 7)]
        )
        counters = []
        for to_0, to_1, traced in [
            ((2,), (5,), False),
            (None, None, False),
            ((2,), (5,), True),
        ]:
            net, procs = wire(
                graph,
                {
                    0: {0: Transmission("a", to=to_0)},
                    1: {0: Transmission("b", to=to_1)},
                    5: {1: Transmission("c", to=(7,))},
                },
            )
            if traced:
                net.trace = EventTrace()
            net.run(2)
            counters.append(net.stats.as_dict())
        assert counters[0] == counters[1] == counters[2]
        assert counters[0]["deliveries"] == 6  # 2, 3, 5, 6, then 1 and 7
        assert counters[0]["collisions"] == 1  # 4 hears both hubs


def _field_and_tree():
    graph = random_geometric(40, 0.3, random.Random(5))
    return graph, reference_bfs_tree(graph, 0)


def _collection(seed):
    graph, tree = _field_and_tree()
    result = run_collection(
        graph, tree, {v: [f"m{v}"] for v in (3, 17, 26, 39)}, seed
    )
    return result.slots, result.delivered


def _point_to_point(seed):
    graph, tree = _field_and_tree()
    tree.assign_dfs_intervals()
    pairs = [(3, 17, "a"), (17, 3, "b"), (39, 0, "c"), (0, 26, "d")]
    result = run_point_to_point(graph, tree, pairs, seed)
    return result.slots, result.delivered


def _ranking(seed):
    graph, tree = _field_and_tree()
    tree.assign_dfs_intervals()
    result = run_ranking(graph, tree, seed)
    return result.slots, result.collect_slots, result.ranks


def _broadcast(seed):
    graph, tree = _field_and_tree()
    result = run_broadcast(graph, tree, {3: ["a", "b"], 0: ["c"]}, seed)
    return result.slots, result.superphases, result.resends


def _setup(seed):
    graph, _ = _field_and_tree()
    result = run_setup(graph, 0, seed)
    return result.slots, result.attempts, result.tree.parent


def _service(seed):
    graph, tree = _field_and_tree()
    deepest = [v for v in tree.nodes if tree.level[v] == tree.depth]
    phase_length = SlotStructure(
        decay_budget(graph.max_degree()), 3, True
    ).phase_length
    arrivals = BernoulliArrivals(deepest, 0.1, phase_length, seed=seed)
    kpis = run_service(graph, tree, arrivals, seed, 60 * phase_length)
    return sorted(kpis.to_metrics().items())


class TestAddressedEquivalence:
    """The addressed path and the per-receiver loop agree on the stack.

    Each protocol runs once untraced (addressed) and once with an
    :class:`EventTrace` attached, which makes the engine call every
    receiver; slots, counters and results must match, and every call
    the addressed path skips must have returned False.
    """

    @staticmethod
    def _run(monkeypatch, traced, protocol, seed):
        networks = []
        addresses = {}  # (network, slot, channel) -> {sender: to}
        returns = {}  # (network, slot, channel, receiver) -> result
        init = RadioNetwork.__init__
        attach = RadioNetwork.attach
        resolve_each = RadioNetwork._resolve_each

        def traced_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if traced:
                self.trace = EventTrace()
            networks.append(self)

        def recording_attach(self, process):
            receive = process.on_receive

            def on_receive(slot, channel, payload):
                result = receive(slot, channel, payload)
                returns[(self, slot, channel, process.node_id)] = result
                return result

            process.on_receive = on_receive
            attach(self, process)

        def recording_resolve(self, slot, channel, senders, *rest):
            addresses[(self, slot, channel)] = {
                sender: tx.to for sender, tx in senders.items()
            }
            resolve_each(self, slot, channel, senders, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(RadioNetwork, "__init__", traced_init)
            patch.setattr(RadioNetwork, "attach", recording_attach)
            patch.setattr(RadioNetwork, "_resolve_each", recording_resolve)
            result = protocol(seed)
        skipped = []
        for net in networks if traced else ():
            for event in net.trace.deliveries:
                to = addresses[(net, event.slot, event.channel)][
                    event.sender
                ]
                if to is not None and event.receiver not in to:
                    skipped.append(
                        returns[
                            (net, event.slot, event.channel, event.receiver)
                        ]
                    )
        fingerprint = (
            result,
            [net.slot for net in networks],
            [net.stats.as_dict() for net in networks],
        )
        return fingerprint, skipped

    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize(
        "protocol",
        [_collection, _point_to_point, _ranking, _broadcast, _setup, _service],
        ids=lambda protocol: protocol.__name__.lstrip("_"),
    )
    def test_traced_run_matches_addressed_run(
        self, monkeypatch, protocol, seed
    ):
        addressed, none_skipped = self._run(
            monkeypatch, False, protocol, seed
        )
        traced, skipped = self._run(monkeypatch, True, protocol, seed)
        assert traced == addressed
        assert none_skipped == []
        assert skipped, "the run addressed nobody"
        assert set(skipped) == {False}
