"""The idle-aware scalar slot loop: quiet_until contract and wake heap.

The engine may skip a process's callbacks exactly while a
``quiet_until`` declaration is outstanding and nothing was delivered to
it that it kept; these tests pin that contract from both sides — silent
slots are skipped, receptions and external :meth:`Process.wake` pokes
re-wake immediately unless ``on_receive`` returns False, a driver may
jump over slots where nobody is due, failure models disable the fast
path, and protocol outcomes are bit-identical with the fast path on or
off.
"""

from types import MappingProxyType

import pytest

from repro.baselines import aloha_session_factory
from repro.core import (
    BitElectionProcess,
    SlotStructure,
    build_broadcast_network,
    build_collection_network,
    decay_budget,
    run_bit_election,
    run_dfs_preparation,
    run_point_to_point,
    run_ranking,
    run_setup,
)
from repro.core.transport import TransportLane
from repro.errors import ProtocolError
from repro.graphs import balanced_tree, layered_band, path, reference_bfs_tree
from repro.profiling import profiled
from repro.radio import (
    PermanentCrashes,
    Process,
    RadioNetwork,
    SilentProcess,
    Transmission,
)
from repro.radio.process import QUIET_FOREVER
from repro.rng import RngFactory
from repro.service import run_service
from repro.workloads import (
    BernoulliArrivals,
    PoissonArrivals,
    run_streaming_p2p,
)
from tests.conftest import ScriptedProcess


class CountingProcess(Process):
    """Polled-callback counter with a configurable quiet declaration."""

    def __init__(self, node_id, period=None):
        super().__init__(node_id)
        self.period = period  # poll only on multiples of `period`
        self.polled = []
        self.ended = []
        self.received = []

    def on_slot(self, slot):
        self.polled.append(slot)
        return None

    def on_slot_end(self, slot):
        self.ended.append(slot)

    def on_receive(self, slot, channel, payload):
        self.received.append((slot, payload))

    def quiet_until(self, slot):
        if self.period is None:
            return slot
        return slot + (-slot % self.period)


class TestQuietUntil:
    def test_default_is_polled_every_slot(self):
        net = RadioNetwork(path(2))
        procs = [CountingProcess(0), CountingProcess(1)]
        for proc in procs:
            net.attach(proc)
        net.run(20)
        assert procs[0].polled == list(range(20))
        assert procs[0].ended == list(range(20))

    def test_periodic_declaration_skips_silent_slots(self):
        net = RadioNetwork(path(2))
        periodic = CountingProcess(0, period=10)
        net.attach(periodic)
        net.attach(CountingProcess(1))
        net.run(100)
        assert periodic.polled == list(range(0, 100, 10))
        # on_slot_end is skipped on exactly the same slots.
        assert periodic.ended == periodic.polled

    def test_legacy_toggle_polls_everyone(self):
        net = RadioNetwork(path(2))
        periodic = CountingProcess(0, period=10)
        net.attach(periodic)
        net.attach(CountingProcess(1))
        net.idle_scheduling = False
        net.run(100)
        assert periodic.polled == list(range(100))

    def test_reception_wakes_a_sleeping_process(self):
        # Node 1 sleeps forever; node 0 transmits in slot 5.
        net = RadioNetwork(path(2))
        sleeper = CountingProcess(1, period=QUIET_FOREVER)
        net.attach(ScriptedProcess(0, {5: Transmission("ping")}))
        net.attach(sleeper)
        net.run(10)
        assert sleeper.received == [(5, "ping")]
        # The reception slot runs its end-of-slot bookkeeping...
        assert 5 in sleeper.ended
        # ...but the silent slots around it stayed skipped.
        assert sleeper.polled == [0]
        assert 4 not in sleeper.ended and 6 not in sleeper.ended

    def test_dropped_reception_leaves_a_sleeper_asleep(self):
        # on_receive returning False keeps the declaration: no
        # on_slot_end, no re-declaration, no poll before the wake.
        class Dropper(CountingProcess):
            def __init__(self, node_id, period):
                super().__init__(node_id, period)
                self.declared = []

            def on_receive(self, slot, channel, payload):
                super().on_receive(slot, channel, payload)
                return False

            def quiet_until(self, slot):
                self.declared.append(slot)
                return super().quiet_until(slot)

        net = RadioNetwork(path(2))
        sleeper = Dropper(1, period=10)
        net.attach(ScriptedProcess(0, {5: Transmission("ping")}))
        net.attach(sleeper)
        net.run(15)
        assert sleeper.received == [(5, "ping")]
        assert sleeper.polled == [0, 10]
        assert sleeper.ended == [0, 10]
        assert sleeper.declared == [1, 11]

    def test_skip_to_counts_like_stepping(self):
        def build():
            net = RadioNetwork(path(2))
            net.attach(CountingProcess(0, period=10))
            net.attach(CountingProcess(1, period=10))
            return net

        with profiled() as stepped_profile:
            stepped = build()
            stepped.run(25)
        with profiled() as skipped_profile:
            skipped = build()
            skipped.step()
            assert skipped.next_due_slot() == 10
            skipped.skip_to(10)
            skipped.step()
            skipped.skip_to(20)
            skipped.step()
            skipped.skip_to(25)
        assert skipped.slot == stepped.slot == 25
        assert skipped.stats == stepped.stats
        assert skipped_profile.counters == stepped_profile.counters
        for net in (stepped, skipped):
            assert [p.polled for p in net.processes.values()] == [
                [0, 10, 20], [0, 10, 20]
            ]

    def test_skip_to_past_a_due_station_raises(self):
        net = RadioNetwork(path(2))
        net.attach(CountingProcess(0, period=10))
        net.attach(CountingProcess(1))
        assert net.next_due_slot() == 0  # wake heap not armed yet
        net.step()
        assert net.next_due_slot() == 1  # node 1 is polled every slot
        with pytest.raises(ProtocolError):
            net.skip_to(2)
        assert net.slot == 1
        net.idle_scheduling = False  # everyone is due every slot
        assert net.next_due_slot() == 1
        with pytest.raises(ProtocolError):
            net.skip_to(2)

    def test_skip_to_nobody_due_and_forever(self):
        net = RadioNetwork(path(2))
        net.attach(CountingProcess(0, period=QUIET_FOREVER))
        net.attach(CountingProcess(1, period=QUIET_FOREVER))
        net.step()
        assert net.next_due_slot() == QUIET_FOREVER
        net.skip_to(1_000)
        assert net.slot == net.stats.slots == 1_000

    def test_external_wake_revokes_declaration(self):
        net = RadioNetwork(path(2))
        sleeper = CountingProcess(0, period=QUIET_FOREVER)
        net.attach(sleeper)
        net.attach(CountingProcess(1))
        net.run(5)
        assert sleeper.polled == [0]
        sleeper.period = None  # becomes chatty again...
        sleeper.wake()  # ...and revokes the outstanding declaration
        net.run(3)
        assert sleeper.polled == [0, 5, 6, 7]

    def test_failure_model_disables_fast_path(self):
        # Crash schedules are consulted per station per slot, so the
        # engine must fall back to polling everyone.
        net = RadioNetwork(
            path(3), failures=PermanentCrashes({2}, from_slot=4)
        )
        periodic = CountingProcess(0, period=10)
        net.attach(periodic)
        net.attach(CountingProcess(1))
        net.attach(CountingProcess(2))
        net.run(20)
        assert periodic.polled == list(range(20))
        assert net.stats.down_node_slots == 16

    def test_graph_swap_reawakens_everyone(self):
        net = RadioNetwork(path(2))
        sleeper = CountingProcess(0, period=QUIET_FOREVER)
        net.attach(sleeper)
        net.attach(CountingProcess(1))
        net.run(5)
        assert sleeper.polled == [0]
        net.graph = path(2)  # same shape, new topology object
        net.run(2)
        assert sleeper.polled == [0, 5]


class TestScheduleArithmetic:
    @pytest.mark.parametrize("level_classes", [1, 3])
    @pytest.mark.parametrize("with_acks", [True, False])
    def test_next_data_slot_matches_decode(self, level_classes, with_acks):
        slots = SlotStructure(
            decay_budget=4,
            level_classes=level_classes,
            with_acks=with_acks,
        )
        horizon = 3 * slots.phase_length
        for level in range(5):
            for slot in range(horizon):
                expected = next(
                    s
                    for s in range(slot, slot + horizon)
                    if slots.is_data_slot_for(s, level)
                )
                assert slots.next_data_slot_for(slot, level) == expected

    def test_lane_sleeps_forever_when_idle(self):
        slots = SlotStructure(decay_budget=2)
        lane = TransportLane(
            node_id=1,
            level=1,
            slots=slots,
            rng=RngFactory(3).for_node(1),
            channel=0,
        )
        assert lane.next_active_slot(0) == QUIET_FOREVER

    def test_lane_wakes_on_every_own_data_slot_while_loaded(self):
        # A loaded lane with a live (here: not yet opened) session draws
        # one Decay coin per own data slot, so it must be polled on each
        # of them — and on nothing else.
        from repro.core.messages import DataMessage

        slots = SlotStructure(decay_budget=2, level_classes=3)
        lane = TransportLane(
            node_id=1,
            level=2,
            slots=slots,
            rng=RngFactory(3).for_node(1),
            channel=0,
        )
        lane.enqueue(
            DataMessage(
                msg_id=(1, 0),
                origin=1,
                hop_sender=1,
                hop_dest=0,
                dest_address=None,
                payload="x",
            )
        )
        for slot in range(2 * slots.phase_length):
            wake = lane.next_active_slot(slot)
            assert slots.is_data_slot_for(wake, 2)
            assert all(
                not slots.is_data_slot_for(s, 2) for s in range(slot, wake)
            )

    def test_election_station_is_polled_at_every_round_start(self):
        # on_slot closes the previous round lazily; a reception before
        # that close would be credited to the wrong bit, so a station
        # that sleeps through a round must still wake at the next one's
        # first slot, even while its view of the last round is stale.
        station = BitElectionProcess(
            node_id=0b001,  # a signal source only in the last round
            id_bits=3,
            budget=2,
            window_invocations=2,
            relay_invocations=1,
            rng=RngFactory(3).for_node(1),
        )
        window = station.window_slots
        assert station.quiet_until(0) == window  # silent all of round 0
        assert station.quiet_until(window) == window  # round 1 not closed
        assert station.quiet_until(3 * window) == QUIET_FOREVER  # horizon


def _prepared_band():
    graph = layered_band(4, 3)
    tree = reference_bfs_tree(graph, 0)
    tree.assign_dfs_intervals()
    return graph, tree


def _bit_election(seed):
    return run_bit_election(layered_band(4, 3), seed)


def _bfs_setup(seed):
    result = run_setup(layered_band(4, 3), 0, seed)
    return (
        result.slots,
        result.attempts,
        result.tree.parent,
        result.tree.level,
    )


def _dfs_preparation(seed):
    graph = layered_band(4, 3)
    return run_dfs_preparation(graph, reference_bfs_tree(graph, 0))


def _point_to_point(seed):
    graph, tree = _prepared_band()
    pairs = [(11, 9, "a"), (3, 10, "b"), (10, 0, "c"), (0, 7, "d")]
    result = run_point_to_point(graph, tree, pairs, seed)
    return result.slots, result.delivered


def _broadcast(seed):
    graph, tree = _prepared_band()
    network, processes = build_broadcast_network(graph, tree, seed)
    root = processes[0]
    processes[11].submit("a")
    root.submit("b")
    network.run(300)
    processes[7].submit("c")  # mid-run: submit() must revoke the sleep
    network.run(
        400_000,
        until=lambda net: all(p.has_prefix(3) for p in processes.values()),
        check_every=8,
    )
    return (
        network.slot,
        root.resends_served,
        [p.delivered_in_order() for p in processes.values()],
    )


def _broadcast_with_checkpoints(seed):
    # 37 messages pass the first checkpoint, n² = 36, of a 6-station
    # band: acks climb three levels past contending siblings.
    graph = layered_band(3, 2)
    tree = reference_bfs_tree(graph, 0)
    network, processes = build_broadcast_network(graph, tree, seed)
    root = processes[0]
    processes[5].submit("a")
    for i in range(35):
        root.submit(f"b{i}")
    network.run(30)
    processes[3].submit("c")  # mid-run: submit() must revoke the sleep
    network.run(
        400_000,
        until=lambda net: all(p.has_prefix(37) for p in processes.values())
        and len(root.checkpoint_acks.get(1, ())) == len(processes) - 1,
        check_every=8,
    )
    return (
        network.slot,
        root.resends_served,
        root.checkpoint_acks,
        [p.delivered_in_order() for p in processes.values()],
    )


def _ranking(seed):
    graph, tree = _prepared_band()
    result = run_ranking(graph, tree, seed)
    return result.slots, result.collect_slots, result.ranks


def _aloha_collection(seed):
    # An ALOHA session never dies on its own, so a loaded lane must
    # still wake on every own data slot until its head is acked.
    graph, tree = _prepared_band()
    network, processes, _ = build_collection_network(
        graph, tree, {11: ["a", "b"], 6: ["c"]}, seed
    )
    for process in processes.values():
        process.lane.session_factory = aloha_session_factory(
            1.0 / graph.max_degree(), process.lane._rng
        )
    root = processes[0]
    network.run(200_000, until=lambda net: len(root.delivered) == 3)
    return network.slot, [m.msg_id for m in root.delivered]


def _service(seed):
    # run_service's Drive jumps over silent slots on the fast path.
    graph, tree = _prepared_band()
    deepest = [n for n in tree.nodes if tree.level[n] == tree.depth]
    phase_length = SlotStructure(
        decay_budget(graph.max_degree()), 3, True
    ).phase_length
    arrivals = BernoulliArrivals(deepest, 0.2, phase_length, seed=seed)
    kpis = run_service(graph, tree, arrivals, seed, 120 * phase_length)
    return sorted(kpis.to_metrics().items())


def _streaming_p2p(seed):
    graph, tree = _prepared_band()
    arrivals = PoissonArrivals(range(12), 400.0, seed=seed)
    result = run_streaming_p2p(
        graph, tree, arrivals, lambda source, payload: (source + 5) % 12,
        seed, 2_000,
    )
    return result.slots, result.records


class TestProtocolEquivalence:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_collection_identical_with_and_without_fast_path(self, seed):
        graph = layered_band(4, 3)
        tree = reference_bfs_tree(graph, 0)
        deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
        sources = {deepest: ["a", "b"], 5: ["c"]}
        fingerprints = []
        for idle in (True, False):
            network, processes, _ = build_collection_network(
                graph, tree, sources, seed=seed
            )
            network.idle_scheduling = idle
            network.run(2_000)
            stats = network.stats.channel(0)
            fingerprints.append(
                (
                    [m.msg_id for m in processes[tree.root].delivered],
                    [p.lane.backlog for p in processes.values()],
                    stats.transmissions,
                    stats.deliveries,
                    stats.collisions,
                )
            )
        assert fingerprints[0] == fingerprints[1]
        assert fingerprints[0][3] > 0  # the run did real work

    def test_reactive_submission_wakes_the_source(self):
        # run_collection drains, then a mid-run submit must restart the
        # pipeline even though every station had declared QUIET_FOREVER.
        graph = balanced_tree(2, 3)
        tree = reference_bfs_tree(graph, 0)
        network, processes, _ = build_collection_network(
            graph, tree, {14: ["first"]}, seed=9
        )
        root = processes[tree.root]
        network.run(5_000, until=lambda net: len(root.delivered) == 1)
        quiet_start = network.slot
        network.run(200)  # drained: everyone asleep
        processes[13].submit("second")
        network.run(
            5_000, until=lambda net: len(root.delivered) == 2
        )
        assert [m.payload for m in root.delivered] == ["first", "second"]
        assert network.slot > quiet_start

    # Every paper protocol declares exact silences: each run is repeated
    # with the fast path off, and slots, per-channel stats and results
    # must be identical while the idle run skips at least as many
    # station-slots as it polls.
    @staticmethod
    def _run(monkeypatch, idle, protocol, seed):
        networks = []
        original = RadioNetwork.__init__

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self.idle_scheduling = idle
            networks.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(RadioNetwork, "__init__", init)
            with profiled() as profile:
                result = protocol(seed)
        fingerprint = (
            result,
            [net.slot for net in networks],
            [net.stats.per_channel for net in networks],
        )
        return fingerprint, profile.counters

    @pytest.mark.parametrize("seed", [2, 5])
    @pytest.mark.parametrize(
        "protocol",
        [
            _bit_election,
            _bfs_setup,
            _dfs_preparation,
            _point_to_point,
            _broadcast,
            _broadcast_with_checkpoints,
            _ranking,
            _aloha_collection,
            _service,
            _streaming_p2p,
        ],
        ids=lambda protocol: protocol.__name__.lstrip("_"),
    )
    def test_paper_protocol_identical_with_and_without_fast_path(
        self, monkeypatch, protocol, seed
    ):
        idle, idle_counters = self._run(monkeypatch, True, protocol, seed)
        legacy, legacy_counters = self._run(
            monkeypatch, False, protocol, seed
        )
        assert idle == legacy
        assert legacy_counters.get("skipped", 0) == 0
        assert idle_counters["skipped"] >= idle_counters["polled"]


class TestProcessesView:
    def test_processes_is_a_readonly_live_view(self):
        net = RadioNetwork(path(3))
        net.attach(SilentProcess(0))
        view = net.processes
        assert isinstance(view, MappingProxyType)
        with pytest.raises(TypeError):
            view[1] = SilentProcess(1)
        # Live: later attachments appear without re-fetching...
        net.attach(SilentProcess(1))
        net.attach(SilentProcess(2))
        assert set(view) == {0, 1, 2}
        # ...because the proxy wraps the engine's own dict, not a copy.
        assert view == net._processes

    def test_run_until_done_uses_is_done(self):
        class DoneAfter(Process):
            def is_done(self):
                return True

        net = RadioNetwork(path(2))
        net.attach_all(DoneAfter)
        assert net.run_until_done(10) == 0
