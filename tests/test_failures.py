"""Failure-model unit tests: composition, boundaries, and the richer
models of ``repro.radio.faults`` (churn, fading, regional, jamming),
plus the engine's fault observability (DropEvent, dropped counters)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.graphs import Graph, path
from repro.radio import (
    AdversarialJammer,
    BernoulliLinkLoss,
    ComposedFailures,
    CrashSchedule,
    EventTrace,
    FailureModel,
    GilbertElliott,
    MarkovChurn,
    PermanentCrashes,
    RadioNetwork,
    RegionOutage,
    SilentProcess,
    Transmission,
    subtree_outage,
)
from tests.conftest import ScriptedProcess


class TestComposition:
    def test_empty_composition_is_failure_free(self):
        model = ComposedFailures([])
        assert not model.node_down(0, 0)
        assert not model.drop_delivery(0, 1, 0)

    def test_overlapping_models_union(self):
        """Two models covering overlapping slots for the same node: the
        composition is the union, with no double-counting artifacts."""
        model = ComposedFailures(
            [
                CrashSchedule({1: [(0, 20)]}),
                CrashSchedule({1: [(10, 30)], 2: [(5, 6)]}),
            ]
        )
        assert all(model.node_down(1, s) for s in range(0, 30))
        assert not model.node_down(1, 30)
        assert model.node_down(2, 5)
        assert not model.node_down(2, 6)

    def test_composition_mixes_down_and_drop(self):
        model = ComposedFailures(
            [
                PermanentCrashes({7}),
                BernoulliLinkLoss(1.0, random.Random(0)),
            ]
        )
        assert model.node_down(7, 123)
        assert not model.node_down(8, 123)
        assert model.drop_delivery(0, 1, 0)


class TestCrashScheduleBoundaries:
    def test_half_open_interval(self):
        model = CrashSchedule({3: [(5, 10)]})
        assert not model.node_down(3, 4)
        assert model.node_down(3, 5)  # start inclusive
        assert model.node_down(3, 9)
        assert not model.node_down(3, 10)  # end exclusive

    def test_adjacent_intervals_have_no_gap(self):
        model = CrashSchedule({3: [(0, 5), (5, 10)]})
        assert all(model.node_down(3, s) for s in range(0, 10))
        assert not model.node_down(3, 10)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            CrashSchedule({0: [(7, 7)]})


class TestMarkovChurn:
    def test_unlisted_nodes_never_fail(self):
        model = MarkovChurn([1], fail_rate=1.0, recover_rate=0.0, seed=0)
        assert not model.node_down(0, 100)
        assert not model.node_down(2, 100)

    def test_deterministic_per_seed(self):
        a = MarkovChurn([1, 2], 0.05, 0.1, seed=42)
        b = MarkovChurn([1, 2], 0.05, 0.1, seed=42)
        trace_a = [(n, s, a.node_down(n, s)) for s in range(300) for n in (1, 2)]
        trace_b = [(n, s, b.node_down(n, s)) for s in range(300) for n in (1, 2)]
        assert trace_a == trace_b

    def test_query_order_does_not_change_realization(self):
        """Per-node derived streams: interleaving queries across nodes
        differently must not change any node's chain."""
        a = MarkovChurn([1, 2], 0.05, 0.1, seed=7)
        b = MarkovChurn([1, 2], 0.05, 0.1, seed=7)
        trace_a = [a.node_down(1, s) for s in range(200)]
        for s in range(200):  # node 2 interleaved first on the other copy
            b.node_down(2, s)
        trace_b = [b.node_down(1, s) for s in range(200)]
        assert trace_a == trace_b

    def test_kills_and_revives(self):
        model = MarkovChurn([5], fail_rate=0.05, recover_rate=0.1, seed=3)
        states = [model.node_down(5, s) for s in range(2_000)]
        assert any(states) and not all(states)
        events = model.churn_events(5)
        assert any(down for _, _, down in events)
        assert any(not down for _, _, down in events)

    def test_start_down(self):
        model = MarkovChurn(
            [1], fail_rate=0.0, recover_rate=0.0, seed=0, start_down=[1]
        )
        assert model.node_down(1, 0)
        assert model.node_down(1, 500)  # recover_rate 0: never comes back

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MarkovChurn([1], fail_rate=1.5, recover_rate=0.1, seed=0)
        with pytest.raises(ConfigurationError):
            MarkovChurn([1], 0.1, 0.1, seed=0, start_down=[9])


class TestGilbertElliott:
    def test_losses_are_bursty(self):
        """With slow transitions, losses cluster into runs — the whole
        point over Bernoulli.  Expected run length 1/p_good = 20."""
        model = GilbertElliott(p_bad=0.01, p_good=0.05, seed=11)
        drops = [model.drop_delivery(0, 1, s) for s in range(20_000)]
        loss_rate = sum(drops) / len(drops)
        # Stationary loss = p_bad/(p_bad+p_good) = 1/6.
        assert 0.05 < loss_rate < 0.35
        runs = []
        current = 0
        for dropped in drops:
            if dropped:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs and max(runs) >= 5  # bursts, not isolated drops

    def test_links_are_independent(self):
        model = GilbertElliott(p_bad=0.05, p_good=0.05, seed=2)
        a = [model.link_bad(0, 1, s) for s in range(500)]
        b = [model.link_bad(1, 0, s) for s in range(500)]
        assert a != b  # directed links evolve independently

    def test_loss_good_floor(self):
        model = GilbertElliott(p_bad=0.0, p_good=1.0, loss_good=1.0, seed=0)
        assert model.drop_delivery(0, 1, 10)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliott(p_bad=2.0, p_good=0.1)


class TestRegionOutage:
    def test_window_semantics(self):
        model = RegionOutage([1, 2], start=10, end=20)
        assert not model.node_down(1, 9)
        assert model.node_down(1, 10) and model.node_down(2, 19)
        assert not model.node_down(2, 20)
        assert not model.node_down(3, 15)

    def test_permanent(self):
        model = RegionOutage([4], start=7)
        assert model.node_down(4, 1_000_000)

    def test_subtree_outage(self):
        from repro.graphs import reference_bfs_tree

        graph = path(5)
        tree = reference_bfs_tree(graph, 0)
        model = subtree_outage(tree, 2)
        assert model.region == {2, 3, 4}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegionOutage([1], start=5, end=5)


class TestAdversarialJammer:
    def test_duty_cycle(self):
        jam = AdversarialJammer(period=10, duty=3)
        pattern = [jam.jamming(s) for s in range(10)]
        assert pattern == [True] * 3 + [False] * 7
        assert jam.jamming(10) and not jam.jamming(13)

    def test_window_and_targets(self):
        jam = AdversarialJammer(
            period=4, duty=4, targets=[1], start=100, end=200
        )
        assert not jam.drop_delivery(0, 1, 99)
        assert jam.drop_delivery(0, 1, 100)
        assert not jam.drop_delivery(0, 2, 100)  # untargeted receiver
        assert not jam.drop_delivery(0, 1, 200)

    def test_offset_alignment(self):
        """The adversary can phase-align against the public schedule."""
        jam = AdversarialJammer(period=2, duty=1, offset=1)
        assert not jam.jamming(0) and jam.jamming(1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdversarialJammer(period=0, duty=0)
        with pytest.raises(ConfigurationError):
            AdversarialJammer(period=4, duty=5)


def _two_senders_one_listener():
    graph = Graph.from_edges([(0, 1), (0, 2)])
    net_processes = {
        1: ScriptedProcess(1, {0: Transmission("a", 0)}),
        2: ScriptedProcess(2, {0: Transmission("b", 0)}),
        0: SilentProcess(0),
    }
    return graph, net_processes


class TestEngineFaultObservability:
    def test_drop_event_and_counter(self):
        graph = path(2)
        trace = EventTrace()
        net = RadioNetwork(
            graph,
            trace=trace,
            failures=BernoulliLinkLoss(1.0, random.Random(0)),
        )
        net.attach(ScriptedProcess(0, {0: Transmission("x", 0)}))
        listener = SilentProcess(1)
        net.attach(listener)
        net.step()
        assert listener.heard == []
        assert net.stats.dropped == 1
        assert net.stats.deliveries == 0
        (drop,) = trace.drops
        assert (drop.slot, drop.receiver, drop.sender) == (0, 1, 0)
        assert drop.payload == "x"
        assert net.stats.as_dict()["dropped"] == 1

    def test_down_node_slots_counter(self):
        graph = path(3)
        net = RadioNetwork(graph, failures=CrashSchedule({1: [(0, 4)]}))
        net.attach_all(SilentProcess)
        for _ in range(10):
            net.step()
        assert net.stats.down_node_slots == 4
        assert net.stats.as_dict()["down_node_slots"] == 4

    def test_capture_effect_composes_with_link_loss(self):
        """§8 remark (3) + fading in one run: the captured message is
        still subject to link loss, observable as a drop."""
        graph, processes = _two_senders_one_listener()
        trace = EventTrace()
        net = RadioNetwork(
            graph,
            trace=trace,
            capture_effect=True,
            capture_seed=1,
            failures=BernoulliLinkLoss(1.0, random.Random(3)),
        )
        for process in processes.values():
            net.attach(process)
        net.step()
        assert processes[0].heard == []
        assert net.stats.collisions == 1
        assert net.stats.dropped == 1
        assert net.stats.deliveries == 0
        (drop,) = trace.drops
        assert drop.sender in (1, 2)

    def test_capture_effect_without_loss_still_delivers(self):
        graph, processes = _two_senders_one_listener()
        net = RadioNetwork(
            graph,
            capture_effect=True,
            capture_seed=1,
            failures=BernoulliLinkLoss(0.0, random.Random(3)),
        )
        for process in processes.values():
            net.attach(process)
        net.step()
        assert len(processes[0].heard) == 1
        assert net.stats.dropped == 0

    def test_crash_schedule_and_link_loss_in_one_collection_run(self):
        """CrashSchedule + BernoulliLinkLoss composed over a real protocol
        run: collection still completes once the relay recovers."""
        from repro.core.collection import build_collection_network
        from repro.graphs import reference_bfs_tree

        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        network, processes, _ = build_collection_network(
            graph, tree, {3: ["m1", "m2"]}, seed=5, strict=False
        )
        network.failures = ComposedFailures(
            [
                CrashSchedule({1: [(10, 200)]}),
                BernoulliLinkLoss(0.1, random.Random(9)),
            ]
        )
        network.run(
            200_000,
            until=lambda n: len({m.msg_id for m in processes[0].delivered})
            >= 2,
        )
        assert {m.payload for m in processes[0].delivered} >= {"m1", "m2"}
        assert network.stats.dropped > 0
        assert network.stats.down_node_slots == 190


class TestRunValidation:
    def test_check_every_zero_rejected_upfront(self):
        """check_every=0 used to raise ZeroDivisionError mid-run."""
        graph = path(2)
        net = RadioNetwork(graph)
        net.attach_all(SilentProcess)
        with pytest.raises(ConfigurationError):
            net.run(10, until=lambda n: False, check_every=0)
        assert net.slot == 0  # rejected before any slot executed

    def test_base_failure_model_is_inert(self):
        model = FailureModel()
        assert not model.node_down(0, 0)
        assert not model.drop_delivery(0, 1, 2)
