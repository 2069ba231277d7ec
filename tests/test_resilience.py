"""Tests for the hardened transport and self-healing collection stack:
retry backoff, the ack-timeout watchdog, parent re-attachment,
partition detection, and the resilience harness."""

import hashlib
import json
import random

from repro.analysis.resilience import SCENARIOS
from repro.baselines import aloha_session_factory
from repro.core import (
    DataMessage,
    TransportLane,
    run_collection,
    run_resilient_collection,
)
from repro.core import repair, transport
from repro.core.repair import build_resilient_collection_network
from repro.core.slots import SlotStructure
from repro.core.transport import BACKOFF_CAP
from repro.graphs import Graph, layered_band, path, reference_bfs_tree
from repro.radio.faults import MarkovChurn, RegionOutage


def diamond():
    """Node 3 has two routes to the root: via 1 (its BFS parent) or 2."""
    graph = Graph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    tree = reference_bfs_tree(graph, 0)
    return graph, tree


def attempted_phases(phases):
    """Phases in which a retrying lane attempts a head nobody acks."""
    slots = SlotStructure(decay_budget=2, level_classes=1)
    rng = random.Random(0)
    lane = TransportLane(
        node_id="me", level=0, slots=slots, rng=rng, channel=0, retry=True
    )
    lane.session_factory = aloha_session_factory(1.0, rng)
    lane.enqueue(
        DataMessage(
            msg_id=("me", 0), origin="me", hop_sender="me", hop_dest="up"
        )
    )
    attempted = sorted(
        {
            slots.phase_of(slot)
            for slot in range(phases * slots.phase_length)
            if lane.on_slot(slot) is not None
        }
    )
    assert lane.head_attempts == len(attempted)
    return attempted


class TestRetryPolicy:
    def test_backoff_doubles_up_to_cap(self):
        """After attempt k the lane waits 2^(k-1) - 1 phases, capped at
        BACKOFF_CAP = 1: it attempts at phases 0 and 1, then every
        other phase."""
        assert BACKOFF_CAP == 1
        assert attempted_phases(8) == [0, 1, 3, 5, 7]

    def test_zero_cap_means_no_backoff(self, monkeypatch):
        """The lane reads BACKOFF_CAP at run time."""
        monkeypatch.setattr(transport, "BACKOFF_CAP", 0)
        assert attempted_phases(5) == [0, 1, 2, 3, 4]


class TestFailureFreeParity:
    def test_full_delivery_no_repairs(self):
        graph, tree = diamond()
        result = run_resilient_collection(
            graph, tree, {4: ["a", "b"], 2: ["c"]}, seed=3
        )
        assert result.messages_delivered == result.expected == 3
        assert result.delivery_ratio == 1.0
        assert result.repairs == []
        assert not result.partition_detected
        assert not result.timed_out

    def test_matches_plain_collection_payloads(self):
        graph = layered_band(4, 3)
        tree = reference_bfs_tree(graph, 0)
        deepest = max(tree.nodes, key=lambda v: (tree.level[v], v))
        sources = {deepest: ["x", "y", "z"]}
        plain = run_collection(graph, tree, sources, seed=9)
        hard = run_resilient_collection(graph, tree, sources, seed=9)
        assert {m.payload for m in plain.delivered} == {
            m.payload for m in hard.delivered
        }

    def test_overheard_hop_is_dropped_unchanged(self):
        # Transmission.to relies on every lane owner returning False,
        # with no change of state, on a hop addressed to someone else.
        graph, tree = diamond()
        _, processes, _, _ = build_resilient_collection_network(
            graph, tree, {4: ["a"]}, seed=1
        )
        hop = DataMessage(
            msg_id=(4, 0), origin=4, hop_sender=4, hop_dest=3, payload="a"
        )
        station = processes[2]
        assert station.on_receive(5, 0, hop) is False
        assert station.lane.idle
        station.partitioned = True
        assert station.on_receive(5, 0, hop) is False

    def test_exactly_once_root_delivery(self):
        graph, tree = diamond()
        result = run_resilient_collection(
            graph, tree, {4: [f"p{i}" for i in range(5)]}, seed=1
        )
        msg_ids = [m.msg_id for m in result.delivered]
        assert len(msg_ids) == len(set(msg_ids)) == 5


class TestSelfHealing:
    def test_reattach_after_parent_crash(self):
        """Node 3's parent (1) dies forever; 3 must re-attach via 2."""
        graph, tree = diamond()
        assert tree.parent[3] == 1
        result = run_resilient_collection(
            graph,
            tree,
            {4: ["a", "b"], 3: ["c"]},
            seed=11,
            failures=RegionOutage([1], start=0, end=None),
            down_grace_slots=2_000,
        )
        assert result.delivery_ratio == 1.0
        assert not result.timed_out
        (repair,) = [r for r in result.repairs if r.node == 3]
        assert repair.old_parent == 1
        assert repair.new_parent == 2
        assert repair.new_level == 2  # level preserved: 2 is also at level 1

    def test_kill_and_revive_interior_node_full_delivery(self):
        """The ISSUE acceptance scenario: MarkovChurn kills and revives a
        non-root interior station mid-collection, yet every message from
        the root's surviving component is delivered."""
        graph, tree = diamond()
        churn = MarkovChurn([1], fail_rate=0.02, recover_rate=0.01, seed=2)
        result = run_resilient_collection(
            graph,
            tree,
            {4: [f"m{i}" for i in range(6)], 1: ["d"]},
            seed=11,
            failures=churn,
            down_grace_slots=2_000,
        )
        # The victim really did flap: at least one down and one up event.
        events = churn.churn_events(1)
        assert any(down for _, _, down in events)
        assert any(not down for _, _, down in events)
        assert result.messages_delivered == result.expected == 7
        assert result.delivery_ratio == 1.0
        assert len(result.repairs) >= 1
        assert not result.timed_out

    def test_repair_preserves_message_identity(self):
        graph, tree = diamond()
        result = run_resilient_collection(
            graph,
            tree,
            {4: [f"q{i}" for i in range(4)]},
            seed=11,
            failures=RegionOutage([1], start=0, end=None),
            down_grace_slots=2_000,
        )
        payloads = sorted(m.payload for m in result.delivered)
        assert payloads == ["q0", "q1", "q2", "q3"]
        msg_ids = [m.msg_id for m in result.delivered]
        assert len(msg_ids) == len(set(msg_ids))


class TestPartition:
    def test_structured_report_not_timeout(self):
        """A severed path must end with a partition report, not a hang."""
        graph = path(6)
        tree = reference_bfs_tree(graph, 0)
        result = run_resilient_collection(
            graph,
            tree,
            {5: ["far"], 1: ["near"]},
            seed=4,
            failures=RegionOutage([2], start=0, end=None),
            down_grace_slots=2_000,
        )
        assert not result.timed_out
        assert result.partition_detected
        assert set(result.unreachable) == {2, 3, 4, 5}
        assert set(result.declared_partitioned) <= {3, 4, 5}
        assert result.partition_precision == 1.0
        # The near side delivers; the far message is reported undelivered.
        assert {m.payload for m in result.delivered} == {"near"}
        assert result.reachable_delivery_ratio == 1.0
        assert len(result.undelivered) == 1

    def test_partition_scoring_on_intact_network(self):
        graph = path(4)
        tree = reference_bfs_tree(graph, 0)
        result = run_resilient_collection(graph, tree, {3: ["m"]}, seed=0)
        assert result.unreachable == ()
        assert result.declared_partitioned == ()
        assert result.partition_precision == 1.0  # vacuous: no declarations
        assert result.partition_recall == 1.0


class TestNeighborRegistry:
    def test_candidate_filtering(self):
        graph, tree = diamond()
        _, _, _, registry = build_resilient_collection_network(
            graph, tree, {4: ["a"]}, seed=0
        )
        # Node 3 (level 2) loses parent 1: the only alternative at
        # level ≤ 2 that isn't excluded is 2.
        assert registry.best_candidate(3, level=2, exclude={1, 3}, slot=0) == 2

    def test_no_candidate_when_all_excluded(self):
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        _, _, _, registry = build_resilient_collection_network(
            graph, tree, {2: ["a"]}, seed=0
        )
        assert (
            registry.best_candidate(2, level=2, exclude={1, 2}, slot=0) is None
        )

    def test_cycle_rejected(self):
        """A node must never adopt its own descendant as parent."""
        graph = path(3)
        tree = reference_bfs_tree(graph, 0)
        _, _, _, registry = build_resilient_collection_network(
            graph, tree, {2: ["a"]}, seed=0
        )
        assert registry._would_cycle(1, 2)  # 2's parent chain runs through 1
        assert not registry._would_cycle(2, 1)


class TestRepairPolicyKnobs:
    def test_higher_threshold_delays_repair(self, monkeypatch):
        """The watchdog reads SUSPECT_AFTER at run time."""
        graph, tree = diamond()

        def run(threshold):
            monkeypatch.setattr(repair, "SUSPECT_AFTER", threshold)
            return run_resilient_collection(
                graph,
                tree,
                {4: ["a"]},
                seed=11,
                failures=RegionOutage([1], start=0, end=None),
                down_grace_slots=4_000,
            )

        patient = run(6)
        eager = run(2)
        assert patient.delivery_ratio == eager.delivery_ratio == 1.0
        repair_p = [r for r in patient.repairs if r.node == 3][0]
        repair_e = [r for r in eager.repairs if r.node == 3][0]
        assert repair_e.slot < repair_p.slot


class TestResilienceHarness:
    def test_suite_smoke_and_table(self, capsys):
        from repro.__main__ import main
        from repro.analysis import scenario_metrics

        assert main(["resilience", "5"]) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] in SCENARIOS:
                rows[cells[0]] = cells
        assert list(rows) == list(SCENARIOS)
        for name, cells in rows.items():
            metrics = scenario_metrics(name, 5)
            assert cells[4] == f"{metrics['slowdown']:.2f}x", name
            assert cells[-1] == "no", name
            assert (
                metrics["slowdown"] >= 1.0 or metrics["delivery_ratio"] < 1.0
            ), name


#: sha256 of E16's metrics (JSON, sorted keys) per (seed, scenario).
GOLDEN_E16 = {
    (5, "churn"): "d32c6fda76422ac8b26229625d78635dabd571a3560b1a8d08468fa0b7c2b8b4",
    (5, "fading"): "61039a33841cf0a0e68505a3584c2119b09055ca2d6aceb8a7713153ee555fca",
    (5, "jammer"): "ccccb8468626a09c93d27148ff545161f6dce20d1ef2427d2740a2a067697682",
    (5, "blackout"): "b98ce41ee6291665e4829e9f12e92e12ec324807b12e3ff2b516247bd957d2a7",
    (5, "partition"): "49992ac66a5c3751212cbb96676a86178445f4d544139c9f3e4735f7f78c6d76",
    (7, "churn"): "d96fab958c301f316a9589793a96940a6b6f8301c384be83f24fe78e1069ae61",
    (7, "fading"): "6abb1f9686502e3a6d4939ec87b0b1d216fd8c6d5f3f26d8ac96620835195b52",
    (7, "jammer"): "ccccb8468626a09c93d27148ff545161f6dce20d1ef2427d2740a2a067697682",
    (7, "blackout"): "b98ce41ee6291665e4829e9f12e92e12ec324807b12e3ff2b516247bd957d2a7",
    (7, "partition"): "49992ac66a5c3751212cbb96676a86178445f4d544139c9f3e4735f7f78c6d76",
}


class TestE16Golden:
    def test_metrics_digests(self):
        """E16's task function is pinned bit for bit on every scenario."""
        from repro.analysis import scenario_metrics

        for (seed, scenario), digest in GOLDEN_E16.items():
            blob = json.dumps(scenario_metrics(scenario, seed), sort_keys=True)
            assert hashlib.sha256(blob.encode()).hexdigest() == digest, (
                seed,
                scenario,
            )
